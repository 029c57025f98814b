// Unit tests of the benchmark ports' internals: data-generator
// invariants and kernel-math properties, independent of any device run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"

namespace {

// ----------------------------------------------------------- XSBench

TEST(XsbenchUnit, EnergyGridsStrictlyAscending) {
  apps::xsbench::Options o;
  o.n_nuclides = 8;
  o.n_gridpoints = 256;
  const auto d = apps::xsbench::make_data(o);
  for (int n = 0; n < o.n_nuclides; ++n)
    for (int g = 1; g < o.n_gridpoints; ++g)
      ASSERT_LT(d.energy[n * o.n_gridpoints + g - 1],
                d.energy[n * o.n_gridpoints + g])
          << "nuclide " << n << " gridpoint " << g;
}

TEST(XsbenchUnit, MaterialsReferenceValidNuclides) {
  apps::xsbench::Options o;
  const auto d = apps::xsbench::make_data(o);
  ASSERT_EQ(static_cast<int>(d.num_nucs.size()), o.n_mats);
  // Material 0 is the "fuel": the densest composition.
  EXPECT_EQ(d.num_nucs[0], o.max_nucs_per_mat);
  for (int m = 0; m < o.n_mats; ++m) {
    ASSERT_GE(d.num_nucs[m], 2);
    ASSERT_LE(d.num_nucs[m], o.max_nucs_per_mat);
    for (int i = 0; i < d.num_nucs[m]; ++i) {
      const int nuc = d.mats[m * o.max_nucs_per_mat + i];
      ASSERT_GE(nuc, 0);
      ASSERT_LT(nuc, o.n_nuclides);
      ASSERT_GT(d.concs[m * o.max_nucs_per_mat + i], 0.0);
    }
  }
}

TEST(XsbenchUnit, LookupIsDeterministicInSeed) {
  apps::xsbench::Options o;
  o.lookups = 1;
  const auto d = apps::xsbench::make_data(o);
  for (std::uint64_t seed : {0ull, 1ull, 12345ull}) {
    const int a = apps::xsbench::lookup_one(
        seed, d.energy.data(), d.xs.data(), d.num_nucs.data(), d.mats.data(),
        d.concs.data(), o.n_gridpoints, o.max_nucs_per_mat, o.n_mats);
    const int b = apps::xsbench::lookup_one(
        seed, d.energy.data(), d.xs.data(), d.num_nucs.data(), d.mats.data(),
        d.concs.data(), o.n_gridpoints, o.max_nucs_per_mat, o.n_mats);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 5);  // one of the 5 cross-section channels
  }
}

TEST(XsbenchUnit, ReferenceHashStableAndSeedSensitive) {
  apps::xsbench::Options o;
  o.lookups = 500;
  const auto d = apps::xsbench::make_data(o);
  const auto h1 = apps::xsbench::reference_hash(d);
  const auto h2 = apps::xsbench::reference_hash(d);
  EXPECT_EQ(h1, h2);
  apps::xsbench::Options o2 = o;
  o2.lookups = 501;  // one extra lookup must change the hash
  const auto d2 = apps::xsbench::make_data(o2);
  EXPECT_NE(apps::xsbench::reference_hash(d2), h1);
}

// ----------------------------------------------------------- RSBench

TEST(RsbenchUnit, WindowsPartitionPoles) {
  apps::rsbench::Options o;
  const auto d = apps::rsbench::make_data(o);
  for (int n = 0; n < o.n_nuclides; ++n) {
    int covered = 0;
    for (int w = 0; w < o.n_windows; ++w) {
      const auto& win = d.windows[n * o.n_windows + w];
      ASSERT_EQ(win.start, covered);
      ASSERT_GT(win.end, win.start);
      covered = win.end;
    }
    ASSERT_EQ(covered, o.n_poles);
  }
}

TEST(RsbenchUnit, PoleDataWellFormed) {
  apps::rsbench::Options o;
  const auto d = apps::rsbench::make_data(o);
  for (const auto& p : d.poles) {
    ASSERT_GE(p.l_value, 0);
    ASSERT_LT(p.l_value, 4);
    ASSERT_GT(p.mp_ea.imag(), 0.0);  // poles live off the real axis
  }
}

TEST(RsbenchUnit, LookupScratchIndependent) {
  // The caller-provided scratch must not leak state between lookups.
  apps::rsbench::Options o;
  const auto d = apps::rsbench::make_data(o);
  std::complex<double> scratch_a[4], scratch_b[4];
  std::fill(scratch_b, scratch_b + 4, std::complex<double>(99.0, -99.0));
  const int a = apps::rsbench::lookup_one(
      42, d.poles.data(), d.windows.data(), d.pseudo_k0rs.data(),
      d.num_nucs.data(), d.mats.data(), d.concs.data(), o, scratch_a);
  const int b = apps::rsbench::lookup_one(
      42, d.poles.data(), d.windows.data(), d.pseudo_k0rs.data(),
      d.num_nucs.data(), d.mats.data(), d.concs.data(), o, scratch_b);
  EXPECT_EQ(a, b);  // pre-existing garbage in scratch is irrelevant
}

// --------------------------------------------------------------- SU3

TEST(Su3Unit, MultiplyByIdentityIsIdentityMap) {
  apps::su3::Matrix a{};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      a.e[i][j] = {0.25f * (i + 1), -0.5f * (j - 1)};
  apps::su3::Matrix id{};
  for (int i = 0; i < 3; ++i) id.e[i][i] = {1.0f, 0.0f};
  const auto c = apps::su3::mult_su3_nn(a, id);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(c.e[i][j].real(), a.e[i][j].real());
      EXPECT_FLOAT_EQ(c.e[i][j].imag(), a.e[i][j].imag());
    }
}

TEST(Su3Unit, MultiplyMatchesManualExpansion) {
  apps::su3::Matrix a{}, b{};
  int k = 1;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      a.e[i][j] = {static_cast<float>(k), static_cast<float>(-k)};
      b.e[i][j] = {static_cast<float>(k % 3), static_cast<float>(k % 2)};
      k++;
    }
  const auto c = apps::su3::mult_su3_nn(a, b);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      std::complex<float> s{0, 0};
      for (int l = 0; l < 3; ++l) s += a.e[i][l] * b.e[l][j];
      EXPECT_EQ(c.e[i][j], s);
    }
}

TEST(Su3Unit, ChecksumSensitiveToSingleElement) {
  apps::su3::Options o;
  o.lattice_sites = 64;
  const auto d = apps::su3::make_data(o);
  std::vector<apps::su3::Matrix> c(d.a.size());
  for (std::size_t s = 0; s < c.size(); ++s)
    c[s] = apps::su3::mult_su3_nn(d.a[s], d.b[s % 4]);
  const auto h1 = apps::su3::checksum_of(c);
  c[10].e[1][2] += std::complex<float>(0.5f, 0.0f);
  EXPECT_NE(apps::su3::checksum_of(c), h1);
}

// -------------------------------------------------------------- AIDW

TEST(AidwUnit, AdaptiveAlphaClampedAndMonotone) {
  const float spacing = 1.5f;
  float prev = 0.0f;
  for (float d2 : {0.0f, 0.1f, 0.5f, 1.0f, 2.0f, 5.0f, 25.0f, 1000.0f}) {
    const float a = apps::aidw::adaptive_alpha(d2, spacing);
    EXPECT_GE(a, 1.0f);
    EXPECT_LE(a, 3.0f);
    EXPECT_GE(a, prev);  // denser -> smaller exponent, monotone in d2
    prev = a;
  }
  EXPECT_FLOAT_EQ(apps::aidw::adaptive_alpha(0.0f, spacing), 1.0f);
  EXPECT_FLOAT_EQ(apps::aidw::adaptive_alpha(1e6f, spacing), 3.0f);
}

TEST(AidwUnit, InterpolationNearDataPointApproachesItsValue) {
  apps::aidw::Options o;
  o.n_data = 256;
  o.n_query = 1;
  auto d = apps::aidw::make_data(o);
  // Plant the query on top of data point 7.
  d.qx[0] = d.dx[7];
  d.qy[0] = d.dy[7];
  const float v = apps::aidw::interpolate_one_host(d, 0);
  EXPECT_NEAR(v, d.dz[7], 1e-3);
}

TEST(AidwUnit, ConstantFieldInterpolatesExactly) {
  apps::aidw::Options o;
  o.n_data = 128;
  o.n_query = 16;
  auto d = apps::aidw::make_data(o);
  std::fill(d.dz.begin(), d.dz.end(), 2.5f);
  for (int q = 0; q < o.n_query; ++q)
    EXPECT_NEAR(apps::aidw::interpolate_one_host(d, q), 2.5f, 1e-4);
}

// -------------------------------------------------------------- Adam

TEST(AdamUnit, FirstStepMovesAgainstGradient) {
  apps::adam::Options o;
  o.n = 4;
  float g[4] = {1.0f, -1.0f, 0.5f, 0.0f};
  float p[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  float m[4] = {}, v[4] = {};
  for (int i = 0; i < 4; ++i) apps::adam::adam_update(i, 1, o, g, p, m, v);
  EXPECT_LT(p[0], 0.0f);  // positive gradient -> parameter decreases
  EXPECT_GT(p[1], 0.0f);
  EXPECT_LT(p[2], 0.0f);
  EXPECT_FLOAT_EQ(p[3], 0.0f);  // zero gradient -> no movement
}

TEST(AdamUnit, BiasCorrectionMakesFirstStepsFullSize) {
  // With bias correction the very first update magnitude is ~lr.
  apps::adam::Options o;
  o.n = 1;
  float g[1] = {0.3f};
  float p[1] = {0.0f}, m[1] = {}, v[1] = {};
  apps::adam::adam_update(0, 1, o, g, p, m, v);
  EXPECT_NEAR(std::fabs(p[0]), o.lr, o.lr * 0.1);
}

TEST(AdamUnit, ReferenceChecksumDependsOnSteps) {
  apps::adam::Options o;
  o.n = 512;
  o.steps = 5;
  const auto d = apps::adam::make_data(o);
  const auto h5 = apps::adam::reference_checksum(d);
  apps::adam::Options o2 = o;
  o2.steps = 6;
  apps::adam::SimulationData d2 = d;
  d2.opt = o2;
  EXPECT_NE(apps::adam::reference_checksum(d2), h5);
}

// --------------------------------------------------------- Stencil-1D

TEST(StencilUnit, ConstantInputGivesWindowSum) {
  apps::stencil1d::Options o;
  o.n = 1024;
  apps::stencil1d::SimulationData d;
  d.opt = o;
  d.input.assign(o.n + 2 * apps::stencil1d::kRadius, 3);
  // Every output element must be (2R+1)*3.
  const auto checksum = apps::stencil1d::reference_checksum(d);
  std::vector<int> expect(o.n, (2 * apps::stencil1d::kRadius + 1) * 3);
  EXPECT_EQ(checksum, apps::stencil1d::checksum_of(expect));
}

TEST(StencilUnit, ChecksumPositionSensitive) {
  // The weighted checksum must distinguish permutations (a plain sum
  // would not), since workshare bugs typically permute outputs.
  std::vector<int> a{1, 2, 3, 4};
  std::vector<int> b{4, 3, 2, 1};
  EXPECT_NE(apps::stencil1d::checksum_of(a), apps::stencil1d::checksum_of(b));
}

TEST(ReferenceMemo, DistinctOptionsGetDistinctReferences) {
  // Keyed on the full Options value: two Stencil-1D sizes must not
  // share a memo entry, and a repeat returns the first computation.
  apps::stencil1d::Options small, large;
  small.n = 512;
  large.n = 1024;
  auto ref = [](const apps::stencil1d::Options& o) {
    return apps::stencil1d::reference_checksum(apps::stencil1d::make_data(o));
  };
  int computed = 0;
  auto memo = [&](const apps::stencil1d::Options& o) {
    return apps::memo_reference(o, [&] {
      computed++;
      return ref(o);
    });
  };
  const std::uint64_t a = memo(small);
  const std::uint64_t b = memo(large);
  EXPECT_EQ(a, ref(small));
  EXPECT_EQ(b, ref(large));
  EXPECT_NE(a, b);
  EXPECT_EQ(memo(small), a);
  EXPECT_EQ(computed, 2);
}

}  // namespace

// Correctness of every (benchmark, version, device) cell at reduced
// problem sizes: every version must reproduce the benchmark's reference
// checksum — except the omp XSBench port, which reproduces the paper's
// "invalid checksum" defect and must be flagged invalid.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/harness.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"

namespace {

using apps::Version;

const Version kAllVersions[] = {Version::kOmpx, Version::kOmp,
                                Version::kNative, Version::kNativeVendor};

simt::Device* devices[] = {&simt::sim_a100(), &simt::sim_mi250()};

class AppsOnDevice : public ::testing::TestWithParam<int> {
 protected:
  simt::Device& dev() { return *devices[GetParam()]; }
};

TEST_P(AppsOnDevice, XSBenchVersionsVerifyExceptOmp) {
  apps::xsbench::Options o;
  o.lookups = 5000;
  o.n_gridpoints = 256;
  for (Version v : kAllVersions) {
    const auto r = apps::xsbench::run(v, dev(), o);
    if (v == Version::kOmp) {
      EXPECT_FALSE(r.valid) << "omp XSBench must reproduce the paper's "
                               "invalid-checksum defect";
    } else {
      EXPECT_TRUE(r.valid) << apps::version_name(v);
    }
    EXPECT_GT(r.kernel_ms, 0.0) << apps::version_name(v);
  }
}

TEST_P(AppsOnDevice, RSBenchAllVersionsVerify) {
  apps::rsbench::Options o;
  o.lookups = 2000;
  o.n_poles = 128;
  o.n_windows = 16;
  for (Version v : kAllVersions) {
    const auto r = apps::rsbench::run(v, dev(), o);
    EXPECT_TRUE(r.valid) << apps::version_name(v);
    EXPECT_GT(r.kernel_ms, 0.0);
  }
}

TEST_P(AppsOnDevice, Su3AllVersionsVerify) {
  apps::su3::Options o;
  o.lattice_sites = 2048;
  o.iterations = 2;
  for (Version v : kAllVersions) {
    const auto r = apps::su3::run(v, dev(), o);
    EXPECT_TRUE(r.valid) << apps::version_name(v);
  }
}

TEST_P(AppsOnDevice, AidwAllVersionsVerify) {
  apps::aidw::Options o;
  o.n_data = 512;
  o.n_query = 512;
  o.tile = 128;
  for (Version v : kAllVersions) {
    const auto r = apps::aidw::run(v, dev(), o);
    EXPECT_TRUE(r.valid) << apps::version_name(v);
  }
}

TEST_P(AppsOnDevice, AdamAllVersionsVerify) {
  apps::adam::Options o;
  o.n = 2000;
  o.steps = 10;
  for (Version v : kAllVersions) {
    const auto r = apps::adam::run(v, dev(), o);
    EXPECT_TRUE(r.valid) << apps::version_name(v);
  }
}

TEST_P(AppsOnDevice, StencilAllVersionsVerify) {
  apps::stencil1d::Options o;
  o.n = 1 << 14;
  o.iterations = 2;
  for (Version v : kAllVersions) {
    const auto r = apps::stencil1d::run(v, dev(), o);
    EXPECT_TRUE(r.valid) << apps::version_name(v);
  }
}

INSTANTIATE_TEST_SUITE_P(BothDevices, AppsOnDevice, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "sim_a100" : "sim_mi250";
                         });

TEST(AppsRegistry, HasSixBenchmarksInPaperOrder) {
  const auto& reg = apps::registry();
  ASSERT_EQ(reg.size(), 6u);
  EXPECT_EQ(reg[0].name, "XSBench");
  EXPECT_EQ(reg[1].name, "RSBench");
  EXPECT_EQ(reg[2].name, "SU3");
  EXPECT_EQ(reg[3].name, "AIDW");
  EXPECT_EQ(reg[4].name, "Adam");
  EXPECT_EQ(reg[5].name, "Stencil 1D");
  for (const auto& a : reg) {
    EXPECT_FALSE(a.description.empty());
    EXPECT_FALSE(a.paper_cli.empty());
    EXPECT_TRUE(a.run != nullptr);
  }
}

TEST(AppsHarness, BarLabelsMatchThePaper) {
  EXPECT_EQ(apps::bar_label(Version::kNative, simt::sim_a100()), "cuda");
  EXPECT_EQ(apps::bar_label(Version::kNative, simt::sim_mi250()), "hip");
  EXPECT_EQ(apps::bar_label(Version::kNativeVendor, simt::sim_a100()),
            "cuda-nvcc");
  EXPECT_EQ(apps::bar_label(Version::kNativeVendor, simt::sim_mi250()),
            "hip-hipcc");
  EXPECT_EQ(apps::bar_label(Version::kOmpx, simt::sim_a100()), "ompx");
}

TEST(AppsHarness, RunCellFillsBookkeeping) {
  apps::AppDesc desc = apps::registry()[4];  // Adam, cheap enough
  const auto r = apps::run_cell(desc, Version::kOmpx, simt::sim_a100());
  EXPECT_EQ(r.app, "Adam");
  EXPECT_EQ(r.version, "ompx");
  EXPECT_EQ(r.device, "sim-a100");
  EXPECT_GT(r.wall_ms, 0.0);
  EXPECT_TRUE(r.valid);
}

TEST(AppsHarness, NativeCellOnANonRegistryDeviceFailsLoudly) {
  // The CUDA/HIP versions reach their device through kl, by registry
  // index. On a device outside the registry a cell must fail, not run
  // on a registry device and report this one's empty log as a valid
  // 0-ms cell.
  simt::DeviceConfig cfg = simt::make_sim_a100_config();
  cfg.name = "unregistered";
  simt::Device fresh(cfg);
  for (const apps::AppDesc& app : apps::registry()) {
    try {
      const apps::RunResult r = apps::run_cell(app, Version::kNative, fresh);
      ADD_FAILURE() << app.name << " ran: kernel_ms " << r.kernel_ms
                    << ", valid " << r.valid;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'unregistered'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(fresh.launch_log().empty()) << app.name;
  }
}

// Golden for the Stencil-1D omp cell (§4.2.6, the generic-mode
// state-machine path) at the Fig. 8 size, captured when generic teams
// still ran the worker state machine on fibers: every modeled
// LaunchStats field of the cell's folded launch log and its kernel_ms,
// doubles as %a. The host-engine diagnostics (fiber, steal and lane-loop
// counts) describe how the simulator ran, not the modeled GPU, and are
// left out.
std::string stencil_omp_golden(simt::Device& dev) {
  const apps::RunResult r = apps::stencil1d::run(Version::kOmp, dev, {});
  simt::LaunchStats s;
  for (const simt::LaunchRecord& rec : dev.launch_log()) s += rec.stats;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "records=%zu blocks=%llu threads=%llu block_barriers=%llu "
      "warp_collectives=%llu warp_syncs=%llu atomics=%llu runtime_init=%d "
      "generic_mode=%d parallel_handshakes=%llu workshare_dispatches=%llu "
      "globalized_bytes=%llu spill_in_shared=%d kernel_ms=%a valid=%d",
      dev.launch_log().size(), static_cast<unsigned long long>(s.blocks),
      static_cast<unsigned long long>(s.threads),
      static_cast<unsigned long long>(s.block_barriers),
      static_cast<unsigned long long>(s.warp_collectives),
      static_cast<unsigned long long>(s.warp_syncs),
      static_cast<unsigned long long>(s.atomics), s.runtime_init,
      s.generic_mode, static_cast<unsigned long long>(s.parallel_handshakes),
      static_cast<unsigned long long>(s.workshare_dispatches),
      static_cast<unsigned long long>(s.globalized_bytes), s.spill_in_shared,
      r.kernel_ms, r.valid);
  return buf;
}

TEST(StencilOmpGolden, A100) {
  EXPECT_EQ(stencil_omp_golden(simt::sim_a100()),
            "records=8 blocks=32768 threads=8388608 block_barriers=196608 "
            "warp_collectives=0 warp_syncs=0 atomics=0 runtime_init=1 "
            "generic_mode=1 parallel_handshakes=65536 workshare_dispatches=0 "
            "globalized_bytes=283115520 spill_in_shared=0 "
            "kernel_ms=0x1.d3c3c83852cd9p+2 valid=1");
}

TEST(StencilOmpGolden, Mi250) {
  EXPECT_EQ(stencil_omp_golden(simt::sim_mi250()),
            "records=8 blocks=32768 threads=8388608 block_barriers=196608 "
            "warp_collectives=0 warp_syncs=0 atomics=0 runtime_init=1 "
            "generic_mode=1 parallel_handshakes=65536 workshare_dispatches=0 "
            "globalized_bytes=283115520 spill_in_shared=0 "
            "kernel_ms=0x1.56ea567ace7c1p+2 valid=1");
}

}  // namespace

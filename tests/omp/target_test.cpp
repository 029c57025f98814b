// Target-construct layer: SPMD loops, reductions, generic-mode state
// machine, globalization accounting, nowait/depend, and the documented
// LLVM quirks the paper's evaluation hinges on.
#include "omp/omp.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace {

using namespace omp;

simt::Device& dev() { return simt::sim_a100(); }

TEST(Target, SpmdLoopCoversEveryIterationOnce) {
  constexpr std::int64_t n = 100000;
  std::vector<int> a(n, 1), b(n, 0);
  TargetClauses c;
  c.name = "spmd_loop";
  c.maps = {map_to(a.data(), n * sizeof(int)),
            map_from(b.data(), n * sizeof(int))};
  target_teams_distribute_parallel_for(c, n, [&](DeviceEnv& env) {
    const int* da = env.translate(a.data());
    int* db = env.translate(b.data());
    return [=](std::int64_t i) { db[i] = da[i] + static_cast<int>(i); };
  });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(b[i], 1 + i);
}

TEST(Target, SpmdRespectsExplicitShape) {
  TargetClauses c;
  c.num_teams = 7;
  c.thread_limit = 64;
  c.name = "shaped";
  std::vector<int> dummy(1, 0);
  c.maps = {map_tofrom(dummy.data(), sizeof(int))};
  dev().clear_launch_log();
  target_teams_distribute_parallel_for(c, 7 * 64, [&](DeviceEnv&) {
    return [](std::int64_t) {};
  });
  const auto rec = dev().last_launch();
  EXPECT_EQ(rec.grid.x, 7u);
  EXPECT_EQ(rec.block.x, 64u);
  EXPECT_TRUE(rec.stats.runtime_init);
  EXPECT_FALSE(rec.stats.generic_mode);
}

TEST(Target, DefaultShapeCoversLoop) {
  TargetClauses c;
  c.name = "default_shape";
  dev().clear_launch_log();
  target_teams_distribute_parallel_for(c, 1000, [&](DeviceEnv&) {
    return [](std::int64_t) {};
  });
  const auto rec = dev().last_launch();
  EXPECT_EQ(rec.block.x, static_cast<unsigned>(kDefaultThreadLimit));
  EXPECT_EQ(rec.grid.x, static_cast<unsigned>((1000 + 127) / 128));
}

TEST(Target, ReductionSumsExactly) {
  constexpr std::int64_t n = 12345;
  std::vector<double> v(n);
  for (std::int64_t i = 0; i < n; ++i) v[i] = static_cast<double>(i % 7);
  TargetClauses c;
  c.name = "reduce";
  c.maps = {map_to(v.data(), n * sizeof(double))};
  const double sum =
      target_teams_distribute_parallel_for_reduce(c, n, [&](DeviceEnv& env) {
        const double* dv = env.translate(v.data());
        return [=](std::int64_t i) { return dv[i]; };
      });
  const double expect = std::accumulate(v.begin(), v.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, expect);
}

TEST(Target, ReductionOddTeamSize) {
  TargetClauses c;
  c.thread_limit = 96;  // not a power of two
  c.num_teams = 3;
  c.name = "reduce_odd";
  const double sum = target_teams_distribute_parallel_for_reduce(
      c, 1000, [&](DeviceEnv&) { return [](std::int64_t) { return 1.0; }; });
  EXPECT_DOUBLE_EQ(sum, 1000.0);
}

TEST(Target, GenericModeParallelRegions) {
  // A team body with sequential phases and two parallel regions — the
  // state-machine path.
  constexpr int teams = 4, threads = 64;
  std::vector<int> phase1(teams * threads, 0);
  std::vector<int> phase2(teams * threads, 0);
  std::vector<int> seq(teams, 0);
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "generic";
  auto* p1 = phase1.data();
  auto* p2 = phase2.data();
  auto* sq = seq.data();
  dev().clear_launch_log();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      const int t = team.team();
      sq[t] += 1;  // sequential part, runs once per team
      team.parallel(0, [=](int tid) { p1[t * threads + tid] = tid; });
      sq[t] += 1;
      team.parallel(0, [=](int tid) { p2[t * threads + tid] = 2 * tid; });
    };
  });
  for (int t = 0; t < teams; ++t) {
    EXPECT_EQ(seq[t], 2);
    for (int i = 0; i < threads; ++i) {
      ASSERT_EQ(phase1[t * threads + i], i);
      ASSERT_EQ(phase2[t * threads + i], 2 * i);
    }
  }
  const auto rec = dev().last_launch();
  EXPECT_TRUE(rec.stats.generic_mode);
  EXPECT_EQ(rec.stats.parallel_handshakes, 2u * teams);
  // Init and final release, plus a release and a join per region.
  EXPECT_EQ(rec.stats.block_barriers, 6u * teams);
  // The state machine is priced, not executed: no thread needs a fiber.
  EXPECT_EQ(rec.stats.fibers_created + rec.stats.fiber_reuses, 0u);
}

TEST(Target, GenericParallelForDistributesIterations) {
  constexpr int teams = 2, threads = 32;
  std::vector<int> hits(1000, 0);
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "generic_pf";
  auto* h = hits.data();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      // Teams split the range like `distribute`.
      const std::int64_t chunk = (1000 + team.teams() - 1) / team.teams();
      const std::int64_t lb = team.team() * chunk;
      const std::int64_t ub = std::min<std::int64_t>(lb + chunk, 1000);
      team.parallel_for(lb, ub, [=](std::int64_t i) { h[i] += 1; });
    };
  });
  for (int v : hits) ASSERT_EQ(v, 1);
}

TEST(Target, GlobalizationChargedToStats) {
  TargetClauses c;
  c.num_teams = 8;
  c.thread_limit = 32;
  c.name = "globalized";
  dev().clear_launch_log();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [](TeamCtx& team) {
      auto* buf = static_cast<int*>(team.globalized(256));
      team.parallel(0, [=](int tid) { buf[tid % 64] = tid; });
    };
  });
  const auto rec = dev().last_launch();
  EXPECT_EQ(rec.stats.globalized_bytes,
            8u * 256u * kGlobalizationTrafficFactor);
}

TEST(Target, GroupprivateUsesSharedNotGlobal) {
  TargetClauses c;
  c.num_teams = 2;
  c.thread_limit = 32;
  c.name = "groupprivate";
  dev().clear_launch_log();
  std::vector<int> out(2, 0);
  auto* po = out.data();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      auto* buf = static_cast<int*>(team.groupprivate(64 * sizeof(int)));
      const int t = team.team();
      team.parallel(0, [=](int tid) { buf[tid] = tid + 1; });
      int sum = 0;
      for (int i = 0; i < 32; ++i) sum += buf[i];
      po[t] = sum;
    };
  });
  EXPECT_EQ(out[0], 32 * 33 / 2);
  EXPECT_EQ(out[1], 32 * 33 / 2);
  EXPECT_EQ(dev().last_launch().stats.globalized_bytes, 0u);
}

TEST(Target, ThreadLimitBug32Reproduced) {
  // The Adam §4.2.5 quirk: teams sized for 256 threads, runtime launches
  // 32 per team.
  TargetClauses c;
  c.num_teams = 10;
  c.thread_limit = 256;
  c.thread_limit_bug_32 = true;
  c.name = "bug32";
  std::vector<int> hits(2560, 0);
  auto* h = hits.data();
  dev().clear_launch_log();
  target_teams_distribute_parallel_for(c, 2560, [&](DeviceEnv&) {
    return [=](std::int64_t i) { h[i] += 1; };
  });
  const auto rec = dev().last_launch();
  EXPECT_EQ(rec.grid.x, 10u);
  EXPECT_EQ(rec.block.x, 32u);  // the bug
  // Correctness is preserved — every iteration still runs once.
  for (int v : hits) ASSERT_EQ(v, 1);
}

TEST(Target, TargetDataKeepsDataResidentAcrossRegions) {
  constexpr std::int64_t n = 1024;
  std::vector<int> a(n, 0);
  simt::Device& d = dev();
  {
    TargetData data(d, {map_tofrom(a.data(), n * sizeof(int))});
    for (int pass = 0; pass < 3; ++pass) {
      TargetClauses c;
      c.name = "resident";
      c.maps = {map_tofrom(a.data(), n * sizeof(int))};  // present: no-op
      target_teams_distribute_parallel_for(c, n, [&](DeviceEnv& env) {
        int* da = env.translate(a.data());
        return [=](std::int64_t i) { da[i] += 1; };
      });
      // Host copy untouched while resident.
      EXPECT_EQ(a[0], 0);
    }
    EXPECT_EQ(mapping_for(d).ref_count(a.data()), 1u);
  }
  for (auto v : a) ASSERT_EQ(v, 3);
}

TEST(Target, NowaitRegionsChainAndTaskwaitJoins) {
  constexpr std::int64_t n = 4096;
  std::vector<int> a(n, 1), b(n, 0);
  TargetClauses c;
  c.nowait = true;
  c.name = "nowait";
  c.maps = {map_to(a.data(), n * sizeof(int)),
            map_from(b.data(), n * sizeof(int))};
  c.depends = {dep_out(b.data())};
  target_teams_distribute_parallel_for(c, n, [&](DeviceEnv& env) {
    const int* da = env.translate(a.data());
    int* db = env.translate(b.data());
    return [=](std::int64_t i) { db[i] = 3 * da[i]; };
  });
  // Chained dependent nowait region doubling b in place on device.
  TargetClauses c2 = c;
  c2.maps = {map_tofrom(b.data(), n * sizeof(int))};
  c2.depends = {dep_inout(b.data())};
  target_teams_distribute_parallel_for(c2, n, [&](DeviceEnv& env) {
    int* db = env.translate(b.data());
    return [=](std::int64_t i) { db[i] *= 2; };
  });
  taskwait();
  for (auto v : b) ASSERT_EQ(v, 6);
}

/// A nowait SPMD region over `n` ints: out[i] = f(in[i]) (in may be null).
template <typename F>
void nowait_region(std::vector<int>* in, std::vector<int>& out,
                   std::vector<Depend> deps, F f) {
  const std::int64_t n = static_cast<std::int64_t>(out.size());
  TargetClauses c;
  c.nowait = true;
  c.name = "nowait_region";
  c.depends = std::move(deps);
  c.maps = {map_from(out.data(), n * sizeof(int))};
  if (in != nullptr) c.maps.push_back(map_to(in->data(), n * sizeof(int)));
  target_teams_distribute_parallel_for(c, n, [&, in, f](DeviceEnv& env) {
    const int* din = in != nullptr ? env.translate(in->data()) : nullptr;
    int* dout = env.translate(out.data());
    return [=](std::int64_t i) {
      dout[i] = f(din != nullptr ? din[i] : 0);
    };
  });
}

TEST(Target, NowaitDiamond) {
  constexpr std::size_t n = 1024;
  std::vector<int> src(n), left(n), right(n), sum(n);
  nowait_region(nullptr, src, {dep_out(src.data())}, [](int) { return 1; });
  nowait_region(&src, left, {dep_in(src.data()), dep_out(left.data())},
                [](int v) { return v + 10; });
  nowait_region(&src, right, {dep_in(src.data()), dep_out(right.data())},
                [](int v) { return v + 20; });
  // The join reads both branches.
  TargetClauses c;
  c.nowait = true;
  c.name = "diamond_join";
  c.depends = {dep_in(left.data()), dep_in(right.data())};
  c.maps = {map_to(left.data(), n * sizeof(int)),
            map_to(right.data(), n * sizeof(int)),
            map_from(sum.data(), n * sizeof(int))};
  target_teams_distribute_parallel_for(c, n, [&](DeviceEnv& env) {
    const int* dl = env.translate(left.data());
    const int* dr = env.translate(right.data());
    int* ds = env.translate(sum.data());
    return [=](std::int64_t i) { ds[i] = dl[i] + dr[i]; };
  });
  taskwait();
  for (int v : sum) ASSERT_EQ(v, 32);
}

TEST(Target, NowaitDependOnCompletedRegionDoesNotBlock) {
  std::vector<int> x(64), seen(64);
  nowait_region(nullptr, x, {dep_out(x.data())}, [](int) { return 5; });
  taskwait();
  nowait_region(&x, seen, {dep_in(x.data())}, [](int v) { return v; });
  taskwait();
  for (int v : seen) ASSERT_EQ(v, 5);
}

TEST(Target, NowaitReductionReturnsItsValue) {
  // nowait regions run undeferred, so a reduction's value is ready on
  // return; its depend list still orders it after the nowait writer.
  std::vector<int> x(256);
  nowait_region(nullptr, x, {dep_out(x.data())}, [](int) { return 3; });
  TargetClauses c;
  c.nowait = true;
  c.name = "nowait_reduce";
  c.depends = {dep_in(x.data())};
  c.maps = {map_to(x.data(), x.size() * sizeof(int))};
  const double sum = target_teams_distribute_parallel_for_reduce(
      c, static_cast<std::int64_t>(x.size()), [&](DeviceEnv& env) {
        const int* dx = env.translate(x.data());
        return [=](std::int64_t i) { return static_cast<double>(dx[i]); };
      });
  EXPECT_DOUBLE_EQ(sum, 3.0 * 256);
}

TEST(Target, UnmappedPointerDiagnosed) {
  std::vector<int> a(16, 0);
  TargetClauses c;
  c.name = "unmapped";
  EXPECT_THROW(
      target_teams_distribute_parallel_for(c, 16, [&](DeviceEnv& env) {
        int* da = env.translate(a.data());  // never mapped
        return [=](std::int64_t i) { da[i] = 1; };
      }),
      std::runtime_error);
}

TEST(Target, TargetApisAllocCopyFree) {
  simt::Device& d = dev();
  auto* p = static_cast<int*>(target_alloc(64 * sizeof(int), d));
  std::vector<int> h(64);
  std::iota(h.begin(), h.end(), 0);
  target_memcpy(p, h.data(), 64 * sizeof(int), true, false, d);
  std::vector<int> back(64, 0);
  target_memcpy(back.data(), p, 64 * sizeof(int), false, true, d);
  EXPECT_EQ(h, back);
  target_free(p, d);
}

TEST(Target, OffloadDisabledRunsOnHost) {
  // OMP_TARGET_OFFLOAD=DISABLED semantics: the same source runs with no
  // device at all — no kernels launched, host pointers used directly.
  omp::set_offload_disabled(true);
  constexpr std::int64_t n = 1000;
  std::vector<int> a(n, 2), b(n, 0);
  dev().clear_launch_log();
  TargetClauses c;
  c.name = "host_fallback";
  c.maps = {map_to(a.data(), n * sizeof(int)),
            map_from(b.data(), n * sizeof(int))};
  target_teams_distribute_parallel_for(c, n, [&](DeviceEnv& env) {
    EXPECT_TRUE(env.host_mode());
    const int* pa = env.translate(a.data());
    int* pb = env.translate(b.data());
    EXPECT_EQ(pa, a.data());  // identity translation
    return [=](std::int64_t i) { pb[i] = 5 * pa[i]; };
  });
  const double reduced = target_teams_distribute_parallel_for_reduce(
      c, n, [&](DeviceEnv& env) {
        const int* pb = env.translate(b.data());
        return [=](std::int64_t i) { return static_cast<double>(pb[i]); };
      });
  omp::set_offload_disabled(false);
  for (int v : b) ASSERT_EQ(v, 10);
  EXPECT_DOUBLE_EQ(reduced, 10.0 * n);
  EXPECT_TRUE(dev().launch_log().empty());  // nothing ran on the device
}

TEST(Target, SpmdGlobalizedLocalCharges) {
  TargetClauses c;
  c.num_teams = 4;
  c.thread_limit = 32;
  c.name = "spmd_globalized";
  dev().clear_launch_log();
  target_teams_distribute_parallel_for(c, 128, [&](DeviceEnv&) {
    return [](std::int64_t) {
      auto buf = spmd_globalized_local(64);
      buf[0] = 1;
    };
  });
  EXPECT_EQ(dev().last_launch().stats.globalized_bytes,
            128u * 64u * kGlobalizationTrafficFactor);
}

}  // namespace

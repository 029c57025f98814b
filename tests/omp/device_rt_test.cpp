// Device-runtime emulation details: dynamic schedules, critical
// sections, and generic-mode regions run as lanes of the team's main
// thread.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "omp/omp.h"

namespace {

using namespace omp;

simt::Device& dev() { return simt::sim_a100(); }

TEST(DeviceRt, DynamicScheduleCoversRangeOnce) {
  constexpr int teams = 3, threads = 32;
  constexpr std::int64_t n = 1000;
  std::vector<int> hits(n, 0);
  auto* h = hits.data();
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "dynamic";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      // distribute across teams, dynamic within the team
      const std::int64_t chunk_per_team = (n + team.teams() - 1) / team.teams();
      const std::int64_t lb = team.team() * chunk_per_team;
      const std::int64_t ub = std::min<std::int64_t>(lb + chunk_per_team, n);
      team.parallel_for_dynamic(lb, ub, 7, [=](std::int64_t i) { h[i] += 1; });
    };
  });
  for (int v : hits) ASSERT_EQ(v, 1);
}

TEST(DeviceRt, DynamicScheduleCountsDispatches) {
  constexpr std::int64_t n = 96;
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 16;
  c.name = "dynamic_dispatch";
  dev().clear_launch_log();
  std::vector<int> sink(n, 0);
  auto* s = sink.data();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      team.parallel_for_dynamic(0, n, 8, [=](std::int64_t i) { s[i] = 1; });
    };
  });
  // 96 iterations in chunks of 8 = 12 grabs.
  EXPECT_EQ(dev().last_launch().stats.workshare_dispatches, 12u);
}

TEST(DeviceRt, DynamicScheduleRejectsBadChunk) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 4;
  EXPECT_THROW(target_teams_generic(c, [&](DeviceEnv&) {
                 return [](TeamCtx& team) {
                   team.parallel_for_dynamic(0, 10, 0, [](std::int64_t) {});
                 };
               }),
               std::invalid_argument);
}

TEST(DeviceRt, CriticalSerializesReadModifyWrite) {
  constexpr int teams = 8, threads = 64;
  long long counter = 0;  // deliberately non-atomic
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "critical";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      team.parallel(0, [&](int) {
        critical([&] { counter += 1; });
      });
    };
  });
  EXPECT_EQ(counter, static_cast<long long>(teams) * threads);
}

TEST(DeviceRt, NamedCriticalsAreIndependentLocks) {
  int a = 0, b = 0;
  TargetClauses c;
  c.num_teams = 2;
  c.thread_limit = 32;
  c.name = "named_critical";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      team.parallel(0, [&](int tid) {
        if (tid % 2 == 0)
          critical([&] { a += 1; }, "lock_a");
        else
          critical([&] { b += 1; }, "lock_b");
      });
    };
  });
  EXPECT_EQ(a, 2 * 16);
  EXPECT_EQ(b, 2 * 16);
}

TEST(DeviceRt, CriticalUsableFromSpmdBodies) {
  long long total = 0;
  TargetClauses c;
  c.num_teams = 4;
  c.thread_limit = 32;
  c.name = "critical_spmd";
  target_teams_distribute_parallel_for(c, 4 * 32, [&](DeviceEnv&) {
    return [&](std::int64_t) {
      critical([&] { total += 2; });
    };
  });
  EXPECT_EQ(total, 2LL * 4 * 32);
}

TEST(DeviceRt, GenericModeParallelForReduce) {
  constexpr int teams = 4, threads = 32;
  constexpr std::int64_t n = 1000;
  std::vector<double> team_sums(teams, 0.0);
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "generic_reduce";
  auto* ts = team_sums.data();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      const std::int64_t chunk = (n + team.teams() - 1) / team.teams();
      const std::int64_t lb = team.team() * chunk;
      const std::int64_t ub = std::min<std::int64_t>(lb + chunk, n);
      ts[team.team()] = team.parallel_for_reduce(
          lb, ub, [](std::int64_t i) { return static_cast<double>(i); });
    };
  });
  const double total =
      std::accumulate(team_sums.begin(), team_sums.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2);
}

TEST(DeviceRt, ReduceOverEmptyRangeIsZero) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 8;
  c.name = "empty_reduce";
  double got = -1.0;
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      got = team.parallel_for_reduce(5, 5, [](std::int64_t) { return 1.0; });
    };
  });
  EXPECT_DOUBLE_EQ(got, 0.0);
}

TEST(DeviceRt, DeviceQueriesInsideGenericRegions) {
  constexpr int teams = 3, threads = 24;
  std::vector<int> team_nums(teams, -1);
  std::vector<int> sizes(teams, -1);
  TargetClauses c;
  c.num_teams = teams;
  c.thread_limit = threads;
  c.name = "queries";
  auto* tn = team_nums.data();
  auto* sz = sizes.data();
  target_teams_generic(c, [&](DeviceEnv&) {
    return [=](TeamCtx& team) {
      tn[team.team()] = team.team();
      sz[team.team()] = team.team_size();
    };
  });
  for (int t = 0; t < teams; ++t) {
    EXPECT_EQ(team_nums[t], t);
    EXPECT_EQ(sizes[t], threads);
  }
}

TEST(DeviceRt, MasterAndSingleSemantics) {
  constexpr int threads = 64;
  int master_hits = 0;
  int single_hits = 0;
  TargetClauses c;
  c.num_teams = 2;
  c.thread_limit = threads;
  c.name = "master_single";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      auto* ticket = static_cast<int*>(team.groupprivate(sizeof(int)));
      *ticket = 0;
      team.parallel(0, [&](int) {
        if (master()) critical([&] { master_hits++; });
        if (single_nowait(ticket)) critical([&] { single_hits++; });
      });
    };
  });
  EXPECT_EQ(master_hits, 2);  // one master per team
  EXPECT_EQ(single_hits, 2);  // exactly one thread per team won the ticket
}

TEST(DeviceRt, NestedParallelsReuseWorkers) {
  // Sequential code between two parallel regions observes the updates
  // of the first — the state machine must round-trip cleanly.
  constexpr int threads = 48;
  int stage_one_sum = 0;
  int stage_two_sum = 0;
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = threads;
  c.name = "nested";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      std::vector<int> scratch(threads, 0);
      auto* s = scratch.data();
      team.parallel(0, [=](int tid) { s[tid] = tid; });
      stage_one_sum = std::accumulate(scratch.begin(), scratch.end(), 0);
      team.parallel(0, [=](int tid) { s[tid] = 2 * tid; });
      stage_two_sum = std::accumulate(scratch.begin(), scratch.end(), 0);
    };
  });
  EXPECT_EQ(stage_one_sum, threads * (threads - 1) / 2);
  EXPECT_EQ(stage_two_sum, threads * (threads - 1));
}

TEST(DeviceRt, ParallelNumThreadsClamps) {
  constexpr int threads = 64;
  int active = 0;
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = threads;
  c.name = "num_threads";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      team.parallel(16, [&](int) {
        critical([&] { active += 1; });
      });
    };
  });
  EXPECT_EQ(active, 16);  // num_threads(16) limits the region
}

TEST(DeviceRt, RegionExceptionPropagatesAndRestoresMainThread) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 32;
  c.name = "region_throws";
  int main_tid_after = -1;
  EXPECT_THROW(target_teams_generic(c, [&](DeviceEnv&) {
                 return [&](TeamCtx& team) {
                   try {
                     team.parallel(0, [](int tid) {
                       if (tid == 5) throw std::runtime_error("lane 5");
                     });
                   } catch (...) {
                     main_tid_after = thread_num();
                     throw;
                   }
                 };
               }),
               std::runtime_error);
  EXPECT_EQ(main_tid_after, 0);
}

TEST(DeviceRt, BarrierInsideRegionIsAnError) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 32;
  c.name = "region_barrier";
  EXPECT_THROW(target_teams_generic(c, [&](DeviceEnv&) {
                 return [](TeamCtx& team) {
                   team.parallel(0, [](int) {
                     auto& t = simt::this_thread();
                     t.block->sync_threads(t);
                   });
                 };
               }),
               std::logic_error);
}

TEST(DeviceRt, WarpCollectiveInsideRegionIsAnError) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 32;
  c.name = "region_warp";
  EXPECT_THROW(target_teams_generic(c, [&](DeviceEnv&) {
                 return [](TeamCtx& team) {
                   team.parallel(0, [](int) {
                     auto& t = simt::this_thread();
                     (void)t.warp->collective(t, simt::WarpOp::kSync, 0, 0,
                                              ~simt::LaneMask{0});
                   });
                 };
               }),
               std::logic_error);
}

/// Racecheck on generic regions; restores the sanitizer as it found it.
class DeviceRtRace : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = simt::San::instance().checks();
    simt::San::instance().disable();
    simt::San::instance().enable(simt::kSanRace);
    simt::San::instance().reset();
  }
  void TearDown() override {
    simt::San::instance().disable();
    simt::San::instance().reset();
    if (saved_ != 0) simt::San::instance().enable(saved_);
  }
  std::uint32_t saved_ = 0;
};

TEST_F(DeviceRtRace, SameRegionWriteWriteIsReported) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 32;
  c.name = "region_waw";
  target_teams_generic(c, [&](DeviceEnv&) {
    return [](TeamCtx& team) {
      auto* cell = static_cast<int*>(team.groupprivate(sizeof(int)));
      team.parallel(0, [=](int tid) {
        simt::san_shared_access(cell, sizeof(int), /*is_write=*/true);
        *cell = tid;
      });
    };
  });
  EXPECT_GE(simt::San::instance().count(simt::SanKind::kSharedRace), 1u);
}

TEST_F(DeviceRtRace, MainReadAfterJoinIsNotReported) {
  TargetClauses c;
  c.num_teams = 1;
  c.thread_limit = 32;
  c.name = "region_join";
  int seen = -1;
  target_teams_generic(c, [&](DeviceEnv&) {
    return [&](TeamCtx& team) {
      auto* cell = static_cast<int*>(team.groupprivate(sizeof(int)));
      team.parallel(0, [=](int tid) {
        if (tid != 7) return;
        simt::san_shared_access(cell, sizeof(int), /*is_write=*/true);
        *cell = tid;
      });
      simt::san_shared_access(cell, sizeof(int), /*is_write=*/false);
      seen = *cell;
    };
  });
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(simt::San::instance().error_count(), 0u);
}

}  // namespace

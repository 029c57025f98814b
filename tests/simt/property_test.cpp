// Property tests: invariants of the engine swept over launch shapes,
// warp sizes and execution modes (TEST_P product sweeps).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <tuple>
#include <vector>

#include "simt/atomics.h"
#include "simt/simt.h"

namespace {

using namespace simt;

// ---------------------------------------------------------------------
// Sweep 1: every thread runs exactly once, for grid x block x mode
// combinations, on both warp sizes.
// ---------------------------------------------------------------------

using ShapeParam = std::tuple<std::uint32_t /*warp*/, Dim3 /*grid*/,
                              Dim3 /*block*/, ExecMode>;

class LaunchShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(LaunchShapeSweep, EveryThreadExactlyOnceAndIndexed) {
  const auto [warp, grid, block, mode] = GetParam();
  DeviceConfig cfg = make_sim_a100_config();
  cfg.name = "sweep";
  cfg.warp_size = warp;
  Device dev(cfg);

  LaunchParams p;
  p.grid = grid;
  p.block = block;
  p.mode = mode;
  p.name = "shape_sweep";

  const std::uint64_t total = grid.count() * block.count();
  std::vector<std::atomic<int>> hits(total);
  for (auto& h : hits) h.store(0);
  bool index_ok = true;

  dev.launch_sync(p, [&] {
    const auto& t = this_thread();
    if (!t.grid_dim.contains(t.block_idx) ||
        !t.block_dim.contains(t.thread_idx))
      index_ok = false;
    if (t.lane != t.flat_tid % warp || t.warp_id != t.flat_tid / warp)
      index_ok = false;
    const std::uint64_t flat =
        t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
        t.block_dim.linear(t.thread_idx);
    hits[flat].fetch_add(1, std::memory_order_relaxed);
  });

  EXPECT_TRUE(index_ok);
  for (std::uint64_t i = 0; i < total; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "thread " << i;
}

const auto kSweepWarps = ::testing::Values(32u, 64u);
const auto kSweepGrids =
    ::testing::Values(Dim3{1}, Dim3{7}, Dim3{4, 3}, Dim3{2, 2, 2});
const auto kSweepBlocks = ::testing::Values(Dim3{1}, Dim3{33}, Dim3{16, 8},
                                            Dim3{8, 4, 4}, Dim3{256});

INSTANTIATE_TEST_SUITE_P(
    Shapes, LaunchShapeSweep,
    ::testing::Combine(kSweepWarps, kSweepGrids, kSweepBlocks,
                       ::testing::Values(ExecMode::kCooperative,
                                         ExecMode::kDirect)));

// ---------------------------------------------------------------------
// Sweep 1b: a single-barrier kernel (static and dynamic shared memory,
// partial warps) gives identical buffers and engine counts in kDirect,
// which nests lanes through the barrier, and on fibers.
// ---------------------------------------------------------------------

using BarrierShapeParam =
    std::tuple<std::uint32_t /*warp*/, Dim3 /*grid*/, Dim3 /*block*/>;

class OneBarrierModeSweep
    : public ::testing::TestWithParam<BarrierShapeParam> {};

/// `s` without the counters that describe how the host ran the launch
/// (fibers, lane loops, deflations, steals), which differ by design.
LaunchStats modeled_counts(LaunchStats s) {
  s.fibers_created = s.fiber_reuses = s.sched_steals = 0;
  s.sched_lane_loops = s.sched_deflations = 0;
  return s;
}

TEST_P(OneBarrierModeSweep, DirectEqualsCooperative) {
  const auto [warp, grid, block] = GetParam();
  DeviceConfig cfg = make_sim_a100_config();
  cfg.name = "sweep";
  cfg.warp_size = warp;
  Device dev(cfg);
  const std::uint64_t n = block.count();
  const std::uint64_t total = grid.count() * n;

  std::vector<std::uint64_t> out[2];
  LaunchStats stats[2];
  const ExecMode modes[2] = {ExecMode::kCooperative, ExecMode::kDirect};
  for (int m = 0; m < 2; ++m) {
    out[m].assign(total, 0);
    LaunchParams p;
    p.grid = grid;
    p.block = block;
    p.mode = modes[m];
    p.dynamic_smem_bytes = n * sizeof(std::uint32_t);
    p.name = "one_barrier_sweep";
    std::uint64_t* data = out[m].data();
    stats[m] = dev.launch_sync(p, [=] {
      auto& t = this_thread();
      auto* tile = static_cast<std::uint64_t*>(t.block->shared_alloc(
          t, n * sizeof(std::uint64_t), alignof(std::uint64_t)));
      auto* lanes = static_cast<std::uint32_t*>(t.block->dynamic_shared());
      const std::uint64_t g = t.grid_dim.linear(t.block_idx) * n + t.flat_tid;
      tile[t.flat_tid] = g * 2654435761u;
      lanes[t.flat_tid] = t.lane;
      t.block->sync_threads(t);
      data[g] = tile[n - 1 - t.flat_tid] + lanes[(t.flat_tid + 1) % n];
    }).stats;
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(modeled_counts(stats[0]), modeled_counts(stats[1]));
  EXPECT_EQ(stats[0].block_barriers, grid.count());
  EXPECT_EQ(stats[1].fibers_created + stats[1].fiber_reuses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, OneBarrierModeSweep,
                         ::testing::Combine(kSweepWarps, kSweepGrids,
                                            kSweepBlocks));

// ---------------------------------------------------------------------
// Sweep 2: barrier count accounting is exact for any block shape.
// ---------------------------------------------------------------------

class BarrierSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(BarrierSweep, BarrierEventsCountBlocksTimesBarriers) {
  const auto [block_threads, nbarriers] = GetParam();
  Device dev(make_sim_a100_config());
  LaunchParams p;
  p.grid = {3};
  p.block = {block_threads};
  p.name = "barrier_sweep";
  auto rec = dev.launch_sync(p, [&, nb = nbarriers] {
    auto& t = this_thread();
    for (int i = 0; i < nb; ++i) t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.stats.block_barriers,
            3u * static_cast<std::uint64_t>(nbarriers));
}

INSTANTIATE_TEST_SUITE_P(Blocks, BarrierSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 32u,
                                                              100u, 256u),
                                            ::testing::Values(0, 1, 5)));

// ---------------------------------------------------------------------
// Sweep 3: warp tree reduction is exact for every power-of-two width
// on both warp sizes (partial warps included).
// ---------------------------------------------------------------------

class WarpReduceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(WarpReduceSweep, ShflTreeSumsAnyLaneValues) {
  const auto [warp, active] = GetParam();
  if (active > warp) GTEST_SKIP();
  DeviceConfig cfg = make_sim_a100_config();
  cfg.warp_size = warp;
  Device dev(cfg);
  LaunchParams p;
  p.grid = {1};
  p.block = {active};
  std::uint64_t lane0 = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    std::uint64_t v = (t.lane + 1) * (t.lane + 1);  // non-uniform payload
    for (std::uint32_t d = t.warp->width() / 2; d > 0; d /= 2)
      v += t.warp->collective(t, WarpOp::kShflDown, v, d, ~0ull);
    if (t.lane == 0) lane0 = v;
  });
  std::uint64_t expect = 0;
  for (std::uint32_t l = 0; l < active; ++l)
    expect += static_cast<std::uint64_t>(l + 1) * (l + 1);
  EXPECT_EQ(lane0, expect);
}

INSTANTIATE_TEST_SUITE_P(Widths, WarpReduceSweep,
                         ::testing::Combine(::testing::Values(32u, 64u),
                                            ::testing::Values(2u, 4u, 8u, 16u,
                                                              32u, 64u)));

// ---------------------------------------------------------------------
// Sweep 4: the hardware warp-reduce collectives agree with a scalar
// fold for add/min/max over signed payloads.
// ---------------------------------------------------------------------

class HwReduceSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HwReduceSweep, ReduceOpsMatchScalarFold) {
  const std::uint32_t warp = GetParam();
  DeviceConfig cfg = make_sim_a100_config();
  cfg.warp_size = warp;
  Device dev(cfg);
  LaunchParams p;
  p.grid = {1};
  p.block = {warp};
  std::int64_t got_add = 0, got_min = 0, got_max = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    // Payload mixes signs: lane l holds (l - warp/2) * 3.
    const auto v = static_cast<std::int64_t>(
        (static_cast<int>(t.lane) - static_cast<int>(warp / 2)) * 3);
    const auto add = t.warp->collective(t, WarpOp::kReduceAdd,
                                        static_cast<std::uint64_t>(v), 0, ~0ull);
    const auto mn = t.warp->collective(t, WarpOp::kReduceMin,
                                       static_cast<std::uint64_t>(v), 0, ~0ull);
    const auto mx = t.warp->collective(t, WarpOp::kReduceMax,
                                       static_cast<std::uint64_t>(v), 0, ~0ull);
    if (t.lane == 0) {
      got_add = static_cast<std::int64_t>(add);
      got_min = static_cast<std::int64_t>(mn);
      got_max = static_cast<std::int64_t>(mx);
    }
  });
  std::int64_t add = 0, mn = INT64_MAX, mx = INT64_MIN;
  for (std::uint32_t l = 0; l < warp; ++l) {
    const auto v = static_cast<std::int64_t>(
        (static_cast<int>(l) - static_cast<int>(warp / 2)) * 3);
    add += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_EQ(got_add, add);
  EXPECT_EQ(got_min, mn);
  EXPECT_EQ(got_max, mx);
}

INSTANTIATE_TEST_SUITE_P(Warps, HwReduceSweep, ::testing::Values(32u, 64u));

// ---------------------------------------------------------------------
// Sweep 5: cooperative and direct mode produce identical results for a
// sync-free kernel across shapes (the fast-path-equivalence property).
// ---------------------------------------------------------------------

class ModeEquivalence : public ::testing::TestWithParam<Dim3> {};

TEST_P(ModeEquivalence, DirectEqualsCooperative) {
  const Dim3 block = GetParam();
  Device dev(make_sim_a100_config());
  const Dim3 grid{5};
  const std::uint64_t total = grid.count() * block.count();
  std::vector<std::uint64_t> a(total), b(total);

  for (auto* out : {&a, &b}) {
    LaunchParams p;
    p.grid = grid;
    p.block = block;
    p.mode = out == &a ? ExecMode::kCooperative : ExecMode::kDirect;
    auto* data = out->data();
    dev.launch_sync(p, [=] {
      const auto& t = this_thread();
      const std::uint64_t flat =
          t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
          t.block_dim.linear(t.thread_idx);
      data[flat] = flat * 2654435761u + t.lane;
    });
  }
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Blocks, ModeEquivalence,
                         ::testing::Values(Dim3{1}, Dim3{64}, Dim3{8, 8},
                                           Dim3{5, 5, 5}, Dim3{1024}));

// ---------------------------------------------------------------------
// Dim3 algebra properties.
// ---------------------------------------------------------------------

TEST(Dim3Property, LinearDelinearizeRoundTrips) {
  const Dim3 extents[] = {{1}, {7}, {4, 3}, {2, 5, 3}, {16, 16, 4}};
  for (const Dim3& e : extents) {
    for (std::uint64_t i = 0; i < e.count(); ++i) {
      const Dim3 p = e.delinearize(i);
      EXPECT_TRUE(e.contains(p));
      EXPECT_EQ(e.linear(p), i) << e.to_string();
    }
  }
}

TEST(Dim3Property, CountMatchesEnumeration) {
  const Dim3 e{3, 4, 5};
  std::uint64_t n = 0;
  for (std::uint32_t z = 0; z < e.z; ++z)
    for (std::uint32_t y = 0; y < e.y; ++y)
      for (std::uint32_t x = 0; x < e.x; ++x) {
        EXPECT_TRUE(e.contains({x, y, z}));
        n++;
      }
  EXPECT_EQ(n, e.count());
  EXPECT_FALSE(e.contains({3, 0, 0}));
  EXPECT_FALSE(e.contains({0, 4, 0}));
  EXPECT_FALSE(e.contains({0, 0, 5}));
}

TEST(Dim3Property, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
}

// ---------------------------------------------------------------------
// Atomic helpers agree with sequential folds under heavy contention.
// ---------------------------------------------------------------------

TEST(AtomicsProperty, ContendedFoldsMatch) {
  Device dev(make_sim_a100_config());
  LaunchParams p;
  p.grid = {32};
  p.block = {128};
  p.mode = ExecMode::kDirect;
  long long sum = 0;
  int maxv = INT32_MIN, minv = INT32_MAX;
  dev.launch_sync(p, [&] {
    const auto& t = this_thread();
    const int v = static_cast<int>(
        (t.grid_dim.linear(t.block_idx) * 131 + t.flat_tid * 17) % 1000) - 500;
    atomic_add(&sum, static_cast<long long>(v));
    atomic_max(&maxv, v);
    atomic_min(&minv, v);
  });
  long long esum = 0;
  int emax = INT32_MIN, emin = INT32_MAX;
  for (std::uint64_t b = 0; b < 32; ++b)
    for (std::uint64_t t = 0; t < 128; ++t) {
      const int v = static_cast<int>((b * 131 + t * 17) % 1000) - 500;
      esum += v;
      emax = std::max(emax, v);
      emin = std::min(emin, v);
    }
  EXPECT_EQ(sum, esum);
  EXPECT_EQ(maxv, emax);
  EXPECT_EQ(minv, emin);
}

}  // namespace

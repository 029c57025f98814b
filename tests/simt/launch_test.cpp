// Integration tests for the block runner and the synchronous launch
// path: indexing, barriers, shared memory, direct mode, error handling.
#include <gtest/gtest.h>

#include <alloca.h>
#include <pthread.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/atomics.h"
#include "simt/simt.h"

namespace {

using namespace simt;

// Standalone device for tests that need custom configs; the registry
// devices are exercised too.
DeviceConfig tiny_config(std::uint32_t warp = 32) {
  DeviceConfig c = make_sim_a100_config();
  c.name = "tiny";
  c.warp_size = warp;
  return c;
}

TEST(Launch, EveryThreadRunsExactlyOnce) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {4, 2, 2};
  p.block = {8, 4, 2};
  const std::uint64_t total = p.grid.count() * p.block.count();
  std::vector<int> hits(total, 0);
  auto rec = dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const std::uint64_t bid = t.grid_dim.linear(t.block_idx);
    const std::uint64_t tid = t.block_dim.linear(t.thread_idx);
    hits[bid * t.block_dim.count() + tid]++;
  });
  EXPECT_EQ(rec.stats.threads, total);
  EXPECT_EQ(rec.stats.blocks, p.grid.count());
  for (auto h : hits) EXPECT_EQ(h, 1);
}

TEST(Launch, MultiDimIndexingMatchesCudaConvention) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2, 3, 1};
  p.block = {4, 2, 1};
  // Record global x/y coordinates per thread.
  std::vector<std::pair<unsigned, unsigned>> coords(p.grid.count() *
                                                    p.block.count());
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const unsigned gx = t.block_idx.x * t.block_dim.x + t.thread_idx.x;
    const unsigned gy = t.block_idx.y * t.block_dim.y + t.thread_idx.y;
    const std::uint64_t flat =
        t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
        t.block_dim.linear(t.thread_idx);
    coords[flat] = {gx, gy};
  });
  // Every (gx, gy) in the 8x6 global domain appears exactly once.
  std::vector<int> seen(8 * 6, 0);
  for (auto [gx, gy] : coords) seen[gy * 8 + gx]++;
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Launch, BarrierMakesWritesVisibleAcrossPhases) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {128};
  std::vector<int> stage(128, 0);
  std::vector<int> out(128, 0);
  bool ok = true;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const unsigned i = t.thread_idx.x;
    stage[i] = static_cast<int>(i) + 1;
    t.block->sync_threads(t);
    // Read a neighbour written by another thread before the barrier.
    const unsigned j = (i + 64) % 128;
    out[i] = stage[j];
    if (out[i] != static_cast<int>(j) + 1) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(Launch, BarrierReversedReadWriteOrder) {
  // Threads write AFTER the barrier what others read BEFORE it would be
  // a race; here we verify the opposite phase ordering with two barriers.
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2};
  p.block = {64};
  std::vector<int> sum_per_block(2, 0);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* shared =
        static_cast<int*>(t.block->shared_alloc(t, 64 * sizeof(int), 16));
    shared[t.thread_idx.x] = 1;
    t.block->sync_threads(t);
    if (t.thread_idx.x == 0) {
      int s = 0;
      for (int i = 0; i < 64; ++i) s += shared[i];
      sum_per_block[t.block_idx.x] = s;
    }
    t.block->sync_threads(t);
  });
  EXPECT_EQ(sum_per_block[0], 64);
  EXPECT_EQ(sum_per_block[1], 64);
}

TEST(Launch, SharedAllocReturnsSamePointerToAllThreads) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {32};
  std::vector<void*> ptrs(32, nullptr);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    ptrs[t.thread_idx.x] = t.block->shared_alloc(t, 256, 16);
  });
  for (int i = 1; i < 32; ++i) EXPECT_EQ(ptrs[i], ptrs[0]);
}

TEST(Launch, SharedAllocDistinctAcrossBlocks) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {2};
  p.block = {1};
  // Each block writes its id into its own shared var; no cross-talk
  // (verified by the block-local readback below).
  std::vector<int> got(2, -1);
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* v = static_cast<int*>(t.block->shared_alloc(t, sizeof(int), 4));
    *v = static_cast<int>(t.block_idx.x) + 7;
    got[t.block_idx.x] = *v;
  });
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[1], 8);
}

TEST(Launch, SharedAllocSizeMismatchThrows) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {2};
  EXPECT_THROW(dev.launch_sync(p,
                               [&] {
                                 auto& t = this_thread();
                                 const std::size_t sz =
                                     t.thread_idx.x == 0 ? 64 : 128;
                                 t.block->shared_alloc(t, sz, 16);
                               }),
               std::logic_error);
}

TEST(Launch, DynamicSharedSegmentSharedByBlock) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {16};
  p.dynamic_smem_bytes = 16 * sizeof(int);
  int total = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    int* dyn = static_cast<int*>(t.block->dynamic_shared());
    dyn[t.thread_idx.x] = 2;
    t.block->sync_threads(t);
    if (t.thread_idx.x == 0) {
      for (int i = 0; i < 16; ++i) total += dyn[i];
    }
  });
  EXPECT_EQ(total, 32);
}

TEST(Launch, DirectModeRunsAllThreads) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {8};
  p.block = {64};
  p.mode = ExecMode::kDirect;
  std::atomic<int> count{0};
  dev.launch_sync(p, [&] { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 8 * 64);
}

// --- direct mode's one barrier ---------------------------------------
//
// A kDirect block passes one barrier by nesting its lanes on the
// OS-thread stack (BlockState::direct_barrier). What cannot nest must
// raise std::logic_error naming the kernel, never crash or miscompute.

LaunchParams direct_block(Dim3 block, const char* name) {
  LaunchParams p;
  p.grid = {1};
  p.block = block;
  p.mode = ExecMode::kDirect;
  p.name = name;
  return p;
}

/// Runs `launch` and returns the std::logic_error message it raises
/// ("" when it returns normally).
template <typename Launch>
std::string logic_error_of(const Launch& launch) {
  try {
    launch();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Launch, DirectBarrierSecondBarrierThrows) {
  Device dev(tiny_config());
  const std::string what = logic_error_of([&] {
    dev.launch_sync(direct_block({8}, "two_barriers"), [] {
      auto& t = this_thread();
      t.block->sync_threads(t);
      t.block->sync_threads(t);
    });
  });
  EXPECT_NE(what.find("second block barrier"), std::string::npos) << what;
  EXPECT_NE(what.find("two_barriers"), std::string::npos) << what;
}

TEST(Launch, DirectBarrierWarpCollectiveThrows) {
  Device dev(tiny_config());
  const std::string what = logic_error_of([&] {
    dev.launch_sync(direct_block({32}, "direct_warp_op"), [] {
      auto& t = this_thread();
      t.warp->collective(t, WarpOp::kSync, 0, 0, ~0ull);
    });
  });
  EXPECT_NE(what.find("warp collective"), std::string::npos) << what;
  EXPECT_NE(what.find("direct_warp_op"), std::string::npos) << what;
}

TEST(Launch, DirectBarrierAtomicAfterBarrierThrows) {
  Device dev(tiny_config());
  int counter = 0;
  // Before the barrier an atomic is fine (lanes still run ascending)...
  auto rec = dev.launch_sync(direct_block({16}, "atomic_before"), [&] {
    auto& t = this_thread();
    atomic_add(&counter, 1);
    t.block->sync_threads(t);
  });
  EXPECT_EQ(counter, 16);
  EXPECT_EQ(rec.stats.atomics, 16u);
  // ...after it the lanes run descending, so the order would leak.
  const std::string what = logic_error_of([&] {
    dev.launch_sync(direct_block({16}, "atomic_after"), [&] {
      auto& t = this_thread();
      t.block->sync_threads(t);
      atomic_add(&counter, 1);
    });
  });
  EXPECT_NE(what.find("atomic after the block barrier"), std::string::npos)
      << what;
  EXPECT_NE(what.find("atomic_after"), std::string::npos) << what;
}

TEST(Launch, DirectBarrierInsideRunLanesThrows) {
  Device dev(tiny_config());
  const std::string what = logic_error_of([&] {
    dev.launch_sync(direct_block({8}, "lanes_barrier"), [] {
      auto& t = this_thread();
      if (t.flat_tid != 0) return;
      t.block->run_lanes(t, 8, [](int) {
        auto& lane = this_thread();
        lane.block->sync_threads(lane);
      });
    });
  });
  EXPECT_NE(what.find("inside run_lanes"), std::string::npos) << what;
  EXPECT_FALSE(in_kernel());
}

/// Runs `body` on a fresh OS thread with a `stack_bytes` stack, so the
/// stack the direct barrier nests on has a known size whatever the
/// process's stack limit is. Rethrows what `body` threw.
void on_thread_with_stack(std::size_t stack_bytes,
                          const std::function<void()>& body) {
  struct Job {
    const std::function<void()>* body;
    std::exception_ptr error;
  } job{&body, nullptr};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t th;
  ASSERT_EQ(pthread_create(
                &th, &attr,
                [](void* arg) -> void* {
                  auto* j = static_cast<Job*>(arg);
                  try {
                    (*j->body)();
                  } catch (...) {
                    j->error = std::current_exception();
                  }
                  return nullptr;
                },
                &job),
            0);
  pthread_join(th, nullptr);
  pthread_attr_destroy(&attr);
  if (job.error) std::rethrow_exception(job.error);
}

TEST(Launch, DirectBarrierStackGuardThrows) {
  // Every lane holds 64 KiB of real stack (alloca, so ASan's fake stack
  // does not move it) across the barrier: 512 nested lanes would need
  // 32 MiB, far beyond the 2 MiB thread, so the guard must refuse to
  // nest instead of overflowing.
  Device dev(tiny_config());
  std::string what;
  on_thread_with_stack(2 << 20, [&] {
    what = logic_error_of([&] {
      dev.launch_sync(direct_block({512}, "deep_lanes"), [] {
        auto& t = this_thread();
        auto* pad = static_cast<volatile char*>(alloca(64 << 10));
        pad[0] = static_cast<char>(t.flat_tid);
        t.block->sync_threads(t);
        EXPECT_EQ(pad[0], static_cast<char>(t.flat_tid));
      });
    });
    EXPECT_FALSE(in_kernel());
  });
  EXPECT_NE(what.find("OS-thread stack"), std::string::npos) << what;
  EXPECT_NE(what.find("deep_lanes"), std::string::npos) << what;
}

TEST(Launch, DirectBarrierEarlyExitLanesStopParticipating) {
  Device dev(tiny_config());
  int after = 0;
  std::vector<int> order;
  auto rec = dev.launch_sync(direct_block({64}, "early_exit"), [&] {
    auto& t = this_thread();
    if (t.flat_tid % 3 == 0) return;  // a third of the block exits early
    t.block->sync_threads(t);
    after++;
    order.push_back(static_cast<int>(t.flat_tid));
  });
  EXPECT_EQ(after, 64 - 22);
  EXPECT_EQ(rec.stats.block_barriers, 1u);
  // Post-barrier code runs as the nested calls return: descending.
  EXPECT_TRUE(std::is_sorted(order.rbegin(), order.rend()));
  // Every lane exiting early: nobody arrives, so nothing is released.
  rec = dev.launch_sync(direct_block({64}, "all_exit"), [] {});
  EXPECT_EQ(rec.stats.block_barriers, 0u);
  // Only the last lane arrives; the rest exit before it.
  rec = dev.launch_sync(direct_block({64}, "last_arrives"), [&] {
    auto& t = this_thread();
    if (t.flat_tid != 63) return;
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.stats.block_barriers, 1u);
}

TEST(Launch, DirectBarrier3DBlock) {
  Device dev(tiny_config());
  const Dim3 block{4, 3, 5};
  std::vector<std::uint64_t> out(block.count(), 0);
  dev.launch_sync(direct_block(block, "block3d"), [&] {
    auto& t = this_thread();
    auto* tile = static_cast<std::uint64_t*>(t.block->shared_alloc(
        t, 60 * sizeof(std::uint64_t), alignof(std::uint64_t)));
    tile[t.block_dim.linear(t.thread_idx)] =
        t.thread_idx.x + 10 * t.thread_idx.y + 100 * t.thread_idx.z;
    t.block->sync_threads(t);
    // Read the point mirrored through the block's centre.
    const Dim3 m{3 - t.thread_idx.x, 2 - t.thread_idx.y, 4 - t.thread_idx.z};
    out[t.flat_tid] = tile[t.block_dim.linear(m)];
  });
  for (std::uint32_t z = 0; z < 5; ++z)
    for (std::uint32_t y = 0; y < 3; ++y)
      for (std::uint32_t x = 0; x < 4; ++x)
        ASSERT_EQ(out[block.linear({x, y, z})],
                  (3 - x) + 10 * (2 - y) + 100 * (4 - z));
}

TEST(Launch, DirectBarrierGraphReplaysEachRunTheBarrierAfresh) {
  // Every replay of a direct grid with a barrier starts from a lane
  // cursor, release flag and arrival count at zero, and reads only the
  // tile its own lanes wrote before the barrier.
  Device dev(tiny_config());
  LaunchParams p = direct_block({32}, "replayed_barrier");
  p.grid = {4};
  std::vector<int> acc(4 * 32, 0);
  int* data = acc.data();
  const auto step = [data] {
    auto& t = this_thread();
    auto* tile = static_cast<int*>(
        t.block->shared_alloc(t, 32 * sizeof(int), alignof(int)));
    const std::uint32_t g = t.block_idx.x * 32 + t.flat_tid;
    tile[t.flat_tid] = static_cast<int>(g);
    t.block->sync_threads(t);
    data[g] += tile[31 - t.flat_tid];
  };
  Stream& s = dev.default_stream();
  s.begin_capture();
  s.launch(p, step);
  std::unique_ptr<Graph> g = s.end_capture();
  g->instantiate();
  for (int rep = 0; rep < 3; ++rep) s.launch_graph(*g);
  s.synchronize();
  EXPECT_EQ(g->replay_count(), 3u);
  for (std::uint32_t b = 0; b < 4; ++b)
    for (std::uint32_t i = 0; i < 32; ++i)
      ASSERT_EQ(acc[b * 32 + i], 3 * static_cast<int>(b * 32 + 31 - i))
          << "block " << b << " lane " << i;
}

TEST(Launch, GraphReplayStartsFromZeroedSharedMemory) {
  // Each lane reads its shared slot before writing it. A live launch
  // reads a fresh arena's zeroes, and so must every replay, not the
  // bytes the previous pass left in the buffer its OS thread reuses.
  Device dev(tiny_config());
  std::vector<int> reads(3 * 32, -1);
  int pass = 0;
  const auto kernel = [&reads, &pass] {
    auto& t = this_thread();
    auto* tile = static_cast<int*>(
        t.block->shared_alloc(t, 32 * sizeof(int), alignof(int)));
    reads[pass * 32 + t.flat_tid] = tile[t.flat_tid];
    tile[t.flat_tid] = 100 + static_cast<int>(t.flat_tid);
  };
  const LaunchParams p = direct_block({32}, "replayed_tile");
  dev.launch_sync(p, kernel);
  Stream& s = dev.default_stream();
  s.begin_capture();
  s.launch(p, kernel);
  std::unique_ptr<Graph> g = s.end_capture();
  g->instantiate();
  for (pass = 1; pass < 3; ++pass) {
    s.launch_graph(*g);
    s.synchronize();
  }
  for (int i = 0; i < 3 * 32; ++i)
    EXPECT_EQ(reads[i], 0) << "pass " << i / 32 << " lane " << i % 32;
}

// The shared-memory buffer a block ends with is its OS thread's spare
// for the next block. On a one-worker device every block of a launch
// from this thread runs here, so consecutive launches share the buffer.

TEST(Launch, SharedBufferOfAThrowingBlockIsZeroedForTheNextLaunch) {
  Device dev(tiny_config(), {.workers = 1});
  constexpr std::uint32_t kInts = 1024;
  for (const ExecMode mode : {ExecMode::kCooperative, ExecMode::kDirect}) {
    LaunchParams p = direct_block({64}, "tile_then_throw");
    p.mode = mode;
    const void* thrown_tile = nullptr;
    const auto tile_then_throw = [&thrown_tile] {
      auto& t = this_thread();
      auto* tile = static_cast<int*>(
          t.block->shared_alloc(t, kInts * sizeof(int), 4));
      thrown_tile = tile;
      for (std::uint32_t i = t.flat_tid; i < kInts; i += 64) tile[i] = -1;
      if (t.flat_tid == 63) throw std::runtime_error("after tile");
    };
    EXPECT_THROW(dev.launch_sync(p, tile_then_throw), std::runtime_error);
    const void* read_tile = nullptr;
    std::vector<int> nonzero(64, 0);
    p.name = "read_tile";
    dev.launch_sync(p, [&] {
      auto& t = this_thread();
      const auto* tile = static_cast<const int*>(
          t.block->shared_alloc(t, kInts * sizeof(int), 4));
      read_tile = tile;
      for (std::uint32_t i = t.flat_tid; i < kInts; i += 64)
        nonzero[t.flat_tid] += tile[i] != 0;
    });
    EXPECT_EQ(read_tile, thrown_tile) << "the buffer was not reused";
    EXPECT_EQ(nonzero, std::vector<int>(64, 0));
  }
}

TEST(Launch, SharedBufferServesDevicesOfEitherCapacity) {
  // A100 (48 KiB) and MI250 (64 KiB) blocks alternate on this thread,
  // so the one buffer shrinks and grows. Each block finds its whole
  // capacity zeroed, and racecheck names a seeded race by its offset
  // in the resized buffer.
  Device a100(make_sim_a100_config(), {.workers = 1});
  Device mi250(make_sim_mi250_config(), {.workers = 1});
  struct RestoreSan {
    std::uint32_t checks = San::instance().checks();
    ~RestoreSan() {
      San::instance().disable();
      San::instance().enable(checks);
      San::instance().reset();
    }
  } restore;
  for (Device* dev : {&a100, &mi250, &a100, &mi250}) {
    const std::size_t cap = dev->config().smem_per_block_max;
    const std::string name = dev->config().name;
    LaunchParams p;
    p.grid = {1};
    p.block = {64};
    p.name = "fill_capacity";
    std::vector<std::size_t> nonzero(64, 0);
    dev->launch_sync(p, [&] {
      auto& t = this_thread();
      auto* bytes =
          static_cast<std::uint8_t*>(t.block->shared_alloc(t, cap, 1));
      const std::size_t slice = cap / 64;
      for (std::size_t i = t.flat_tid * slice; i < (t.flat_tid + 1) * slice;
           ++i) {
        nonzero[t.flat_tid] += bytes[i] != 0;
        bytes[i] = 0xAB;
      }
    });
    EXPECT_EQ(nonzero, std::vector<std::size_t>(64, 0)) << name;

    San::instance().reset();
    San::instance().enable(kSanRace);
    p.name = "seeded_race";
    dev->launch_sync(p, [] {
      auto& t = this_thread();
      t.block->shared_alloc(t, 100, 4);  // the race lands at shared+104
      auto* tile = static_cast<int*>(t.block->shared_alloc(t, 64 * 4, 4));
      if (t.flat_tid == 0)  // thread 0 writes thread 1's slot...
        t.block->san_shared_access(t, &tile[1], sizeof(int), true, false);
      // ...and thread 1 reads it with no barrier between.
      t.block->san_shared_access(t, &tile[t.flat_tid], sizeof(int), false,
                                 false);
    });
    std::vector<SanDiag> races;
    for (const SanDiag& d : San::instance().diagnostics())
      if (d.kind == SanKind::kSharedRace) races.push_back(d);
    ASSERT_EQ(races.size(), 1u) << name << ": " << San::instance().report();
    EXPECT_NE(races[0].message.find("shared+104 "), std::string::npos)
        << name << ": " << races[0].message;
    EXPECT_EQ(races[0].tid_a, 1u);
    EXPECT_EQ(races[0].tid_b, 0u);
  }
}

TEST(Launch, DirectBarrierLaneExceptionPropagates) {
  Device dev(tiny_config());
  EXPECT_THROW(dev.launch_sync(direct_block({32}, "throws_nested"),
                               [] {
                                 auto& t = this_thread();
                                 if (t.flat_tid == 20)
                                   throw std::runtime_error("lane 20");
                                 t.block->sync_threads(t);
                               }),
               std::runtime_error);
  // No stale context is left on this thread...
  EXPECT_FALSE(in_kernel());
  // ...and the next launch on it runs every lane through the barrier.
  int after = 0;
  auto rec = dev.launch_sync(direct_block({32}, "after_throw"), [&] {
    auto& t = this_thread();
    t.block->sync_threads(t);
    after++;
  });
  EXPECT_EQ(after, 32);
  EXPECT_EQ(rec.stats.block_barriers, 1u);
}

TEST(Launch, EarlyExitThreadsDoNotBlockBarrier) {
  // Kernel-language behaviour: threads that returned are not waited on.
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {64};
  int after_barrier = 0;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    if (t.thread_idx.x >= 32) return;  // half the block exits early
    t.block->sync_threads(t);
    after_barrier++;
  });
  EXPECT_EQ(after_barrier, 32);
}

TEST(Launch, ValidationRejectsBadLaunches) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {1};
  p.block = {2048};  // > max_threads_per_block (1024)
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
  p.block = {0};
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
  p.block = {32};
  p.dynamic_smem_bytes = 1 << 20;
  EXPECT_THROW(dev.launch_sync(p, [] {}), std::invalid_argument);
}

TEST(Launch, ThisThreadOutsideKernelThrows) {
  EXPECT_THROW(this_thread(), std::logic_error);
  EXPECT_FALSE(in_kernel());
}

TEST(Launch, BarrierCountsReported) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {4};
  p.block = {32};
  auto rec = dev.launch_sync(p, [&] {
    auto& t = this_thread();
    t.block->sync_threads(t);
    t.block->sync_threads(t);
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.stats.block_barriers, 4u * 3u);
}

TEST(Launch, AtomicsAcrossBlocksAndCounted) {
  Device dev(tiny_config());
  LaunchParams p;
  p.grid = {16};
  p.block = {64};
  long total = 0;
  auto rec = dev.launch_sync(p, [&] { atomic_add(&total, 1L); });
  EXPECT_EQ(total, 16 * 64);
  EXPECT_EQ(rec.stats.atomics, 16u * 64u);
}

TEST(Launch, GridStrideLoopCoversDomain) {
  Device dev(tiny_config());
  constexpr int n = 10000;
  std::vector<int> data(n, 0);
  LaunchParams p;
  p.grid = {8};
  p.block = {128};
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    const int stride = static_cast<int>(t.grid_dim.x * t.block_dim.x);
    for (int i = static_cast<int>(t.block_idx.x * t.block_dim.x +
                                  t.thread_idx.x);
         i < n; i += stride)
      data[i] += 1;
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), n);
}

TEST(Launch, LaunchLogAccumulatesAndClears) {
  Device dev(tiny_config());
  dev.clear_launch_log();
  LaunchParams p;
  p.grid = {1};
  p.block = {1};
  p.name = "logged";
  dev.launch_sync(p, [] {});
  dev.launch_sync(p, [] {});
  EXPECT_EQ(dev.launch_log().size(), 2u);
  EXPECT_EQ(dev.last_launch().name, "logged");
  EXPECT_GT(dev.modeled_kernel_ms_total(), 0.0);
  dev.clear_launch_log();
  EXPECT_TRUE(dev.launch_log().empty());
  EXPECT_THROW(dev.last_launch(), std::logic_error);
}

class WarpSizeLaunch : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WarpSizeLaunch, LaneAndWarpIdsConsistent) {
  Device dev(tiny_config(GetParam()));
  const std::uint32_t ws = GetParam();
  LaunchParams p;
  p.grid = {1};
  p.block = {3 * ws + ws / 2};  // partial last warp
  bool ok = true;
  dev.launch_sync(p, [&] {
    auto& t = this_thread();
    if (t.lane != t.flat_tid % ws) ok = false;
    if (t.warp_id != t.flat_tid / ws) ok = false;
    if (t.warp->warp_id() != t.warp_id) ok = false;
    const std::uint32_t expect_width =
        t.warp_id < 3 ? ws : ws / 2;  // last warp is partial
    if (t.warp->width() != expect_width) ok = false;
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(WarpSizes, WarpSizeLaunch, ::testing::Values(32u, 64u));

}  // namespace

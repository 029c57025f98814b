// Golden tests for the cooperative block scheduler: the ready-queue
// scheduler (O(waiters) wakeups, fiber recycling, batch drain) must
// reproduce, at any worker count, the outputs, counters and modeled
// time that it and the former O(nthreads)-per-round sweep scheduler
// both produced on barrier-, warp- and early-exit-heavy kernels, and
// the deadlock census must keep its exact message. The goldens were
// captured from both schedulers, which agreed bit for bit, before the
// sweep was deleted.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/simt.h"

namespace {

using namespace simt;

Device make_dev(unsigned workers) {
  DeviceConfig c = make_sim_a100_config();
  c.name = "sched-test";
  EngineOptions o;
  o.workers = workers;
  return Device(c, o);
}

struct RunResult {
  std::vector<std::uint64_t> out;
  LaunchRecord rec;
};

using KernelMaker = std::function<KernelFn(std::uint64_t* out)>;

constexpr std::uint64_t kBlocks = 7;
constexpr std::uint32_t kThreads = 64;

RunResult run_one(unsigned workers, const KernelMaker& mk,
                  const char* name) {
  Device dev = make_dev(workers);
  RunResult r;
  r.out.assign(kBlocks * kThreads, 0);
  LaunchParams p;
  p.grid = {kBlocks};
  p.block = {kThreads};
  p.name = name;
  r.rec = dev.launch_sync(p, mk(r.out.data()));
  return r;
}

/// What both schedulers produced for one kernel: a hash of its output
/// buffer, its semantic counters and its modeled time.
struct Golden {
  std::uint64_t out_hash;
  std::uint64_t block_barriers;
  std::uint64_t warp_collectives;
  double total_ms;
};

/// FNV-1a over the output words.
std::uint64_t hash_out(const std::vector<std::uint64_t>& out) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t word : out) {
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

/// Runs `mk` at several worker counts and checks every run against the
/// golden and against the single-worker run: same outputs, same
/// semantic counters, bit-identical modeled time.
void expect_golden(const KernelMaker& mk, const char* name,
                   const Golden& golden) {
  const RunResult ref = run_one(1, mk, name);
  for (const unsigned workers : {1u, 3u}) {
    const RunResult r = run_one(workers, mk, name);
    EXPECT_EQ(r.out, ref.out)
        << name << ": outputs diverged (workers=" << workers << ")";
    EXPECT_EQ(hash_out(r.out), golden.out_hash)
        << name << ": outputs differ from the golden (workers=" << workers
        << ")";
    EXPECT_EQ(r.rec.stats.block_barriers, golden.block_barriers);
    EXPECT_EQ(r.rec.stats.warp_collectives, golden.warp_collectives);
    EXPECT_EQ(r.rec.stats.warp_syncs, 0u);
    EXPECT_EQ(r.rec.stats.atomics, 0u);
    EXPECT_EQ(r.rec.stats.globalized_bytes, 0u);
    EXPECT_EQ(r.rec.stats.threads, kBlocks * kThreads);
    // Modeled time must be bit-identical: execution diagnostics
    // (fiber counts, steals) never feed the performance model.
    EXPECT_EQ(r.rec.time.total_ms, golden.total_ms);
  }
}

TEST(SchedulerDifferential, BarrierHeavyTreeReduction) {
  // Tree reduction over block-shared memory: a wrong or premature
  // barrier wakeup reads a partial sum and corrupts the result.
  expect_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t n = t.block_dim.count();
          const std::uint64_t flat = t.grid_dim.linear(t.block_idx) * n +
                                     t.flat_tid;
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, n * sizeof(std::uint64_t), 8));
          sh[t.flat_tid] = flat * 3 + 1;
          t.block->sync_threads(t);
          for (std::uint64_t s = n / 2; s > 0; s /= 2) {
            if (t.flat_tid < s) sh[t.flat_tid] += sh[t.flat_tid + s];
            t.block->sync_threads(t);
          }
          out[flat] = sh[0] + t.flat_tid;
        };
      },
      "barrier_tree", {0x8aa732b7798d8e03ull, 49, 0, 0x1.e57d9dba908a3p-11});
}

TEST(SchedulerDifferential, WarpHeavyButterflyAndBallot) {
  // Butterfly xor-shuffle reduction plus a ballot: warp rendezvous
  // wakeups must deliver every lane the full-warp result.
  expect_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t flat =
              t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
              t.flat_tid;
          std::uint64_t v = flat + 1;
          for (std::uint64_t d = 1; d < 32; d <<= 1)
            v += t.warp->collective(t, WarpOp::kShflXor, v, d, ~0ull);
          const std::uint64_t ballot = t.warp->collective(
              t, WarpOp::kBallot, t.lane & 1, 0, ~0ull);
          t.block->sync_threads(t);
          out[flat] = v ^ ballot;
        };
      },
      "warp_butterfly",
      {0x1aebccf3b4b37d83ull, 7, 84, 0x1.b46ad637af99cp-11});
}

TEST(SchedulerDifferential, EarlyExitWavesReleaseBarriers) {
  // Threads drop out in waves while survivors keep syncing: exited
  // threads must release the barrier as they always have.
  expect_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t flat =
              t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
              t.flat_tid;
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, sizeof(std::uint64_t), 8));
          if (t.flat_tid == 0) *sh = 0;
          t.block->sync_threads(t);
          for (std::uint32_t round = 0; round < 4; ++round) {
            if (t.flat_tid % 4 == round && t.flat_tid != 0) {
              out[flat] = 100 + round;
              return;
            }
            *sh += 1;  // single-threaded block scheduler: no race
            t.block->sync_threads(t);
          }
          out[flat] = *sh;
        };
      },
      "early_exit_waves",
      {0xde52a4a2ab5982c3ull, 35, 0, 0x1.d29dc725c3defp-11});
}

/// `s` without the counters that describe how the host ran the launch
/// (fibers, lane loops, deflations, steals), which differ by design.
LaunchStats modeled_counts(LaunchStats s) {
  s.fibers_created = s.fiber_reuses = s.sched_steals = 0;
  s.sched_lane_loops = s.sched_deflations = 0;
  return s;
}

// --- threads that finish inline before others block ----------------------
//
// The fiber scheduler runs a thread that never suspends on the fiber of
// the thread before it, so these kernels mix threads that run to the
// end with threads that park at a barrier or a warp collective, on 2-D
// and 3-D blocks with partial warps. Their goldens (output hash, every
// LaunchStats field but the host-execution ones, modeled time) were
// captured while every thread still ran on a fiber of its own.

/// Everything a thread's context says about it, packed into one word
/// (bit 63: its warp pointer disagrees with its warp id).
std::uint64_t identity(const ThreadCtx& t) {
  std::uint64_t id = t.thread_idx.x | std::uint64_t{t.thread_idx.y} << 8 |
                     std::uint64_t{t.thread_idx.z} << 16 |
                     std::uint64_t{t.lane} << 24 |
                     std::uint64_t{t.warp_id} << 32 |
                     std::uint64_t{t.flat_tid} << 40 |
                     std::uint64_t{t.block_idx.x} << 52 |
                     std::uint64_t{t.block_idx.y} << 58;
  if (t.warp != &t.block->warp(t.warp_id)) id |= 1ull << 63;
  return id;
}

std::uint64_t global_flat(const ThreadCtx& t) {
  return t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
}

struct InlineGolden {
  std::uint64_t out_hash;
  LaunchStats counts;  ///< as modeled_counts() leaves them
  double total_ms;
  std::uint64_t fibers_per_block;  ///< fibers acquired, block by block
};

/// Runs `mk` over `grid` x `block` at one and three workers and checks
/// each run against `golden`.
void expect_inline_golden(const KernelMaker& mk, const char* name, Dim3 grid,
                          Dim3 block, const InlineGolden& golden) {
  for (const unsigned workers : {1u, 3u}) {
    Device dev = make_dev(workers);
    std::vector<std::uint64_t> out(grid.count() * block.count(), 0);
    LaunchParams p;
    p.grid = grid;
    p.block = block;
    p.name = name;
    const LaunchRecord rec = dev.launch_sync(p, mk(out.data()));
    EXPECT_EQ(hash_out(out), golden.out_hash)
        << name << ": outputs differ from the golden (workers=" << workers
        << ")";
    EXPECT_EQ(modeled_counts(rec.stats), golden.counts)
        << name << " workers=" << workers;
    EXPECT_EQ(rec.time.total_ms, golden.total_ms)
        << name << " workers=" << workers;
    EXPECT_EQ(rec.stats.fibers_created + rec.stats.fiber_reuses,
              golden.fibers_per_block * grid.count())
        << name << " workers=" << workers;
  }
}

TEST(SchedulerInline, EarlyExitsAheadOfTwoBarriers) {
  // Threads 0-4 and every 7th leave before the first barrier, every
  // 11th between the two; the rest stage a 2-D tile and count
  // themselves with a shared atomic.
  expect_inline_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t n = t.block_dim.count();
          const std::uint64_t flat = global_flat(t);
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, (n + 1) * sizeof(std::uint64_t), 8));
          const std::uint64_t id = identity(t);
          if (t.flat_tid < 5 || t.flat_tid % 7 == 3) {
            out[flat] = id ^ 0xdead;
            return;
          }
          sh[t.flat_tid] = id;
          atomic_add(&sh[n], std::uint64_t{1});
          t.block->sync_threads(t);
          const std::uint64_t v = sh[(t.flat_tid + 13) % n] + sh[n] * 1000;
          if (t.flat_tid % 11 == 5) {
            out[flat] = v;
            return;
          }
          t.block->sync_threads(t);
          out[flat] = v ^ (id << 1) ^ identity(t);
        };
      },
      "inline_early_exit", {3, 2}, {8, 12},
      {0x69eeefdfdbd244dfull,
       LaunchStats{.blocks = 6, .threads = 576, .block_barriers = 12,
                   .atomics = 468},
       0x1.a79fec99f1ae3p-10, 78});
}

TEST(SchedulerInline, WarpCollectiveInOneWarpOnly) {
  // Only warp 1 shuffles and votes; warps 0, 2 and 3 never block, and
  // warp 3 is partial.
  expect_inline_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t flat = global_flat(t);
          if (t.warp_id != 1) {
            out[flat] = identity(t);
            return;
          }
          std::uint64_t v = flat + 1;
          for (std::uint64_t d = 1; d < 32; d <<= 1)
            v += t.warp->collective(t, WarpOp::kShflXor, v, d, ~0ull);
          const std::uint64_t ballot = t.warp->collective(
              t, WarpOp::kBallot, t.lane % 3 == 0, 0, ~0ull);
          out[flat] = v ^ ballot ^ identity(t);
        };
      },
      "inline_one_warp", {5}, {110},
      {0x7a60aaed66d1fb9cull,
       LaunchStats{.blocks = 5, .threads = 550, .warp_collectives = 30},
       0x1.a7348ccf86bb7p-11, 33});
}

TEST(SchedulerInline, SparseBarrierWaitersOnA3DBlock) {
  // Only every 10th thread reaches the barrier; the others exit, and
  // the barrier releases when the last of them does. Each waiter parks
  // mid-block, so the threads after it start on a context carried from
  // the waiter's.
  expect_inline_golden(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t flat = global_flat(t);
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, sizeof(std::uint64_t), 8));
          const std::uint64_t id = identity(t);
          if (t.flat_tid % 10 != 9) {
            *sh += 1;
            out[flat] = id;
            return;
          }
          t.block->sync_threads(t);
          out[flat] = id * 31 + *sh + identity(t);
        };
      },
      "inline_sparse_3d", {2, 1, 2}, {4, 5, 6},
      {0x8e49aa0fe6290e83ull,
       LaunchStats{.blocks = 4, .threads = 480, .block_barriers = 4},
       0x1.acde19fc2a887p-11, 12});
}

TEST(SchedulerInline, ThrowFromAnInlineThreadAfterAnotherParked) {
  // Thread 3 parks at the barrier; threads 4-8 then run and finish,
  // and thread 9 throws. The exception reaches the launch, no kernel
  // context is left on the launching thread, and what ran before the
  // throw is what the golden recorded.
  Device dev = make_dev(1);
  std::vector<std::uint64_t> out(64, 0);
  std::uint64_t* data = out.data();
  LaunchParams p;
  p.grid = {1};
  p.block = {64};
  p.name = "inline_throw";
  try {
    dev.launch_sync(p, [data] {
      auto& t = this_thread();
      data[t.flat_tid] = identity(t) + 1;
      if (t.flat_tid == 9) throw std::runtime_error("thread 9 failed");
      if (t.flat_tid == 3) t.block->sync_threads(t);
    });
    FAIL() << "expected the kernel's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thread 9 failed");
  }
  EXPECT_EQ(hash_out(out), 0xa3b3d3fd8f57c52cull);
  EXPECT_FALSE(in_kernel());
  std::uint64_t host_counter = 5;
  EXPECT_EQ(atomic_add(&host_counter, std::uint64_t{2}), 5u);
  EXPECT_EQ(host_counter, 7u);
  // The device runs the next launch as usual.
  const LaunchRecord rec = dev.launch_sync(p, [data] {
    auto& t = this_thread();
    t.block->sync_threads(t);
    data[t.flat_tid] = t.flat_tid;
  });
  EXPECT_EQ(rec.stats.block_barriers, 1u);
  EXPECT_EQ(out[63], 63u);
}

/// Sets the process-wide exec policy for a scope and restores the
/// previous one on exit, also when the launch inside throws.
struct ScopedPolicy {
  explicit ScopedPolicy(ExecPolicy p) : saved(exec_policy()) {
    set_exec_policy(p);
  }
  ~ScopedPolicy() { set_exec_policy(saved); }
  ExecPolicy saved;
};

/// One cooperative launch of `mk`, its kernel hinted convergent, under
/// `policy`: kAuto routes it to ExecMode::kDirect, kFiber keeps it on
/// fibers.
RunResult run_exec(ExecPolicy policy, unsigned workers, const KernelMaker& mk,
                   const char* name) {
  const ScopedPolicy scoped(policy);
  set_exec_hint(name, {true, false});
  Device dev = make_dev(workers);
  RunResult r;
  r.out.assign(kBlocks * kThreads, 0);
  LaunchParams p;
  p.grid = {kBlocks};
  p.block = {kThreads};
  p.name = name;
  r.rec = dev.launch_sync(p, mk(r.out.data()));
  return r;
}

/// Runs hinted `mk` on fibers (OMPX_EXEC=fiber) and routed direct
/// (OMPX_EXEC=auto) and checks outputs, LaunchStats and modeled time
/// are identical. Modeled time is *bit*-identical by construction: the
/// host-engine counters never feed the performance model — the
/// executor changes wall time only. The direct runs must really have
/// been direct: every thread a plain call, no fiber.
void expect_identical_across_exec_modes(const KernelMaker& mk,
                                        const char* name) {
  const RunResult ref = run_exec(ExecPolicy::kFiber, 1, mk, name);
  EXPECT_EQ(ref.rec.exec_mode, "fiber");
  EXPECT_EQ(ref.rec.stats.sched_lane_loops, 0u);
  for (const unsigned workers : {1u, 3u}) {
    const RunResult r = run_exec(ExecPolicy::kAuto, workers, mk, name);
    EXPECT_EQ(r.out, ref.out)
        << name << ": outputs diverged (exec=direct, workers=" << workers
        << ")";
    EXPECT_EQ(modeled_counts(r.rec.stats), modeled_counts(ref.rec.stats))
        << name << " workers=" << workers;
    EXPECT_EQ(r.rec.time.total_ms, ref.rec.time.total_ms);
    EXPECT_EQ(r.rec.exec_mode, "direct");
    EXPECT_EQ(r.rec.stats.sched_lane_loops, kBlocks * kThreads);
    EXPECT_EQ(r.rec.stats.fibers_created + r.rec.stats.fiber_reuses, 0u);
  }
  clear_exec_hints();
}

TEST(ExecModeDifferential, SyncFreeKernelRunsEveryThreadInline) {
  expect_identical_across_exec_modes(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t flat =
              t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
              t.flat_tid;
          out[flat] = flat * 7 + 3;
        };
      },
      "exec_sync_free");
}

TEST(ExecModeDifferential, OneBarrierWithEarlyExitsMatchesFiber) {
  // A shared tile staged before the block's one barrier and read
  // across lanes after it; every fifth lane leaves before the barrier,
  // so the release must count exited lanes as the fiber scheduler does.
  expect_identical_across_exec_modes(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t n = t.block_dim.count();
          const std::uint64_t flat =
              t.grid_dim.linear(t.block_idx) * n + t.flat_tid;
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, n * sizeof(std::uint64_t), 8));
          sh[t.flat_tid] = flat * 3 + 1;
          if (t.flat_tid % 5 == 4) {
            out[flat] = 100 + flat;
            return;
          }
          t.block->sync_threads(t);
          out[flat] = sh[(t.flat_tid + 1) % n] + sh[n - 1 - t.flat_tid];
        };
      },
      "exec_one_barrier");
}

TEST(ExecModeDifferential, AtomicsRunInPlaceAndMatchFiber) {
  // Every lane's RMW runs once, in place: the sum is exact and the
  // atomic count matches the fiber run.
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      atomic_add(out, std::uint64_t{1});
      const std::uint64_t flat =
          t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
      if (flat != 0) out[flat] = flat + 11;
    };
  };
  expect_identical_across_exec_modes(mk, "exec_atomic_sum");
  const RunResult r = run_exec(ExecPolicy::kAuto, 1, mk, "exec_atomic_sum");
  EXPECT_EQ(r.out[0], kBlocks * kThreads);
  EXPECT_EQ(r.rec.stats.atomics, kBlocks * kThreads);
  clear_exec_hints();
}

TEST(ExecModeDifferential, AtomicBeforeTheOneBarrierRunsInPlace) {
  // A hinted kernel may mix atomics with its one barrier: each lane's
  // RMW runs once, before the barrier releases, so every lane reads
  // its block's full count after it.
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      const std::uint64_t base =
          t.grid_dim.linear(t.block_idx) * t.block_dim.count();
      atomic_add(&out[base], std::uint64_t{1});
      t.block->sync_threads(t);
      if (t.flat_tid != 0)
        out[base + t.flat_tid] = out[base] * 1000 + t.flat_tid;
    };
  };
  expect_identical_across_exec_modes(mk, "exec_atomic_then_barrier");
  const RunResult r =
      run_exec(ExecPolicy::kAuto, 1, mk, "exec_atomic_then_barrier");
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(r.out[b * kThreads], kThreads) << "block " << b;
    EXPECT_EQ(r.out[b * kThreads + 5], kThreads * 1000 + 5) << "block " << b;
  }
  EXPECT_EQ(r.rec.stats.atomics, kBlocks * kThreads);
  clear_exec_hints();
}

/// The std::logic_error a hinted kernel raises when it synchronizes
/// beyond what ExecMode::kDirect runs.
std::string hinted_direct_error(const KernelMaker& mk, const char* name) {
  try {
    run_exec(ExecPolicy::kAuto, 1, mk, name);
  } catch (const std::logic_error& e) {
    clear_exec_hints();
    return e.what();
  }
  clear_exec_hints();
  ADD_FAILURE() << name << ": expected a std::logic_error";
  return "";
}

TEST(ExecModeDifferential, HintedKernelAtASecondBarrierThrowsNamingIt) {
  const std::string msg = hinted_direct_error(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          const std::uint64_t n = t.block_dim.count();
          auto* sh = static_cast<std::uint64_t*>(
              t.block->shared_alloc(t, n * sizeof(std::uint64_t), 8));
          sh[t.flat_tid] = t.flat_tid;
          t.block->sync_threads(t);
          for (std::uint64_t s = n / 2; s > 0; s /= 2) {
            if (t.flat_tid < s) sh[t.flat_tid] += sh[t.flat_tid + s];
            t.block->sync_threads(t);
          }
          out[t.flat_tid] = sh[0];
        };
      },
      "exec_barrier_tree");
  EXPECT_NE(msg.find("second block barrier"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'exec_barrier_tree'"), std::string::npos) << msg;
}

TEST(ExecModeDifferential, HintedKernelAtAWarpShuffleThrowsNamingIt) {
  const std::string msg = hinted_direct_error(
      [](std::uint64_t* out) -> KernelFn {
        return [out] {
          auto& t = this_thread();
          out[t.flat_tid] =
              t.warp->collective(t, WarpOp::kShflXor, t.flat_tid, 1, ~0ull);
        };
      },
      "exec_warp_shuffle");
  EXPECT_NE(msg.find("warp collective"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'exec_warp_shuffle'"), std::string::npos) << msg;
}

TEST(ExecPolicy, LaunchesNeverRewriteTheHintRegistry) {
  // Hints come only from registration. An unhinted atomic kernel runs
  // on fibers, exactly, and leaves no hint behind; a hinted kernel
  // that throws at a second barrier keeps its hint, so the next
  // launch under that name runs direct again.
  clear_exec_hints();
  {
    const ScopedPolicy scoped(ExecPolicy::kAuto);
    Device dev = make_dev(1);
    LaunchParams p;
    p.grid = {kBlocks};
    p.block = {kThreads};
    p.name = "exec_atomic_unhinted";
    std::uint64_t sum = 0;
    const LaunchRecord rec =
        dev.launch_sync(p, [&sum] { atomic_add(&sum, std::uint64_t{1}); });
    EXPECT_EQ(sum, kBlocks * kThreads);
    EXPECT_EQ(rec.exec_mode, "fiber");
    EXPECT_EQ(rec.stats.sched_lane_loops, 0u);
    EXPECT_FALSE(exec_hint("exec_atomic_unhinted").convergent);
    EXPECT_FALSE(exec_hint("exec_atomic_unhinted").needs_fibers);
  }
  const KernelMaker two_barriers = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      t.block->sync_threads(t);
      t.block->sync_threads(t);
      out[t.flat_tid] = 1;
    };
  };
  set_exec_hint("exec_relaunch", {true, false});
  {
    const ScopedPolicy scoped(ExecPolicy::kAuto);
    Device dev = make_dev(1);
    LaunchParams p;
    p.grid = {1};
    p.block = {kThreads};
    p.name = "exec_relaunch";
    std::vector<std::uint64_t> out(kThreads, 0);
    EXPECT_THROW(dev.launch_sync(p, two_barriers(out.data())),
                 std::logic_error);
    EXPECT_TRUE(exec_hint("exec_relaunch").convergent);
    EXPECT_FALSE(exec_hint("exec_relaunch").needs_fibers);
    const LaunchRecord rec = dev.launch_sync(p, [&out] {
      out[this_thread().flat_tid] = 2;
    });
    EXPECT_EQ(rec.exec_mode, "direct");
    EXPECT_EQ(rec.stats.sched_lane_loops, kThreads);
    EXPECT_EQ(out, std::vector<std::uint64_t>(kThreads, 2));
  }
  clear_exec_hints();
}

TEST(ExecModeDifferential, GraphReplayOfAHintedKernelMatchesItsLiveLaunch) {
  // Graph instantiate resolves the hinted node to kDirect once; each
  // replay must compute what a live launch computes, with the same
  // counts and modeled time.
  const ScopedPolicy scoped(ExecPolicy::kAuto);
  set_exec_hint("exec_graph", {true, false});
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      const std::uint64_t n = t.block_dim.count();
      const std::uint64_t flat = t.grid_dim.linear(t.block_idx) * n +
                                 t.flat_tid;
      auto* sh = static_cast<std::uint64_t*>(
          t.block->shared_alloc(t, n * sizeof(std::uint64_t), 8));
      sh[t.flat_tid] = flat;
      t.block->sync_threads(t);
      out[flat] += sh[n - 1 - t.flat_tid] + 1;
    };
  };
  Device dev = make_dev(1);
  LaunchParams p;
  p.grid = {kBlocks};
  p.block = {kThreads};
  p.name = "exec_graph";
  auto& prof = Profiler::instance();
  Stream& s = dev.default_stream();
  const auto counters_of = [&](const std::function<void()>& run) {
    prof.start();
    prof.reset();
    run();
    s.synchronize();
    const ProfilerCounters c = prof.counters();
    prof.stop();
    prof.reset();
    return c;
  };
  std::vector<std::uint64_t> live(kBlocks * kThreads, 0);
  const ProfilerCounters lc =
      counters_of([&] { s.launch(p, mk(live.data())); });
  std::vector<std::uint64_t> replayed(kBlocks * kThreads, 0);
  s.begin_capture();
  s.launch(p, mk(replayed.data()));
  std::unique_ptr<Graph> g = s.end_capture();
  g->instantiate();
  const ProfilerCounters rc = counters_of([&] { s.launch_graph(*g); });
  EXPECT_EQ(replayed, live);
  EXPECT_EQ(dev.last_launch().exec_mode, "direct");
  EXPECT_EQ(lc.lane_loops, kBlocks * kThreads);
  EXPECT_EQ(rc.lane_loops, kBlocks * kThreads);
  EXPECT_EQ(rc.threads, lc.threads);
  EXPECT_EQ(rc.block_barriers, lc.block_barriers);
  EXPECT_EQ(rc.block_barriers, kBlocks);
  EXPECT_EQ(rc.modeled_kernel_ms, lc.modeled_kernel_ms);
  clear_exec_hints();
}

TEST(ExecPolicy, AutoRoutesHintedKernelsDirect) {
  const ScopedPolicy scoped(ExecPolicy::kAuto);
  clear_exec_hints();
  Device dev = make_dev(1);
  LaunchParams p;
  p.grid = {2};
  p.block = {32};
  p.name = "auto_kernel";
  // Unhinted kernels stay on fibers under auto.
  LaunchRecord rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "fiber");
  EXPECT_EQ(rec.stats.sched_lane_loops, 0u);
  // A convergent hint runs the launch as plain calls...
  set_exec_hint("auto_kernel", {true, false});
  rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "direct");
  EXPECT_EQ(rec.stats.sched_lane_loops, 64u);
  EXPECT_EQ(rec.stats.fibers_created + rec.stats.fiber_reuses, 0u);
  // ...needs_fibers pins fibers whatever convergent says...
  set_exec_hint("auto_kernel", {true, true});
  rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "fiber");
  // ...and OMPX_EXEC=fiber ignores the hints.
  set_exec_hint("auto_kernel", {true, false});
  set_exec_policy(ExecPolicy::kFiber);
  rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "fiber");
  EXPECT_EQ(rec.stats.sched_lane_loops, 0u);
  // A launch that asks for kDirect runs direct under either policy.
  p.mode = ExecMode::kDirect;
  rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "direct");
  EXPECT_EQ(rec.stats.sched_lane_loops, 64u);
  clear_exec_hints();
}

TEST(SchedulerDeadlock, CensusMessageShapeIdenticalAcrossSchedulers) {
  // Thread 0 waits on a two-lane warp collective lane 1 never joins
  // (lane 1 sits at the block barrier with everyone else): a genuine
  // deadlock. The census must read, byte for byte, as both the ready
  // queue and the former sweep scheduler reported it.
  Device dev = make_dev(1);
  LaunchParams p;
  p.grid = {1};
  p.block = {kThreads};
  p.name = "census";
  try {
    dev.launch_sync(p, [] {
      auto& t = this_thread();
      if (t.flat_tid == 0) {
        t.warp->collective(t, WarpOp::kSync, 0, 0, 0b11);
      } else {
        t.block->sync_threads(t);
      }
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "SIMT deadlock in block scheduler (kernel 'census', block "
              "(0,0,0)): 64 live threads, 63 at block barrier, 1 in warp "
              "collectives. Divergent synchronization (threads of one block "
              "taking sync paths that can never all meet) is the usual "
              "cause. [barrier divergence: the stranded threads wait at "
              "barrier epoch 0, which the remaining threads can never "
              "release]");
  }
}

}  // namespace

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

RunResult run_exec(LaneExec exec, unsigned workers, const KernelMaker& mk,
                   const char* name) {
  Device dev = make_dev(workers);
  RunResult r;
  r.out.assign(kBlocks * kThreads, 0);
  LaunchParams p;
  p.grid = {kBlocks};
  p.block = {kThreads};
  p.name = name;
  p.lane_exec = exec;
  r.rec = dev.launch_sync(p, mk(r.out.data()));
  return r;
}

/// Runs `mk` under the fiber path and the convergent lane loop and
/// checks outputs, semantic counters, and modeled time are identical.
/// Modeled time is *bit*-identical by construction: the lane-loop
/// counters (sched_lane_loops / sched_deflations) live in the
/// host-diagnostics section of LaunchStats, which never feeds the
/// performance model — execution strategy changes wall time only.
void expect_identical_across_exec_modes(const KernelMaker& mk,
                                        const char* name) {
  clear_exec_hints();
  const RunResult ref = run_exec(LaneExec::kFiber, 1, mk, name);
  for (const unsigned workers : {1u, 3u}) {
    clear_exec_hints();  // each run re-probes instead of inheriting verdicts
    const RunResult r = run_exec(LaneExec::kConvergent, workers, mk, name);
    EXPECT_EQ(r.out, ref.out)
        << name << ": outputs diverged (exec=convergent, workers=" << workers
        << ")";
    EXPECT_EQ(r.rec.stats.block_barriers, ref.rec.stats.block_barriers);
    EXPECT_EQ(r.rec.stats.warp_collectives, ref.rec.stats.warp_collectives);
    EXPECT_EQ(r.rec.stats.warp_syncs, ref.rec.stats.warp_syncs);
    EXPECT_EQ(r.rec.stats.atomics, ref.rec.stats.atomics);
    EXPECT_EQ(r.rec.stats.globalized_bytes, ref.rec.stats.globalized_bytes);
    EXPECT_EQ(r.rec.time.total_ms, ref.rec.time.total_ms);
    EXPECT_EQ(r.rec.exec_mode, "convergent");
  }
  EXPECT_EQ(ref.rec.exec_mode, "fiber");
  EXPECT_EQ(ref.rec.stats.sched_lane_loops, 0u);
}

TEST(ExecModeDifferential, SyncFreeKernelRunsEveryThreadInline) {
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      const std::uint64_t flat =
          t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
      out[flat] = flat * 7 + 3;
    };
  };
  expect_identical_across_exec_modes(mk, "exec_sync_free");
  // The convergent run must actually have taken the fiber-free path:
  // every thread inline, zero fibers, zero deflations.
  clear_exec_hints();
  const RunResult r = run_exec(LaneExec::kConvergent, 1, mk, "exec_sync_free");
  EXPECT_EQ(r.rec.stats.sched_lane_loops, kBlocks * kThreads);
  EXPECT_EQ(r.rec.stats.sched_deflations, 0u);
  EXPECT_EQ(r.rec.stats.fibers_created + r.rec.stats.fiber_reuses, 0u);
}

TEST(ExecModeDifferential, BarrierTreeDeflatesOncePerBlockThenMatches) {
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
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
  };
  expect_identical_across_exec_modes(mk, "exec_barrier_tree");
  // Thread 0 of the first block probes, deflates at its first barrier,
  // and note_exec_deflation pins needs_fibers — so only the first block
  // of the launch pays a probe, and the next launch pays none.
  clear_exec_hints();
  const RunResult probe =
      run_exec(LaneExec::kConvergent, 1, mk, "exec_barrier_tree");
  EXPECT_EQ(probe.rec.stats.sched_deflations, kBlocks);
  EXPECT_EQ(probe.rec.stats.sched_lane_loops, 0u);
  EXPECT_TRUE(exec_hint("exec_barrier_tree").needs_fibers);
  const RunResult learned =
      run_exec(LaneExec::kConvergent, 1, mk, "exec_barrier_tree");
  EXPECT_EQ(learned.rec.stats.sched_deflations, 0u);
  EXPECT_EQ(learned.rec.exec_mode, "fiber");
}

TEST(ExecModeDifferential, WarpButterflyAndEarlyExitWaves) {
  expect_identical_across_exec_modes(
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
      "exec_warp_butterfly");
  expect_identical_across_exec_modes(
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
            *sh += 1;
            t.block->sync_threads(t);
          }
          out[flat] = *sh;
        };
      },
      "exec_early_exit");
}

TEST(ExecModeDifferential, AtomicsDeflateBeforeExecutingTheRmw) {
  // The kernel's only collective-ish operation is a global atomic: the
  // convergent probe must deflate *before* the RMW executes, so the
  // replayed thread adds exactly once and the final sum matches fiber
  // mode exactly.
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
  clear_exec_hints();
  const RunResult r = run_exec(LaneExec::kConvergent, 1, mk, "exec_atomic_sum");
  EXPECT_EQ(r.out[0], kBlocks * kThreads);
  EXPECT_EQ(r.rec.stats.atomics, kBlocks * kThreads);
  EXPECT_GE(r.rec.stats.sched_deflations, 1u);
}

TEST(ExecModeDifferential, AtomicsOkHintRunsAtomicsInlineNoDeflation) {
  // With the analyzer's atomics_ok verdict registered, the lane loop
  // runs the RMW in place: every lane completes fiber-free, nothing
  // deflates, and the sum is exact (each lane adds exactly once).
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] { atomic_add(out, std::uint64_t{1}); };
  };
  clear_exec_hints();
  set_exec_hint("exec_atomic_inline", {true, false, true});
  const RunResult r =
      run_exec(LaneExec::kConvergent, 1, mk, "exec_atomic_inline");
  EXPECT_EQ(r.out[0], kBlocks * kThreads);
  EXPECT_EQ(r.rec.stats.sched_deflations, 0u);
  EXPECT_EQ(r.rec.stats.sched_lane_loops, kBlocks * kThreads);
  EXPECT_EQ(r.rec.stats.atomics, kBlocks * kThreads);
  clear_exec_hints();
}

TEST(ExecModeDifferential, BarrierAfterInlineAtomicIsALogicError) {
  // atomics_ok promises no rendezvous after an atomic — once the RMW
  // ran inline the lane's prefix is not replayable, so a barrier must
  // fail loudly (wrong hint) instead of deflating into corruption.
  clear_exec_hints();
  set_exec_hint("exec_atomic_then_sync", {true, false, true});
  Device dev = make_dev(1);
  LaunchParams p;
  p.grid = {1};
  p.block = {kThreads};
  p.name = "exec_atomic_then_sync";
  p.lane_exec = LaneExec::kConvergent;
  std::uint64_t cell = 0;
  try {
    dev.launch_sync(p, [&cell] {
      auto& t = this_thread();
      atomic_add(&cell, std::uint64_t{1});
      t.block->sync_threads(t);
    });
    FAIL() << "barrier after an inline atomic must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("atomics_ok"), std::string::npos)
        << e.what();
  }
  clear_exec_hints();
}

TEST(ExecModeDifferential, UnhintedAtomicStillDeflatesSafely) {
  // Without the hint the old conservative behavior is untouched: the
  // probe deflates before the RMW executes and the result is exact.
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] { atomic_add(out, std::uint64_t{1}); };
  };
  clear_exec_hints();
  const RunResult r =
      run_exec(LaneExec::kConvergent, 1, mk, "exec_atomic_unhinted");
  EXPECT_EQ(r.out[0], kBlocks * kThreads);
  EXPECT_GE(r.rec.stats.sched_deflations, 1u);
  EXPECT_TRUE(exec_hint("exec_atomic_unhinted").needs_fibers);
  clear_exec_hints();
}

TEST(ExecModeDifferential, CensusMessageShapeIdenticalUnderConvergent) {
  // The deflation probe must not distort the deadlock census: thread 0
  // deflates at its warp collective, the block restarts on fibers, and
  // the report reads exactly as in fiber mode.
  clear_exec_hints();
  for (const LaneExec exec : {LaneExec::kFiber, LaneExec::kConvergent}) {
    Device dev = make_dev(1);
    LaunchParams p;
    p.grid = {1};
    p.block = {kThreads};
    p.name = "census_exec";
    p.lane_exec = exec;
    clear_exec_hints();
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
      const std::string msg = e.what();
      EXPECT_NE(msg.find("SIMT deadlock in block scheduler"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(kernel 'census_exec', block (0,0,0))"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("64 live threads, 63 at block barrier, "
                         "1 in warp collectives"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(ExecPolicy, AutoConsultsHintsAndDeflationLearns) {
  const ExecPolicy saved = exec_policy();
  clear_exec_hints();
  set_exec_policy(ExecPolicy::kAuto);
  Device dev = make_dev(1);
  LaunchParams p;
  p.grid = {2};
  p.block = {32};
  p.name = "auto_kernel";
  // Unhinted kernels stay on fibers under auto (conservative default).
  LaunchRecord rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "fiber");
  // A convergent hint opts the kernel in...
  set_exec_hint("auto_kernel", {true, false});
  rec = dev.launch_sync(p, [] {});
  EXPECT_EQ(rec.exec_mode, "convergent");
  EXPECT_EQ(rec.stats.sched_lane_loops, 64u);
  // ...and a hint that was wrong about synchronization is corrected by
  // the first deflation: auto routes back to fibers from then on.
  set_exec_hint("auto_sync_kernel", {true, false});
  p.name = "auto_sync_kernel";
  rec = dev.launch_sync(p, [] {
    auto& t = this_thread();
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.exec_mode, "convergent");
  EXPECT_GE(rec.stats.sched_deflations, 1u);
  EXPECT_TRUE(exec_hint("auto_sync_kernel").needs_fibers);
  rec = dev.launch_sync(p, [] {
    auto& t = this_thread();
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.exec_mode, "fiber");
  set_exec_policy(saved);
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

TEST(SchedulerOptions, ExplicitStealChunkProducesSameResults) {
  // steal_chunk_blocks only changes how blocks are batched onto
  // workers, never what they compute.
  const KernelMaker mk = [](std::uint64_t* out) -> KernelFn {
    return [out] {
      auto& t = this_thread();
      const std::uint64_t flat =
          t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
      t.block->sync_threads(t);
      out[flat] = flat * 13 + 5;
    };
  };
  const RunResult ref = run_one(1, mk, "chunk");
  for (const std::uint64_t chunk : {1ull, 2ull, 64ull}) {
    DeviceConfig c = make_sim_a100_config();
    c.name = "sched-test";
    EngineOptions o;
    o.workers = 3;
    o.steal_chunk_blocks = chunk;
    Device dev(c, o);
    std::vector<std::uint64_t> out(kBlocks * kThreads, 0);
    LaunchParams p;
    p.grid = {kBlocks};
    p.block = {kThreads};
    p.name = "chunk";
    const LaunchRecord rec = dev.launch_sync(p, mk(out.data()));
    EXPECT_EQ(out, ref.out) << "chunk=" << chunk;
    EXPECT_EQ(rec.stats.block_barriers, ref.rec.stats.block_barriers);
    EXPECT_EQ(rec.time.total_ms, ref.rec.time.total_ms);
  }
}

}  // namespace

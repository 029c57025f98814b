// Multi-worker block execution: results and statistics are identical
// for any worker count (blocks are independent, CUDA semantics), and
// the persistent block-worker pool behind it stays bounded, shares
// itself between concurrent launchers, survives throwing blocks, and
// keeps its threads' fiber caches warm across launches. The same pool is
// the process's only host thread pool: stream executors, serve
// schedulers and the watchdog monitor post their work to it instead of
// owning threads. A grid whose own first blocks say the rest finish
// quickly stays on the launching thread instead of waking helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/serve.h"
#include "simt/atomics.h"
#include "simt/simt.h"

namespace {

using namespace simt;

Device make_dev(unsigned workers) {
  DeviceConfig c = make_sim_a100_config();
  c.name = "workers-test";
  EngineOptions o;
  o.workers = workers;
  return Device(c, o);
}

class WorkerSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkerSweep, ResultsIdenticalToSequential) {
  Device dev = make_dev(GetParam());
  constexpr std::uint64_t kBlocks = 37, kThreads = 64;
  std::vector<std::uint64_t> out(kBlocks * kThreads, 0);
  auto* p = out.data();
  LaunchParams lp;
  lp.grid = {kBlocks};
  lp.block = {kThreads};
  lp.name = "worker_sweep";
  auto rec = dev.launch_sync(lp, [=] {
    auto& t = this_thread();
    const std::uint64_t flat =
        t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
    t.block->sync_threads(t);  // exercise the cooperative path too
    p[flat] = flat * 7 + t.warp_id;
  });
  for (std::uint64_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], i * 7 + (i % kThreads) / 32);
  EXPECT_EQ(rec.stats.block_barriers, kBlocks);
  EXPECT_EQ(rec.stats.threads, kBlocks * kThreads);
}

TEST_P(WorkerSweep, AtomicsAcrossWorkersAreExact) {
  Device dev = make_dev(GetParam());
  long long sum = 0;
  LaunchParams lp;
  lp.grid = {64};
  lp.block = {128};
  lp.mode = ExecMode::kDirect;
  lp.name = "worker_atomics";
  auto rec = dev.launch_sync(lp, [&] { atomic_add(&sum, 3LL); });
  EXPECT_EQ(sum, 3LL * 64 * 128);
  EXPECT_EQ(rec.stats.atomics, 64u * 128u);
}

TEST_P(WorkerSweep, ExceptionsPropagateFromAnyWorker) {
  Device dev = make_dev(GetParam());
  LaunchParams lp;
  lp.grid = {16};
  lp.block = {8};
  lp.mode = ExecMode::kDirect;
  lp.name = "worker_throw";
  EXPECT_THROW(dev.launch_sync(lp,
                               [] {
                                 const auto& t = this_thread();
                                 if (t.grid_dim.linear(t.block_idx) == 11 &&
                                     t.flat_tid == 3)
                                   throw std::runtime_error("worker 11/3");
                               }),
               std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> n{0};
  dev.launch_sync(lp, [&] { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16 * 8);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

// --- the persistent block-worker pool -------------------------------------

std::size_t process_threads() {
  namespace fs = std::filesystem;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator{}));
}

/// Spins until `done()` holds, for at most ten seconds (a broken pool
/// then fails the test's assertions instead of hanging it).
template <typename Pred>
void spin_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

/// Spins the calling OS thread for `ns` of wall time.
void spin_for(std::chrono::nanoseconds ns) {
  const auto until = std::chrono::steady_clock::now() + ns;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// A block this long on the launching thread makes it wake helpers for
/// the blocks after it: well past the 30 µs a fan-out costs (kFanOutNs
/// in device.cpp) even with one block left. Before that, no helper is
/// awake, so a test whose blocks wait for other OS threads runs the
/// launcher's first block (always block 0) this long instead.
constexpr std::chrono::microseconds kWakesHelpers{200};

TEST(BlockPool, ProcessThreadCountStaysBounded) {
  // Launches on a 2-worker and a 6-worker device share one pool of at
  // most 6 - 1 helpers; nothing is spawned per launch.
  Device two = make_dev(2);
  Device six = make_dev(6);
  // A sanitizer runtime (TSan) starts a thread of its own along with the
  // process's first thread; let that happen before the baseline.
  std::thread([] {}).join();
  const std::size_t before = process_threads();
  std::atomic<std::size_t> peak{before};
  LaunchParams lp;
  lp.grid = {12};
  lp.block = {32};
  lp.mode = ExecMode::kDirect;
  lp.name = "pool_thread_count";
  const KernelFn sample = [&] {
    if (this_thread().flat_tid != 0) return;
    const std::size_t now = process_threads();
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  for (int i = 0; i < 500; ++i)
    (void)(i % 2 == 0 ? two : six).launch_sync(lp, sample);
  EXPECT_LE(peak.load(), before + 5);
  EXPECT_LE(process_threads(), before + 5);
}

TEST(BlockPool, ConcurrentLaunchersGetExactOutputsAndStats) {
  Device dev = make_dev(4);
  constexpr std::uint32_t kBlocks = 37, kThreads = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> hosts;
  for (std::uint64_t h = 0; h < 4; ++h) {
    hosts.emplace_back([&, h] {
      std::vector<std::uint64_t> out(kBlocks * kThreads);
      for (int it = 0; it < 25; ++it) {
        std::fill(out.begin(), out.end(), 0);
        LaunchParams lp;
        lp.grid = {kBlocks};
        lp.block = {kThreads};
        lp.name = "pool_concurrent";
        const LaunchRecord rec =
            dev.launch_sync(lp, [p = out.data(), h] {
              auto& t = this_thread();
              const std::uint64_t flat =
                  t.grid_dim.linear(t.block_idx) * t.block_dim.count() +
                  t.flat_tid;
              t.block->sync_threads(t);
              p[flat] = flat * 4 + h;
            });
        for (std::uint64_t i = 0; i < out.size(); ++i)
          if (out[i] != i * 4 + h) mismatches.fetch_add(1);
        if (rec.stats.blocks != kBlocks ||
            rec.stats.threads != kBlocks * kThreads ||
            rec.stats.block_barriers != kBlocks)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : hosts) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BlockPool, HelperExceptionPropagatesEveryTime) {
  Device dev = make_dev(4);
  const std::thread::id caller = std::this_thread::get_id();
  LaunchParams lp;
  lp.grid = {16};
  lp.block = {1};
  lp.mode = ExecMode::kDirect;
  lp.name = "pool_helper_throw";
  for (int i = 0; i < 100; ++i) {
    // The launcher's later blocks wait until a helper has thrown, so
    // every launch fails on a pool thread.
    std::atomic<bool> thrown{false};
    EXPECT_THROW(dev.launch_sync(lp,
                                 [&] {
                                   if (std::this_thread::get_id() != caller) {
                                     thrown.store(true);
                                     throw std::runtime_error("helper");
                                   }
                                   if (this_thread().block_idx.x == 0)
                                     spin_for(kWakesHelpers);
                                   else
                                     spin_until([&] { return thrown.load(); });
                                 }),
                 std::runtime_error)
        << "launch " << i;
  }
}

TEST(BlockPool, OneWorkerRunsEveryBlockOnTheCaller) {
  Device dev = make_dev(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  LaunchParams lp;
  lp.grid = {32};
  lp.block = {8};
  lp.mode = ExecMode::kDirect;
  lp.name = "pool_one_worker";
  const LaunchRecord rec = dev.launch_sync(lp, [&] {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_EQ(rec.stats.blocks, 32u);
}

TEST(BlockPool, SecondFiberLaunchCreatesNoFibers) {
  Device dev = make_dev(4);
  LaunchParams lp;
  lp.grid = {16};
  lp.block = {256};
  lp.name = "pool_warm_fibers";
  std::mutex mu;
  std::set<std::thread::id> ran;
  bool rendezvous = true;
  const auto distinct = [&] {
    std::lock_guard lock(mu);
    return ran.size();
  };
  const KernelFn kernel = [&] {
    auto& t = this_thread();
    if (rendezvous && t.flat_tid == 0) {
      // Hold the first launch until all four OS threads (the caller and
      // three helpers) run a block, so each has filled its fiber cache.
      {
        std::lock_guard lock(mu);
        ran.insert(std::this_thread::get_id());
      }
      if (t.block_idx.x == 0)
        spin_for(kWakesHelpers);
      else
        spin_until([&] { return distinct() >= 4; });
    }
    t.block->sync_threads(t);
  };
  const LaunchRecord first = dev.launch_sync(lp, kernel);
  ASSERT_EQ(distinct(), 4u);
  // The first launch ran on fibers; an earlier launch in this process
  // may already have filled the caches it drew them from.
  EXPECT_GT(first.stats.fibers_created + first.stats.fiber_reuses, 0u);
  rendezvous = false;
  const LaunchRecord second = dev.launch_sync(lp, kernel);
  EXPECT_EQ(second.stats.fibers_created, 0u);
  EXPECT_EQ(second.stats.block_barriers, 16u);
}

// --- fanning a grid out only when it pays ---------------------------------

// Under TSan or ASan a block costs 10-25x its native host time (16
// one-lane blocks on one thread: ~110 µs under TSan, ~47 µs under
// ASan+UBSan, ~4.5 µs without), more than a fan-out, so no small grid
// stays on its launching thread there; the tests below still run every
// launch for the sanitizer's checks.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define OMPX_TEST_SLOW_BLOCKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define OMPX_TEST_SLOW_BLOCKS 1
#endif
#endif

/// Distinct OS threads that ran a launch's blocks (lane 0 of each block
/// records its thread).
struct ThreadSet {
  std::mutex mu;
  std::set<std::thread::id> ids;

  void note() {
    if (this_thread().flat_tid != 0) return;
    std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  }
  std::size_t size() {
    std::lock_guard lock(mu);
    return ids.size();
  }
  std::set<std::thread::id> take() {
    std::lock_guard lock(mu);
    return std::exchange(ids, {});
  }
};

TEST(FanOut, DefaultWorkersIsTheHardwareConcurrency) {
  const Device dev(make_sim_a100_config());
  EXPECT_EQ(dev.options().workers,
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_GE(dev.options().workers, 1u);
  EXPECT_EQ(make_dev(3).options().workers, 3u);
}

TEST(FanOut, TinyGridStaysOnTheLaunchingThread) {
  // 16 one-lane blocks: the launching thread finishes them long before
  // a helper could wake, so no launch wakes one, a name's first launch
  // included.
  Device dev = make_dev(4);
  const std::thread::id caller = std::this_thread::get_id();
  LaunchParams lp;
  lp.grid = {16};
  lp.block = {1};
  lp.mode = ExecMode::kDirect;
  ThreadSet threads;
  const KernelFn kernel = [&] { threads.note(); };
  // A launching thread descheduled while it runs its blocks (a loaded
  // host) fans that launch out; a window of 20 launches, the first of
  // its own name, may be retried for that, at most twice.
  const std::string names[] = {"fanout_tiny_0", "fanout_tiny_1",
                               "fanout_tiny_2"};
  bool stayed = false;
  for (const std::string& name : names) {
    lp.name = name.c_str();
    stayed = true;
    for (int i = 0; i < 20; ++i) {
      (void)dev.launch_sync(lp, kernel);
      stayed = stayed && threads.take() == std::set{caller};
    }
    if (stayed) break;
  }
#ifdef OMPX_TEST_SLOW_BLOCKS
  GTEST_SKIP() << "blocks are not tiny under a sanitizer";
#endif
  EXPECT_TRUE(stayed) << "3 windows of 20 launches each left the caller";
}

TEST(FanOut, ExpensiveBlocksRunOnEveryWorker) {
  // 256 blocks of ~200 µs each: far more than waking helpers costs, so
  // every launch spreads over all four OS threads (and lasts long
  // enough for a helper the host wakes late to join).
  Device dev = make_dev(4);
  LaunchParams lp;
  lp.grid = {256};
  lp.block = {1};
  lp.mode = ExecMode::kDirect;
  lp.name = "fanout_spin";
  ThreadSet threads;
  for (int launch = 0; launch < 3; ++launch) {
    (void)dev.launch_sync(lp, [&] {
      threads.note();
      spin_for(std::chrono::microseconds(200));
    });
    EXPECT_EQ(threads.take().size(), 4u) << "launch " << launch;
  }
}

TEST(FanOut, EachLaunchDecidesFromItsOwnBlocks) {
  // One name alternates cheap 16-block launches with ones whose blocks
  // cost ~200 µs each. No launch inherits the last one's decision:
  // every expensive launch wakes helpers, every cheap one stays on the
  // caller, and every launch matches the same launch on a one-worker
  // device.
  Device fanned = make_dev(4);
  Device alone = make_dev(1);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::uint32_t kBlocks = 16, kThreads = 8;
  LaunchParams lp;
  lp.grid = {kBlocks};
  lp.block = {kThreads};
  lp.mode = ExecMode::kDirect;
  lp.name = "fanout_each_launch";
  ThreadSet threads;
  for (std::uint64_t launch = 0; launch < 8; ++launch) {
    const bool expensive = launch % 2 == 1;
    lp.cost.flops_per_thread = static_cast<double>(launch);
    const auto run = [&](Device& dev, std::vector<std::uint64_t>& out,
                         std::uint64_t& sum) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      return dev.launch_sync(lp, [&] {
        auto& t = this_thread();
        const std::uint64_t flat =
            t.grid_dim.linear(t.block_idx) * t.block_dim.count() + t.flat_tid;
        if (&dev == &fanned) threads.note();
        if (expensive && t.flat_tid == 0) {
          spin_for(std::chrono::microseconds(200));
          // Past the launcher's first block, hold until a second OS
          // thread has run a block, so a helper the host wakes late
          // still shows.
          while (&dev == &fanned && t.block_idx.x != 0 &&
                 threads.size() < 2 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        }
        out[flat] = flat * (launch + 1);
        atomic_add(&sum, flat);
      });
    };
    std::vector<std::uint64_t> out(kBlocks * kThreads), ref(out.size());
    std::uint64_t sum = 0, ref_sum = 0;
    // A cheap launch whose thread is descheduled mid-launch (a loaded
    // host) fans out; it may be retried for that, at most twice.
    LaunchRecord rec;
    std::set<std::thread::id> ran;
    for (int attempt = 0; attempt < 3; ++attempt) {
      sum = 0;
      rec = run(fanned, out, sum);
      ran = threads.take();
      if (expensive || ran == std::set{caller}) break;
    }
    LaunchRecord want = run(alone, ref, ref_sum);
    if (expensive) {
      EXPECT_GT(ran.size(), 1u) << "launch " << launch;
    } else {
#ifndef OMPX_TEST_SLOW_BLOCKS
      EXPECT_EQ(ran, std::set{caller}) << "launch " << launch;
#endif
    }
    EXPECT_EQ(out, ref) << "launch " << launch;
    EXPECT_EQ(sum, ref_sum);
    rec.stats.sched_steals = want.stats.sched_steals = 0;
    EXPECT_EQ(rec.stats, want.stats) << "launch " << launch;
    EXPECT_EQ(rec.time.total_ms, want.time.total_ms);
  }
}

TEST(FanOut, LongFirstBlockWakesHelpersBeforeItEnds) {
  // Block 0's 64 threads spin 20 µs each: the launcher's check inside
  // the block wakes helpers long before the block ends, so its last
  // thread sees a block run on another OS thread (it waits up to 2 s
  // for one). A cheap launch of the same name goes first: no launch
  // inherits another's decision.
  Device dev = make_dev(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const ExecMode mode : {ExecMode::kDirect, ExecMode::kCooperative}) {
    LaunchParams lp;
    lp.grid = {16};
    lp.block = {64};
    lp.mode = mode;
    lp.name = "fanout_long_first_block";
    (void)dev.launch_sync(lp, [] {});
    std::atomic<bool> elsewhere{false};
    bool seen = false;
    (void)dev.launch_sync(lp, [&] {
      const auto& t = this_thread();
      if (std::this_thread::get_id() != caller) {
        elsewhere.store(true);
        return;
      }
      if (t.block_idx.x != 0) return;
      spin_for(std::chrono::microseconds(20));
      if (t.flat_tid != 63) return;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!elsewhere.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      seen = elsewhere.load();
    });
    EXPECT_TRUE(seen) << exec_mode_name(mode);
  }
}

// --- one host thread pool -------------------------------------------------

TEST(HostPool, DeviceAndServerConstructionSpawnNoThreads) {
  Device& a100 = sim_a100();
  Device& mi250 = sim_mi250();
  const std::size_t before = process_threads();
  {
    Device dev = make_dev(4);
    EXPECT_EQ(process_threads(), before);
  }
  serve::Server server;
  serve::ClientContext* c0 = server.create_client(&a100);
  serve::ClientContext* c1 = server.create_client(&mi250);
  EXPECT_EQ(process_threads(), before);
  server.destroy_client(c0);
  server.destroy_client(c1);
}

TEST(HostPool, ThreadCountPeaksInTheFirstRound) {
  // Every kind of host work — stream ops on three streams of both
  // registry devices, serve requests, multi-block launches — runs on
  // the pool's helpers, which are reused; nothing is spawned per op.
  // The pool holds the block helpers the widest launch asked for plus
  // one task helper per task that ran at once. Each round holds its
  // stream and serve kernels until the host's own launch runs, so every
  // round runs the same tasks at once and the first round's peak is the
  // peak.
  Device* devs[] = {&sim_a100(), &sim_mi250()};
  serve::Server server;
  serve::ClientContext* clients[] = {server.create_client(devs[0]),
                                     server.create_client(devs[1])};
  std::vector<Stream*> streams;
  for (Device* d : devs)
    for (int i = 0; i < 3; ++i) streams.push_back(d->create_stream());
  std::atomic<std::size_t> peak{0};
  const auto sample = [&] {
    const std::size_t now = process_threads();
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  std::atomic<bool> host_launched{false};
  LaunchParams lp;
  lp.grid = {16};
  lp.block = {32};
  lp.mode = ExecMode::kDirect;
  lp.name = "pool_rounds";
  const KernelFn held = [&] {
    if (this_thread().flat_tid != 0 || this_thread().block_idx.x != 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!host_launched.load() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    sample();
  };
  const KernelFn host = [&] {
    if (this_thread().flat_tid != 0 || this_thread().block_idx.x != 0) return;
    sample();
    host_launched.store(true);
  };
  std::vector<int> data(64, 1);
  std::size_t first_peak = 0;
  for (int round = 0; round < 500; ++round) {
    host_launched.store(false);
    for (Stream* s : streams) {
      int* buf = static_cast<int*>(s->malloc_async(64 * sizeof(int)));
      s->memcpy_async(buf, data.data(), 64 * sizeof(int),
                      CopyKind::kHostToDevice);
      s->launch(lp, held);
      s->host_fn(sample);
      s->free_async(buf);
    }
    for (serve::ClientContext* c : clients) (void)c->submit(lp, held);
    (void)devs[round % 2]->launch_sync(lp, host);
    for (serve::ClientContext* c : clients) c->synchronize();
    for (Device* d : devs) d->synchronize();
    sample();
    if (round == 0) first_peak = peak.load();
    ASSERT_LE(peak.load(), first_peak) << "round " << round;
  }
  for (Stream* s : streams) s->device().destroy_stream(s);
  for (serve::ClientContext* c : clients) server.destroy_client(c);
}

TEST(HostPool, StreamKernelFansOutOverTheFullWorkerCount) {
  // A stream op runs on a pool helper that is not part of any launch's
  // helper budget: a 64-block kernel on a workers = 4 device still runs
  // on four OS threads, the draining helper plus three block helpers.
  Device dev = make_dev(4);
  Stream* s = dev.create_stream();
  std::mutex mu;
  std::set<std::thread::id> ran;
  const auto distinct = [&] {
    std::lock_guard lock(mu);
    return ran.size();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  LaunchParams lp;
  lp.grid = {64};
  lp.block = {1};
  lp.mode = ExecMode::kDirect;
  lp.name = "pool_stream_fanout";
  s->launch(lp, [&] {
    {
      std::lock_guard lock(mu);
      ran.insert(std::this_thread::get_id());
    }
    if (this_thread().block_idx.x == 0) {
      spin_for(kWakesHelpers);
      return;
    }
    while (distinct() < 4 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  s->synchronize();
  EXPECT_EQ(distinct(), 4u);
  EXPECT_EQ(ran.count(std::this_thread::get_id()), 0u);
  dev.destroy_stream(s);
}

}  // namespace

// Multi-worker block execution: results and statistics are identical
// for any worker count (blocks are independent, CUDA semantics), and
// the persistent block-worker pool behind it stays bounded, shares
// itself between concurrent launchers, survives throwing blocks, and
// keeps its threads' fiber caches warm across launches. The same pool is
// the process's only host thread pool: stream executors, serve
// schedulers and the watchdog monitor post their work to it instead of
// owning threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
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
    // Blocks on the launching thread wait until a helper has thrown,
    // so every launch fails on a pool thread.
    std::atomic<bool> thrown{false};
    EXPECT_THROW(dev.launch_sync(lp,
                                 [&] {
                                   if (std::this_thread::get_id() != caller) {
                                     thrown.store(true);
                                     throw std::runtime_error("helper");
                                   }
                                   spin_until([&] { return thrown.load(); });
                                 }),
                 std::runtime_error)
        << "launch " << i;
  }
  std::atomic<int> n{0};
  lp.grid = {64};
  dev.launch_sync(lp, [&] { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
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
  lp.lane_exec = LaneExec::kFiber;
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
      spin_until([&] { return distinct() >= 4; });
    }
    t.block->sync_threads(t);
  };
  const LaunchRecord first = dev.launch_sync(lp, kernel);
  ASSERT_EQ(distinct(), 4u);
  EXPECT_GT(first.stats.fibers_created, 0u);
  rendezvous = false;
  const LaunchRecord second = dev.launch_sync(lp, kernel);
  EXPECT_EQ(second.stats.fibers_created, 0u);
  EXPECT_EQ(second.stats.block_barriers, 16u);
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
    while (distinct() < 4 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  });
  s->synchronize();
  EXPECT_EQ(distinct(), 4u);
  EXPECT_EQ(ran.count(std::this_thread::get_id()), 0u);
  dev.destroy_stream(s);
}

}  // namespace

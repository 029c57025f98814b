// Multi-tenant serving layer tests: per-client accounting isolation,
// block-granularity time slicing (a small request completes while a
// huge one is still being chunked), priority classes and WRR weights,
// admission control, quota enforcement, fault containment (a client
// whose request times out or loses the device does not disturb its
// siblings), and clean teardown — including destroy-with-pending-work
// and the C-ABI / kl client handles. The multithreaded stress test is
// the tier-1 gate for OMPX_SAN=race,mem,sync and TSan runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ompx.h"
#include "kl/kl.h"
#include "serve/serve.h"
#include "simt/simt.h"

namespace {

using namespace kl;
using serve::ClientContext;
using serve::ClientLimits;
using serve::ClientStats;
using serve::Server;

simt::LaunchParams grid1d(std::uint32_t blocks, std::uint32_t threads,
                          const char* name) {
  simt::LaunchParams p;
  p.grid = {blocks, 1, 1};
  p.block = {threads, 1, 1};
  p.name = name;
  return p;
}

// --- basic execution ------------------------------------------------------

/// The LaunchStats fields that feed the model. The host-engine
/// diagnostics (fibers, steals, lane loops) depend on host scheduling
/// and fiber-pool state, so two runs of one launch need not agree.
void expect_same_modeled_stats(const simt::LaunchStats& a,
                               const simt::LaunchStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.block_barriers, b.block_barriers);
  EXPECT_EQ(a.warp_collectives, b.warp_collectives);
  EXPECT_EQ(a.warp_syncs, b.warp_syncs);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.runtime_init, b.runtime_init);
  EXPECT_EQ(a.generic_mode, b.generic_mode);
  EXPECT_EQ(a.parallel_handshakes, b.parallel_handshakes);
  EXPECT_EQ(a.workshare_dispatches, b.workshare_dispatches);
  EXPECT_EQ(a.globalized_bytes, b.globalized_bytes);
  EXPECT_EQ(a.spill_in_shared, b.spill_in_shared);
}

TEST(ServeBasic, ModeledKernelTotalIsTheLogSum) {
  // The running total must equal a re-sum of the log in log order, bit
  // for bit, whichever path appended each record.
  simt::Device& dev = simt::sim_a100();
  dev.synchronize();
  dev.clear_launch_log();
  Server server;
  server.set_quantum_blocks(8);  // serve launches append combined records
  ClientContext* c = server.create_client(&dev);
  const simt::KernelFn body = [] {
    auto& t = simt::this_thread();
    t.block->sync_threads(t);
  };
  for (std::uint32_t i = 0; i < 6; ++i) {
    (void)dev.launch_sync(grid1d(3 + i, 64, "total_sync"), body);
    dev.default_stream().launch(grid1d(2 + i, 32, "total_stream"), body);
    (void)c->launch(grid1d(20 + i, 64, "total_serve"), body);
  }
  dev.synchronize();
  const std::vector<simt::LaunchRecord> log = dev.launch_log();
  ASSERT_EQ(log.size(), 18u);
  double resum = 0.0;
  for (const simt::LaunchRecord& r : log) resum += r.time.total_ms;
  EXPECT_GT(resum, 0.0);
  EXPECT_EQ(dev.modeled_kernel_ms_total(), resum);
  dev.clear_launch_log();
  EXPECT_EQ(dev.modeled_kernel_ms_total(), 0.0);
  server.destroy_client(c);
}

TEST(ServeBasic, LaunchReturnsWithItsRecordLogged) {
  // The scheduler logs a request's combined record before it wakes the
  // waiting client, so the log is complete the moment launch() returns.
  simt::Device dev(simt::make_sim_a100_config());
  Server server;
  server.set_quantum_blocks(1);  // two slices per launch
  ClientContext* c = server.create_client(&dev);
  for (int i = 0; i < 200; ++i) {
    const std::size_t before = dev.launch_log().size();
    (void)c->launch(grid1d(2, 32, "logged_on_return"), [] {});
    ASSERT_EQ(dev.launch_log().size(), before + 1) << "launch " << i;
  }
  server.destroy_client(c);
}

TEST(ServeBasic, LaunchRunsFullGridAndCombinesRecord) {
  Server server;
  server.set_quantum_blocks(4);  // eight chunks of four blocks
  simt::Device& dev = simt::sim_a100();
  ClientContext* c = server.create_client(&dev);
  simt::LaunchParams p = grid1d(32, 64, "serve_basic");
  p.cost.shared_bytes_per_thread = 16;
  std::atomic<std::uint64_t> count{0};
  unsigned long long hits = 0;
  // Barriers, shared-memory traffic and one atomicAdd per block, so
  // every counter the combined record folds is nonzero.
  // The host-side count comes after the first barrier: a convergent
  // lane loop may replay the prefix before it.
  const simt::KernelFn body = [&] {
    unsigned* tile = shared_array<unsigned>(64);
    const unsigned tx = threadIdx().x;
    tile[tx] = tx;
    syncthreads();
    count.fetch_add(1, std::memory_order_relaxed);
    if (tx == 0) atomicAdd(&hits, 1ull);
    syncthreads();
  };
  const simt::LaunchRecord rec = c->launch(p, body);
  EXPECT_EQ(count.load(), 32u * 64u);
  EXPECT_EQ(hits, 32u);
  // The combined record reports the logical launch, not the chunks.
  EXPECT_EQ(rec.grid.x, 32u);
  EXPECT_EQ(rec.block.x, 64u);
  EXPECT_EQ(rec.stats.blocks, 32u);
  EXPECT_EQ(rec.stats.threads, 32u * 64u);
  EXPECT_GT(rec.time.total_ms, 0.0);

  const ClientStats st = c->stats();
  EXPECT_EQ(st.launches, 1u);
  EXPECT_EQ(st.launches_failed, 0u);
  EXPECT_EQ(st.blocks_executed, 32u);
  EXPECT_EQ(st.quanta, 8u);
  server.destroy_client(c);

  // Its stats equal one plain launch of the whole grid; its modeled
  // time, shared-memory time included, is the sum of its chunks'.
  const simt::LaunchRecord plain = dev.launch_sync(p, body);
  expect_same_modeled_stats(rec.stats, plain.stats);
  EXPECT_EQ(rec.stats.block_barriers, 2u * 32u);
  EXPECT_EQ(rec.stats.atomics, 32u);
  double chunks_ms = 0.0, chunks_shared_ms = 0.0;
  for (std::uint32_t b = 0; b < 32; b += 4) {
    const simt::ModeledTime t =
        dev.launch_sync(simt::slice_grid(p, b, 4), body).time;
    chunks_ms += t.total_ms;
    chunks_shared_ms += t.shared_ms;
  }
  EXPECT_GT(rec.time.shared_ms, 0.0);
  EXPECT_DOUBLE_EQ(rec.time.shared_ms, chunks_shared_ms);
  EXPECT_DOUBLE_EQ(rec.time.total_ms, chunks_ms);
}

TEST(ServeBasic, ChunkingCoversEveryBlockExactlyOnce) {
  Server server;
  server.set_quantum_blocks(4);
  ClientContext* c = server.create_client(&simt::sim_a100());
  // 19 blocks with a quantum of 4: five chunks (4+4+4+4+3), and every
  // block must run exactly once with shard-transparent ids.
  constexpr std::uint32_t kBlocks = 19;
  std::vector<std::atomic<int>> hits(kBlocks);
  for (auto& h : hits) h.store(0);
  auto* hp = hits.data();
  c->launch(grid1d(kBlocks, 8, "serve_chunks"), [hp] {
    const simt::ThreadCtx& t = simt::this_thread();
    if (t.flat_tid == 0) hp[t.block_idx.x].fetch_add(1);
    // Chunked launches must still present the logical grid.
    if (t.grid_dim.x != kBlocks) hp[0].fetch_add(1000);
  });
  for (std::uint32_t i = 0; i < kBlocks; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  const ClientStats st = c->stats();
  EXPECT_EQ(st.blocks_executed, kBlocks);
  EXPECT_EQ(st.quanta, 5u);
  server.destroy_client(c);
}

TEST(ServeBasic, LargestGridAxisIsChunked) {
  Server server;
  server.set_quantum_blocks(2);
  ClientContext* c = server.create_client(&simt::sim_a100());
  // A {1, 6, 1} grid chunks along y: three quanta, all six y-blocks.
  std::vector<std::atomic<int>> seen(6);
  for (auto& s : seen) s.store(0);
  auto* sp = seen.data();
  simt::LaunchParams p;
  p.grid = {1, 6, 1};
  p.block = {16, 1, 1};
  p.name = "serve_axis_y";
  c->launch(p, [sp] {
    const simt::ThreadCtx& t = simt::this_thread();
    if (t.flat_tid == 0) sp[t.block_idx.y].fetch_add(1);
  });
  for (int i = 0; i < 6; ++i) EXPECT_EQ(seen[i].load(), 1) << "y-block " << i;
  EXPECT_EQ(c->stats().quanta, 3u);
  server.destroy_client(c);
}

// --- quota + allocation isolation ----------------------------------------

TEST(ServeQuota, MallocChargesAndRejectsOverQuota) {
  Server server;
  ClientLimits lim;
  lim.memory_quota_bytes = 1 << 20;
  ClientContext* c = server.create_client(&simt::sim_a100(), lim);

  void* a = c->malloc(512 << 10);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(c->stats().bytes_live, 512u << 10);
  // 512K live + 768K would exceed the 1M quota.
  EXPECT_THROW(c->malloc(768 << 10), simt::DeviceOOMError);
  EXPECT_EQ(c->stats().quota_rejections, 1u);
  EXPECT_EQ(c->stats().bytes_live, 512u << 10) << "failed malloc charged";

  void* b = c->malloc(512 << 10);  // exactly at the quota
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(c->stats().bytes_peak, 1u << 20);
  c->free(a);
  c->free(b);
  const ClientStats st = c->stats();
  EXPECT_EQ(st.bytes_live, 0u);
  EXPECT_EQ(st.allocs, 2u);
  EXPECT_EQ(st.frees, 2u);
  server.destroy_client(c);
}

TEST(ServeQuota, CrossClientFreeIsRejected) {
  Server server;
  ClientContext* a = server.create_client(&simt::sim_a100());
  ClientContext* b = server.create_client(&simt::sim_a100());
  void* p = a->malloc(4096);
  ASSERT_NE(p, nullptr);
  // Tenant isolation: b cannot free (or double-charge) a's pointer.
  EXPECT_THROW(b->free(p), std::invalid_argument);
  EXPECT_EQ(b->stats().frees, 0u);
  EXPECT_EQ(a->stats().bytes_live, 4096u);
  a->free(p);
  EXPECT_EQ(a->stats().bytes_live, 0u);
  server.destroy_client(a);
  server.destroy_client(b);
}

// --- admission control ----------------------------------------------------

TEST(ServeAdmission, QueueDepthLimitRejectsWithAdmissionError) {
  Server server;
  ClientLimits lim;
  lim.max_pending = 2;
  ClientContext* c = server.create_client(&simt::sim_a100(), lim);
  // A gate request holds the scheduler so the queue genuinely fills.
  std::atomic<bool> release{false};
  c->submit(grid1d(1, 1, "serve_gate"), [&] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      c->submit(grid1d(1, 1, "serve_backlog"), [] {});
    } catch (const simt::AdmissionError&) {
      ++rejected;
    }
  }
  release.store(true, std::memory_order_release);
  c->synchronize();
  EXPECT_GT(rejected, 0);
  const ClientStats st = c->stats();
  EXPECT_EQ(st.admission_rejections, static_cast<std::uint64_t>(rejected));
  // Admitted requests all completed despite the rejections.
  EXPECT_EQ(st.launches + st.launches_failed + st.admission_rejections, 6u);
  EXPECT_EQ(st.launches_failed, 0u);
  server.destroy_client(c);
}

// --- scheduling: preemption, priority, weights ----------------------------

TEST(ServeSched, SmallRequestCompletesWhileHugeOneIsStillRunning) {
  Server server;
  server.set_quantum_blocks(4);
  ClientContext* huge = server.create_client(&simt::sim_a100());
  ClientContext* tiny = server.create_client(&simt::sim_a100());

  constexpr std::uint32_t kHugeBlocks = 256, kThreads = 32;
  // Hold the worker on a gate so both requests are queued before the
  // scheduler picks anything; the block order below is then decided by
  // the scheduler, not by submission timing.
  std::atomic<bool> release{false};
  huge->submit(grid1d(1, 1, "serve_gate"), [&] {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  std::mutex mu;
  std::vector<char> order;  // one tag per block, in scheduling order
  auto tagged = [&](char tag) {
    return [&, tag] {
      if (simt::this_thread().flat_tid == 0) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
      }
    };
  };
  huge->submit(grid1d(kHugeBlocks, kThreads, "serve_huge"), tagged('h'));
  tiny->submit(grid1d(4, kThreads, "serve_tiny"), tagged('t'));
  release.store(true, std::memory_order_release);
  tiny->synchronize();
  huge->synchronize();

  // The tiny client's 4-block request must be scheduled within the
  // huge grid's first couple of 4-block chunks, not after it drains:
  // that is the preemption the block-granular quanta buy.
  ASSERT_EQ(order.size(), std::size_t{kHugeBlocks} + 4);
  std::size_t last_tiny = 0, huge_before_tiny = 0;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (order[i] == 't') last_tiny = i;
  for (std::size_t i = 0; i < last_tiny; ++i)
    if (order[i] == 'h') huge_before_tiny++;
  EXPECT_LE(huge_before_tiny, 8u)
      << "tiny request waited " << huge_before_tiny
      << " huge blocks: no preemption happened";

  EXPECT_EQ(huge->stats().quanta, kHugeBlocks / 4 + 1);  // +1 for the gate
  server.destroy_client(huge);
  server.destroy_client(tiny);
}

TEST(ServeSched, HigherPriorityClassRunsFirst) {
  Server server;
  server.set_quantum_blocks(2);
  ClientLimits lowlim;
  lowlim.priority = 0;
  ClientLimits highlim;
  highlim.priority = 5;
  ClientContext* low = server.create_client(&simt::sim_a100(), lowlim);
  ClientContext* high = server.create_client(&simt::sim_a100(), highlim);

  std::mutex mu;
  std::vector<int> order;
  auto tagged = [&](int tag) {
    return [&, tag] {
      const simt::ThreadCtx& t = simt::this_thread();
      if (t.flat_tid == 0) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
      }
    };
  };
  // R1 is long enough (32 quanta) that R2 and H are queued behind it.
  low->submit(grid1d(64, 8, "serve_low_r1"), tagged(1));
  low->submit(grid1d(4, 8, "serve_low_r2"), tagged(2));
  high->submit(grid1d(4, 8, "serve_high"), tagged(3));
  low->synchronize();
  high->synchronize();

  // Every high-priority block ran before any block of the low client's
  // second request: the high class preempts the low backlog.
  int last_high = -1, first_tag2 = 1 << 30;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (int i = 0; i < static_cast<int>(order.size()); ++i) {
      if (order[i] == 3) last_high = std::max(last_high, i);
      if (order[i] == 2) first_tag2 = std::min(first_tag2, i);
    }
  }
  EXPECT_GE(last_high, 0);
  EXPECT_LT(last_high, first_tag2);
  server.destroy_client(low);
  server.destroy_client(high);
}

TEST(ServeSched, WeightsBiasTheShareUnderContention) {
  Server server;
  server.set_quantum_blocks(2);
  ClientLimits heavy_lim;
  heavy_lim.weight = 3;
  ClientLimits light_lim;
  light_lim.weight = 1;
  ClientContext* heavy = server.create_client(&simt::sim_a100(), heavy_lim);
  ClientContext* light = server.create_client(&simt::sim_a100(), light_lim);

  std::mutex mu;
  std::vector<int> order;  // one entry per completed request
  auto tagged = [&](int tag) {
    return [&, tag] {
      const simt::ThreadCtx& t = simt::this_thread();
      if (t.flat_tid == 0 && t.block_idx.x == 0) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(tag);
      }
    };
  };
  // A gate keeps the worker busy while both backlogs are submitted, so
  // the WRR comparison starts from a full queue on both sides.
  std::atomic<bool> release{false};
  heavy->submit(grid1d(1, 1, "serve_wrr_gate"), [&] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  constexpr int kEach = 12;  // one quantum per request (2 blocks)
  for (int i = 0; i < kEach; ++i)
    heavy->submit(grid1d(2, 8, "serve_wrr_heavy"), tagged(1));
  for (int i = 0; i < kEach; ++i)
    light->submit(grid1d(2, 8, "serve_wrr_light"), tagged(2));
  release.store(true, std::memory_order_release);
  heavy->synchronize();
  light->synchronize();

  // Weight 3 drains ~3x faster: when the heavy client's last request
  // ran, the light client should have completed only about a third of
  // its own backlog (exact WRR predicts 4 of 12).
  int light_before_heavy_done = 0, last_heavy = -1;
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kEach));
    for (int i = 0; i < 2 * kEach; ++i)
      if (order[i] == 1) last_heavy = i;
    for (int i = 0; i < last_heavy; ++i)
      if (order[i] == 2) ++light_before_heavy_done;
  }
  EXPECT_GE(light_before_heavy_done, 2);
  EXPECT_LE(light_before_heavy_done, 7);
  EXPECT_EQ(heavy->stats().quanta, static_cast<std::uint64_t>(kEach) + 1);
  EXPECT_EQ(light->stats().quanta, static_cast<std::uint64_t>(kEach));
  server.destroy_client(heavy);
  server.destroy_client(light);
}

// --- fault containment ----------------------------------------------------

TEST(ServeFault, DeviceLossFailsOnlyTheFaultedClient) {
  Server server;
  ClientContext* victim = server.create_client(&simt::sim_a100());
  ClientContext* sibling = server.create_client(&simt::sim_a100());

  // Sibling baseline.
  std::atomic<std::uint64_t> sum{0};
  auto body = [&] {
    sum.fetch_add(simt::this_thread().flat_tid, std::memory_order_relaxed);
  };
  sibling->launch(grid1d(8, 32, "serve_sibling"), body);
  const std::uint64_t baseline = sum.exchange(0);

  {
    ompx::FaultScope fault("device_lost:after=0");
    EXPECT_THROW(
        victim->launch(grid1d(8, 32, "serve_victim"), [] {}),
        simt::DeviceLostError);
  }
  EXPECT_EQ(victim->stats().device_losses, 1u);
  EXPECT_EQ(victim->stats().launches_failed, 1u);

  // The server reset the device: the sibling reproduces its checksum
  // and its own stats are untouched by the victim's failure.
  sibling->launch(grid1d(8, 32, "serve_sibling"), body);
  EXPECT_EQ(sum.load(), baseline);
  EXPECT_EQ(sibling->stats().launches, 2u);
  EXPECT_EQ(sibling->stats().launches_failed, 0u);
  EXPECT_EQ(sibling->stats().device_losses, 0u);
  server.destroy_client(victim);
  server.destroy_client(sibling);
}

TEST(ServeFault, WatchdogTimeoutIsChargedToTheClient) {
  Server server;
  server.set_quantum_blocks(4);
  ClientContext* victim = server.create_client(&simt::sim_a100());
  ClientContext* sibling = server.create_client(&simt::sim_a100());

  simt::set_watchdog_ms(1e-6);
  simt::LaunchParams p = grid1d(16, 64, "serve_overrun");
  p.cost.flops_per_thread = 1e9;  // modeled time far past the budget
  EXPECT_THROW(victim->launch(p, [] {}), simt::TimeoutError);
  simt::set_watchdog_ms(0.0);

  EXPECT_EQ(victim->stats().timeouts, 1u);
  EXPECT_EQ(victim->stats().launches_failed, 1u);
  // A modeled overrun is per request, not device poison: the sibling
  // (and the victim itself) keep launching.
  std::atomic<int> ran{0};
  sibling->launch(grid1d(2, 16, "serve_after_timeout"),
                  [&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2 * 16);
  victim->launch(grid1d(1, 8, "serve_victim_retry"), [] {});
  EXPECT_EQ(victim->stats().launches, 1u);
  server.destroy_client(victim);
  server.destroy_client(sibling);
}

// --- teardown -------------------------------------------------------------

TEST(ServeTeardown, DestroyReclaimsLeakedAllocationsAndDrainsQueue) {
  simt::Device& dev = simt::sim_a100();
  const std::uint64_t before = dev.memory().bytes_in_use();
  Server server;
  ClientContext* c = server.create_client(&dev);
  (void)c->malloc(64 << 10);
  (void)c->malloc(32 << 10);  // both deliberately leaked
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i)
    c->submit(grid1d(2, 8, "serve_drain"), [&] { ran.fetch_add(1); });
  // destroy_client drains the pending queue, then releases the leaks.
  server.destroy_client(c);
  EXPECT_EQ(ran.load(), 4 * 2 * 8);
  EXPECT_EQ(dev.memory().bytes_in_use(), before);
  EXPECT_EQ(server.client_count(), 0u);
  EXPECT_THROW(server.destroy_client(c), std::invalid_argument);
}

TEST(ServeTeardown, ServerDestructionWithQueuedWorkIsClean) {
  simt::Device& dev = simt::sim_a100();
  const std::uint64_t before = dev.memory().bytes_in_use();
  {
    Server server;
    ClientContext* c = server.create_client(&dev);
    (void)c->malloc(4096);
    for (int i = 0; i < 8; ++i)
      c->submit(grid1d(4, 16, "serve_dtor_backlog"), [] {});
    // No synchronize, no destroy_client: the Server destructor must
    // stop the scheduler, fail or finish the backlog, and release the
    // client's memory without crashing or hanging.
  }
  EXPECT_EQ(dev.memory().bytes_in_use(), before);
  // The device is still healthy for the next tenant.
  std::atomic<int> ran{0};
  Server server2;
  ClientContext* c2 = server2.create_client(&dev);
  c2->launch(grid1d(1, 8, "serve_after_dtor"), [&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  server2.destroy_client(c2);
}

// --- multithreaded stress (the sanitizer/TSan gate) -----------------------

// TSan's fiber support caps how much lane-fiber traffic one process can
// generate (its stack depot overflows around ~64k recorded frames), so
// the stress run is scaled down under TSan — same shape, less volume.
#if defined(__SANITIZE_THREAD__)
#define OMPX_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OMPX_TEST_TSAN 1
#endif
#endif

TEST(ServeStress, ConcurrentClientsKeepIsolatedAccounting) {
#ifdef OMPX_TEST_TSAN
  constexpr int kClients = 4;
  constexpr int kIters = 4;
#else
  constexpr int kClients = 8;
  constexpr int kIters = 24;
#endif
  constexpr std::uint32_t kBlocks = 6, kThreads = 32;
  Server server;
  server.set_quantum_blocks(2);

  ClientLimits lim;
  lim.memory_quota_bytes = 4 << 20;
  std::vector<ClientContext*> clients(kClients);
  for (int i = 0; i < kClients; ++i)
    clients[i] = server.create_client(&simt::sim_a100(), lim);
  ASSERT_EQ(server.client_count(), static_cast<std::size_t>(kClients));

  std::vector<std::atomic<std::uint64_t>> counts(kClients);
  for (auto& c : counts) c.store(0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientContext* c = clients[i];
      std::atomic<std::uint64_t>* slot = &counts[i];
      for (int it = 0; it < kIters; ++it) {
        void* p = c->malloc(1024 + 256 * static_cast<std::size_t>(i));
        c->launch(grid1d(kBlocks, kThreads, "serve_stress"), [slot] {
          slot->fetch_add(1, std::memory_order_relaxed);
        });
        c->free(p);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    const ClientStats st = clients[i]->stats();
    EXPECT_EQ(counts[i].load(), std::uint64_t{kIters} * kBlocks * kThreads)
        << "client " << i;
    EXPECT_EQ(st.launches, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(st.launches_failed, 0u);
    EXPECT_EQ(st.blocks_executed, std::uint64_t{kIters} * kBlocks);
    EXPECT_EQ(st.allocs, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(st.frees, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(st.bytes_live, 0u);
    EXPECT_EQ(st.bytes_peak, 1024u + 256u * static_cast<std::uint32_t>(i));
    // Fair-share floor: nobody starved.
    EXPECT_GT(st.quanta, 0u);
  }
  for (ClientContext* c : clients) server.destroy_client(c);
  EXPECT_EQ(server.client_count(), 0u);
}

// --- C ABI / kl handles ---------------------------------------------------

TEST(ServeCApi, ClientLifecycleQuotaAdmissionAndStats) {
  ompx_client_limits_t lim{};
  lim.memory_quota_bytes = 1 << 20;
  lim.max_pending = 64;
  ompx_client_t c = ompx_client_create(0, &lim);
  ASSERT_NE(c, nullptr);

  static std::atomic<long> count{0};
  count.store(0);
  unsigned grid[3] = {8, 1, 1}, block[3] = {32, 1, 1};
  auto fn = +[](void*) { count.fetch_add(1, std::memory_order_relaxed); };
  ASSERT_EQ(ompx_client_launch_kernel(c, fn, nullptr, grid, block),
            OMPX_SUCCESS);
  EXPECT_EQ(count.load(), 8 * 32);

  // Quota rejection surfaces as OUT_OF_MEMORY through the C seam.
  EXPECT_EQ(ompx_client_malloc(c, 2 << 20), nullptr);
  EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_OUT_OF_MEMORY);
  void* p = ompx_client_malloc(c, 4096);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(ompx_client_free(c, p), OMPX_SUCCESS);

  ASSERT_EQ(ompx_client_launch_async(c, fn, nullptr, grid, block),
            OMPX_SUCCESS);
  ASSERT_EQ(ompx_client_synchronize(c), OMPX_SUCCESS);

  ompx_client_stats_t st{};
  ASSERT_EQ(ompx_client_get_stats(c, &st), OMPX_SUCCESS);
  EXPECT_EQ(st.launches, 2ull);
  EXPECT_EQ(st.quota_rejections, 1ull);
  EXPECT_EQ(st.allocs, 1ull);
  EXPECT_EQ(st.frees, 1ull);
  EXPECT_EQ(st.bytes_live, 0ull);

  EXPECT_EQ(ompx_client_destroy(c), OMPX_SUCCESS);
  // Stale/null/bad handles are caught by the live registry.
  EXPECT_EQ(ompx_client_destroy(c), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_client_destroy(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_client_get_stats(c, &st), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_client_synchronize(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_client_create(99, nullptr), nullptr);
  EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_INVALID_DEVICE);
  (void)ompx_get_last_result();
}

TEST(ServeCApi, QuantumKnobRoundTrips) {
  const unsigned before = ompx_serve_quantum();
  EXPECT_EQ(ompx_serve_set_quantum(16), OMPX_SUCCESS);
  EXPECT_EQ(ompx_serve_quantum(), 16u);
  // Floored at one block: a zero quantum would never make progress.
  EXPECT_EQ(ompx_serve_set_quantum(0), OMPX_SUCCESS);
  EXPECT_EQ(ompx_serve_quantum(), 1u);
  EXPECT_EQ(ompx_serve_set_quantum(before), OMPX_SUCCESS);
}

TEST(ServeCApi, KlClientRoundTrip) {
  klClient_t c = nullptr;
  ASSERT_EQ(klClientCreate(&c), klSuccess);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(klClientDestroy(c), klSuccess);
  EXPECT_EQ(klClientDestroy(c), klErrorInvalidValue);
  EXPECT_EQ(klClientDestroy(nullptr), klErrorInvalidValue);
  klClient_t bad = reinterpret_cast<klClient_t>(0x1);
  EXPECT_EQ(klClientCreate(nullptr), klErrorInvalidValue);
  EXPECT_EQ(klClientCreate(&bad, 42), klErrorInvalidDevice);
  EXPECT_EQ(bad, nullptr) << "failed create must null the out-param";
  (void)klGetLastError();
}

}  // namespace

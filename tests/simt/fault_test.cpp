// Fault-injection end-to-end tests: every documented OMPX_FAULT site
// fires deterministically, surfaces as a clean ompx_result_t / klError
// (never a crash or a hang), and the process keeps working afterwards —
// retry succeeds, other streams and devices stay usable, and checksums
// are unchanged once the fault window closes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "apps/harness.h"
#include "core/ompx.h"
#include "kl/kl.h"
#include "simt/simt.h"

namespace {

using namespace kl;

int registry_index_of(simt::Device& dev) {
  const auto& reg = simt::device_registry();
  for (std::size_t i = 0; i < reg.size(); ++i)
    if (reg[i] == &dev) return static_cast<int>(i);
  return -1;
}

TEST(FaultOom, EveryAllocationFailsCleanlyBothLayers) {
  ompx::FaultScope fault("oom");
  // ompx: nullptr with OUT_OF_MEMORY in the thread slot.
  EXPECT_EQ(ompx_malloc(1024), nullptr);
  EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_OUT_OF_MEMORY);
  // kl: klErrorMemoryAllocation (the CUDA code CUDA apps test for) and
  // a nulled out-param.
  void* p = reinterpret_cast<void*>(0x1);
  EXPECT_EQ(klMalloc(&p, 1024), klErrorMemoryAllocation);
  EXPECT_EQ(p, nullptr);
  (void)klGetLastError();
}

TEST(FaultOom, OneShotFailureThenRetrySucceeds) {
  void* p = nullptr;
  {
    ompx::FaultScope fault("oom:after=0");
    p = ompx_malloc(1024);
    EXPECT_EQ(p, nullptr);
    EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_OUT_OF_MEMORY);
    // The `after` trigger is one-shot: the retry allocates.
    p = ompx_malloc(1024);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(ompx_free(p), OMPX_SUCCESS);
}

TEST(FaultOom, InjectedCountReportsFiredFaults) {
  ompx::FaultScope fault("oom:every=1");
  const unsigned long long before = ompx_fault_injected_count();
  EXPECT_EQ(ompx_malloc(64), nullptr);
  EXPECT_EQ(ompx_malloc(64), nullptr);
  EXPECT_GE(ompx_fault_injected_count(), before + 2);
  (void)ompx_get_last_result();
}

// The stream-ordered allocator must trim its own free pool and retry
// before reporting device OOM: a pooled block of the wrong size is
// reclaimable capacity, not a reason to fail.
TEST(FaultOom, MallocAsyncTrimsPoolBeforeReportingOom) {
  simt::DeviceConfig cfg = simt::make_sim_a100_config();
  cfg.name = "tiny-mem";
  cfg.global_mem_bytes = 1u << 20;  // 1 MiB
  simt::Device dev(cfg);
  simt::Stream* s = dev.create_stream();
  // Fill most of memory, then park the block in the stream pool.
  void* a = s->malloc_async(600u << 10);
  ASSERT_NE(a, nullptr);
  s->free_async(a);
  s->synchronize();
  // A 700 KiB request cannot coexist with the pooled 600 KiB block,
  // and the pool cannot recycle it (wrong size). Only trim-and-retry
  // makes this succeed.
  void* b = s->malloc_async(700u << 10);
  ASSERT_NE(b, nullptr);
  s->free_async(b);
  s->synchronize();
  dev.destroy_stream(s);
}

TEST(FaultHostAlloc, StreamAndEventCreationFailCleanly) {
  {
    ompx::FaultScope fault("host_oom");
    EXPECT_EQ(ompx_stream_create(), nullptr);
    EXPECT_EQ(ompx_peek_last_result(), OMPX_ERROR_MEMORY_ALLOCATION);
    EXPECT_EQ(ompx_event_create(), nullptr);
    klStream_t s = reinterpret_cast<klStream_t>(0x1);
    EXPECT_EQ(klStreamCreate(&s), klErrorMemoryAllocation);
    EXPECT_EQ(s, nullptr);
    (void)ompx_get_last_result();
    (void)klGetLastError();
  }
  // Outside the window creation works again.
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST(FaultGraph, InstantiateFailsThenRetrySucceeds) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* buf = ompx_malloc(128);
  ASSERT_NE(buf, nullptr);
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_memset_async(buf, 7, 128, s), OMPX_SUCCESS);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  {
    ompx::FaultScope fault("graph");
    EXPECT_NE(ompx_graph_instantiate(g), OMPX_SUCCESS);
  }
  // The failed instantiation left the graph reusable.
  EXPECT_EQ(ompx_graph_instantiate(g), OMPX_SUCCESS);
  EXPECT_EQ(ompx_graph_launch(g, s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(buf), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(FaultPeer, PeerCopyFailsThenRetrySucceeds) {
  ASSERT_GE(ompx_get_num_devices(), 2);
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  void* src = ompx_malloc(256);
  ASSERT_NE(src, nullptr);
  ASSERT_EQ(ompx_set_device(1), OMPX_SUCCESS);
  void* dst = ompx_malloc(256);
  ASSERT_NE(dst, nullptr);
  {
    ompx::FaultScope fault("peer");
    EXPECT_EQ(ompx_memcpy_peer(dst, 1, src, 0, 256),
              OMPX_ERROR_LAUNCH_FAILURE);
  }
  EXPECT_EQ(ompx_memcpy_peer(dst, 1, src, 0, 256), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(dst), OMPX_SUCCESS);
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(src), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

// Device loss and recovery through the kl layer: the first launch after
// arming poisons the device, every subsequent call reports
// klErrorDeviceLost, and klDeviceReset restores service.
TEST(FaultDeviceLost, KlReportsLossUntilReset) {
  using namespace kl;
  ASSERT_EQ(klSetDevice(0), klSuccess);
  ASSERT_EQ(klFaultInject("device_lost:after=0"), klSuccess);
  KernelAttrs attrs;
  attrs.name = "fault_probe";
  const klError launch_err =
      launch({1}, {32}, 0, nullptr, attrs, [] {});
  const klError sync_err = klDeviceSynchronize();
  ASSERT_EQ(klFaultInject(nullptr), klSuccess);
  // The loss surfaces on the launch or on the synchronize, depending on
  // where submission noticed it — either way as klErrorDeviceLost.
  EXPECT_TRUE(launch_err == klErrorDeviceLost ||
              sync_err == klErrorDeviceLost);
  // Poisoned: even a plain allocation refuses.
  void* p = nullptr;
  EXPECT_EQ(klMalloc(&p, 64), klErrorDeviceLost);
  // Recovery.
  ASSERT_EQ(klDeviceReset(), klSuccess);
  ASSERT_EQ(klMalloc(&p, 64), klSuccess);
  EXPECT_EQ(klFree(p), klSuccess);
  (void)klGetLastError();
}

// The full matrix the issue asks for: for every fig8 app, a clean
// baseline, then an injected device loss that surfaces as a catchable
// error (not a crash), then reset + rerun reproducing the baseline
// checksum exactly.
TEST(FaultDeviceLost, AllAppsFailCleanlyAndRecoverWithSameChecksum) {
  simt::Device& dev = simt::sim_a100();
  const int index = registry_index_of(dev);
  ASSERT_GE(index, 0);
  for (const apps::AppDesc& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    const apps::RunResult baseline =
        apps::run_cell(app, apps::Version::kOmpx, dev);
    ASSERT_TRUE(baseline.valid);

    bool threw = false;
    {
      ompx::FaultScope fault("device_lost:after=0");
      try {
        (void)apps::run_cell(app, apps::Version::kOmpx, dev);
      } catch (const std::exception&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw) << "injected device loss did not surface";
    ASSERT_EQ(ompx_device_reset(index), OMPX_SUCCESS);

    const apps::RunResult retry =
        apps::run_cell(app, apps::Version::kOmpx, dev);
    EXPECT_TRUE(retry.valid);
    EXPECT_EQ(retry.checksum, baseline.checksum);
  }
}

// Wall-clock watchdog: a stalled op kills only its own stream, with
// OMPX_ERROR_TIMEOUT semantics, while sibling streams keep working and
// the host never blocks past the budget.
TEST(FaultWatchdog, WallClockHangKillsOnlyTheOffendingStream) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* victim = dev.create_stream();
  simt::Stream* bystander = dev.create_stream();
  ASSERT_EQ(ompx_set_watchdog_ms(100.0), OMPX_SUCCESS);
  {
    // One-shot 1.5 s stall on the next stream op: a hang 15x the
    // budget. The watchdog must abandon it, not wait it out.
    ompx::FaultScope fault("stall:after=0,ms=1500");
    victim->host_fn([] {});
    EXPECT_THROW(victim->synchronize(), simt::TimeoutError);
  }
  // The dead stream stays dead...
  EXPECT_THROW(victim->host_fn([] {}), simt::TimeoutError);
  // ...but its sibling and the rest of the device keep working.
  int ran = 0;
  bystander->host_fn([&] { ran = 1; });
  bystander->synchronize();
  EXPECT_EQ(ran, 1);
  // Destroying a timed-out stream parks it safely (its zombie worker
  // may still hold the pointer); both destroys must return cleanly.
  dev.destroy_stream(victim);
  dev.destroy_stream(bystander);
  ASSERT_EQ(ompx_set_watchdog_ms(0.0), OMPX_SUCCESS);
}

// The watchdog drops whatever was queued behind the stalled op; a
// dropped launch still gets its completion callback (with an empty
// record), so a ticket waiting on it is released.
TEST(FaultWatchdog, LaunchQueuedBehindStalledOpGetsItsCallback) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* victim = dev.create_stream();
  ASSERT_EQ(ompx_set_watchdog_ms(100.0), OMPX_SUCCESS);
  std::atomic<bool> called{false};
  std::atomic<std::uint64_t> blocks{1};
  {
    ompx::FaultScope fault("stall:after=0,ms=1500");
    victim->host_fn([] {});
    simt::LaunchParams p;
    p.grid = {1};
    p.block = {32};
    p.mode = simt::ExecMode::kDirect;
    p.name = "behind_stall";
    victim->launch(p, [] {}, [&](const simt::LaunchRecord& rec) {
      blocks.store(rec.stats.blocks);
      called.store(true);
    });
    EXPECT_THROW(victim->synchronize(), simt::TimeoutError);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!called.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(called.load());
  EXPECT_EQ(blocks.load(), 0u);
  dev.destroy_stream(victim);
  ASSERT_EQ(ompx_set_watchdog_ms(0.0), OMPX_SUCCESS);
}

// Modeled-time watchdog: a kernel whose *simulated* duration exceeds
// the budget fails with klErrorTimeout without wedging the stream.
TEST(FaultWatchdog, ModeledOverrunReportsTimeout) {
  using namespace kl;
  ASSERT_EQ(klSetDevice(0), klSuccess);
  klStream_t s = nullptr;
  ASSERT_EQ(klStreamCreate(&s), klSuccess);
  ASSERT_EQ(klSetWatchdogMs(1e-7), klSuccess);
  KernelAttrs attrs;
  attrs.name = "watchdog_overrun";
  attrs.cost.flops_per_thread = 1e6;
  const klError launch_err =
      launch({64}, {256}, 0, s, attrs, [] {});
  klError observed = launch_err;
  if (observed == klSuccess) observed = klStreamSynchronize(s);
  ASSERT_EQ(klSetWatchdogMs(0.0), klSuccess);
  EXPECT_EQ(observed, klErrorTimeout);
  // Modeled overruns are per launch, not stream poison: the stream
  // still accepts and completes work.
  EXPECT_EQ(klStreamSynchronize(s), klSuccess);
  EXPECT_EQ(klStreamDestroy(s), klSuccess);
  (void)klGetLastError();
}

// The modeled budget binds replayed kernels too: a captured kernel
// modeled at ~2.3e6 ms fails its replay against a 1000 ms budget
// exactly as the live launch would. (The budget is large on purpose:
// the same value arms the wall-clock monitor, and a budget above its
// 100 ms floor keeps the test clear of it.)
TEST(FaultWatchdog, ReplayedModeledOverrunReportsTimeout) {
  using namespace kl;
  ASSERT_EQ(klSetDevice(0), klSuccess);
  klStream_t s = nullptr;
  ASSERT_EQ(klStreamCreate(&s), klSuccess);
  KernelAttrs attrs;
  attrs.name = "watchdog_replayed_overrun";
  attrs.cost.flops_per_thread = 1e12;
  ASSERT_EQ(klStreamBeginCapture(s), klSuccess);
  ASSERT_EQ(launch({1}, {32}, 0, s, attrs, [] {}), klSuccess);
  klGraph_t g = nullptr;
  ASSERT_EQ(klStreamEndCapture(s, &g), klSuccess);
  ASSERT_EQ(klSetWatchdogMs(1000.0), klSuccess);
  const klError launch_err = klGraphLaunch(g, s);
  const klError sync_err = klStreamSynchronize(s);
  ASSERT_EQ(klSetWatchdogMs(0.0), klSuccess);
  EXPECT_EQ(launch_err, klSuccess);
  EXPECT_EQ(sync_err, klErrorTimeout);
  // Per replay, not stream poison: the stream keeps working.
  EXPECT_EQ(klStreamSynchronize(s), klSuccess);
  EXPECT_EQ(klGraphDestroy(g), klSuccess);
  EXPECT_EQ(klStreamDestroy(s), klSuccess);
  (void)klGetLastError();
}

}  // namespace

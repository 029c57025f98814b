// Async execution & graph capture: the differential suite pinning the
// redesigned ticket-based launch API to the synchronous semantics it
// replaced.
//
//  - sync-vs-async differential over the six fig8 apps: checksums and
//    modeled kernel time must be bit-identical in both LaunchModes
//    (the async engine may reorder host work, never device results);
//  - ticket wait/query semantics of ompx::LaunchResult;
//  - stream-ordered allocator reuse accounting (C ABI surface);
//  - graph capture/replay equivalence against re-submitting the same
//    ops, node enumeration via the two-call idiom, use-after-destroy;
//  - stream destroy with in-flight ops, destroy-while-capturing.
//
// CI also runs this binary under TSan (-fsanitize=thread): the worker
// pool, tickets and the capture redirect must be clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/harness.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"
#include "core/ompx.h"
#include "simt/simt.h"

namespace {

using apps::Version;

/// Saves/restores the process-wide launch mode around each test.
class Async : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ompx::launch_mode(); }
  void TearDown() override {
    ompx::set_launch_mode(saved_);
    simt::sim_a100().synchronize();
  }

 private:
  ompx::LaunchMode saved_ = ompx::LaunchMode::kAsync;
};

// ---------------------------------------------------------------------------
// Sync-vs-async differential over the six fig8 apps.

struct AppRun {
  std::string app;
  std::uint64_t checksum = 0;
  double kernel_ms = 0.0;
  bool valid = false;
};

std::vector<AppRun> run_all_apps(simt::Device& dev) {
  std::vector<AppRun> out;
  auto push = [&](const apps::RunResult& r) {
    out.push_back({r.app, r.checksum, r.kernel_ms, r.valid});
  };
  {
    apps::xsbench::Options o;
    o.lookups = 2000;
    o.n_gridpoints = 128;
    push(apps::xsbench::run(Version::kOmpx, dev, o));
  }
  {
    apps::rsbench::Options o;
    o.lookups = 1000;
    o.n_poles = 64;
    o.n_windows = 8;
    push(apps::rsbench::run(Version::kOmpx, dev, o));
  }
  {
    apps::su3::Options o;
    o.lattice_sites = 1024;
    o.iterations = 2;
    push(apps::su3::run(Version::kOmpx, dev, o));
  }
  {
    apps::adam::Options o;
    o.n = 2048;
    o.steps = 8;
    push(apps::adam::run(Version::kOmpx, dev, o));
  }
  {
    apps::aidw::Options o;
    o.n_data = 256;
    o.n_query = 256;
    push(apps::aidw::run(Version::kOmpx, dev, o));
  }
  {
    apps::stencil1d::Options o;
    o.n = 1 << 14;
    o.iterations = 2;
    push(apps::stencil1d::run(Version::kOmpx, dev, o));
  }
  return out;
}

TEST_F(Async, SyncVsAsyncDifferentialOverSixApps) {
  simt::Device& dev = simt::sim_a100();

  ompx::set_launch_mode(ompx::LaunchMode::kSync);
  const std::vector<AppRun> sync_rows = run_all_apps(dev);

  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  const std::vector<AppRun> async_rows = run_all_apps(dev);

  ASSERT_EQ(sync_rows.size(), async_rows.size());
  for (std::size_t i = 0; i < sync_rows.size(); ++i) {
    SCOPED_TRACE(sync_rows[i].app);
    EXPECT_TRUE(sync_rows[i].valid);
    EXPECT_TRUE(async_rows[i].valid);
    // Device-observable state is mode-independent: same checksum, same
    // modeled kernel time, bit for bit.
    EXPECT_EQ(sync_rows[i].checksum, async_rows[i].checksum);
    EXPECT_EQ(sync_rows[i].kernel_ms, async_rows[i].kernel_ms);
  }
}

// ---------------------------------------------------------------------------
// Ticket semantics.

TEST_F(Async, TicketWaitDeliversTheRecord) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  auto* out = ompx::malloc_n<int>(256);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {256};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "ticket_wait_kernel";
  ompx::LaunchResult r =
      ompx::launch(spec, [=] { out[ompx::global_thread_id()] = 3; });
  r.wait();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "ticket_wait_kernel");
  EXPECT_EQ(r.record.stats.threads, 256u);
  EXPECT_GT(r.record.time.total_ms, 0.0);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(out[i], 3);
  r.wait();  // idempotent
  EXPECT_TRUE(r.completed);
  ompx::free_on(ompx::default_device(), out);
}

TEST_F(Async, TicketQueryTurnsTrueWithoutBlocking) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "ticket_query_kernel";
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  while (!r.query()) {
  }
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "ticket_query_kernel");
}

TEST_F(Async, ModeledAndWallTimesWaitAutomatically) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {2};
  spec.thread_limit = {64};
  spec.name = "ticket_times";
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  EXPECT_GT(r.modeled_ms(), 0.0);  // implicit wait
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.wall_ms(), 0.0);
}

TEST_F(Async, SyncModeCompletesEagerly) {
  ompx::set_launch_mode(ompx::LaunchMode::kSync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "sync_mode_kernel";
  const ompx::LaunchResult r = ompx::launch(spec, [] {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.name, "sync_mode_kernel");
}

TEST_F(Async, LaunchRecordSynchronizesInFlightLaunches) {
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "record_sync_kernel";
  ompx::launch(spec, [] {});
  // No explicit wait: launch_record must synchronize the device first.
  EXPECT_EQ(ompx::launch_record().name, "record_sync_kernel");
}

// ---------------------------------------------------------------------------
// Stream-ordered allocator reuse accounting (through the C ABI).

TEST_F(Async, AsyncAllocReusesFromTheStreamPool) {
  ompx_mempool_stats_t before{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &before), OMPX_SUCCESS);

  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  constexpr std::size_t kBytes = 4096;
  void* a = ompx_malloc_async(kBytes, s);
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(ompx_free_async(a, s), OMPX_SUCCESS);
  void* b = ompx_malloc_async(kBytes, s);
  EXPECT_EQ(b, a) << "same-size malloc_async must recycle the pooled block";
  // A different size cannot be served from the pool.
  void* c = ompx_malloc_async(kBytes * 2, s);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c, a);
  ASSERT_EQ(ompx_free_async(b, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_free_async(c, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);

  ompx_mempool_stats_t after{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &after), OMPX_SUCCESS);
  EXPECT_GE(after.reuse_hits, before.reuse_hits + 1);
  EXPECT_GE(after.misses, before.misses + 2);
  EXPECT_GE(after.frees, before.frees + 3);
  EXPECT_GE(after.bytes_reused, before.bytes_reused + kBytes);
  EXPECT_GE(after.pooled_blocks, 2ull);  // both blocks parked for reuse

  // destroy_stream trims the pool: the parked blocks return to the heap.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  ompx_mempool_stats_t trimmed{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &trimmed), OMPX_SUCCESS);
  EXPECT_LE(trimmed.pooled_bytes, after.pooled_bytes);

  EXPECT_EQ(ompx_mempool_get_stats(0, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_mempool_get_stats(-7, &after), OMPX_ERROR_INVALID_DEVICE);
}

TEST_F(Async, StreamDestroyCountsReclaimedBlocks) {
  // Blocks parked for reuse are returned to the heap when the stream
  // dies, and the trim is visible in the stats (regression: pooled
  // blocks of an abandoned stream used to vanish from the accounting).
  ompx_mempool_stats_t before{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &before), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  constexpr std::size_t kBytes = 8192;
  void* a = ompx_malloc_async(kBytes, s);
  void* b = ompx_malloc_async(kBytes, s);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(ompx_free_async(a, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_free_async(b, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  ompx_mempool_stats_t after{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &after), OMPX_SUCCESS);
  EXPECT_GE(after.reclaimed_blocks, before.reclaimed_blocks + 2);
  EXPECT_GE(after.reclaimed_bytes, before.reclaimed_bytes + 2 * kBytes);
}

TEST_F(Async, TimedOutStreamLeaksNothingAndReleasesItsBlocks) {
  // The --fault=stall + watchdog seam: once the watchdog kills a
  // stream, malloc_async on it must fail cleanly WITHOUT leaking the
  // backing allocation (regression: the allocation was made before the
  // enqueue was refused), free_async must leave the block live, and
  // destroying the dead stream hands surviving blocks back to the
  // plain allocator so they are never stranded.
  simt::Device& dev = simt::sim_a100();
  ASSERT_EQ(ompx_set_watchdog_ms(100.0), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* early = ompx_malloc_async(4096, s);
  ASSERT_NE(early, nullptr);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  {
    // A 1.5 s stall against a 100 ms budget wedges the stream for good.
    ompx::FaultScope fault("stall:after=0,ms=1500");
    ASSERT_EQ(ompx_memset_async(early, 0, 4096, s), OMPX_SUCCESS);
    EXPECT_EQ(ompx_stream_synchronize(s), OMPX_ERROR_TIMEOUT);
  }
  const std::uint64_t live = dev.memory().bytes_in_use();
  EXPECT_EQ(ompx_malloc_async(256, s), nullptr);
  EXPECT_EQ(ompx_get_last_result(), OMPX_ERROR_TIMEOUT);
  EXPECT_EQ(dev.memory().bytes_in_use(), live)
      << "refused malloc_async leaked its backing allocation";
  // free_async on the dead stream cannot enqueue: the block stays live.
  EXPECT_EQ(ompx_free_async(early, s), OMPX_ERROR_TIMEOUT);
  EXPECT_EQ(dev.memory().bytes_in_use(), live);
  // Stream destroy releases the async claim: the survivor is now
  // plain-freeable (documented escape hatch), and nothing remains.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(early), OMPX_SUCCESS);
  EXPECT_EQ(dev.memory().bytes_in_use(), live - 4096);
  ASSERT_EQ(ompx_set_watchdog_ms(0.0), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

// ---------------------------------------------------------------------------
// Graph capture / replay.

TEST_F(Async, GraphReplayMatchesRecapturedExecution) {
  simt::Device& dev = ompx::default_device();
  simt::Stream* s = dev.create_stream();
  auto* buf = ompx::malloc_n<int>(1024);

  simt::LaunchParams p;
  p.grid = {4};
  p.block = {256};
  p.mode = simt::ExecMode::kDirect;
  p.name = "graph_step";
  auto step = [buf] {
    auto& t = simt::this_thread();
    const auto i = t.block->block_index().x * 256 + t.flat_tid;
    buf[i] += static_cast<int>(i % 7) + 1;
  };

  // Reference: three plain (uncaptured) submissions.
  std::vector<int> want(1024, 0);
  s->memset_async(buf, 0, 1024 * sizeof(int));
  for (int rep = 0; rep < 3; ++rep) s->launch(p, step);
  s->synchronize();
  std::memcpy(want.data(), buf, want.size() * sizeof(int));

  // Capture one step, replay it three times over a re-zeroed buffer.
  s->memset_async(buf, 0, 1024 * sizeof(int));
  s->synchronize();
  ompx::stream_begin_capture(*s);
  s->launch(p, step);
  ompx::Graph g = ompx::end_capture(*s);
  ASSERT_TRUE(g.valid());
  EXPECT_EQ(g.node_count(), 1u);
  g.instantiate();
  for (int rep = 0; rep < 3; ++rep) g.launch(*s);
  s->synchronize();
  EXPECT_EQ(g.replay_count(), 3u);
  EXPECT_EQ(std::memcmp(want.data(), buf, want.size() * sizeof(int)), 0)
      << "three replays must equal three re-submitted launches";

  ompx::free_on(dev, buf);
  dev.destroy_stream(s);
}

// Live vs replayed timeline. One mixed sequence — memset; H2D, D2D and
// D2H copies; a direct and a cooperative kernel; malloc_async and
// free_async; a host fn; an event recorded on stream A and waited on by
// stream B — runs once submitted live and once, on fresh streams,
// captured (A's part and B's part as one graph each) and replayed. Both
// runs execute every op through the executor's one op step, so the
// modeled timeline and every per-op span must agree exactly.
struct MixedRun {
  double ready_delta_a = 0.0;
  double ready_delta_b = 0.0;
  std::vector<simt::TraceSpan> spans;  ///< A's op spans, then B's
  std::vector<int> out;                ///< what B copied back to the host
};

MixedRun run_mixed_sequence(simt::Device& dev, bool replay) {
  constexpr std::size_t kInts = 256;
  constexpr std::size_t kBytes = kInts * sizeof(int);
  std::vector<int> in(kInts, 3);
  MixedRun run;
  run.out.assign(kInts, 0);
  auto* d = static_cast<int*>(dev.memory().allocate(kBytes));
  auto* d2 = static_cast<int*>(dev.memory().allocate(kBytes));
  simt::Stream* a = dev.create_stream();
  simt::Stream* b = dev.create_stream();
  simt::Event* ev = dev.create_event();
  int host_calls = 0;

  simt::LaunchParams direct;
  direct.grid = {2};
  direct.block = {128};
  direct.mode = simt::ExecMode::kDirect;
  direct.name = "mixed_direct";
  simt::LaunchParams coop;
  coop.grid = {1};
  coop.block = {64};
  coop.name = "mixed_coop";
  const auto part_a = [&] {
    a->memset_async(d, 0, kBytes);
    a->memcpy_async(d, in.data(), kBytes, simt::CopyKind::kHostToDevice);
    a->launch(direct, [d] {
      auto& t = simt::this_thread();
      d[t.block_idx.x * 128 + t.flat_tid] += 1;
    });
    a->launch(coop, [d] {
      auto& t = simt::this_thread();
      const int v = d[t.flat_tid] + d[63 - t.flat_tid];
      t.block->sync_threads(t);
      d[t.flat_tid] = v;
    });
    a->memcpy_async(d2, d, kBytes, simt::CopyKind::kDeviceToDevice);
    a->free_async(a->malloc_async(512));
    a->host_fn([&host_calls] { ++host_calls; });
    a->record(*ev);
  };
  const auto part_b = [&] {
    b->wait(*ev);
    b->memcpy_async(run.out.data(), d2, kBytes,
                    simt::CopyKind::kDeviceToHost);
  };

  simt::Profiler::instance().reset();
  std::unique_ptr<simt::Graph> ga, gb;
  if (replay) {
    a->begin_capture();
    part_a();
    ga = a->end_capture();
    b->begin_capture();
    part_b();
    gb = b->end_capture();
  }
  const double a0 = a->modeled_ready_ms();
  const double b0 = b->modeled_ready_ms();
  simt::Profiler::instance().start();
  if (replay) {
    // A replayed wait does not block, so B's replay waits for A's here.
    a->launch_graph(*ga);
    a->synchronize();
    b->launch_graph(*gb);
  } else {
    part_a();
    part_b();
  }
  dev.synchronize();
  simt::Profiler::instance().stop();
  run.ready_delta_a = a->modeled_ready_ms() - a0;
  run.ready_delta_b = b->modeled_ready_ms() - b0;
  EXPECT_EQ(host_calls, 1);

  // Per-op spans only: the replay's umbrella and fence spans have no
  // live twin.
  const std::vector<simt::TraceSpan> spans = simt::Profiler::instance().spans();
  for (const simt::Stream* s : {a, b})
    for (const simt::TraceSpan& sp : spans)
      if (sp.track == s->id() + 1 && sp.kind != simt::SpanKind::kGraph)
        run.spans.push_back(sp);
  simt::Profiler::instance().reset();

  ga.reset();
  gb.reset();
  dev.destroy_event(ev);
  dev.destroy_stream(a);
  dev.destroy_stream(b);
  dev.memory().deallocate(d);
  dev.memory().deallocate(d2);
  return run;
}

TEST_F(Async, LiveAndReplayedTimelinesMatch) {
  simt::Profiler::instance().stop();
  simt::Device dev(simt::make_sim_a100_config());
  const MixedRun live = run_mixed_sequence(dev, false);
  const MixedRun replayed = run_mixed_sequence(dev, true);

  std::vector<int> want(256, 4);
  for (int i = 0; i < 64; ++i) want[i] = 8;
  EXPECT_EQ(live.out, want);
  EXPECT_EQ(replayed.out, want);

  EXPECT_EQ(live.ready_delta_a, replayed.ready_delta_a);  // bit-equal
  EXPECT_EQ(live.ready_delta_b, replayed.ready_delta_b);
  ASSERT_EQ(live.spans.size(), 11u);
  ASSERT_EQ(replayed.spans.size(), live.spans.size());
  for (std::size_t i = 0; i < live.spans.size(); ++i) {
    const simt::TraceSpan& l = live.spans[i];
    const simt::TraceSpan& r = replayed.spans[i];
    SCOPED_TRACE("span " + std::to_string(i) + " (" + l.name + ")");
    EXPECT_EQ(r.kind, l.kind);
    EXPECT_EQ(r.name, l.name);
    EXPECT_EQ(r.ts_ms, l.ts_ms);
    EXPECT_EQ(r.dur_ms, l.dur_ms);
    EXPECT_EQ(r.bytes, l.bytes);
    EXPECT_EQ(r.flow_out, l.flow_out);
    EXPECT_GT(l.wall_ms, 0.0);
    EXPECT_GT(r.wall_ms, 0.0);
  }
  // The flow link: in each run, B's wait consumes the arrow A's record
  // emitted.
  for (const MixedRun* run : {&live, &replayed}) {
    std::uint64_t record_flow = 0, wait_flow = 0;
    for (const simt::TraceSpan& sp : run->spans) {
      if (sp.kind == simt::SpanKind::kEventRecord) record_flow = sp.flow_id;
      if (sp.kind == simt::SpanKind::kEventWait) wait_flow = sp.flow_id;
    }
    EXPECT_NE(record_flow, 0u);
    EXPECT_EQ(wait_flow, record_flow);
  }
}

TEST_F(Async, GraphNodeEnumerationTwoCallIdiom) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  auto* flag = ompx::malloc_n<int>(64);

  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_is_capturing(s), 1);
  ASSERT_EQ(ompx_memset_async(flag, 0, 64 * sizeof(int), s), OMPX_SUCCESS);
  const unsigned grid[3] = {1, 1, 1};
  const unsigned block[3] = {64, 1, 1};
  ASSERT_EQ(ompx_launch_kernel(
                [](void* arg) {
                  static_cast<int*>(arg)[ompx::global_thread_id()] = 1;
                },
                flag, grid, block, s),
            OMPX_SUCCESS);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(ompx_stream_is_capturing(s), 0);

  // Two-call enumeration: size first, then fill (partial fill allowed).
  std::size_t count = 0;
  ASSERT_EQ(ompx_graph_node_count(g, &count), OMPX_SUCCESS);
  ASSERT_EQ(count, 2u);
  std::vector<ompx_graph_node_info_t> nodes(count);
  std::size_t written = 0;
  ASSERT_EQ(ompx_graph_get_nodes(g, nodes.data(), 1, &written), OMPX_SUCCESS);
  EXPECT_EQ(written, 1u);  // capacity-clamped
  ASSERT_EQ(ompx_graph_get_nodes(g, nodes.data(), count, &written),
            OMPX_SUCCESS);
  ASSERT_EQ(written, 2u);
  EXPECT_STREQ(nodes[0].kind, "memset");
  EXPECT_STREQ(nodes[1].kind, "kernel");

  ASSERT_EQ(ompx_graph_instantiate(g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_graph_launch(g, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(flag[i], 1);

  ASSERT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  // Use-after-destroy is detected, not UB.
  EXPECT_EQ(ompx_graph_launch(g, s), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_instantiate(g), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_node_count(g, &count), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_destroy(g), OMPX_ERROR_INVALID_VALUE);

  ompx::free_on(ompx::default_device(), flag);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, GraphNullArgumentHandling) {
  std::size_t count = 0;
  EXPECT_EQ(ompx_graph_node_count(nullptr, &count), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_instantiate(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_launch(nullptr, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_destroy(nullptr), OMPX_SUCCESS);  // free(NULL) rule

  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  // Null out-param still ends the capture (the stream must stay usable)
  // but reports the bad argument.
  EXPECT_EQ(ompx_stream_end_capture(s, nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_stream_is_capturing(s), 0);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

// ---------------------------------------------------------------------------
// Stream destroy semantics.

TEST_F(Async, StreamDestroyDrainsInFlightOps) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  auto* st = static_cast<simt::Stream*>(s);
  std::atomic<int> ran{0};
  simt::LaunchParams p;
  p.grid = {2};
  p.block = {64};
  p.mode = simt::ExecMode::kDirect;
  p.name = "destroy_drain";
  for (int i = 0; i < 16; ++i) {
    st->launch(p, [&ran] {
      if (simt::this_thread().flat_tid == 0 &&
          simt::this_thread().block->block_index().x == 0)
        ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // No synchronize: destroy itself must drain the worker pool.
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ran.load(), 16);
}

TEST_F(Async, DestroyWhileCapturingFailsCleanly) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  // Clean result code, no UB — and the capture is still open.
  EXPECT_NE(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_is_capturing(s), 1);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, SynchronizeWhileCapturingIsAnError) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_NE(ompx_stream_synchronize(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_end_capture(s, nullptr), OMPX_ERROR_INVALID_VALUE);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
}

TEST_F(Async, CaptureRejectsFreeOfForeignPointer) {
  simt::Device& dev = ompx::default_device();
  simt::Stream* s = dev.create_stream();
  auto* plain = ompx::malloc_n<int>(16);  // not graph-owned
  s->begin_capture();
  EXPECT_THROW(s->free_async(plain), std::invalid_argument);
  auto g = s->end_capture();
  simt::destroy_graph(g.release());
  ompx::free_on(dev, plain);
  dev.destroy_stream(s);
}

}  // namespace

// Host-side microbenchmarks of the SIMT engine itself (google-benchmark,
// real wall time): fiber switch cost, barrier rendezvous, warp
// collectives, direct-vs-cooperative launch overhead, stream dispatch.
// These justify the engine design choices DESIGN.md documents (custom
// asm context switch, direct mode, stack/fiber pooling).
//
// `micro_engine --json[=path]` skips the google-benchmark table and
// emits a machine-readable summary of the engine hot-path metrics
// (ns/switch, launches/s, fiber-reuse rate, work-steal count) instead;
// the checked-in BENCH_micro_engine.json is produced this way.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/ompx.h"
#include "simt/simt.h"

namespace {

void BM_FiberCreateResume(benchmark::State& state) {
  simt::FiberStackPool pool;
  for (auto _ : state) {
    simt::Fiber f(pool, [] {});
    f.resume();
  }
}
BENCHMARK(BM_FiberCreateResume);

void BM_FiberSwitchPingPong(benchmark::State& state) {
  simt::FiberStackPool pool;
  bool stop = false;
  simt::Fiber f(pool, [&] {
    while (!stop) simt::Fiber::current()->yield();
  });
  for (auto _ : state) f.resume();  // one switch in, one out
  stop = true;
  f.resume();
}
BENCHMARK(BM_FiberSwitchPingPong);

void BM_DirectLaunchPerThread(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {static_cast<unsigned>(state.range(0))};
  p.block = {256};
  p.mode = simt::ExecMode::kDirect;
  p.name = "bm_direct";
  for (auto _ : state) dev.launch_sync(p, [] {});
  state.SetItemsProcessed(state.iterations() * p.grid.count() *
                          p.block.count());
}
BENCHMARK(BM_DirectLaunchPerThread)->Arg(16)->Arg(256);

void BM_CooperativeLaunchPerThread(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {static_cast<unsigned>(state.range(0))};
  p.block = {256};
  p.name = "bm_coop";
  for (auto _ : state) dev.launch_sync(p, [] {});
  state.SetItemsProcessed(state.iterations() * p.grid.count() *
                          p.block.count());
}
BENCHMARK(BM_CooperativeLaunchPerThread)->Arg(16)->Arg(256);

void BM_BlockBarrier(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  const int barriers = 16;
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {static_cast<unsigned>(state.range(0))};
  p.name = "bm_barrier";
  for (auto _ : state) {
    dev.launch_sync(p, [&] {
      auto& t = simt::this_thread();
      for (int i = 0; i < barriers; ++i) t.block->sync_threads(t);
    });
  }
  state.SetItemsProcessed(state.iterations() * barriers);
}
BENCHMARK(BM_BlockBarrier)->Arg(32)->Arg(256);

void BM_WarpShuffle(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  const int rounds = 64;
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {32};
  p.name = "bm_shfl";
  for (auto _ : state) {
    dev.launch_sync(p, [&] {
      auto& t = simt::this_thread();
      std::uint64_t v = t.lane;
      for (int i = 0; i < rounds; ++i)
        v = t.warp->collective(t, simt::WarpOp::kShflXor, v, 1, ~0ull);
      benchmark::DoNotOptimize(v);
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_WarpShuffle);

void BM_StreamDispatch(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {1};
  p.mode = simt::ExecMode::kDirect;
  p.name = "bm_stream";
  simt::Stream& s = dev.default_stream();
  for (auto _ : state) {
    s.launch(p, [] {});
    s.synchronize();
  }
}
BENCHMARK(BM_StreamDispatch);

void BM_MappingEnterExit(benchmark::State& state) {
  simt::Device dev(simt::make_sim_a100_config());
  omp::MappingTable table(dev);
  std::vector<char> host(1 << 16);
  for (auto _ : state) {
    table.enter(omp::map_tofrom(host.data(), host.size()));
    table.exit(omp::map_tofrom(host.data(), host.size()));
  }
}
BENCHMARK(BM_MappingEnterExit);

// --- machine-readable summary mode (--json[=path]) -----------------------

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw fiber context-switch cost, ns per one-way switch.
double measure_switch_ns() {
  simt::FiberStackPool pool;
  bool stop = false;
  simt::Fiber f(pool, [&] {
    while (!stop) simt::Fiber::current()->yield();
  });
  const int iters = 2'000'000;
  f.resume();  // warm
  const double t0 = now_ms();
  for (int i = 0; i < iters; ++i) f.resume();  // one switch in, one out
  const double ms = now_ms() - t0;
  stop = true;
  f.resume();
  return ms * 1e6 / (2.0 * iters);
}

/// One timed row of the exec-mode comparison: mean ms per launch plus
/// the scheduler counters that prove which path actually ran.
struct ExecRow {
  double ms_per_launch = 0.0;
  std::uint64_t lane_loops = 0;   ///< threads run as plain calls (direct)
  std::uint64_t fibers_created = 0;
  std::uint64_t fiber_reuses = 0;
};

/// Times cooperative launches of `p` under `policy`: kFiber runs them
/// on fibers, kAuto runs them direct when `p.name` is hinted
/// convergent. The counters cover the timed launches only.
template <typename Kernel>
ExecRow measure_exec(simt::Device& dev, const simt::LaunchParams& p,
                     simt::ExecPolicy policy, int warm, int iters,
                     const Kernel& kernel) {
  const simt::ExecPolicy saved = simt::exec_policy();
  simt::set_exec_policy(policy);
  ExecRow row;
  for (int i = 0; i < warm; ++i) dev.launch_sync(p, kernel);
  const double t0 = now_ms();
  for (int i = 0; i < iters; ++i) {
    const simt::LaunchRecord r = dev.launch_sync(p, kernel);
    row.lane_loops += r.stats.sched_lane_loops;
    row.fibers_created += r.stats.fibers_created;
    row.fiber_reuses += r.stats.fiber_reuses;
  }
  row.ms_per_launch = (now_ms() - t0) / iters;
  simt::set_exec_policy(saved);
  return row;
}

int emit_json(const std::string& path) {
  const double switch_ns = measure_switch_ns();

  // Sync-free cooperative launch, fiber vs direct: the same launch on
  // both executors. The fiber row is the fiber-recycling fast path; the
  // direct row, its kernel hinted convergent, runs every thread as a
  // plain call on the worker (no fiber, no context switch). One worker
  // so launches/s isolates engine overhead, not host parallelism.
  simt::EngineOptions opts;
  opts.workers = 1;
  simt::Device dev(simt::make_sim_a100_config(), opts);
  simt::LaunchParams p;
  p.grid = {16};
  p.block = {256};
  p.name = "json_sync_free";
  const int warm = 20, iters = 200;
  const double sync_threads = 16.0 * 256.0;
  const ExecRow sf_fiber = measure_exec(dev, p, simt::ExecPolicy::kFiber,
                                        warm, iters, [] {});
  ompx::launch_hints("json_sync_free", /*convergent=*/true);
  const ExecRow sf_direct = measure_exec(dev, p, simt::ExecPolicy::kAuto,
                                         warm, iters, [] {});
  simt::clear_exec_hints();
  const double sync_free_ms = sf_fiber.ms_per_launch;
  const std::uint64_t created = sf_fiber.fibers_created;
  const std::uint64_t reused = sf_fiber.fiber_reuses;
  const double reuse_rate =
      created + reused == 0
          ? 0.0
          : static_cast<double>(reused) / static_cast<double>(created + reused);

  // Same launch with telemetry capture on: the traced-vs-untraced pair
  // quantifies the profiler's per-launch cost (spans + counter folds).
  // The untraced pass above already exercised the zero-overhead-off
  // path (one relaxed atomic load per launch).
  simt::Profiler::instance().start();
  for (int i = 0; i < warm; ++i) dev.launch_sync(p, [] {});
  double t0 = now_ms();
  for (int i = 0; i < iters; ++i) dev.launch_sync(p, [] {});
  const double traced_ms = (now_ms() - t0) / iters;
  simt::Profiler::instance().stop();
  simt::Profiler::instance().reset();

  // Barrier-heavy launch: the ready-queue batch-drain path (fibers
  // only: direct lanes pass one barrier, not sixteen).
  p.name = "json_barrier16";
  p.grid = {1};
  const int barriers = 16;
  auto barrier_kernel = [&] {
    auto& t = simt::this_thread();
    for (int i = 0; i < barriers; ++i) t.block->sync_threads(t);
  };
  const ExecRow bh_fiber = measure_exec(dev, p, simt::ExecPolicy::kFiber,
                                        warm, iters, barrier_kernel);

  // Atomics-only kernel, two ways. Fibers; and direct under the
  // ompx-analyze verdict "convergent, with atomics", where each lane's
  // RMW runs in place in its plain call: zero fibers. The hint is not
  // hand-written — register_exec_hints runs the analyzer over the
  // kernel's own source.
  p.name = "json_atomic";
  p.grid = {16};
  std::uint64_t atomic_cell = 0;
  auto atomic_kernel = [&] {
    simt::atomic_add(&atomic_cell, std::uint64_t{1});
  };
  const ExecRow at_fiber = measure_exec(dev, p, simt::ExecPolicy::kFiber,
                                        warm, iters, atomic_kernel);
  simt::clear_exec_hints();
  const int hinted = ompx::register_exec_hints(R"(
    p.name = "json_atomic";
    dev.launch_sync(p, [&] {
      simt::atomic_add(&atomic_cell, std::uint64_t{1});
    });
  )");
  const ExecRow at_direct = measure_exec(dev, p, simt::ExecPolicy::kAuto,
                                         warm, iters, atomic_kernel);

  // Sanitizer-off overhead: the same shared-memory traffic through the
  // instrumented accessors (ompx::san) vs raw pointers, sanitizer
  // disabled. The instrumented path must cost one relaxed atomic load
  // per access — the pair below is the evidence.
  p.name = "json_san_off";
  p.grid = {16};
  p.mode = simt::ExecMode::kCooperative;
  const int rounds = 32;
  auto raw_kernel = [&] {
    auto& t = simt::this_thread();
    auto* tile = static_cast<double*>(
        t.block->shared_alloc(t, 256 * sizeof(double), alignof(double)));
    double acc = 0.0;
    for (int r = 0; r < rounds; ++r) {
      tile[t.flat_tid] = static_cast<double>(t.flat_tid + r);
      acc += tile[t.flat_tid];
    }
    benchmark::DoNotOptimize(acc);
  };
  auto checked_kernel = [&] {
    auto tile = ompx::san::shared_array<double>(256);
    auto& t = simt::this_thread();
    double acc = 0.0;
    for (int r = 0; r < rounds; ++r) {
      tile[t.flat_tid] = static_cast<double>(t.flat_tid + r);
      acc += tile[t.flat_tid];
    }
    benchmark::DoNotOptimize(acc);
  };
  for (int i = 0; i < warm; ++i) dev.launch_sync(p, raw_kernel);
  t0 = now_ms();
  for (int i = 0; i < iters; ++i) dev.launch_sync(p, raw_kernel);
  const double raw_ms = (now_ms() - t0) / iters;
  for (int i = 0; i < warm; ++i) dev.launch_sync(p, checked_kernel);
  t0 = now_ms();
  for (int i = 0; i < iters; ++i) dev.launch_sync(p, checked_kernel);
  const double checked_ms = (now_ms() - t0) / iters;

  // Async engine: a launch-bound iteration (16 tiny kernels, the Adam /
  // Stencil-1D shape) submitted three ways. (a) uncaptured async
  // launches — each submission pays validation, exec-policy lookup,
  // record assembly and a launch-log push; (b) graph replay — the same
  // 16 kernels captured once, instantiated, then re-issued as a single
  // stream op whose nodes skip all per-launch setup; (c) the same op
  // count split across two independent streams to show real host-side
  // overlap from the worker pool.
  simt::Device adev(simt::make_sim_a100_config());
  simt::LaunchParams ap;
  ap.grid = {1};
  ap.block = {64};
  ap.mode = simt::ExecMode::kDirect;
  ap.name = "json_async";
  constexpr int kChain = 16;   // launches per iteration
  constexpr int kReps = 200;   // iterations per timed pass
  simt::Stream& as = adev.default_stream();
  for (int i = 0; i < kChain; ++i) as.launch(ap, [] {});  // warm
  as.synchronize();
  t0 = now_ms();
  for (int r = 0; r < kReps; ++r)
    for (int i = 0; i < kChain; ++i) as.launch(ap, [] {});
  as.synchronize();
  const double async_ms = now_ms() - t0;
  const double async_launches_s = kChain * kReps / (async_ms / 1000.0);

  as.begin_capture();
  for (int i = 0; i < kChain; ++i) as.launch(ap, [] {});
  std::unique_ptr<simt::Graph> graph = as.end_capture();
  graph->instantiate();
  as.launch_graph(*graph);  // warm
  as.synchronize();
  t0 = now_ms();
  for (int r = 0; r < kReps; ++r) as.launch_graph(*graph);
  as.synchronize();
  const double replay_ms = now_ms() - t0;
  const double replay_launches_s = kChain * kReps / (replay_ms / 1000.0);

  // Overlap: N ops through one stream vs N/2 + N/2 through two
  // independent streams. Under a worker pool with >= 2 workers the
  // two-stream wall time must be well under the serialized time.
  simt::Stream* s1 = adev.create_stream();
  simt::Stream* s2 = adev.create_stream();
  auto spin_kernel = [] {
    volatile unsigned acc = 0;
    for (int i = 0; i < 20000; ++i) acc += static_cast<unsigned>(i);
  };
  constexpr int kOverlapOps = 64;
  for (int i = 0; i < 4; ++i) s1->launch(ap, spin_kernel);  // warm
  s1->synchronize();
  t0 = now_ms();
  for (int i = 0; i < kOverlapOps; ++i) s1->launch(ap, spin_kernel);
  s1->synchronize();
  const double one_stream_ms = now_ms() - t0;
  t0 = now_ms();
  for (int i = 0; i < kOverlapOps / 2; ++i) {
    s1->launch(ap, spin_kernel);
    s2->launch(ap, spin_kernel);
  }
  s1->synchronize();
  s2->synchronize();
  const double two_stream_ms = now_ms() - t0;

  // Work-stealing block distribution: many blocks, several workers.
  simt::EngineOptions multi;
  multi.workers = 4;
  simt::Device dev4(simt::make_sim_a100_config(), multi);
  p.name = "json_steal";
  p.grid = {1024};
  p.mode = simt::ExecMode::kDirect;
  const simt::LaunchRecord steal_rec = dev4.launch_sync(p, [] {});

  std::string out;
  char buf[1024];
  // ns_per_thread divides the whole launch (dispatch + scheduling +
  // kernel body) evenly over its threads — the per-lane engine tax.
  // A direct row also carries its counters and its speedup over
  // `fiber`.
  auto exec_row = [&](const char* key, const ExecRow& row, double threads,
                      const ExecRow* fiber) {
    std::snprintf(buf, sizeof buf,
                  "    \"%s\": {\n"
                  "      \"ms_per_launch\": %.3f,\n"
                  "      \"launches_per_s\": %.0f,\n"
                  "      \"ns_per_thread\": %.1f%s\n",
                  key, row.ms_per_launch, 1000.0 / row.ms_per_launch,
                  row.ms_per_launch * 1e6 / threads, fiber ? "," : "");
    out += buf;
    if (fiber != nullptr) {
      std::snprintf(buf, sizeof buf,
                    "      \"lane_loops\": %llu,\n"
                    "      \"fibers\": %llu,\n"
                    "      \"speedup_vs_fiber\": %.2f\n",
                    static_cast<unsigned long long>(row.lane_loops),
                    static_cast<unsigned long long>(row.fibers_created +
                                                    row.fiber_reuses),
                    fiber->ms_per_launch / row.ms_per_launch);
      out += buf;
    }
    out += "    },\n";
  };
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"micro_engine\",\n"
                "  \"fiber_switch_ns\": %.1f,\n"
                "  \"sync_free\": {\n"
                "    \"grid\": 16, \"block\": 256, \"workers\": 1, "
                "\"threads\": 4096,\n",
                switch_ns);
  out += buf;
  exec_row("fiber", sf_fiber, sync_threads, nullptr);
  exec_row("direct", sf_direct, sync_threads, &sf_fiber);
  std::snprintf(
      buf, sizeof buf,
      "    \"fibers_created\": %llu,\n"
      "    \"fiber_reuses\": %llu,\n"
      "    \"fiber_reuse_rate\": %.4f\n"
      "  },\n",
      static_cast<unsigned long long>(created),
      static_cast<unsigned long long>(reused), reuse_rate);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"trace_overhead\": {\n"
      "    \"grid\": 16, \"block\": 256, \"workers\": 1,\n"
      "    \"ms_per_launch_untraced\": %.3f,\n"
      "    \"ms_per_launch_traced\": %.3f\n"
      "  },\n"
      "  \"barrier_heavy\": {\n"
      "    \"grid\": 1, \"block\": 256, \"barriers\": %d, \"threads\": 256,\n",
      sync_free_ms, traced_ms, barriers);
  out += buf;
  exec_row("fiber", bh_fiber, 256.0, nullptr);
  out.erase(out.size() - 2, 1);  // the row closes the object: no comma
  std::snprintf(
      buf, sizeof buf,
      "  },\n"
      "  \"atomic_inline\": {\n"
      "    \"grid\": 16, \"block\": 256, \"threads\": 4096,\n"
      "    \"hints_registered\": %d,\n",
      hinted);
  out += buf;
  exec_row("fiber", at_fiber, sync_threads, nullptr);
  exec_row("direct_hinted", at_direct, sync_threads, &at_fiber);
  out += "    \"note\": \"hint comes from register_exec_hints over the "
         "kernel source: atomics run in place, no fibers\"\n"
         "  },\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"san_overhead\": {\n"
      "    \"grid\": 16, \"block\": 256, \"rounds\": %d, \"san\": \"off\",\n"
      "    \"ms_per_launch_raw\": %.3f,\n"
      "    \"ms_per_launch_checked\": %.3f\n"
      "  },\n"
      "  \"work_stealing\": {\n"
      "    \"grid\": 1024, \"block\": 256, \"workers\": 4,\n"
      "    \"steals\": %llu\n"
      "  },\n"
      "  \"engine_async\": {\n"
      "    \"grid\": %llu, \"block\": %llu, \"chain\": %d,\n"
      "    \"async_launches_per_s\": %.0f,\n"
      "    \"graph_replay_launches_per_s\": %.0f,\n"
      "    \"replay_speedup\": %.2f,\n"
      "    \"one_stream_ms\": %.3f,\n"
      "    \"two_stream_ms\": %.3f,\n"
      "    \"overlap_ratio\": %.3f\n"
      "  }\n"
      "}\n",
      rounds, raw_ms, checked_ms,
      static_cast<unsigned long long>(steal_rec.stats.sched_steals),
      static_cast<unsigned long long>(ap.grid.count()),
      static_cast<unsigned long long>(ap.block.count()), kChain,
      async_launches_s, replay_launches_s,
      replay_launches_s / async_launches_s, one_stream_ms, two_stream_ms,
      two_stream_ms / one_stream_ms);
  out += buf;

  if (path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_engine: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return emit_json("");
    if (std::strncmp(argv[i], "--json=", 7) == 0) return emit_json(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

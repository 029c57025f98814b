// Exec-mode differential: every fig8 benchmark must be bit-identical
// under OMPX_EXEC=fiber and under OMPX_EXEC=auto with the analyzer's
// hints for its own source registered (which runs its convergent
// kernels' cooperative launches direct) — same checksum, same
// validity, and the same engine op counts (barriers, collectives,
// atomics, handshakes, globalized bytes). Modeled kernel time is
// compared *exactly*: the executor only changes host-side scheduling
// diagnostics (fibers, sched_lane_loops), which never feed the
// performance model, so any drift here is a real modeling bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/harness.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"
#include "core/ompx.h"
#include "simt/profiler.h"
#include "simt/simt.h"

namespace {

using apps::Version;

const Version kAllVersions[] = {Version::kOmpx, Version::kOmp,
                                Version::kNative, Version::kNativeVendor};

/// One app run under one exec policy, with the engine ops it performed.
struct ExecCell {
  apps::RunResult result;
  simt::ProfilerCounters ops;
};

/// Saves/restores the process-wide exec policy and clears hints around
/// every test, so one cell's hints cannot steer the next.
class AppsExecMode : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = simt::exec_policy();
    simt::clear_exec_hints();
  }
  void TearDown() override {
    simt::set_exec_policy(saved_);
    simt::clear_exec_hints();
    simt::Profiler::instance().stop();
  }

  /// One run under `policy`, with the exec hints the analyzer derives
  /// from `hint_source` (a file under the source tree) registered.
  static ExecCell run_cell(simt::ExecPolicy policy,
                           const std::function<apps::RunResult()>& run,
                           const char* hint_source = nullptr) {
    simt::set_exec_policy(policy);
    simt::clear_exec_hints();
    if (hint_source != nullptr) {
      std::ifstream in(std::string(OMPX_SOURCE_DIR) + hint_source);
      EXPECT_TRUE(in.good()) << hint_source;
      std::ostringstream src;
      src << in.rdbuf();
      EXPECT_GE(ompx::register_exec_hints(src.str()), 1) << hint_source;
    }
    auto& prof = simt::Profiler::instance();
    prof.start();
    prof.reset();
    ExecCell cell;
    cell.result = run();
    cell.ops = prof.counters();
    prof.stop();
    return cell;
  }

  /// The differential itself: fiber is the reference; the run with the
  /// app's own hints routed direct must reproduce its checksum,
  /// validity, op counts, and modeled time. Returns the number of
  /// threads the routing moved off fibers, which every caller pins:
  /// 0 where the app's launches are direct already or its kernel needs
  /// fibers (those arms show only that the policy changes nothing),
  /// more where a hinted cooperative launch was routed.
  static std::uint64_t routed_off_fibers(
      const char* source, const std::function<apps::RunResult()>& run,
      const char* what) {
    const ExecCell fib = run_cell(simt::ExecPolicy::kFiber, run);
    const ExecCell dir = run_cell(simt::ExecPolicy::kAuto, run, source);
    EXPECT_EQ(fib.result.checksum, dir.result.checksum) << what;
    EXPECT_EQ(fib.result.valid, dir.result.valid) << what;
    EXPECT_EQ(fib.ops.launches, dir.ops.launches) << what;
    EXPECT_EQ(fib.ops.blocks, dir.ops.blocks) << what;
    EXPECT_EQ(fib.ops.threads, dir.ops.threads) << what;
    EXPECT_EQ(fib.ops.block_barriers, dir.ops.block_barriers) << what;
    EXPECT_EQ(fib.ops.warp_collectives, dir.ops.warp_collectives) << what;
    EXPECT_EQ(fib.ops.atomics, dir.ops.atomics) << what;
    EXPECT_EQ(fib.ops.parallel_handshakes, dir.ops.parallel_handshakes)
        << what;
    EXPECT_EQ(fib.ops.globalized_bytes, dir.ops.globalized_bytes) << what;
    // Bit-identical, not approximately: see the header comment.
    EXPECT_EQ(fib.ops.modeled_kernel_ms, dir.ops.modeled_kernel_ms) << what;
    // Under fiber only launches that asked for kDirect run as plain
    // calls; routing only ever adds to them.
    EXPECT_LE(fib.ops.lane_loops, dir.ops.lane_loops) << what;
    return dir.ops.lane_loops - fib.ops.lane_loops;
  }

 private:
  simt::ExecPolicy saved_ = simt::ExecPolicy::kAuto;
};

TEST_F(AppsExecMode, XSBenchAllVersions) {
  apps::xsbench::Options o;
  o.lookups = 5000;
  o.n_gridpoints = 256;
  for (Version v : kAllVersions) {
    EXPECT_EQ(routed_off_fibers(
                  "/src/apps/xsbench/versions.cpp",
                  [&] { return apps::xsbench::run(v, simt::sim_a100(), o); },
                  apps::version_name(v)),
              0u);
  }
  // Every version above launches its event kernel direct already; the
  // ompx one launched cooperatively is where the hint moves threads
  // off fibers, and the differential must hold there too.
  o.mode = simt::ExecMode::kCooperative;
  EXPECT_GT(routed_off_fibers(
                "/src/apps/xsbench/versions.cpp",
                [&] {
                  return apps::xsbench::run(Version::kOmpx, simt::sim_a100(),
                                            o);
                },
                "ompx cooperative"),
            0u);
}

TEST_F(AppsExecMode, RSBenchAllVersions) {
  apps::rsbench::Options o;
  o.lookups = 2000;
  o.n_poles = 128;
  o.n_windows = 16;
  for (Version v : kAllVersions) {
    EXPECT_EQ(routed_off_fibers(
                  "/src/apps/rsbench/versions.cpp",
                  [&] { return apps::rsbench::run(v, simt::sim_a100(), o); },
                  apps::version_name(v)),
              0u);
  }
}

TEST_F(AppsExecMode, Su3AllVersions) {
  apps::su3::Options o;
  o.lattice_sites = 2048;
  o.iterations = 2;
  for (Version v : kAllVersions) {
    EXPECT_EQ(routed_off_fibers(
                  "/src/apps/su3/versions.cpp",
                  [&] { return apps::su3::run(v, simt::sim_a100(), o); },
                  apps::version_name(v)),
              0u);
  }
}

TEST_F(AppsExecMode, AidwAllVersions) {
  apps::aidw::Options o;
  o.n_data = 512;
  o.n_query = 512;
  o.tile = 128;
  for (Version v : kAllVersions) {
    EXPECT_EQ(routed_off_fibers(
                  "/src/apps/aidw/versions.cpp",
                  [&] { return apps::aidw::run(v, simt::sim_a100(), o); },
                  apps::version_name(v)),
              0u);
  }
}

TEST_F(AppsExecMode, AdamAllVersions) {
  apps::adam::Options o;
  o.n = 2000;
  o.steps = 10;
  for (Version v : kAllVersions) {
    EXPECT_EQ(routed_off_fibers(
                  "/src/apps/adam/versions.cpp",
                  [&] { return apps::adam::run(v, simt::sim_a100(), o); },
                  apps::version_name(v)),
              0u);
  }
}

TEST_F(AppsExecMode, StencilAllVersionsBothDevices) {
  // Cooperative, so the ompx and kl kernels take the fiber path through
  // their barrier in both arms (by default they launch kDirect; the
  // analyzer pins the barrier kernel to fibers).
  apps::stencil1d::Options o;
  o.n = 1 << 14;
  o.iterations = 2;
  o.mode = simt::ExecMode::kCooperative;
  simt::Device* devices[] = {&simt::sim_a100(), &simt::sim_mi250()};
  for (simt::Device* dev : devices) {
    for (Version v : kAllVersions) {
      EXPECT_EQ(routed_off_fibers(
                    "/src/apps/stencil1d/versions.cpp",
                    [&] { return apps::stencil1d::run(v, *dev, o); },
                    apps::version_name(v)),
                0u);
    }
  }
}

TEST_F(AppsExecMode, StencilDirectMatchesFiber) {
  // kDirect nests each block's lanes through the one barrier: same
  // checksum, op counts and modeled time as the fiber run, no fibers.
  apps::stencil1d::Options fiber_opt;
  fiber_opt.n = 1 << 14;
  fiber_opt.iterations = 2;
  fiber_opt.mode = simt::ExecMode::kCooperative;
  apps::stencil1d::Options direct_opt = fiber_opt;
  direct_opt.mode = simt::ExecMode::kDirect;
  // Fibers the last run's launches used (run() clears the log first).
  const auto fibers_used = [](simt::Device& dev) {
    std::uint64_t n = 0;
    for (const auto& rec : dev.launch_log())
      n += rec.stats.fibers_created + rec.stats.fiber_reuses;
    return n;
  };
  simt::Device* devices[] = {&simt::sim_a100(), &simt::sim_mi250()};
  for (simt::Device* dev : devices) {
    for (Version v : kAllVersions) {
      const std::string what =
          dev->config().name + std::string(" ") + apps::version_name(v);
      const ExecCell fib = run_cell(simt::ExecPolicy::kFiber, [&] {
        return apps::stencil1d::run(v, *dev, fiber_opt);
      });
      const std::uint64_t fib_fibers = fibers_used(*dev);
      const ExecCell dir = run_cell(simt::ExecPolicy::kFiber, [&] {
        return apps::stencil1d::run(v, *dev, direct_opt);
      });
      EXPECT_EQ(fibers_used(*dev), 0u) << what;
      // The omp version runs generic mode (always direct); the others
      // must have been on fibers for the comparison to mean anything.
      if (v != Version::kOmp) EXPECT_GT(fib_fibers, 0u) << what;
      EXPECT_EQ(fib.result.checksum, dir.result.checksum) << what;
      EXPECT_EQ(fib.result.valid, dir.result.valid) << what;
      EXPECT_TRUE(dir.result.valid) << what;
      EXPECT_EQ(fib.ops.launches, dir.ops.launches) << what;
      EXPECT_EQ(fib.ops.blocks, dir.ops.blocks) << what;
      EXPECT_EQ(fib.ops.threads, dir.ops.threads) << what;
      EXPECT_EQ(fib.ops.block_barriers, dir.ops.block_barriers) << what;
      EXPECT_EQ(fib.ops.warp_collectives, dir.ops.warp_collectives) << what;
      EXPECT_EQ(fib.ops.atomics, dir.ops.atomics) << what;
      EXPECT_EQ(fib.ops.parallel_handshakes, dir.ops.parallel_handshakes)
          << what;
      EXPECT_EQ(fib.ops.globalized_bytes, dir.ops.globalized_bytes) << what;
      EXPECT_EQ(fib.ops.modeled_kernel_ms, dir.ops.modeled_kernel_ms) << what;
    }
  }
}

TEST_F(AppsExecMode, AnalyzerVerdictRoutesXSBenchDirect) {
  // End-to-end over a real app kernel: the static analyzer reads
  // xsbench's versions.cpp, proves xsbench_event convergent (atomics
  // only), registers the hint — and a cooperative run under the
  // default kAuto policy runs every thread as a plain call, atomics in
  // place, with the checksum still matching the fiber reference.
  apps::xsbench::Options o;
  o.lookups = 5000;
  o.n_gridpoints = 256;
  o.mode = simt::ExecMode::kCooperative;
  const auto run = [&] {
    return apps::xsbench::run(Version::kOmpx, simt::sim_a100(), o);
  };
  const ExecCell fib = run_cell(simt::ExecPolicy::kFiber, run);
  EXPECT_EQ(fib.ops.lane_loops, 0u);
  const ExecCell dir =
      run_cell(simt::ExecPolicy::kAuto, run, "/src/apps/xsbench/versions.cpp");
  const simt::ExecHint h = simt::exec_hint("xsbench_event");
  ASSERT_TRUE(h.convergent);
  EXPECT_EQ(dir.result.checksum, fib.result.checksum);
  EXPECT_TRUE(dir.result.valid);
  EXPECT_EQ(dir.ops.lane_loops, dir.ops.threads)
      << "statically-proven-convergent kernel did not run direct";
  EXPECT_GT(dir.ops.atomics, 0u);
  EXPECT_EQ(dir.ops.atomics, fib.ops.atomics);
}

TEST_F(AppsExecMode, HintRoutesALayeredLaunchDirect) {
  // A sync-free *cooperative* launch through the same layered API the
  // apps use, hinted convergent: every thread of the launch runs as a
  // plain call.
  simt::set_exec_policy(simt::ExecPolicy::kAuto);
  simt::clear_exec_hints();
  ompx::launch_hints("exec_mode_probe", /*convergent=*/true);
  auto& prof = simt::Profiler::instance();
  prof.start();
  prof.reset();
  ompx::set_default_device(simt::sim_a100());
  auto* out = ompx::malloc_n<int>(1024);
  ompx::LaunchSpec spec;
  spec.num_teams = {4};
  spec.thread_limit = {256};
  spec.mode = simt::ExecMode::kCooperative;
  spec.name = "exec_mode_probe";
  ompx::launch(spec, [=] {
    out[ompx::global_thread_id()] = 1;
  }).wait();
  const auto ops = prof.counters();
  prof.stop();
  ompx::free_on(simt::sim_a100(), out);
  EXPECT_EQ(ops.lane_loops, 1024u) << "the hint never routed the launch";
}

}  // namespace

// Exec-mode differential: every fig8 benchmark must be bit-identical
// under OMPX_EXEC=fiber and OMPX_EXEC=convergent — same checksum, same
// validity, and the same engine op counts (barriers, collectives,
// atomics, handshakes, globalized bytes). Modeled kernel time is
// compared *exactly*: the lane loop only changes host-side scheduling
// diagnostics (sched_lane_loops / sched_deflations), which never feed
// the performance model, so any drift here is a real modeling bug.
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

/// Saves/restores the process-wide exec policy and clears learned hints
/// around every test, so a deflation in one cell cannot steer the next.
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

  static ExecCell run_cell(simt::ExecPolicy policy,
                           const std::function<apps::RunResult()>& run) {
    simt::set_exec_policy(policy);
    simt::clear_exec_hints();
    auto& prof = simt::Profiler::instance();
    prof.start();
    prof.reset();
    ExecCell cell;
    cell.result = run();
    cell.ops = prof.counters();
    prof.stop();
    return cell;
  }

  /// The differential itself: fiber is the reference; convergent must
  /// reproduce its checksum, validity, op counts, and modeled time.
  static void expect_exec_equivalent(const std::function<apps::RunResult()>& run,
                                     const char* what,
                                     std::uint64_t* conv_lane_loops = nullptr) {
    const ExecCell fib = run_cell(simt::ExecPolicy::kFiber, run);
    const ExecCell conv = run_cell(simt::ExecPolicy::kConvergent, run);
    EXPECT_EQ(fib.result.checksum, conv.result.checksum) << what;
    EXPECT_EQ(fib.result.valid, conv.result.valid) << what;
    EXPECT_EQ(fib.ops.launches, conv.ops.launches) << what;
    EXPECT_EQ(fib.ops.blocks, conv.ops.blocks) << what;
    EXPECT_EQ(fib.ops.threads, conv.ops.threads) << what;
    EXPECT_EQ(fib.ops.block_barriers, conv.ops.block_barriers) << what;
    EXPECT_EQ(fib.ops.warp_collectives, conv.ops.warp_collectives) << what;
    EXPECT_EQ(fib.ops.atomics, conv.ops.atomics) << what;
    EXPECT_EQ(fib.ops.parallel_handshakes, conv.ops.parallel_handshakes)
        << what;
    EXPECT_EQ(fib.ops.globalized_bytes, conv.ops.globalized_bytes) << what;
    // Bit-identical, not approximately: see the header comment.
    EXPECT_EQ(fib.ops.modeled_kernel_ms, conv.ops.modeled_kernel_ms) << what;
    EXPECT_EQ(fib.ops.lane_loops, 0u) << what;  // fiber mode never inlines
    if (conv_lane_loops != nullptr) *conv_lane_loops = conv.ops.lane_loops;
  }

 private:
  simt::ExecPolicy saved_ = simt::ExecPolicy::kAuto;
};

TEST_F(AppsExecMode, XSBenchAllVersions) {
  apps::xsbench::Options o;
  o.lookups = 5000;
  o.n_gridpoints = 256;
  for (Version v : kAllVersions) {
    expect_exec_equivalent(
        [&] { return apps::xsbench::run(v, simt::sim_a100(), o); },
        apps::version_name(v));
  }
}

TEST_F(AppsExecMode, RSBenchAllVersions) {
  apps::rsbench::Options o;
  o.lookups = 2000;
  o.n_poles = 128;
  o.n_windows = 16;
  for (Version v : kAllVersions) {
    expect_exec_equivalent(
        [&] { return apps::rsbench::run(v, simt::sim_a100(), o); },
        apps::version_name(v));
  }
}

TEST_F(AppsExecMode, Su3AllVersions) {
  apps::su3::Options o;
  o.lattice_sites = 2048;
  o.iterations = 2;
  for (Version v : kAllVersions) {
    expect_exec_equivalent(
        [&] { return apps::su3::run(v, simt::sim_a100(), o); },
        apps::version_name(v));
  }
}

TEST_F(AppsExecMode, AidwAllVersions) {
  apps::aidw::Options o;
  o.n_data = 512;
  o.n_query = 512;
  o.tile = 128;
  for (Version v : kAllVersions) {
    expect_exec_equivalent(
        [&] { return apps::aidw::run(v, simt::sim_a100(), o); },
        apps::version_name(v));
  }
}

TEST_F(AppsExecMode, AdamAllVersions) {
  apps::adam::Options o;
  o.n = 2000;
  o.steps = 10;
  for (Version v : kAllVersions) {
    expect_exec_equivalent(
        [&] { return apps::adam::run(v, simt::sim_a100(), o); },
        apps::version_name(v));
  }
}

TEST_F(AppsExecMode, StencilAllVersionsBothDevices) {
  // Cooperative, so the ompx and kl kernels take the fiber and lane-loop
  // paths through their barrier (by default they launch kDirect).
  apps::stencil1d::Options o;
  o.n = 1 << 14;
  o.iterations = 2;
  o.mode = simt::ExecMode::kCooperative;
  simt::Device* devices[] = {&simt::sim_a100(), &simt::sim_mi250()};
  for (simt::Device* dev : devices) {
    for (Version v : kAllVersions) {
      expect_exec_equivalent(
          [&] { return apps::stencil1d::run(v, *dev, o); },
          apps::version_name(v));
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

TEST_F(AppsExecMode, AnalyzerVerdictRoutesXSBenchOntoTheLaneLoop) {
  // End-to-end over a real app kernel: the static analyzer reads
  // xsbench's versions.cpp, proves xsbench_event convergent with
  // inline-safe atomics, registers the hint — and a cooperative run
  // under the default kAuto policy takes the lane-loop fast path
  // (fiber-free, atomics inline, zero deflations), with the checksum
  // still matching the fiber reference.
  apps::xsbench::Options o;
  o.lookups = 5000;
  o.n_gridpoints = 256;
  o.mode = simt::ExecMode::kCooperative;
  const auto run = [&] {
    return apps::xsbench::run(Version::kOmpx, simt::sim_a100(), o);
  };
  const ExecCell fib = run_cell(simt::ExecPolicy::kFiber, run);

  simt::set_exec_policy(simt::ExecPolicy::kAuto);
  simt::clear_exec_hints();
  std::ifstream in(std::string(OMPX_SOURCE_DIR) +
                   "/src/apps/xsbench/versions.cpp");
  ASSERT_TRUE(in.good());
  std::ostringstream src;
  src << in.rdbuf();
  ASSERT_GE(ompx::register_exec_hints(src.str()), 1);
  const simt::ExecHint h = simt::exec_hint("xsbench_event");
  ASSERT_TRUE(h.convergent);
  ASSERT_TRUE(h.atomics_ok);

  auto& prof = simt::Profiler::instance();
  prof.start();
  prof.reset();
  const apps::RunResult conv = run();
  const auto ops = prof.counters();
  prof.stop();
  EXPECT_EQ(conv.checksum, fib.result.checksum);
  EXPECT_TRUE(conv.valid);
  EXPECT_GT(ops.lane_loops, 0u)
      << "statically-proven-convergent kernel never took the lane loop";
  EXPECT_EQ(ops.atomics, fib.ops.atomics);
}

TEST_F(AppsExecMode, ConvergentPolicyActuallyInlinesSomewhere) {
  // The six fig8 apps either launch their sync-free kernels in direct
  // mode (plain calls, fiber-free by construction) or synchronize and
  // deflate — so the app table alone would let the lane loop pass
  // vacuously. A sync-free *cooperative* launch through the same
  // layered API the apps use proves the policy engages: every thread
  // of the launch runs inline.
  simt::set_exec_policy(simt::ExecPolicy::kConvergent);
  simt::clear_exec_hints();
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
  EXPECT_EQ(ops.lane_loops, 1024u)
      << "convergent policy never engaged the lane loop";
}

}  // namespace

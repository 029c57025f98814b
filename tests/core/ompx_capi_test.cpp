// Exhaustive coverage of the C-shaped ompx device API (§3.3): every
// extern "C" entry point, on both warp sizes. These are the symbols a
// C (or Fortran-binding) translation unit links against, so each one
// is exercised individually rather than through the C++ templates.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ompx.h"

namespace {

class CApi : public ::testing::TestWithParam<int> {
 protected:
  simt::Device& dev() {
    return *simt::device_registry()[static_cast<std::size_t>(GetParam())];
  }
  unsigned ws() { return dev().config().warp_size; }

  template <typename F>
  void run_warp(F&& body) {
    ompx::LaunchSpec spec;
    spec.device = &dev();
    spec.num_teams = {1};
    spec.thread_limit = {ws()};
    spec.name = "capi";
    ompx::launch(spec, std::forward<F>(body)).wait();
  }
};

TEST_P(CApi, ShflSyncIntBroadcast) {
  std::vector<int> got(ws(), -1);
  auto* p = got.data();
  run_warp([=] {
    p[ompx_lane_id()] = ompx_shfl_sync_i(~0ull, 100 + ompx_lane_id(), 5);
  });
  for (unsigned l = 0; l < ws(); ++l) EXPECT_EQ(got[l], 105);
}

TEST_P(CApi, ShflUpSyncInt) {
  std::vector<int> got(ws(), -1);
  auto* p = got.data();
  run_warp([=] {
    p[ompx_lane_id()] = ompx_shfl_up_sync_i(~0ull, ompx_lane_id() * 2, 1);
  });
  EXPECT_EQ(got[0], 0);  // lane 0 keeps its own value
  for (unsigned l = 1; l < ws(); ++l) EXPECT_EQ(got[l], 2 * (int(l) - 1));
}

TEST_P(CApi, ShflDownSyncInt) {
  std::vector<int> got(ws(), -1);
  auto* p = got.data();
  run_warp([=] {
    p[ompx_lane_id()] = ompx_shfl_down_sync_i(~0ull, ompx_lane_id(), 2);
  });
  for (unsigned l = 0; l + 2 < ws(); ++l) EXPECT_EQ(got[l], int(l) + 2);
  EXPECT_EQ(got[ws() - 1], int(ws()) - 1);  // tail keeps own value
}

TEST_P(CApi, ShflXorSyncInt) {
  std::vector<int> got(ws(), -1);
  auto* p = got.data();
  run_warp([=] {
    p[ompx_lane_id()] = ompx_shfl_xor_sync_i(~0ull, ompx_lane_id(), 3);
  });
  for (unsigned l = 0; l < ws(); ++l) EXPECT_EQ(got[l], int(l ^ 3u));
}

TEST_P(CApi, ShflSyncDoubleAndFloat) {
  std::vector<double> gd(ws(), -1);
  std::vector<float> gf(ws(), -1);
  auto* pd = gd.data();
  auto* pf = gf.data();
  run_warp([=] {
    pd[ompx_lane_id()] =
        ompx_shfl_sync_d(~0ull, 0.5 + ompx_lane_id(), 0);
    pf[ompx_lane_id()] =
        ompx_shfl_down_sync_f(~0ull, 1.5f * ompx_lane_id(), 1);
  });
  for (unsigned l = 0; l < ws(); ++l) {
    EXPECT_DOUBLE_EQ(gd[l], 0.5);
    const float expect = l + 1 < ws() ? 1.5f * (l + 1) : 1.5f * l;
    EXPECT_FLOAT_EQ(gf[l], expect);
  }
  // Double shfl_down variant too.
  std::vector<double> gdd(ws(), -1);
  auto* pdd = gdd.data();
  run_warp([=] {
    pdd[ompx_lane_id()] =
        ompx_shfl_down_sync_d(~0ull, 2.0 * ompx_lane_id(), 4);
  });
  for (unsigned l = 0; l + 4 < ws(); ++l) EXPECT_DOUBLE_EQ(gdd[l], 2.0 * (l + 4));
}

TEST_P(CApi, VotesAnyAllBallot) {
  int any_none = -1, all_all = -1, any_one = -1, all_one = -1;
  std::uint64_t ballot = 0;
  run_warp([&] {
    const int none = ompx_any_sync(~0ull, 0);
    const int all1 = ompx_all_sync(~0ull, 1);
    const int one = ompx_any_sync(~0ull, ompx_lane_id() == 2);
    const int allone = ompx_all_sync(~0ull, ompx_lane_id() == 2);
    const std::uint64_t b = ompx_ballot_sync(~0ull, ompx_lane_id() < 4);
    if (ompx_lane_id() == 0) {
      any_none = none;
      all_all = all1;
      any_one = one;
      all_one = allone;
      ballot = b;
    }
  });
  EXPECT_EQ(any_none, 0);
  EXPECT_EQ(all_all, 1);
  EXPECT_EQ(any_one, 1);
  EXPECT_EQ(all_one, 0);
  EXPECT_EQ(ballot, 0xfull);
}

TEST_P(CApi, ReduceCApis) {
  int add = 0, mn = 0, mx = 0;
  run_warp([&] {
    const int a = ompx_reduce_add_sync_i(~0ull, 2);
    const int lo = ompx_reduce_min_sync_i(~0ull, int(ompx_lane_id()) - 5);
    const int hi = ompx_reduce_max_sync_i(~0ull, int(ompx_lane_id()) - 5);
    if (ompx_lane_id() == 0) {
      add = a;
      mn = lo;
      mx = hi;
    }
  });
  EXPECT_EQ(add, 2 * int(ws()));
  EXPECT_EQ(mn, -5);
  EXPECT_EQ(mx, int(ws()) - 6);
}

TEST_P(CApi, LaneAndWarpSizeQueries) {
  std::vector<int> lanes(ws(), -1);
  int seen_ws = 0;
  auto* p = lanes.data();
  run_warp([&, p] {
    p[ompx_lane_id()] = ompx_lane_id();
    if (ompx_lane_id() == 0) seen_ws = ompx_warp_size();
  });
  EXPECT_EQ(seen_ws, int(ws()));
  for (unsigned l = 0; l < ws(); ++l) EXPECT_EQ(lanes[l], int(l));
}

INSTANTIATE_TEST_SUITE_P(BothDevices, CApi, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "warp32" : "warp64";
                         });

TEST(CApiHost, EntryPointsHaveCLinkage) {
  // The addresses must resolve as plain C symbols (the §3.3 Fortran
  // extensibility story depends on this). Taking addresses through
  // function pointers is enough to pin the linkage contract.
  using fn_i = int (*)();
  const fn_i fns[] = {&ompx_thread_id_x, &ompx_block_id_y, &ompx_grid_dim_z,
                      &ompx_lane_id, &ompx_warp_size, &ompx_get_num_devices,
                      &ompx_get_device};
  for (auto* f : fns) EXPECT_NE(f, nullptr);
  void (*sync)() = &ompx_sync_thread_block;
  EXPECT_NE(sync, nullptr);
  // Telemetry and lifecycle entry points added with the profiling API.
  void (*profv[])() = {&ompx_profiler_start, &ompx_profiler_stop,
                       &ompx_profiler_reset};
  for (auto* f : profv) EXPECT_NE(f, nullptr);
  int (*enabled)() = &ompx_profiler_enabled;
  EXPECT_NE(enabled, nullptr);
  int (*dump)(const char*) = &ompx_profiler_dump;
  EXPECT_NE(dump, nullptr);
  int (*info)(ompx_launch_info_t*) = &ompx_get_last_launch_info;
  EXPECT_NE(info, nullptr);
  ompx_result_t (*sdestroy)(ompx_stream_t) = &ompx_stream_destroy;
  EXPECT_NE(sdestroy, nullptr);
  ompx_result_t (*edestroy)(ompx_event_t) = &ompx_event_destroy;
  EXPECT_NE(edestroy, nullptr);
  // The multi-device additions are plain C symbols too.
  ompx_result_t (*peer)(void*, int, const void*, int, std::size_t) =
      &ompx_memcpy_peer;
  EXPECT_NE(peer, nullptr);
  ompx_result_t (*enable)(int, unsigned int) = &ompx_device_enable_peer_access;
  EXPECT_NE(enable, nullptr);
  ompx_result_t (*disable)(int) = &ompx_device_disable_peer_access;
  EXPECT_NE(disable, nullptr);
  ompx_result_t (*can)(int*, int, int) = &ompx_device_can_access_peer;
  EXPECT_NE(can, nullptr);
  const char* (*rstr)(ompx_result_t) = &ompx_result_string;
  EXPECT_NE(rstr, nullptr);
  ompx_result_t (*last)(void) = &ompx_get_last_result;
  EXPECT_NE(last, nullptr);
}

// --- launch telemetry (uniform profiling API, C and C++ views) -----------

namespace capi_profiler {

/// One small named launch on the default device.
void one_launch(const char* name) {
  ompx::LaunchSpec spec;
  spec.num_teams = {2};
  spec.thread_limit = {32};
  spec.name = name;
  ompx::launch(spec, [] {}).wait();
}

}  // namespace capi_profiler

TEST(CApiHost, ProfilerStartStopEnabledReset) {
  ompx_profiler_stop();
  ompx_profiler_reset();
  EXPECT_EQ(ompx_profiler_enabled(), 0);
  ompx_profiler_start();
  EXPECT_EQ(ompx_profiler_enabled(), 1);
  capi_profiler::one_launch("capi_traced");
  ompx_profiler_stop();
  EXPECT_EQ(ompx_profiler_enabled(), 0);
  EXPECT_GE(ompx::Profiler::counters().launches, 1u);
  ompx_profiler_reset();
  EXPECT_EQ(ompx::Profiler::counters().launches, 0u);
}

TEST(CApiHost, ProfilerDumpWritesParseableTrace) {
  ompx_profiler_reset();
  ompx_profiler_start();
  capi_profiler::one_launch("capi_dump");
  ompx_profiler_stop();
  // Per-process name: concurrent runs of this suite share TempDir().
  const std::string path = ::testing::TempDir() + "/ompx_capi_trace." +
                           std::to_string(::getpid()) + ".json";
  ASSERT_EQ(ompx_profiler_dump(path.c_str()), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("capi_dump"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  // Invalid path reports failure instead of throwing across the C ABI.
  EXPECT_EQ(ompx_profiler_dump("/nonexistent-dir/trace.json"), -1);
  ompx_profiler_reset();
}

TEST(CApiHost, ScopedProfilerMirrorsCApi) {
  ompx_profiler_stop();
  ompx_profiler_reset();
  {
    ompx::Profiler scoped;  // no dump path: capture window only
    EXPECT_EQ(ompx_profiler_enabled(), 1);
    capi_profiler::one_launch("scoped_traced");
  }
  EXPECT_EQ(ompx_profiler_enabled(), 0);
  EXPECT_EQ(ompx::Profiler::counters().launches, 1u);
  EXPECT_NE(ompx::Profiler::trace_json().find("scoped_traced"),
            std::string::npos);
  ompx::Profiler::reset();
}

TEST(CApiHost, GetLastLaunchInfo) {
  EXPECT_EQ(ompx_get_last_launch_info(nullptr), -1);
  capi_profiler::one_launch("capi_info_kernel");
  ompx_launch_info_t info;
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.name, "capi_info_kernel");
  EXPECT_EQ(info.grid[0], 2u);
  EXPECT_EQ(info.block[0], 32u);
  EXPECT_EQ(info.blocks, 2ull);
  EXPECT_EQ(info.threads, 64ull);
  EXPECT_GE(info.modeled_total_ms, 0.0);
  EXPECT_GE(info.wall_ms, 0.0);
}

TEST(CApiHost, ExecHintAndPolicyRoundTrip) {
  const simt::ExecPolicy saved = simt::exec_policy();
  EXPECT_EQ(ompx_set_exec_policy(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_set_exec_policy("bogus"), OMPX_ERROR_INVALID_VALUE);
  // The retired lane-loop policy is no longer a value.
  EXPECT_EQ(ompx_set_exec_policy("convergent"), OMPX_ERROR_INVALID_VALUE);
  ASSERT_EQ(ompx_set_exec_policy("auto"), OMPX_SUCCESS);
  EXPECT_EQ(simt::exec_policy(), simt::ExecPolicy::kAuto);
  simt::clear_exec_hints();

  ompx::LaunchSpec spec;
  spec.num_teams = {2};
  spec.thread_limit = {32};
  spec.mode = simt::ExecMode::kCooperative;
  spec.name = "capi_exec_kernel";
  ompx_launch_info_t info;
  // Unhinted: fibers.
  ompx::launch(spec, [] {}).wait();
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.exec_mode, "fiber");
  EXPECT_EQ(info.lane_loops, 0ull);

  // Hinted convergent: every thread a plain call.
  ASSERT_EQ(ompx_set_exec_hint("capi_exec_kernel", 1, 0), OMPX_SUCCESS);
  ompx::launch(spec, [] {}).wait();
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.exec_mode, "direct");
  EXPECT_EQ(info.lane_loops, 64ull);

  // atomics_ok is accepted and changes nothing.
  ASSERT_EQ(ompx_set_exec_hint_ex("capi_exec_kernel", 1, 0, 1), OMPX_SUCCESS);
  ompx::launch(spec, [] {}).wait();
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.exec_mode, "direct");
  EXPECT_EQ(info.lane_loops, 64ull);

  // needs_fibers pins the fiber path even when hinted convergent.
  ASSERT_EQ(ompx_set_exec_hint("capi_exec_kernel", 1, 1), OMPX_SUCCESS);
  ompx::launch(spec, [] {}).wait();
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.exec_mode, "fiber");
  EXPECT_EQ(info.lane_loops, 0ull);

  // OMPX_EXEC=fiber ignores the hints.
  ASSERT_EQ(ompx_set_exec_hint("capi_exec_kernel", 1, 0), OMPX_SUCCESS);
  ASSERT_EQ(ompx_set_exec_policy("fiber"), OMPX_SUCCESS);
  ompx::launch(spec, [] {}).wait();
  ASSERT_EQ(ompx_get_last_launch_info(&info), 0);
  EXPECT_STREQ(info.exec_mode, "fiber");

  EXPECT_EQ(ompx_set_exec_hint(nullptr, 1, 0), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_set_exec_hint_ex(nullptr, 1, 0, 1), OMPX_ERROR_INVALID_VALUE);
  simt::clear_exec_hints();
  simt::set_exec_policy(saved);
}

TEST(CApiHost, HintedKernelReachingASecondBarrierFailsNamingIt) {
  // A kernel hinted convergent runs direct, which passes one barrier;
  // the second is a launch error naming the kernel, not a silent
  // fallback to fibers.
  const simt::ExecPolicy saved = simt::exec_policy();
  const ompx::LaunchMode saved_mode = ompx::launch_mode();
  ompx::set_launch_mode(ompx::LaunchMode::kSync);  // the launch throws
  ASSERT_EQ(ompx_set_exec_policy("auto"), OMPX_SUCCESS);
  ASSERT_EQ(ompx_set_exec_hint("capi_two_barriers", 1, 0), OMPX_SUCCESS);
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.mode = simt::ExecMode::kCooperative;
  spec.name = "capi_two_barriers";
  spec.device = &simt::sim_a100();
  try {
    ompx::launch(spec, [] {
      ompx::sync_thread_block();
      ompx::sync_thread_block();
    });
    ADD_FAILURE() << "a second barrier in a direct kernel must throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("second block barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'capi_two_barriers'"), std::string::npos) << msg;
  }
  ompx::set_launch_mode(saved_mode);
  simt::clear_exec_hints();
  simt::set_exec_policy(saved);
}

TEST(CApiHost, LaunchReturnsTicket) {
  ompx::LaunchSpec spec;
  spec.num_teams = {3};
  spec.thread_limit = {32};
  spec.name = "ticket_kernel";
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  r.wait();  // async by default; the ticket delivers the record
  EXPECT_TRUE(r.completed);
  EXPECT_STREQ(r.record.name.c_str(), "ticket_kernel");
  EXPECT_EQ(r.record.stats.blocks, 3u);
  EXPECT_GT(r.modeled_ms(), 0.0);
  EXPECT_GE(r.wall_ms(), 0.0);
  // launch_record() reads the same measurement back.
  EXPECT_EQ(ompx::launch_record().name, "ticket_kernel");
}

TEST(CApiHost, StreamAndEventDestroy) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  std::vector<int> a(1024, 1), b(1024, 0);
  void* d = ompx_malloc(a.size() * sizeof(int));
  ompx_memcpy_async(d, a.data(), a.size() * sizeof(int), s);
  ompx_memcpy_async(b.data(), d, a.size() * sizeof(int), s);
  ompx_event_t ev = ompx_event_create();
  ompx_event_record(ev, s);
  ompx_stream_destroy(s);  // drains the two copies before releasing
  EXPECT_EQ(a, b);
  ompx_event_destroy(ev);
  ompx_stream_destroy(nullptr);  // no-ops
  ompx_event_destroy(nullptr);
  ompx_free(d);
}

}  // namespace

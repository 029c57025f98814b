// Tests for the ompx extension layer: the paper's contribution.
//  - C and C++ device APIs agree with each other and with kl intrinsics
//  - ompx_bare launches carry zero runtime machinery
//  - multi-dimensional num_teams / thread_limit
//  - depend(interopobj:) stream dispatch + taskwait (Figure 5)
//  - nowait launches on the default stream, classic depend, taskwait
//  - host APIs (ompx_malloc & friends)
#include "core/ompx.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kl/kl.h"

namespace {

simt::Device& a100() { return simt::sim_a100(); }
simt::Device& mi250() { return simt::sim_mi250(); }

TEST(OmpxDevice, CAndCppApisAgreeWithEngine) {
  ompx::LaunchSpec spec;
  spec.num_teams = {4, 3, 2};
  spec.thread_limit = {8, 4, 2};
  spec.name = "api_agreement";
  spec.mode = simt::ExecMode::kDirect;
  bool ok = true;
  ompx::launch(spec, [&] {
    const auto& t = simt::this_thread();
    if (ompx_thread_id_x() != static_cast<int>(t.thread_idx.x)) ok = false;
    if (ompx_thread_id_y() != static_cast<int>(t.thread_idx.y)) ok = false;
    if (ompx_thread_id_z() != static_cast<int>(t.thread_idx.z)) ok = false;
    if (ompx_block_id_x() != static_cast<int>(t.block_idx.x)) ok = false;
    if (ompx_block_id_y() != static_cast<int>(t.block_idx.y)) ok = false;
    if (ompx_block_dim_x() != 8 || ompx_block_dim_y() != 4 ||
        ompx_block_dim_z() != 2)
      ok = false;
    if (ompx_grid_dim_x() != 4 || ompx_grid_dim_y() != 3 ||
        ompx_grid_dim_z() != 2)
      ok = false;
    if (ompx::thread_id(ompx::dim_x) != ompx_thread_id_x()) ok = false;
    if (ompx::block_id(ompx::dim_y) != ompx_block_id_y()) ok = false;
    if (ompx::grid_dim(ompx::dim_z) != ompx_grid_dim_z()) ok = false;
    if (ompx_lane_id() != static_cast<int>(t.lane)) ok = false;
    if (ompx_warp_size() != 32) ok = false;
  }).wait();
  EXPECT_TRUE(ok);
}

TEST(OmpxDevice, MatchesKlIntrinsicsThreadForThread) {
  // Differential test: the same kernel through ompx and kl writes
  // identical index patterns.
  constexpr int n = 2048;
  std::vector<std::int64_t> via_ompx(n), via_kl(n);
  auto* po = via_ompx.data();
  auto* pk = via_kl.data();

  ompx::LaunchSpec spec;
  spec.num_teams = {8};
  spec.thread_limit = {256};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "diff_ompx";
  ompx::launch(spec, [=] {
    const std::int64_t i = ompx::global_thread_id();
    po[i] = i * 3 + ompx_lane_id();
  });

  kl::KernelAttrs attrs;
  attrs.mode = simt::ExecMode::kDirect;
  attrs.name = "diff_kl";
  ASSERT_EQ(kl::klSetDevice(0), kl::klSuccess);
  kl::launch({8}, {256}, 0, nullptr, attrs, [=] {
    const std::int64_t i = static_cast<std::int64_t>(kl::global_thread_id_x());
    pk[i] = i * 3 + kl::laneId();
  });
  kl::klDeviceSynchronize();
  EXPECT_EQ(via_ompx, via_kl);
}

TEST(OmpxLaunch, BareModeHasNoRuntimeMachinery) {
  a100().clear_launch_log();
  ompx::LaunchSpec spec;
  spec.num_teams = {16};
  spec.thread_limit = {64};
  spec.name = "bare";
  ompx::launch(spec, [] {}).wait();
  const auto rec = a100().last_launch();
  EXPECT_FALSE(rec.stats.runtime_init);
  EXPECT_FALSE(rec.stats.generic_mode);
  EXPECT_EQ(rec.stats.parallel_handshakes, 0u);
  EXPECT_EQ(rec.stats.globalized_bytes, 0u);
}

TEST(OmpxLaunch, NonBareInitializesRuntime) {
  a100().clear_launch_log();
  ompx::LaunchSpec spec;
  spec.bare = false;
  spec.name = "nonbare";
  ompx::launch(spec, [] {}).wait();
  EXPECT_TRUE(a100().last_launch().stats.runtime_init);
}

TEST(OmpxLaunch, BareIsCheaperThanNonBare) {
  a100().clear_launch_log();
  ompx::LaunchSpec bare;
  bare.num_teams = {8};
  bare.name = "abl_bare";
  ompx::launch(bare, [] {}).wait();
  const double t_bare = a100().last_launch().time.total_ms;
  ompx::LaunchSpec nonbare = bare;
  nonbare.bare = false;
  nonbare.name = "abl_nonbare";
  ompx::launch(nonbare, [] {}).wait();
  const double t_nonbare = a100().last_launch().time.total_ms;
  EXPECT_LT(t_bare, t_nonbare);
}

TEST(OmpxLaunch, MultiDimensionalGridAndBlock) {
  // §3.2: num_teams(4, 2, 2), thread_limit(8, 8) — every coordinate
  // covered exactly once.
  ompx::LaunchSpec spec;
  spec.num_teams = {4, 2, 2};
  spec.thread_limit = {8, 8};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "multidim";
  const std::uint64_t total = 4 * 2 * 2 * 8 * 8;
  std::vector<int> hits(total, 0);
  auto* h = hits.data();
  ompx::launch(spec, [=] {
    const std::uint64_t block_flat =
        (static_cast<std::uint64_t>(ompx_block_id_z()) * 2 +
         ompx_block_id_y()) * 4 + ompx_block_id_x();
    const std::uint64_t thread_flat =
        static_cast<std::uint64_t>(ompx_thread_id_y()) * 8 +
        ompx_thread_id_x();
    h[block_flat * 64 + thread_flat]++;
  }).wait();
  for (int v : hits) ASSERT_EQ(v, 1);
}

TEST(OmpxDevice, GroupprivateSharedAcrossTeamThreads) {
  // Figure 4: shared variables via groupprivate.
  ompx::LaunchSpec spec;
  spec.num_teams = {4};
  spec.thread_limit = {128};
  spec.name = "groupprivate";
  std::vector<int> sums(4, 0);
  auto* out = sums.data();
  ompx::launch(spec, [=] {
    int* shared = ompx::groupprivate<int>(128);
    shared[ompx_thread_id_x()] = 1;
    ompx_sync_thread_block();
    if (ompx_thread_id_x() == 0) {
      int s = 0;
      for (int i = 0; i < 128; ++i) s += shared[i];
      out[ompx_block_id_x()] = s;
    }
  }).wait();
  for (int s : sums) EXPECT_EQ(s, 128);
}

TEST(OmpxDevice, DynamicGroupprivateSegment) {
  ompx::LaunchSpec spec;
  spec.num_teams = {2};
  spec.thread_limit = {32};
  spec.dynamic_groupprivate_bytes = 32 * sizeof(float);
  spec.name = "dyn_groupprivate";
  std::vector<float> out(2, 0.0f);
  auto* po = out.data();
  ompx::launch(spec, [=] {
    float* dyn = ompx::dynamic_groupprivate<float>();
    dyn[ompx_thread_id_x()] = 0.5f;
    ompx_sync_thread_block();
    if (ompx_thread_id_x() == 0) {
      float s = 0;
      for (int i = 0; i < 32; ++i) s += dyn[i];
      po[ompx_block_id_x()] = s;
    }
  }).wait();
  EXPECT_FLOAT_EQ(out[0], 16.0f);
  EXPECT_FLOAT_EQ(out[1], 16.0f);
}

TEST(OmpxDevice, WarpPrimitivesOnBothWarpSizes) {
  for (simt::Device* dev : {&a100(), &mi250()}) {
    ompx::LaunchSpec spec;
    spec.device = dev;
    spec.num_teams = {1};
    spec.thread_limit = {dev->config().warp_size};
    spec.name = "warp_prims";
    std::uint64_t ballot = 0;
    double reduced = 0;
    auto* pb = &ballot;
    auto* pr = &reduced;
    ompx::launch(spec, [=] {
      const std::uint64_t b = ompx_ballot_sync(~0ull, ompx_lane_id() % 2);
      double v = 1.0;
      for (int d = ompx_warp_size() / 2; d > 0; d /= 2)
        v += ompx_shfl_down_sync_d(~0ull, v, static_cast<unsigned>(d));
      if (ompx_lane_id() == 0) {
        *pb = b;
        *pr = v;
      }
    }).wait();
    const unsigned ws = dev->config().warp_size;
    std::uint64_t expect = 0;
    for (unsigned i = 1; i < ws; i += 2) expect |= 1ull << i;
    EXPECT_EQ(ballot, expect) << dev->config().name;
    EXPECT_DOUBLE_EQ(reduced, static_cast<double>(ws)) << dev->config().name;
  }
}

TEST(OmpxHost, MallocMemcpyInferredDirection) {
  ompx::set_default_device(a100());
  constexpr int n = 512;
  auto* d = static_cast<int*>(ompx_malloc(n * sizeof(int)));
  ASSERT_NE(d, nullptr);
  std::vector<int> h(n);
  std::iota(h.begin(), h.end(), 5);
  ompx_memcpy(d, h.data(), n * sizeof(int));  // inferred H2D
  std::vector<int> back(n, 0);
  ompx_memcpy(back.data(), d, n * sizeof(int));  // inferred D2H
  EXPECT_EQ(h, back);
  EXPECT_TRUE(ompx::is_device_ptr(a100(), d));
  EXPECT_FALSE(ompx::is_device_ptr(a100(), h.data()));
  ompx_free(d);
}

TEST(OmpxHost, MemsetAndSynchronize) {
  ompx::set_default_device(a100());
  auto* d = static_cast<unsigned char*>(ompx_malloc(64));
  ompx_memset(d, 0x7, 64);
  ompx_device_synchronize();
  for (int i = 0; i < 64; ++i) ASSERT_EQ(d[i], 0x7);
  ompx_free(d);
}

TEST(OmpxInterop, DependInteropDispatchesIntoStream) {
  // Figure 5: nowait target regions ordered through one interop object.
  omp::Interop obj = omp::interop_init_targetsync(a100());
  ASSERT_TRUE(obj.valid());

  constexpr int n = 1 << 14;
  std::vector<int> data(n, 1);
  auto* p = data.data();

  for (int round = 0; round < 4; ++round) {
    ompx::LaunchSpec spec;
    spec.num_teams = {n / 256};
    spec.thread_limit = {256};
    spec.nowait = true;
    spec.depend_interop = &obj;
    spec.mode = simt::ExecMode::kDirect;
    spec.name = "interop_chain";
    ompx::launch(spec, [=] {
      const std::int64_t i = ompx::global_thread_id();
      p[i] *= 2;  // stream FIFO makes the rounds sequential
    });
  }
  ompx::taskwait(obj);  // taskwait depend(interopobj: obj)
  for (int v : data) ASSERT_EQ(v, 16);
  omp::interop_destroy(obj);
  EXPECT_FALSE(obj.valid());
}

TEST(OmpxInterop, TwoInteropStreamsAreIndependent) {
  omp::Interop s1 = omp::interop_init_targetsync(a100());
  omp::Interop s2 = omp::interop_init_targetsync(a100());
  std::atomic<int> c1{0}, c2{0};
  for (int i = 0; i < 3; ++i) {
    ompx::LaunchSpec a;
    a.nowait = true;
    a.depend_interop = &s1;
    a.mode = simt::ExecMode::kDirect;
    a.num_teams = {2};
    a.thread_limit = {32};
    ompx::launch(a, [&] { c1.fetch_add(1); });
    ompx::LaunchSpec b = a;
    b.depend_interop = &s2;
    ompx::launch(b, [&] { c2.fetch_add(1); });
  }
  ompx::taskwait(s1);
  ompx::taskwait(s2);
  EXPECT_EQ(c1.load(), 3 * 64);
  EXPECT_EQ(c2.load(), 3 * 64);
  omp::interop_destroy(s1);
  omp::interop_destroy(s2);
}

TEST(OmpxInterop, WrongDeviceInteropRejected) {
  omp::Interop obj = omp::interop_init_targetsync(mi250());
  ompx::LaunchSpec spec;
  spec.device = &a100();
  spec.depend_interop = &obj;
  EXPECT_THROW(ompx::launch(spec, [] {}), std::invalid_argument);
  omp::interop_destroy(obj);
}

// --- nowait, depend and taskwait ------------------------------------------
//
// A nowait launch is a default-stream op with a ticket; a non-empty
// depend list first waits for every registry device's default stream;
// taskwait() waits for all of them and rethrows the first async error.

/// A one-thread nowait launch on `dev` (default device if null).
ompx::LaunchSpec nowait_spec(const char* name,
                             std::vector<omp::Depend> deps = {},
                             simt::Device* dev = nullptr) {
  ompx::LaunchSpec spec;
  spec.device = dev;
  spec.nowait = true;
  spec.depends = std::move(deps);
  spec.num_teams = {1};
  spec.thread_limit = {1};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = name;
  return spec;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::size_t process_threads() {
  namespace fs = std::filesystem;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator{}));
}

TEST(OmpxNowait, IndependentLaunchesLogInSubmissionOrder) {
  constexpr int kLaunches = 64;
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (int i = 0; i < kLaunches; ++i)
      v.push_back("nowait_order_" + std::to_string(i));
    return v;
  }();
  int in_order = 0;
  for (int rep = 0; rep < 20; ++rep) {
    a100().clear_launch_log();
    for (int i = 0; i < kLaunches; ++i) {
      ompx::LaunchSpec spec = nowait_spec(names[i].c_str());
      spec.num_teams = {4};
      spec.thread_limit = {64};
      ompx::launch(spec, [] {});
    }
    ompx::taskwait();
    const std::vector<simt::LaunchRecord> log = a100().launch_log();
    bool ordered = log.size() == names.size();
    for (std::size_t i = 0; ordered && i < log.size(); ++i)
      ordered = log[i].name == names[i];
    in_order += ordered ? 1 : 0;
  }
  EXPECT_EQ(in_order, 20);
}

TEST(OmpxNowait, NoThreadsSpawnedByNowaitOrTaskwait) {
  // Warm up with the same shapes, synchronously: registry devices,
  // stream executors, watchdogs and the block-worker pool all exist.
  std::vector<int> data(256, 0);
  auto run = [&](bool nowait) {
    for (simt::Device* d : {&a100(), &mi250()}) {
      ompx::LaunchSpec spec = nowait_spec("nowait_threads");
      spec.device = d;
      spec.nowait = nowait;
      spec.num_teams = {8};
      spec.thread_limit = {32};
      ompx::launch(spec, [] {}).wait();
      omp::TargetClauses c;
      c.device = d;
      c.nowait = nowait;
      c.name = "nowait_threads_target";
      c.maps = {omp::map_tofrom(data.data(), data.size() * sizeof(int))};
      if (nowait) c.depends = {omp::dep_inout(data.data())};
      omp::target_teams_distribute_parallel_for(
          c, 256, [&](omp::DeviceEnv& env) {
            int* dd = env.translate(data.data());
            return [=](std::int64_t i) { dd[i] += 1; };
          });
    }
  };
  run(/*nowait=*/false);
  const std::size_t before = process_threads();
  for (int i = 0; i < 4; ++i) {
    run(/*nowait=*/true);
    ompx::taskwait();
  }
  EXPECT_EQ(process_threads(), before);
  for (int v : data) ASSERT_EQ(v, 2 * 5);
}

TEST(OmpxNowait, ResultCarriesItsOwnRecord) {
  ompx::LaunchSpec spec = nowait_spec("nowait_ticket");
  spec.num_teams = {2};
  spec.thread_limit = {32};
  ompx::LaunchResult r = ompx::launch(spec, [] {});
  ompx::taskwait();
  EXPECT_TRUE(r.query());
  EXPECT_GT(r.modeled_ms(), 0.0);
  EXPECT_EQ(r.record.name, "nowait_ticket");
  EXPECT_EQ(r.record.grid.x, 2u);
}

TEST(OmpxNowait, OutThenInOrdering) {
  int x = 0;
  std::atomic<int> seen{-1};
  ompx::launch(nowait_spec("dep_out", {omp::dep_out(&x)}), [&] {
    sleep_ms(10);
    x = 42;
  });
  ompx::launch(nowait_spec("dep_in", {omp::dep_in(&x)}),
               [&] { seen.store(x); });
  ompx::taskwait();
  EXPECT_EQ(seen.load(), 42);
}

TEST(OmpxNowait, ReadersRunBeforeNextWriter) {
  int x = 1;
  std::atomic<int> r1{0}, r2{0};
  ompx::launch(nowait_spec("writer_1", {omp::dep_out(&x)}), [&] { x = 10; });
  ompx::launch(nowait_spec("reader_1", {omp::dep_in(&x)}), [&] {
    sleep_ms(5);
    r1.store(x);
  });
  ompx::launch(nowait_spec("reader_2", {omp::dep_in(&x)}), [&] {
    sleep_ms(5);
    r2.store(x);
  });
  ompx::launch(nowait_spec("writer_2", {omp::dep_out(&x)}), [&] { x = 20; });
  ompx::taskwait();
  EXPECT_EQ(r1.load(), 10);
  EXPECT_EQ(r2.load(), 10);
  EXPECT_EQ(x, 20);
}

TEST(OmpxNowait, WriteAfterWriteOrdered) {
  std::vector<int> order;
  int x = 0;
  for (int i = 0; i < 8; ++i)
    ompx::launch(nowait_spec("waw", {omp::dep_inout(&x)}),
                 [&order, i] { order.push_back(i); });
  ompx::taskwait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(OmpxNowait, TaskwaitRethrowsAsyncErrorOnce) {
  ompx::launch(nowait_spec("nowait_boom"),
               [] { throw std::runtime_error("nowait boom"); });
  EXPECT_THROW(ompx::taskwait(), std::runtime_error);
  EXPECT_NO_THROW(ompx::taskwait());
  // The device stays usable.
  std::atomic<bool> ok{false};
  ompx::launch(nowait_spec("nowait_after_boom"), [&] { ok.store(true); });
  ompx::taskwait();
  EXPECT_TRUE(ok.load());
}

TEST(OmpxNowait, ThousandConstructStress) {
  std::atomic<long> sum{0};
  int chain = 0;
  for (int i = 0; i < 1000; ++i) {
    std::vector<omp::Depend> deps;
    if (i % 5 == 0) deps = {omp::dep_inout(&chain)};
    ompx::launch(nowait_spec("nowait_stress", std::move(deps)),
                 [&sum, i] { sum.fetch_add(i); });
  }
  ompx::taskwait();
  EXPECT_EQ(sum.load(), 1000L * 999 / 2);
}

TEST(OmpxNowait, TicketBehindDeadlockedWaitCompletes) {
  // The stream's head waits on an event nothing records, so the
  // dependency-deadlock detector drops the queue. The launch queued
  // behind it never runs, but its ticket must still complete (with an
  // empty record) instead of leaving wait() hanging.
  simt::Event* ev = a100().create_event();
  a100().default_stream().wait(*ev);
  ompx::LaunchResult r =
      ompx::launch(nowait_spec("behind_deadlocked_wait"), [] {});
  EXPECT_THROW(a100().synchronize(), std::runtime_error);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!r.query() && std::chrono::steady_clock::now() < deadline)
    sleep_ms(1);
  ASSERT_TRUE(r.query());
  EXPECT_EQ(r.record.stats.blocks, 0u);
  a100().destroy_event(ev);
}

TEST(OmpxNowait, CrossDeviceDependInWaitsForWriter) {
  // The a100 writer and the mi250 reader sit on different default
  // streams; only the depend clause orders them.
  int x = 0;
  std::atomic<int> seen{-1};
  ompx::launch(nowait_spec("a100_writer", {omp::dep_out(&x)}, &a100()), [&] {
    sleep_ms(20);
    x = 7;
  });
  ompx::launch(nowait_spec("mi250_reader", {omp::dep_in(&x)}, &mi250()),
               [&] { seen.store(x); });
  ompx::taskwait();
  EXPECT_EQ(seen.load(), 7);
}

TEST(OmpxLaunch, UnsupportedDimensionsDisregarded) {
  // §3.2: "any dimensions exceeding a device's capability will be
  // disregarded." A 1-D-only device folds y/z away.
  simt::DeviceConfig cfg = simt::make_sim_a100_config();
  cfg.name = "one-dim";
  cfg.grid_dims_supported = 1;
  simt::Device dev(cfg);
  dev.clear_launch_log();
  ompx::LaunchSpec spec;
  spec.device = &dev;
  spec.num_teams = {4, 3, 2};
  spec.thread_limit = {16, 2, 2};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "dims";
  std::atomic<int> count{0};
  ompx::launch(spec, [&] { count.fetch_add(1); }).wait();
  const auto rec = dev.last_launch();
  EXPECT_EQ(rec.grid, (simt::Dim3{4, 1, 1}));
  EXPECT_EQ(rec.block, (simt::Dim3{16, 1, 1}));
  EXPECT_EQ(count.load(), 4 * 16);
}

TEST(OmpxDevice, ReduceApisMatchShuffleTree) {
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "reduce_vs_tree";
  int via_reduce = -1, via_tree = -1;
  ompx::launch(spec, [&] {
    const int mine = ompx_lane_id() * 3 + 1;
    const int r = ompx_reduce_add_sync_i(~0ull, mine);
    int v = mine;
    for (int d = ompx_warp_size() / 2; d > 0; d /= 2)
      v += ompx::shfl_down_sync(~0ull, v, static_cast<unsigned>(d));
    if (ompx_lane_id() == 0) {
      via_reduce = r;
      via_tree = v;
    }
  }).wait();
  EXPECT_EQ(via_reduce, via_tree);
  EXPECT_EQ(via_reduce, 32 * 1 + 3 * (31 * 32 / 2));
}

TEST(OmpxLaunch, SynchronousLaunchOnSecondDevice) {
  ompx::LaunchSpec spec;
  spec.device = &mi250();
  spec.num_teams = {2};
  spec.thread_limit = {64};
  spec.name = "on_mi250";
  int warp = 0;
  ompx::launch(spec, [&] {
    if (ompx::global_thread_id() == 0) warp = ompx_warp_size();
  }).wait();
  EXPECT_EQ(warp, 64);
}

}  // namespace

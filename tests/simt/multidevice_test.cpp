// Multi-device layer: registry-wide pointer resolution, peer copies
// (direct and host-staged, with modeled-cost ordering), CUDA-faithful
// per-thread device selection at the kl layer, registry-wide memcheck,
// and shard_launch equivalence against single-device runs — including
// all six Fig. 8 application kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/harness.h"
#include "core/ompx.h"
#include "kl/kl.h"
#include "simt/simt.h"

namespace {

using namespace simt;

class MultiDevice : public ::testing::Test {
 protected:
  void SetUp() override {
    ompx_set_device(0);
    ompx::set_shard_devices(1);
    San::instance().disable();
    San::instance().reset();
    // Peer access off unless a test enables it.
    sim_a100().disable_peer_access(sim_mi250());
    sim_mi250().disable_peer_access(sim_a100());
  }
  void TearDown() override {
    ompx::set_shard_devices(1);
    San::instance().disable();
    San::instance().reset();
    sim_a100().disable_peer_access(sim_mi250());
    sim_mi250().disable_peer_access(sim_a100());
  }
};

// --- registry-wide pointer resolution ------------------------------------

TEST_F(MultiDevice, ResolveDeviceFindsTheOwningDevice) {
  int host_var = 0;
  EXPECT_EQ(resolve_device(&host_var), nullptr);
  EXPECT_EQ(resolve_device(nullptr), nullptr);
  EXPECT_EQ(resolve_device_index(&host_var), -1);

  auto* a = static_cast<char*>(sim_a100().memory().allocate(256));
  auto* m = static_cast<char*>(sim_mi250().memory().allocate(256));
  EXPECT_EQ(resolve_device(a), &sim_a100());
  EXPECT_EQ(resolve_device(m), &sim_mi250());
  EXPECT_EQ(resolve_device_index(a), 0);
  EXPECT_EQ(resolve_device_index(m), 1);
  // Interior pointers resolve too.
  EXPECT_EQ(resolve_device(a + 100), &sim_a100());
  EXPECT_EQ(resolve_device(m + 255), &sim_mi250());

  sim_a100().memory().deallocate(a);
  sim_mi250().memory().deallocate(m);
  EXPECT_EQ(resolve_device(a), nullptr);
  EXPECT_EQ(resolve_device_index(m), -1);
}

// --- peer copies ---------------------------------------------------------

TEST_F(MultiDevice, PeerCopyMovesBytesAndChargesBothDevices) {
  constexpr std::size_t n = 64 * 1024;
  auto* src = static_cast<unsigned char*>(sim_a100().memory().allocate(n));
  auto* dst = static_cast<unsigned char*>(sim_mi250().memory().allocate(n));
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<unsigned char>(i);

  const double a_before = sim_a100().modeled_transfer_ms_total();
  const double m_before = sim_mi250().modeled_transfer_ms_total();
  const double ms = peer_copy(sim_mi250(), dst, sim_a100(), src, n);
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(std::memcmp(dst, src, n), 0);
  // Charged on both endpoints, with the externally modeled time.
  EXPECT_NEAR(sim_a100().modeled_transfer_ms_total() - a_before, ms, 1e-12);
  EXPECT_NEAR(sim_mi250().modeled_transfer_ms_total() - m_before, ms, 1e-12);

  sim_a100().memory().deallocate(src);
  sim_mi250().memory().deallocate(dst);
}

TEST_F(MultiDevice, PeerCopyModeledTimeIsMonotonicInBytes) {
  constexpr std::size_t n = 1 << 20;
  auto* src = static_cast<char*>(sim_a100().memory().allocate(n));
  auto* dst = static_cast<char*>(sim_mi250().memory().allocate(n));
  double prev = 0.0;
  for (std::size_t bytes : {std::size_t{4096}, n / 16, n / 4, n}) {
    const double ms = peer_copy(sim_mi250(), dst, sim_a100(), src, bytes);
    EXPECT_GT(ms, prev) << bytes << " bytes";
    prev = ms;
  }
  sim_a100().memory().deallocate(src);
  sim_mi250().memory().deallocate(dst);
}

TEST_F(MultiDevice, DirectPeerLinkBeatsHostStaging) {
  constexpr std::size_t n = 8 << 20;
  auto* src = static_cast<char*>(sim_a100().memory().allocate(n));
  auto* dst = static_cast<char*>(sim_mi250().memory().allocate(n));

  const double staged = peer_copy(sim_mi250(), dst, sim_a100(), src, n);
  sim_mi250().enable_peer_access(sim_a100());
  const double direct = peer_copy(sim_mi250(), dst, sim_a100(), src, n);
  // Staged pays two host-link legs; direct runs at the slower
  // endpoint's peer-link rate — strictly faster for any real config.
  EXPECT_LT(direct, staged);
  const EventCosts ec;
  EXPECT_NEAR(direct,
              model_peer_transfer_ms(sim_a100().config(),
                                     sim_mi250().config(), n, ec),
              1e-12);
  EXPECT_NEAR(staged, sim_a100().model_transfer_ms(n) +
                          sim_mi250().model_transfer_ms(n),
              1e-12);
  // One enabled direction suffices (cudaMemcpyPeer semantics): the
  // reverse copy takes the peer link as well.
  const double reverse = peer_copy(sim_a100(), src, sim_mi250(), dst, n);
  EXPECT_NEAR(reverse, direct, 1e-12);

  sim_a100().memory().deallocate(src);
  sim_mi250().memory().deallocate(dst);
}

TEST_F(MultiDevice, PeerCopyValidatesEachEndpointAgainstItsOwnDevice) {
  auto* a = static_cast<char*>(sim_a100().memory().allocate(128));
  auto* m = static_cast<char*>(sim_mi250().memory().allocate(128));
  // Overrun of the destination range.
  EXPECT_THROW(peer_copy(sim_mi250(), m + 64, sim_a100(), a, 128),
               std::out_of_range);
  // Host pointer passed as a device range.
  char host[16];
  EXPECT_THROW(peer_copy(sim_mi250(), m, sim_a100(), host, 16),
               std::out_of_range);
  sim_a100().memory().deallocate(a);
  sim_mi250().memory().deallocate(m);
}

// --- kl layer ------------------------------------------------------------

TEST_F(MultiDevice, KlPeerApisRoundTrip) {
  using namespace kl;
  int can = -1;
  ASSERT_EQ(klDeviceCanAccessPeer(&can, 0, 1), klSuccess);
  EXPECT_EQ(can, 1);
  ASSERT_EQ(klDeviceCanAccessPeer(&can, 1, 1), klSuccess);
  EXPECT_EQ(can, 0);
  EXPECT_EQ(klDeviceCanAccessPeer(&can, 0, 9), klErrorInvalidDevice);
  EXPECT_EQ(klDeviceCanAccessPeer(nullptr, 0, 1), klErrorInvalidValue);

  constexpr int n = 512;
  ASSERT_EQ(klSetDevice(0), klSuccess);
  int* src = nullptr;
  ASSERT_EQ(klMalloc(&src, n * sizeof(int)), klSuccess);
  ASSERT_EQ(klSetDevice(1), klSuccess);
  int* dst = nullptr;
  ASSERT_EQ(klMalloc(&dst, n * sizeof(int)), klSuccess);

  std::vector<int> in(n);
  std::iota(in.begin(), in.end(), 23);
  ASSERT_EQ(klSetDevice(0), klSuccess);
  ASSERT_EQ(klMemcpy(src, in.data(), n * sizeof(int), klMemcpyHostToDevice),
            klSuccess);
  ASSERT_EQ(klDeviceEnablePeerAccess(1), klSuccess);
  ASSERT_EQ(klMemcpyPeer(dst, 1, src, 0, n * sizeof(int)), klSuccess);
  ASSERT_EQ(klDeviceDisablePeerAccess(1), klSuccess);
  EXPECT_EQ(klDeviceEnablePeerAccess(1, 3), klErrorInvalidValue);
  EXPECT_EQ(klMemcpyPeer(dst, 7, src, 0, 4), klErrorInvalidDevice);
  (void)klGetLastError();

  std::vector<int> out(n, 0);
  ASSERT_EQ(klSetDevice(1), klSuccess);
  ASSERT_EQ(klMemcpy(out.data(), dst, n * sizeof(int), klMemcpyDeviceToHost),
            klSuccess);
  EXPECT_EQ(in, out);
  ASSERT_EQ(klFree(dst), klSuccess);
  ASSERT_EQ(klSetDevice(0), klSuccess);
  ASSERT_EQ(klFree(src), klSuccess);
}

// --- memcheck across devices ---------------------------------------------

TEST_F(MultiDevice, SanDoesNotReportPeerDevicePointerAsHostPointer) {
  // A kernel on sim-a100 touching sim-mi250 memory is legal in the
  // in-process simulation (UVA-style); before the registry-wide check
  // it was misdiagnosed as a host pointer.
  San::instance().enable(kSanMem);
  auto* peer = static_cast<int*>(sim_mi250().memory().allocate(sizeof(int)));
  *peer = 5;
  LaunchParams p;
  p.grid = {1};
  p.block = {1};
  p.name = "cross_device_read";
  int seen = 0;
  sim_a100().launch_sync(p, [&] {
    ompx::san::GlobalPtr<int> q(peer);
    seen = *q;
  });
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(San::instance().error_count(), 0u) << San::instance().report();
  sim_mi250().memory().deallocate(peer);
}

TEST_F(MultiDevice, SanReportsPeerDeviceOobAgainstOwningDevice) {
  San::instance().enable(kSanMem);
  auto* peer = static_cast<int*>(sim_mi250().memory().allocate(4 * sizeof(int)));
  LaunchParams p;
  p.grid = {1};
  p.block = {1};
  p.name = "cross_device_oob";
  sim_a100().launch_sync(p, [&] {
    ompx::san::GlobalPtr<int> q(peer, 4);
    int v = q[4];  // one past the end of the peer allocation
    (void)v;
  });
  std::vector<SanDiag> oob;
  for (const auto& d : San::instance().diagnostics())
    if (d.kind == SanKind::kGlobalOob) oob.push_back(d);
  ASSERT_FALSE(oob.empty());
  // Named against the owning device, not misfiled as a host pointer.
  EXPECT_NE(oob.front().message.find("sim-mi250"), std::string::npos)
      << oob.front().message;
  sim_mi250().memory().deallocate(peer);
}

// --- sharded launches ----------------------------------------------------

TEST_F(MultiDevice, ShardLaunchMatchesSingleDeviceResults) {
  constexpr std::uint32_t blocks = 64, threads = 128;
  constexpr std::size_t n = blocks * threads;
  std::vector<std::uint64_t> single(n, 0), sharded(n, 0);
  std::vector<std::uint64_t> grids(n, 0);
  unsigned long long single_hits = 0, sharded_hits = 0;

  ompx::LaunchSpec spec;
  spec.num_teams = {blocks};
  spec.thread_limit = {threads};
  spec.name = "shard_probe";
  spec.cost.shared_bytes_per_thread = 16;
  // Barriers, shared-memory traffic and one atomicAdd per block, so
  // every counter the combined record folds is nonzero.
  auto body_into = [&](std::vector<std::uint64_t>& out,
                       std::vector<std::uint64_t>* gdim,
                       unsigned long long* hits) {
    auto* o = out.data();
    auto* g = gdim != nullptr ? gdim->data() : nullptr;
    return [o, g, hits] {
      const std::uint64_t id = ompx::global_thread_id();
      std::uint64_t* tile = kl::shared_array<std::uint64_t>(threads);
      const unsigned tx = kl::threadIdx().x;
      tile[tx] = id * 3 + 1;
      kl::syncthreads();
      o[id] = tile[(tx + 1) % threads];
      if (g != nullptr) g[id] = static_cast<std::uint64_t>(ompx::grid_dim());
      if (tx == 0) kl::atomicAdd(hits, 1ull);
      kl::syncthreads();
    };
  };

  ompx::LaunchResult ref =
      ompx::launch(spec, body_into(single, nullptr, &single_hits));
  ref.wait();
  std::vector<simt::Device*> devs{&sim_a100(), &sim_mi250()};
  const ompx::LaunchResult sh = ompx::shard_launch(
      spec, devs, body_into(sharded, &grids, &sharded_hits));

  EXPECT_EQ(single, sharded);
  EXPECT_EQ(single_hits, blocks);
  EXPECT_EQ(sharded_hits, blocks);
  // Every block saw the full logical grid, regardless of its shard.
  for (std::uint64_t g : grids) ASSERT_EQ(g, blocks);

  // The combined record reports the whole launch on the primary device,
  // with the stats of one single-device launch (the modeled fields; the
  // host-engine diagnostics depend on host scheduling).
  EXPECT_TRUE(sh.completed);
  const simt::LaunchStats& a = sh.record.stats;
  const simt::LaunchStats& b = ref.record.stats;
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
  EXPECT_EQ(a.block_barriers, 2u * blocks);
  EXPECT_EQ(a.atomics, blocks);
  EXPECT_EQ(sh.record.grid.x, blocks);
  EXPECT_EQ(sim_a100().last_launch().name, std::string("shard_probe"));
  // Shards run concurrently: the combined modeled time cannot exceed
  // the single-device time (each shard is a strict subset of the work).
  EXPECT_LE(sh.record.time.total_ms, ref.record.time.total_ms * 1.001);
  EXPECT_GT(sh.record.time.total_ms, 0.0);
  EXPECT_GT(sh.record.time.shared_ms, 0.0);
}

TEST_F(MultiDevice, ShardOverrideRoutesPlainLaunches) {
  constexpr std::uint32_t blocks = 8, threads = 64;
  std::vector<int> out(blocks * threads, 0);
  auto* o = out.data();
  ompx::set_shard_devices(2);
  EXPECT_EQ(ompx::shard_devices(), 2);
  ompx::LaunchSpec spec;
  spec.num_teams = {blocks};
  spec.thread_limit = {threads};
  spec.name = "shard_override";
  const ompx::LaunchResult r =
      ompx::launch(spec, [o] { o[ompx::global_thread_id()] = 1; });
  ompx::set_shard_devices(1);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.record.stats.blocks, blocks);
  for (int v : out) ASSERT_EQ(v, 1);
  // Clamped to the registry size, floored at 1.
  ompx::set_shard_devices(99);
  EXPECT_EQ(ompx::shard_devices(), 2);
  ompx::set_shard_devices(-4);
  EXPECT_EQ(ompx::shard_devices(), 1);
}

TEST_F(MultiDevice, ShardLaunchSplitsTheLargestGridAxis) {
  // A {1, 6, 1} grid must shard along y, not x.
  constexpr std::uint32_t gy = 6, threads = 32;
  std::vector<int> seen(gy, 0);
  auto* s = seen.data();
  ompx::LaunchSpec spec;
  spec.num_teams = {1, gy, 1};
  spec.thread_limit = {threads};
  spec.name = "shard_axis_y";
  std::vector<simt::Device*> devs{&sim_a100(), &sim_mi250()};
  ompx::shard_launch(spec, devs, [s] {
    if (ompx::thread_id() == 0) s[ompx::block_id(ompx::dim_y)] = 1;
  });
  for (int v : seen) ASSERT_EQ(v, 1);  // all 6 y-blocks executed once
}

// --- degenerate grids (regression: the single-shard special case) ---------

TEST_F(MultiDevice, DegenerateOneBlockGridShardsSafely) {
  // A 1x1x1 grid with a 4-way shard request: one shard, no empty
  // shards, no division by zero — and the combined record is still the
  // one the launch log sees.
  ompx::set_shard_devices(4);  // clamps to the registry (2 devices)
  std::vector<int> tids(32, -1);
  auto* t = tids.data();
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = "shard_one_block";
  const ompx::LaunchResult r =
      ompx::launch(spec, [t] { t[ompx::thread_id()] = ompx::thread_id(); });
  ompx::set_shard_devices(1);
  EXPECT_TRUE(r.completed);
  for (int i = 0; i < 32; ++i) ASSERT_EQ(tids[i], i);
  EXPECT_EQ(r.record.stats.blocks, 1u);
  EXPECT_EQ(r.record.stats.threads, 32u);
  EXPECT_EQ(r.record.grid.x, 1u);
  EXPECT_GT(r.record.time.total_ms, 0.0);
  EXPECT_EQ(sim_a100().last_launch().name, std::string("shard_one_block"));
}

TEST_F(MultiDevice, GridSmallerThanDeviceListUsesFewerShards) {
  // 3 blocks over a 2-device list: shards of 2 + 1, every block exactly
  // once, and the combined record covers all 3.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  auto* hp = hits.data();
  ompx::LaunchSpec spec;
  spec.num_teams = {3};
  spec.thread_limit = {16};
  spec.name = "shard_three_blocks";
  std::vector<simt::Device*> devs{&sim_a100(), &sim_mi250()};
  const ompx::LaunchResult r = ompx::shard_launch(spec, devs, [hp] {
    if (ompx::thread_id() == 0) hp[ompx::block_id(ompx::dim_x)].fetch_add(1);
  });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  EXPECT_EQ(r.record.stats.blocks, 3u);
  EXPECT_EQ(r.record.stats.threads, 3u * 16u);
}

TEST_F(MultiDevice, SingleShardLaunchOrdersBehindPendingStreamWork) {
  // Regression: the degenerate path used to bypass the per-device
  // default stream with a direct launch_sync, so a one-block sharded
  // launch could overtake async work already queued on the stream. It
  // must observe the queued host op's write.
  int flag = 0;
  simt::Stream& st = sim_a100().default_stream();
  st.host_fn([&flag] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flag = 7;
  });
  int seen = -1;
  auto* sp = &seen;
  auto* fp = &flag;
  ompx::LaunchSpec spec;
  spec.num_teams = {1};
  spec.thread_limit = {1};
  spec.name = "shard_ordering";
  std::vector<simt::Device*> devs{&sim_a100()};
  ompx::shard_launch(spec, devs, [sp, fp] { *sp = *fp; });
  EXPECT_EQ(seen, 7) << "sharded launch overtook queued stream work";
  sim_a100().synchronize();
}

TEST_F(MultiDevice, ShardedFig8AppsMatchSingleDeviceChecksums) {
  // The acceptance bar: every Fig. 8 application kernel produces
  // byte-identical verification results sharded across both devices.
  for (const apps::AppDesc& app : apps::registry()) {
    ompx::set_shard_devices(1);
    const apps::RunResult ref =
        apps::run_cell(app, apps::Version::kOmpx, sim_a100());
    ompx::set_shard_devices(2);
    const apps::RunResult sh =
        apps::run_cell(app, apps::Version::kOmpx, sim_a100());
    ompx::set_shard_devices(1);
    EXPECT_TRUE(ref.valid) << app.name;
    EXPECT_TRUE(sh.valid) << app.name << ": " << sh.note;
    EXPECT_EQ(ref.checksum, sh.checksum) << app.name;
  }
}

}  // namespace

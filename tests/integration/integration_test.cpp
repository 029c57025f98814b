// Cross-layer integration and concurrency stress: the engine, kl, omp
// and ompx layers used together the way a real application would.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/harness.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace {

TEST(Integration, TwoHostThreadsDriveTwoDevicesConcurrently) {
  std::atomic<int> failures{0};
  auto drive = [&](int device_index) {
    if (kl::klSetDevice(device_index) != kl::klSuccess) {
      failures.fetch_add(1);
      return;
    }
    constexpr int n = 1 << 14;
    float* d = nullptr;
    if (kl::klMalloc(&d, n * sizeof(float)) != kl::klSuccess) {
      failures.fetch_add(1);
      return;
    }
    std::vector<float> h(n, 1.0f);
    kl::klMemcpy(d, h.data(), n * sizeof(float), kl::klMemcpyHostToDevice);
    kl::KernelAttrs attrs;
    attrs.mode = simt::ExecMode::kDirect;
    attrs.name = "integration_scale";
    for (int round = 0; round < 10; ++round) {
      kl::launch({n / 256}, {256}, 0, nullptr, attrs, [=] {
        const auto i = kl::global_thread_id_x();
        d[i] += 1.0f;
      });
    }
    kl::klDeviceSynchronize();
    kl::klMemcpy(h.data(), d, n * sizeof(float), kl::klMemcpyDeviceToHost);
    for (float v : h)
      if (v != 11.0f) {
        failures.fetch_add(1);
        break;
      }
    kl::klFree(d);
  };
  std::thread t0(drive, 0), t1(drive, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Integration, MixedLayersShareOneDeviceAllocation) {
  // kl allocates, an omp target region computes through the mapping of
  // a *different* host array, and an ompx bare kernel post-processes the
  // kl allocation — all on sim-a100, interleaved.
  ASSERT_EQ(kl::klSetDevice(0), kl::klSuccess);
  simt::Device& dev = simt::sim_a100();
  constexpr int n = 2048;

  int* d_raw = nullptr;
  ASSERT_EQ(kl::klMalloc(&d_raw, n * sizeof(int)), kl::klSuccess);
  std::vector<int> seed(n);
  std::iota(seed.begin(), seed.end(), 0);
  kl::klMemcpy(d_raw, seed.data(), n * sizeof(int), kl::klMemcpyHostToDevice);

  // omp region: classic mapped computation into a host vector.
  std::vector<int> mapped(n, 0);
  omp::TargetClauses c;
  c.device = &dev;
  c.name = "integration_omp";
  c.maps = {omp::map_from(mapped.data(), n * sizeof(int))};
  omp::target_teams_distribute_parallel_for(c, n, [&](omp::DeviceEnv& env) {
    int* out = env.translate(mapped.data());
    return [=](std::int64_t i) { out[i] = static_cast<int>(3 * i); };
  });

  // ompx bare kernel reads the kl allocation directly.
  ompx::LaunchSpec spec;
  spec.device = &dev;
  spec.num_teams = {n / 256};
  spec.thread_limit = {256};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "integration_ompx";
  ompx::launch(spec, [=] {
    const auto i = ompx::global_thread_id();
    d_raw[i] *= 2;
  });

  std::vector<int> out(n);
  kl::klMemcpy(out.data(), d_raw, n * sizeof(int), kl::klMemcpyDeviceToHost);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], 2 * i);
    ASSERT_EQ(mapped[i], 3 * i);
  }
  kl::klFree(d_raw);
}

TEST(Integration, AllSyncFeaturesInOneCooperativeKernel) {
  // groupprivate + block barrier + warp shuffle + warp ballot + device
  // atomics, composed: a two-level reduction with a popcount check.
  simt::Device& dev = simt::sim_a100();
  constexpr unsigned kTeams = 16, kThreads = 256;
  long long grand_total = 0;
  std::uint64_t odd_lanes_seen = 0;
  ompx::LaunchSpec spec;
  spec.device = &dev;
  spec.num_teams = {kTeams};
  spec.thread_limit = {kThreads};
  spec.name = "integration_all_sync";
  ompx::launch(spec, [&] {
    const int tid = ompx_thread_id_x();
    const int ws = ompx_warp_size();
    // Warp stage: shuffle-tree sum of (tid+1).
    long long v = tid + 1;
    for (int d = ws / 2; d > 0; d /= 2)
      v += ompx::shfl_down_sync(~0ull, v, static_cast<unsigned>(d));
    const std::uint64_t odd = ompx_ballot_sync(~0ull, ompx_lane_id() & 1);
    // Block stage: warp leaders deposit into groupprivate storage.
    auto* warp_sums = ompx::groupprivate<long long>(kThreads / 32);
    if (ompx_lane_id() == 0)
      warp_sums[tid / ws] = v;
    ompx_sync_thread_block();
    if (tid == 0) {
      long long team_sum = 0;
      for (unsigned w = 0; w < kThreads / static_cast<unsigned>(ws); ++w)
        team_sum += warp_sums[w];
      ompx::atomic_add(&grand_total, team_sum);
      if (ompx_block_id_x() == 0)
        simt::atomic_add(&odd_lanes_seen, static_cast<std::uint64_t>(
                                              __builtin_popcountll(odd)));
    }
  }).wait();
  const long long per_team =
      static_cast<long long>(kThreads) * (kThreads + 1) / 2;
  EXPECT_EQ(grand_total, static_cast<long long>(kTeams) * per_team);
  EXPECT_EQ(odd_lanes_seen, 16u);  // 16 odd lanes per 32-lane warp
}

TEST(Integration, RepeatedAppRunsLeaveNoResidue) {
  // Mapping tables, device memory and launch logs must come back to
  // baseline across repeated full app runs.
  simt::Device& dev = simt::sim_mi250();
  const auto live_before = dev.memory().live_allocations();
  for (int i = 0; i < 3; ++i) {
    apps::AppDesc desc;  // use the registry's Adam (cheap, maps + kl)
    for (const auto& a : apps::registry())
      if (a.name == "Adam") desc = a;
    const auto r1 = apps::run_cell(desc, apps::Version::kOmp, dev);
    const auto r2 = apps::run_cell(desc, apps::Version::kNative, dev);
    ASSERT_TRUE(r1.valid);
    ASSERT_TRUE(r2.valid);
  }
  EXPECT_EQ(dev.memory().live_allocations(), live_before);
}

TEST(Integration, InteropStreamsPlusNowaitTargetCompose) {
  // Figure 5's stream path and the classic depend path used in one
  // program: a nowait target region produces data, an interop-stream
  // kernel chain that depends on it consumes it, and taskwait on the
  // object plus a final taskwait drain everything.
  simt::Device& dev = simt::sim_a100();
  omp::Interop obj = omp::interop_init_targetsync(dev);
  constexpr int n = 4096;
  std::vector<double> host(n, 0.0);
  std::vector<double> init(n, 2.0);
  auto* buf = static_cast<double*>(omp::target_alloc(n * sizeof(double), dev));

  int token = 0;
  omp::TargetClauses c;
  c.device = &dev;
  c.nowait = true;
  c.depends = {omp::dep_out(&token)};
  c.maps = {omp::map_to(init.data(), n * sizeof(double))};
  c.name = "integration_init";
  omp::target_teams_distribute_parallel_for(c, n, [&](omp::DeviceEnv& env) {
    const double* di = env.translate(init.data());
    return [=](std::int64_t i) { buf[i] = di[i]; };
  });
  for (int round = 0; round < 3; ++round) {
    ompx::LaunchSpec spec;
    spec.device = &dev;
    spec.num_teams = {n / 256};
    spec.thread_limit = {256};
    spec.nowait = true;
    spec.depend_interop = &obj;
    spec.depends = {omp::dep_in(&token)};
    spec.mode = simt::ExecMode::kDirect;
    spec.name = "integration_chain";
    ompx::launch(spec, [=] { buf[ompx::global_thread_id()] += 0.5; });
  }
  ompx::taskwait(obj);
  omp::taskwait();
  omp::target_memcpy(host.data(), buf, n * sizeof(double), false, true, dev);
  for (double v : host) ASSERT_DOUBLE_EQ(v, 3.5);
  omp::target_free(buf, dev);
  omp::interop_destroy(obj);
}

TEST(Integration, InteropStreamsOverlapFourEqualChains) {
  // The abl_interop_streams pattern: four independent chains of equal
  // kernels, first as waited launches (the modeled timeline is their
  // serial sum), then one chain per interop stream (the timeline is one
  // chain). Same buffers either way, and exactly 4x overlap.
  constexpr int kChains = 4, kKernels = 8, kPer = 2048;
  simt::Device& dev = simt::sim_a100();
  std::vector<double> a(kChains * kPer, 1.0), b(kChains * kPer, 1.0);
  const auto spec_for = [&](const char* name) {
    ompx::LaunchSpec spec;
    spec.device = &dev;
    spec.num_teams = {8};
    spec.thread_limit = {256};
    spec.mode = simt::ExecMode::kDirect;
    spec.cost.global_bytes_per_thread = 512;
    spec.name = name;
    return spec;
  };
  const auto step = [](double* chain) {
    return [chain] { chain[ompx::global_thread_id()] *= 1.0000001; };
  };

  dev.clear_launch_log();
  for (int k = 0; k < kKernels; ++k)
    for (int c = 0; c < kChains; ++c)
      ompx::launch(spec_for("overlap_sync"), step(a.data() + c * kPer)).wait();
  const double sync_ms = dev.modeled_kernel_ms_total();

  std::vector<omp::Interop> objs;
  for (int c = 0; c < kChains; ++c)
    objs.push_back(omp::interop_init_targetsync(dev));
  for (int k = 0; k < kKernels; ++k)
    for (int c = 0; c < kChains; ++c) {
      ompx::LaunchSpec spec = spec_for("overlap_stream");
      spec.nowait = true;
      spec.depend_interop = &objs[c];
      ompx::launch(spec, step(b.data() + c * kPer));
    }
  double stream_ms = 0.0;
  for (omp::Interop& obj : objs) {
    ompx::taskwait(obj);
    stream_ms = std::max(stream_ms, obj.stream->modeled_ready_ms());
  }
  for (omp::Interop& obj : objs) omp::interop_destroy(obj);

  EXPECT_EQ(a, b);
  ASSERT_GT(stream_ms, 0.0);
  EXPECT_NEAR(sync_ms / stream_ms, 4.0, 0.01);
}

}  // namespace

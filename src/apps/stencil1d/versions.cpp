// Stencil-1D data construction and the four program versions
// (Figure 8f/8l).
#include <algorithm>
#include <cmath>

#include "apps/stencil1d/stencil1d.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace apps::stencil1d {

SimulationData make_data(const Options& opt) {
  SimulationData d;
  d.opt = opt;
  d.input.resize(opt.n + 2 * kRadius);
  for (std::size_t i = 0; i < d.input.size(); ++i)
    d.input[i] = static_cast<int>(mix64(i) % 97);
  return d;
}

std::uint64_t checksum_of(const std::vector<int>& out) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    h += static_cast<std::uint64_t>(out[i]) * (i % 1009 + 1);
  return h;
}

std::uint64_t reference_checksum(const SimulationData& d) {
  std::vector<int> out(d.opt.n);
  for (std::int64_t i = 0; i < d.opt.n; ++i) {
    int acc = 0;
    for (int o = -kRadius; o <= kRadius; ++o)
      acc += d.input[i + kRadius + o];
    out[i] = acc;
  }
  return checksum_of(out);
}

namespace {

/// Roofline (tiled versions): each element is read once into shared
/// and summed from there; the window reads hit shared memory.
simt::KernelCost tiled_cost() {
  simt::KernelCost c;
  c.flops_per_thread = 2.0 * kRadius + 1.0;
  c.global_bytes_per_thread = 8.5;  // in + out + halo amortized
  c.shared_bytes_per_thread = (2.0 * kRadius + 2.0) * 4.0;
  return c;
}

simt::CompilerProfile profile_for(Version v, const simt::Device& dev) {
  const bool nv = dev.config().vendor == simt::Vendor::kNvidia;
  simt::CompilerProfile p;
  switch (v) {
    case Version::kOmpx:
      // §4.2.6: ompx outperforms the native versions on both systems;
      // the tutorial CUDA kernel's generated addressing is slightly
      // worse (calibrated).
      p.name = "ompx-proto";
      p.regs_per_thread = 24;
      p.binary_kib = 10.0;
      break;
    case Version::kOmp:
      p.name = "llvm-clang-omp";
      p.regs_per_thread = 42;
      p.binary_kib = 30.0;
      break;
    case Version::kNative:
      p.name = "llvm-clang";
      p.regs_per_thread = 24;
      p.binary_kib = 6.0;
      p.mem_efficiency = nv ? 0.94 : 0.92;
      break;
    case Version::kNativeVendor:
      p.name = "vendor";
      p.regs_per_thread = 22;
      p.binary_kib = 5.0;
      p.mem_efficiency = nv ? 0.92 : 0.94;
      break;
  }
  return p;
}

std::vector<int> run_kl(const SimulationData& d, simt::Device& dev,
                        Version v) {
  using namespace kl;
  use_kl_device(dev);
  const std::int64_t n = d.opt.n;
  int *din = nullptr, *dout = nullptr;
  check(klMalloc(&din, d.input.size() * sizeof(int)), "klMalloc din");
  check(klMalloc(&dout, n * sizeof(int)), "klMalloc dout");
  check(klMemcpy(din, d.input.data(), d.input.size() * sizeof(int),
                 klMemcpyHostToDevice),
        "klMemcpy H2D");

  KernelAttrs attrs;
  attrs.name = "stencil1d";
  attrs.profile = profile_for(v, dev);
  attrs.cost = tiled_cost();
  attrs.mode = d.opt.mode;
  for (int it = 0; it < d.opt.iterations; ++it) {
    check(
        launch({static_cast<unsigned>(simt::ceil_div(n, kBlock))}, {kBlock}, 0,
           nullptr, attrs, [=] {
             int* tile = shared_array<int>(kBlock + 2 * kRadius);
             const std::int64_t g =
                 static_cast<std::int64_t>(global_thread_id_x());
             const int l = static_cast<int>(threadIdx().x) + kRadius;
             const std::int64_t src = std::min(g, n - 1) + kRadius;
             tile[l] = din[src];
             if (threadIdx().x < kRadius) {
               tile[l - kRadius] = din[src - kRadius];
               tile[l + kBlock] =
                   din[std::min<std::int64_t>(src + kBlock, n + 2 * kRadius - 1)];
             }
             syncthreads();
             if (g < n) {
               int acc = 0;
               for (int o = -kRadius; o <= kRadius; ++o) acc += tile[l + o];
               dout[g] = acc;
             }
           }),
        "stencil1d launch");
  }
  check(klDeviceSynchronize(), "klDeviceSynchronize");
  std::vector<int> out(n);
  check(klMemcpy(out.data(), dout, n * sizeof(int), klMemcpyDeviceToHost),
        "klMemcpy D2H");
  check(klFree(din), "klFree din");
  check(klFree(dout), "klFree dout");
  return out;
}

std::vector<int> run_ompx(const SimulationData& d, simt::Device& dev) {
  ompx::set_default_device(dev);
  const std::int64_t n = d.opt.n;
  auto* din = ompx::malloc_n<int>(d.input.size());
  auto* dout = ompx::malloc_n<int>(n);
  OMPX_REQUIRE(ompx_memcpy(din, d.input.data(), d.input.size() * sizeof(int)));

  ompx::LaunchSpec spec;
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(n, kBlock))};
  spec.thread_limit = {kBlock};
  spec.name = "stencil1d";
  spec.profile = profile_for(Version::kOmpx, dev);
  spec.cost = tiled_cost();
  spec.device = &dev;
  spec.mode = d.opt.mode;
  for (int it = 0; it < d.opt.iterations; ++it) {
    ompx::launch(spec, [=] {
      int* tile = ompx::groupprivate<int>(kBlock + 2 * kRadius);
      const std::int64_t g = ompx::global_thread_id();
      const int l = ompx_thread_id_x() + kRadius;
      const std::int64_t src = std::min(g, n - 1) + kRadius;
      tile[l] = din[src];
      if (ompx_thread_id_x() < kRadius) {
        tile[l - kRadius] = din[src - kRadius];
        tile[l + kBlock] =
            din[std::min<std::int64_t>(src + kBlock, n + 2 * kRadius - 1)];
      }
      ompx_sync_thread_block();
      if (g < n) {
        int acc = 0;
        for (int o = -kRadius; o <= kRadius; ++o) acc += tile[l + o];
        dout[g] = acc;
      }
    });
  }
  std::vector<int> out(n);
  OMPX_REQUIRE(ompx_memcpy(out.data(), dout, n * sizeof(int)));
  ompx::free_on(dev, din);
  ompx::free_on(dev, dout);
  return out;
}

std::vector<int> run_omp(const SimulationData& d, simt::Device& dev) {
  // The classic port mirrors the CUDA structure — `target teams` with
  // an inner `parallel` staging the tile — which LLVM cannot SPMD-ize:
  // the kernel runs in generic mode behind the unoptimized state
  // machine, and the tile array is globalized to the device heap
  // (§4.2.6, Huber et al. CGO'22).
  const std::int64_t n = d.opt.n;
  std::vector<int> out(n, 0);
  omp::TargetData data(
      dev, {omp::map_to(d.input.data(), d.input.size() * sizeof(int)),
            omp::map_from(out.data(), n * sizeof(int))});
  const std::int64_t teams = simt::ceil_div(n, kBlock);
  omp::TargetClauses c;
  c.device = &dev;
  c.num_teams = static_cast<int>(teams);
  c.thread_limit = kBlock;
  c.name = "stencil1d_omp";
  c.profile = profile_for(Version::kOmp, dev);
  c.cost = tiled_cost();
  // The window reads hit the globalized (device-heap) tile, not shared.
  c.cost.shared_bytes_per_thread = 0.0;
  c.cost.global_bytes_per_thread += (2.0 * kRadius + 2.0) * 4.0;
  for (int it = 0; it < d.opt.iterations; ++it) {
    omp::target_teams_generic(c, [&](omp::DeviceEnv& env) {
      const int* din = env.translate(d.input.data());
      int* dout = env.translate(out.data());
      return [=](omp::TeamCtx& team) {
        // Globalized tile: shared-memory placement is not expressible
        // pre-groupprivate, so the runtime moves it to the heap.
        int* tile =
            static_cast<int*>(team.globalized((kBlock + 2 * kRadius) *
                                              sizeof(int)));
        const std::int64_t base =
            static_cast<std::int64_t>(team.team()) * kBlock;
        team.parallel(0, [=](int tid) {
          const std::int64_t g = base + tid;
          const int l = tid + kRadius;
          const std::int64_t src = std::min(g, n - 1) + kRadius;
          tile[l] = din[src];
          if (tid < kRadius) {
            tile[l - kRadius] = din[src - kRadius];
            tile[l + kBlock] =
                din[std::min<std::int64_t>(src + kBlock, n + 2 * kRadius - 1)];
          }
        });
        team.parallel(0, [=](int tid) {
          const std::int64_t g = base + tid;
          if (g < n) {
            const int l = tid + kRadius;
            int acc = 0;
            for (int o = -kRadius; o <= kRadius; ++o) acc += tile[l + o];
            dout[g] = acc;
          }
        });
      };
    });
  }
  omp::target_update_from(dev, out.data(), n * sizeof(int));
  return out;
}

}  // namespace

RunResult run(Version v, simt::Device& dev, const Options& opt) {
  const SimulationData d = make_data(opt);
  const std::uint64_t ref =
      memo_reference(opt, [&] { return reference_checksum(d); });
  dev.clear_launch_log();
  RunResult r;
  r.app = "Stencil1D";
  std::vector<int> out;
  switch (v) {
    case Version::kOmpx:
      out = run_ompx(d, dev);
      break;
    case Version::kOmp:
      out = run_omp(d, dev);
      break;
    case Version::kNative:
    case Version::kNativeVendor:
      out = run_kl(d, dev, v);
      break;
  }
  r.kernel_ms = modeled_kernel_ms(dev);
  r.checksum = checksum_of(out);
  r.valid = r.checksum == ref;
  return r;
}

}  // namespace apps::stencil1d

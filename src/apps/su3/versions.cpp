// SU3 data construction and the four program versions (Figure 8c/8i).
#include <cmath>

#include "apps/su3/su3.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace apps::su3 {

SimulationData make_data(const Options& opt) {
  SimulationData d;
  d.opt = opt;
  d.a.resize(static_cast<std::size_t>(opt.lattice_sites) * 4);
  d.b.resize(4);
  for (std::size_t i = 0; i < d.a.size(); ++i)
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        d.a[i].e[r][c] = {
            static_cast<float>(uniform01(mix64(i * 9 + r * 3 + c)) - 0.5),
            static_cast<float>(uniform01(mix64(i * 9 + r * 3 + c + 1)) - 0.5)};
  for (int i = 0; i < 4; ++i)
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        d.b[i].e[r][c] = {
            static_cast<float>(0.1 + 0.01 * (i * 9 + r * 3 + c)),
            static_cast<float>(0.05 - 0.01 * (i + r + c))};
  return d;
}

std::uint64_t checksum_of(const std::vector<Matrix>& c) {
  double sum_re = 0.0, sum_im = 0.0;
  for (const Matrix& m : c)
    for (int r = 0; r < 3; ++r)
      for (int col = 0; col < 3; ++col) {
        sum_re += m.e[r][col].real();
        sum_im += m.e[r][col].imag();
      }
  // Quantize so float accumulation-order noise does not flip the check.
  return static_cast<std::uint64_t>(std::llround(sum_re * 1e3)) ^
         (static_cast<std::uint64_t>(std::llround(sum_im * 1e3)) << 1);
}

namespace {

/// One sweep on the host (reference and the functional ground truth).
void host_sweep(const SimulationData& d, std::vector<Matrix>& c) {
  for (int s = 0; s < d.opt.lattice_sites; ++s)
    for (int dir = 0; dir < 4; ++dir)
      c[static_cast<std::size_t>(s) * 4 + dir] =
          mult_su3_nn(d.a[static_cast<std::size_t>(s) * 4 + dir], d.b[dir]);
}

/// Roofline: per site 4 matrix products = 4*27 complex FMAs (~8 flops
/// each, fp32); traffic = 4 links in + 4 results out (b matrices are
/// cached). The kernel is strongly memory-bound, which is why the
/// paper's §4.2.3 codegen effects surface on the load/store path.
simt::KernelCost su3_cost() {
  simt::KernelCost c;
  c.flops_per_thread = 4 * 27 * 8.0;
  c.global_bytes_per_thread = 8.0 * sizeof(Matrix);
  return c;
}

/// §4.2.3 calibration: on sim-a100 the CUDA version uses 24 registers
/// vs ompx's 26, and its device binary is 3.9 KiB vs 29 KiB (functions
/// inlined but not eliminated) -> ompx trails cuda by ~9%. On sim-mi250
/// the hip version's generated addressing is markedly worse (the paper
/// reports ompx +28% but gives no further mechanism; the hip
/// mem_efficiency below is the calibrated stand-in).
simt::CompilerProfile profile_for(Version v, const simt::Device& dev) {
  const bool nv = dev.config().vendor == simt::Vendor::kNvidia;
  simt::CompilerProfile p;
  switch (v) {
    case Version::kOmpx:
      p.name = "ompx-proto";
      p.regs_per_thread = 26;   // paper §4.2.3
      p.binary_kib = 29.0;      // paper §4.2.3
      p.mem_efficiency = nv ? 0.93 : 1.0;
      break;
    case Version::kOmp:
      p.name = "llvm-clang-omp";
      p.regs_per_thread = 32;
      p.binary_kib = 34.0;
      p.mem_efficiency = nv ? 0.88 : 0.90;
      break;
    case Version::kNative:
      p.name = "llvm-clang";
      p.regs_per_thread = 24;   // paper §4.2.3
      p.binary_kib = 3.9;       // paper §4.2.3
      p.mem_efficiency = nv ? 1.0 : 0.78;
      break;
    case Version::kNativeVendor:
      p.name = "vendor";
      p.regs_per_thread = 24;
      p.binary_kib = 4.2;
      p.mem_efficiency = nv ? 0.99 : 0.80;
      break;
  }
  return p;
}

std::uint64_t run_kl(const SimulationData& d, simt::Device& dev, Version v) {
  using namespace kl;
  use_kl_device(dev);
  const int sites = d.opt.lattice_sites;
  Matrix *da = nullptr, *db = nullptr, *dc = nullptr;
  check(klMalloc(&da, d.a.size() * sizeof(Matrix)), "klMalloc da");
  check(klMalloc(&db, d.b.size() * sizeof(Matrix)), "klMalloc db");
  check(klMalloc(&dc, d.a.size() * sizeof(Matrix)), "klMalloc dc");
  check(klMemcpy(da, d.a.data(), d.a.size() * sizeof(Matrix),
                 klMemcpyHostToDevice),
        "klMemcpy da");
  check(klMemcpy(db, d.b.data(), d.b.size() * sizeof(Matrix),
                 klMemcpyHostToDevice),
        "klMemcpy db");

  KernelAttrs attrs;
  attrs.name = "su3_mult";
  attrs.mode = simt::ExecMode::kDirect;
  attrs.profile = profile_for(v, dev);
  attrs.cost = su3_cost();
  const unsigned bs = static_cast<unsigned>(d.opt.threads_per_block);
  for (int it = 0; it < d.opt.iterations; ++it) {
    check(
        launch({static_cast<unsigned>(simt::ceil_div(sites, bs))}, {bs}, 0,
           nullptr, attrs, [=] {
             const int s = static_cast<int>(global_thread_id_x());
             if (s >= sites) return;
             for (int dir = 0; dir < 4; ++dir)
               dc[static_cast<std::size_t>(s) * 4 + dir] = mult_su3_nn(
                   da[static_cast<std::size_t>(s) * 4 + dir], db[dir]);
           }),
        "su3_mult launch");
  }
  check(klDeviceSynchronize(), "klDeviceSynchronize");
  std::vector<Matrix> c(d.a.size());
  check(klMemcpy(c.data(), dc, c.size() * sizeof(Matrix),
                 klMemcpyDeviceToHost),
        "klMemcpy D2H");
  check(klFree(da), "klFree da");
  check(klFree(db), "klFree db");
  check(klFree(dc), "klFree dc");
  return checksum_of(c);
}

std::uint64_t run_ompx(const SimulationData& d, simt::Device& dev) {
  ompx::set_default_device(dev);
  const int sites = d.opt.lattice_sites;
  auto* da = ompx::malloc_n<Matrix>(d.a.size());
  auto* db = ompx::malloc_n<Matrix>(d.b.size());
  auto* dc = ompx::malloc_n<Matrix>(d.a.size());
  OMPX_REQUIRE(ompx_memcpy(da, d.a.data(), d.a.size() * sizeof(Matrix)));
  OMPX_REQUIRE(ompx_memcpy(db, d.b.data(), d.b.size() * sizeof(Matrix)));

  ompx::LaunchSpec spec;
  const unsigned bs = static_cast<unsigned>(d.opt.threads_per_block);
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(sites, bs))};
  spec.thread_limit = {bs};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "su3_mult";
  spec.profile = profile_for(Version::kOmpx, dev);
  spec.cost = su3_cost();
  spec.device = &dev;
  for (int it = 0; it < d.opt.iterations; ++it) {
    ompx::launch(spec, [=] {
      const int s = static_cast<int>(ompx::global_thread_id());
      if (s >= sites) return;
      for (int dir = 0; dir < 4; ++dir)
        dc[static_cast<std::size_t>(s) * 4 + dir] =
            mult_su3_nn(da[static_cast<std::size_t>(s) * 4 + dir], db[dir]);
    });
  }
  std::vector<Matrix> c(d.a.size());
  OMPX_REQUIRE(ompx_memcpy(c.data(), dc, c.size() * sizeof(Matrix)));
  ompx::free_on(dev, da);
  ompx::free_on(dev, db);
  ompx::free_on(dev, dc);
  return checksum_of(c);
}

}  // namespace

std::uint64_t reference_checksum(const SimulationData& d) {
  std::vector<Matrix> c(d.a.size());
  host_sweep(d, c);
  return checksum_of(c);
}

RunResult run(Version v, simt::Device& dev, const Options& opt) {
  const SimulationData d = make_data(opt);
  const std::uint64_t ref =
      memo_reference(opt, [&] { return reference_checksum(d); });
  dev.clear_launch_log();
  RunResult r;
  r.app = "SU3";
  switch (v) {
    case Version::kOmpx:
      r.checksum = run_ompx(d, dev);
      break;
    case Version::kOmp: {
      std::vector<Matrix> c(d.a.size());
      {
        omp::TargetData data(
            dev, {omp::map_to(d.a.data(), d.a.size() * sizeof(Matrix)),
                  omp::map_to(d.b.data(), d.b.size() * sizeof(Matrix)),
                  omp::map_from(c.data(), c.size() * sizeof(Matrix))});
        omp::TargetClauses cl;
        cl.device = &dev;
        cl.thread_limit = d.opt.threads_per_block;
        cl.name = "su3_mult_omp";
        cl.profile = profile_for(Version::kOmp, dev);
        cl.cost = su3_cost();
        for (int it = 0; it < d.opt.iterations; ++it) {
          omp::target_teams_distribute_parallel_for(
              cl, d.opt.lattice_sites, [&](omp::DeviceEnv& env) {
                const Matrix* da = env.translate(d.a.data());
                const Matrix* db = env.translate(d.b.data());
                Matrix* dc = env.translate(c.data());
                return [=](std::int64_t s) {
                  for (int dir = 0; dir < 4; ++dir)
                    dc[static_cast<std::size_t>(s) * 4 + dir] = mult_su3_nn(
                        da[static_cast<std::size_t>(s) * 4 + dir], db[dir]);
                };
              });
        }
      }
      r.checksum = checksum_of(c);
      break;
    }
    case Version::kNative:
    case Version::kNativeVendor:
      r.checksum = run_kl(d, dev, v);
      break;
  }
  r.kernel_ms = modeled_kernel_ms(dev);
  r.valid = r.checksum == ref;
  return r;
}

}  // namespace apps::su3

// The four XSBench program versions (Figure 8a/8g bars).
#include <cmath>
#include <stdexcept>

#include "apps/xsbench/xsbench.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace apps::xsbench {

namespace {

/// Average nuclides touched per lookup, for the roofline declaration.
double avg_nucs_per_lookup(const SimulationData& d) {
  double others = 0.0;
  for (int m = 1; m < d.opt.n_mats; ++m) others += d.num_nucs[m];
  others /= std::max(d.opt.n_mats - 1, 1);
  return 0.5 * d.num_nucs[0] + 0.5 * others;
}

/// Roofline declaration shared by all versions: XSBench is a random-
/// gather kernel — per nuclide a binary search (log2(gp) uncoalesced
/// 8-byte probes) plus two 5-wide xs gridpoints, per lookup the
/// material tables.
simt::KernelCost cost_for(const SimulationData& d) {
  const double nucs = avg_nucs_per_lookup(d);
  const double probes = std::log2(static_cast<double>(d.opt.n_gridpoints));
  simt::KernelCost c;
  c.global_bytes_per_thread = nucs * (probes * 8.0 + 2 * 5 * 8.0 + 12.0) + 16.0;
  c.flops_per_thread = nucs * (probes * 2.0 + 5 * 3.0) + 8.0;
  return c;
}

/// Code-generation profiles, calibrated from the paper's §4.2.1
/// narrative (ompx consistently outperforms both native compilers on
/// both systems; the deltas are memory-path code quality on this
/// gather-bound kernel). See EXPERIMENTS.md §Calibration.
simt::CompilerProfile profile_for(Version v) {
  simt::CompilerProfile p;
  p.regs_per_thread = 40;
  switch (v) {
    case Version::kOmpx:
      p.name = "ompx-proto";
      p.binary_kib = 18.0;
      p.mem_efficiency = 1.00;
      break;
    case Version::kOmp:
      p.name = "llvm-clang-omp";
      p.binary_kib = 24.0;
      p.mem_efficiency = 0.90;
      break;
    case Version::kNative:
      p.name = "llvm-clang";
      p.binary_kib = 8.0;
      p.mem_efficiency = 0.93;
      break;
    case Version::kNativeVendor:
      p.name = "vendor";
      p.binary_kib = 7.0;
      p.mem_efficiency = 0.88;
      break;
  }
  return p;
}

struct DeviceData {
  double* energy;
  double* xs;
  int* num_nucs;
  int* mats;
  double* concs;
};

constexpr int kBlock = 256;

std::uint64_t run_kl(const SimulationData& d, simt::Device& dev, Version v) {
  using namespace kl;
  use_kl_device(dev);

  DeviceData dd{};
  check(klMalloc(&dd.energy, d.energy.size() * sizeof(double)),
        "klMalloc energy");
  check(klMalloc(&dd.xs, d.xs.size() * sizeof(double)), "klMalloc xs");
  check(klMalloc(&dd.num_nucs, d.num_nucs.size() * sizeof(int)),
        "klMalloc num_nucs");
  check(klMalloc(&dd.mats, d.mats.size() * sizeof(int)), "klMalloc mats");
  check(klMalloc(&dd.concs, d.concs.size() * sizeof(double)),
        "klMalloc concs");
  check(klMemcpy(dd.energy, d.energy.data(), d.energy.size() * sizeof(double),
           klMemcpyHostToDevice),
        "klMemcpy energy");
  check(klMemcpy(dd.xs, d.xs.data(), d.xs.size() * sizeof(double),
           klMemcpyHostToDevice),
        "klMemcpy xs");
  check(klMemcpy(dd.num_nucs, d.num_nucs.data(),
                 d.num_nucs.size() * sizeof(int), klMemcpyHostToDevice),
        "klMemcpy num_nucs");
  check(klMemcpy(dd.mats, d.mats.data(), d.mats.size() * sizeof(int),
           klMemcpyHostToDevice),
        "klMemcpy mats");
  check(klMemcpy(dd.concs, d.concs.data(), d.concs.size() * sizeof(double),
           klMemcpyHostToDevice),
        "klMemcpy concs");

  std::uint64_t* d_hash = nullptr;
  check(klMalloc(&d_hash, sizeof(std::uint64_t)), "klMalloc hash");
  check(klMemset(d_hash, 0, sizeof(std::uint64_t)), "klMemset hash");

  const std::int64_t n = d.opt.lookups;
  const int gp = d.opt.n_gridpoints, mx = d.opt.max_nucs_per_mat,
            nm = d.opt.n_mats;
  KernelAttrs attrs;
  attrs.name = "xsbench_event";
  attrs.mode = simt::ExecMode::kDirect;
  attrs.profile = profile_for(v);
  attrs.cost = cost_for(d);
  const DeviceData cd = dd;
  check(
      launch({static_cast<unsigned>(simt::ceil_div(n, kBlock))}, {kBlock}, 0,
         nullptr, attrs, [=] {
           const std::int64_t i =
               static_cast<std::int64_t>(global_thread_id_x());
           if (i >= n) return;
           const int arg =
               lookup_one(static_cast<std::uint64_t>(i), cd.energy, cd.xs,
                          cd.num_nucs, cd.mats, cd.concs, gp, mx, nm);
           const std::uint64_t contrib =
               mix64(static_cast<std::uint64_t>(i) ^
                     (static_cast<std::uint64_t>(arg) + 1));
           // XOR hash (order-independent): one atomic per lookup, so
           // the counted atomics do not depend on host interleaving.
           atomicXor(d_hash, contrib);
         }),
      "xsbench_event launch");
  check(klDeviceSynchronize(), "klDeviceSynchronize");
  std::uint64_t h = 0;
  check(klMemcpy(&h, d_hash, sizeof(h), klMemcpyDeviceToHost), "klMemcpy D2H");
  for (void* p : {static_cast<void*>(dd.energy), static_cast<void*>(dd.xs),
                  static_cast<void*>(dd.num_nucs), static_cast<void*>(dd.mats),
                  static_cast<void*>(dd.concs), static_cast<void*>(d_hash)})
    check(klFree(p), "klFree");
  return h;
}

std::uint64_t run_ompx(const SimulationData& d, simt::Device& dev) {
  // The port the paper describes: the CUDA source after "text
  // replacement" — same SIMT structure through ompx APIs.
  ompx::set_default_device(dev);
  auto* energy = ompx::malloc_n<double>(d.energy.size());
  auto* xs = ompx::malloc_n<double>(d.xs.size());
  auto* num_nucs = ompx::malloc_n<int>(d.num_nucs.size());
  auto* mats = ompx::malloc_n<int>(d.mats.size());
  auto* concs = ompx::malloc_n<double>(d.concs.size());
  auto* hash = ompx::malloc_n<std::uint64_t>(1);
  OMPX_REQUIRE(ompx_memcpy(energy, d.energy.data(), d.energy.size() * sizeof(double)));
  OMPX_REQUIRE(ompx_memcpy(xs, d.xs.data(), d.xs.size() * sizeof(double)));
  OMPX_REQUIRE(ompx_memcpy(num_nucs, d.num_nucs.data(), d.num_nucs.size() * sizeof(int)));
  OMPX_REQUIRE(ompx_memcpy(mats, d.mats.data(), d.mats.size() * sizeof(int)));
  OMPX_REQUIRE(ompx_memcpy(concs, d.concs.data(), d.concs.size() * sizeof(double)));
  OMPX_REQUIRE(ompx_memset(hash, 0, sizeof(std::uint64_t)));

  const std::int64_t n = d.opt.lookups;
  const int gp = d.opt.n_gridpoints, mx = d.opt.max_nucs_per_mat,
            nm = d.opt.n_mats;
  ompx::LaunchSpec spec;
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(n, kBlock))};
  spec.thread_limit = {kBlock};
  spec.mode = d.opt.mode;
  spec.name = "xsbench_event";
  spec.profile = profile_for(Version::kOmpx);
  spec.cost = cost_for(d);
  spec.device = &dev;
  ompx::launch(spec, [=] {
    const std::int64_t i = ompx::global_thread_id();
    if (i >= n) return;
    const int arg = lookup_one(static_cast<std::uint64_t>(i), energy, xs,
                               num_nucs, mats, concs, gp, mx, nm);
    const std::uint64_t contrib = mix64(static_cast<std::uint64_t>(i) ^
                                        (static_cast<std::uint64_t>(arg) + 1));
    simt::atomic_xor(hash, contrib);
  }).wait();
  const std::uint64_t h = *hash;
  for (void* p : {static_cast<void*>(energy), static_cast<void*>(xs),
                  static_cast<void*>(num_nucs), static_cast<void*>(mats),
                  static_cast<void*>(concs), static_cast<void*>(hash)})
    ompx::free_on(dev, p);
  return h;
}

std::uint64_t run_omp(const SimulationData& d, simt::Device& dev) {
  // The upstream OpenMP target-offloading port. It reproduces the
  // defect the paper reports ("the benchmark reporting an invalid
  // checksum"): the port derives each lookup's RNG seed from the
  // OpenMP thread enumeration rather than the loop index, so its
  // sampled particle population differs from the canonical versions
  // and the verification hash cannot match.
  std::uint64_t h = 0;
  omp::TargetClauses c;
  c.device = &dev;
  c.thread_limit = kBlock;
  c.name = "xsbench_event_omp";
  c.profile = profile_for(Version::kOmp);
  c.cost = cost_for(d);
  c.maps = {
      omp::map_to(d.energy.data(), d.energy.size() * sizeof(double)),
      omp::map_to(d.xs.data(), d.xs.size() * sizeof(double)),
      omp::map_to(d.num_nucs.data(), d.num_nucs.size() * sizeof(int)),
      omp::map_to(d.mats.data(), d.mats.size() * sizeof(int)),
      omp::map_to(d.concs.data(), d.concs.size() * sizeof(double)),
      omp::map_tofrom(&h, sizeof(h)),
  };
  const std::int64_t n = d.opt.lookups;
  const int gp = d.opt.n_gridpoints, mx = d.opt.max_nucs_per_mat,
            nm = d.opt.n_mats;
  omp::target_teams_distribute_parallel_for(c, n, [&](omp::DeviceEnv& env) {
    const double* energy = env.translate(d.energy.data());
    const double* xs = env.translate(d.xs.data());
    const int* num_nucs = env.translate(d.num_nucs.data());
    const int* mats = env.translate(d.mats.data());
    const double* concs = env.translate(d.concs.data());
    std::uint64_t* hash = env.translate(&h);
    return [=](std::int64_t i) {
      // The defective seeding: thread-centric instead of iteration-
      // centric (preserved from the upstream port).
      const std::uint64_t seed =
          static_cast<std::uint64_t>(omp::team_num()) * 1000003ull +
          static_cast<std::uint64_t>(omp::thread_num()) * 65537ull +
          static_cast<std::uint64_t>(i / (omp::num_threads() *
                                          static_cast<std::int64_t>(
                                              omp::num_teams())));
      const int arg =
          lookup_one(seed, energy, xs, num_nucs, mats, concs, gp, mx, nm);
      const std::uint64_t contrib =
          mix64(static_cast<std::uint64_t>(i) ^
                (static_cast<std::uint64_t>(arg) + 1));
      simt::atomic_xor(hash, contrib);
    };
  });
  return h;
}

}  // namespace

RunResult run(Version v, simt::Device& dev, const Options& opt) {
  const SimulationData d = make_data(opt);
  const std::uint64_t ref =
      memo_reference(opt, [&] { return reference_hash(d); });

  dev.clear_launch_log();
  RunResult r;
  r.app = "XSBench";
  switch (v) {
    case Version::kOmpx:
      r.checksum = run_ompx(d, dev);
      break;
    case Version::kOmp:
      r.checksum = run_omp(d, dev);
      break;
    case Version::kNative:
    case Version::kNativeVendor:
      r.checksum = run_kl(d, dev, v);
      break;
  }
  r.kernel_ms = modeled_kernel_ms(dev);
  r.valid = r.checksum == ref;
  if (!r.valid) r.note = "invalid checksum (excluded, as in the paper)";
  return r;
}

}  // namespace apps::xsbench

// The four RSBench program versions (Figure 8b/8h bars).
#include <cmath>
#include <stdexcept>

#include "apps/rsbench/rsbench.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace apps::rsbench {

namespace {

double avg_nucs_per_lookup(const SimulationData& d) {
  double others = 0.0;
  for (int m = 1; m < d.opt.n_mats; ++m) others += d.num_nucs[m];
  others /= std::max(d.opt.n_mats - 1, 1);
  return 0.5 * d.num_nucs[0] + 0.5 * others;
}

/// Roofline: compute-heavy complex arithmetic per pole; the pole/window
/// tables are small enough to cache well (effective DRAM traffic is the
/// calibrated cached-gather estimate); the sig_t_factors scratch is the
/// per-thread spill whose placement differs per version (§4.2.2).
/// FP64 operations are counted as 2 units (half-rate on both parts).
simt::KernelCost base_cost(const SimulationData& d) {
  const double nucs = avg_nucs_per_lookup(d);
  const int ppw = d.opt.n_poles / d.opt.n_windows;
  simt::KernelCost c;
  c.flops_per_thread = nucs * (4 * 30.0 + ppw * 80.0) * 2.0;
  c.global_bytes_per_thread = nucs * 60.0 + 24.0;  // cached gathers
  c.local_spill_bytes_per_thread = nucs * (64.0 + ppw * 16.0) * 0.3;
  return c;
}

/// Code-gen profiles from the paper's profiling narrative: the omp
/// version uses 162 registers and 2 KB of shared memory (heap-to-shared
/// moved its scratch); the native versions spill the scratch to local
/// memory; ompx keeps it in registers. EXPERIMENTS.md §Calibration.
struct VersionTraits {
  simt::CompilerProfile profile;
  bool spill_in_registers;
  bool heap_to_shared;  ///< omp runtime optimization (sim-a100 only)
};

VersionTraits traits_for(Version v, const simt::Device& dev) {
  VersionTraits t{};
  switch (v) {
    case Version::kOmpx:
      t.profile.name = "ompx-proto";
      t.profile.regs_per_thread = 96;
      t.profile.binary_kib = 20.0;
      t.spill_in_registers = true;
      break;
    case Version::kOmp:
      t.profile.name = "llvm-clang-omp";
      t.profile.regs_per_thread = 162;      // paper §4.2.2
      t.profile.static_smem_bytes = 2048;   // paper §4.2.2
      t.profile.binary_kib = 26.0;
      t.heap_to_shared = dev.config().vendor == simt::Vendor::kNvidia;
      break;
    case Version::kNative:
      t.profile.name = "llvm-clang";
      t.profile.regs_per_thread = 64;
      t.profile.binary_kib = 10.0;
      break;
    case Version::kNativeVendor:
      t.profile.name = "vendor";
      t.profile.regs_per_thread = 70;
      t.profile.binary_kib = 9.0;
      t.profile.compute_efficiency = 0.97;
      break;
  }
  return t;
}

simt::KernelCost cost_for(const SimulationData& d, const VersionTraits& t) {
  simt::KernelCost c = base_cost(d);
  if (t.spill_in_registers) c.local_spill_bytes_per_thread = 0.0;
  return c;
}

struct DeviceData {
  const Pole* poles;
  const Window* windows;
  const double* k0rs;
  const int* num_nucs;
  const int* mats;
  const double* concs;
};

constexpr int kBlock = 128;

/// XOR-accumulate a lookup's hash contribution (order independent).
/// One atomicXor, not a CAS retry loop: the engine counts every atomic
/// it executes, so retries would make the modeled time follow how host
/// threads interleave.
void xor_into(std::uint64_t* hash, std::uint64_t contrib) {
  simt::atomic_xor(hash, contrib);
}

std::uint64_t run_kl(const SimulationData& d, simt::Device& dev, Version v) {
  using namespace kl;
  use_kl_device(dev);
  const VersionTraits t = traits_for(v, dev);

  Pole* poles = nullptr;
  Window* windows = nullptr;
  double *k0rs = nullptr, *concs = nullptr;
  int *num_nucs = nullptr, *mats = nullptr;
  std::uint64_t* hash = nullptr;
  check(klMalloc(&poles, d.poles.size() * sizeof(Pole)), "klMalloc poles");
  check(klMalloc(&windows, d.windows.size() * sizeof(Window)),
        "klMalloc windows");
  check(klMalloc(&k0rs, d.pseudo_k0rs.size() * sizeof(double)),
        "klMalloc k0rs");
  check(klMalloc(&num_nucs, d.num_nucs.size() * sizeof(int)),
        "klMalloc num_nucs");
  check(klMalloc(&mats, d.mats.size() * sizeof(int)), "klMalloc mats");
  check(klMalloc(&concs, d.concs.size() * sizeof(double)), "klMalloc concs");
  check(klMalloc(&hash, sizeof(std::uint64_t)), "klMalloc hash");
  check(klMemcpy(poles, d.poles.data(), d.poles.size() * sizeof(Pole),
           klMemcpyHostToDevice),
        "klMemcpy poles");
  check(klMemcpy(windows, d.windows.data(), d.windows.size() * sizeof(Window),
           klMemcpyHostToDevice),
        "klMemcpy windows");
  check(klMemcpy(k0rs, d.pseudo_k0rs.data(),
                 d.pseudo_k0rs.size() * sizeof(double), klMemcpyHostToDevice),
        "klMemcpy k0rs");
  check(klMemcpy(num_nucs, d.num_nucs.data(), d.num_nucs.size() * sizeof(int),
           klMemcpyHostToDevice),
        "klMemcpy num_nucs");
  check(klMemcpy(mats, d.mats.data(), d.mats.size() * sizeof(int),
           klMemcpyHostToDevice),
        "klMemcpy mats");
  check(klMemcpy(concs, d.concs.data(), d.concs.size() * sizeof(double),
           klMemcpyHostToDevice),
        "klMemcpy concs");
  check(klMemset(hash, 0, sizeof(std::uint64_t)), "klMemset hash");

  const Options opt = d.opt;
  const std::int64_t n = opt.lookups;
  KernelAttrs attrs;
  attrs.name = "rsbench_event";
  attrs.mode = simt::ExecMode::kDirect;
  attrs.profile = t.profile;
  attrs.cost = cost_for(d, t);
  const DeviceData dd{poles, windows, k0rs, num_nucs, mats, concs};
  check(
      launch({static_cast<unsigned>(simt::ceil_div(n, kBlock))}, {kBlock}, 0,
         nullptr, attrs, [=] {
           const std::int64_t i =
               static_cast<std::int64_t>(global_thread_id_x());
           if (i >= n) return;
           std::complex<double> scratch[4];  // spills to local memory
           const int arg = lookup_one(static_cast<std::uint64_t>(i), dd.poles,
                                      dd.windows, dd.k0rs, dd.num_nucs,
                                      dd.mats, dd.concs, opt, scratch);
           xor_into(hash, mix64(static_cast<std::uint64_t>(i) ^
                                (static_cast<std::uint64_t>(arg) + 1)));
         }),
      "rsbench_event launch");
  check(klDeviceSynchronize(), "klDeviceSynchronize");
  std::uint64_t h = 0;
  check(klMemcpy(&h, hash, sizeof(h), klMemcpyDeviceToHost), "klMemcpy D2H");
  for (void* p :
       {static_cast<void*>(poles), static_cast<void*>(windows),
        static_cast<void*>(k0rs), static_cast<void*>(num_nucs),
        static_cast<void*>(mats), static_cast<void*>(concs),
        static_cast<void*>(hash)})
    check(klFree(p), "klFree");
  return h;
}

std::uint64_t run_ompx(const SimulationData& d, simt::Device& dev) {
  ompx::set_default_device(dev);
  const VersionTraits t = traits_for(Version::kOmpx, dev);
  auto* poles = ompx::malloc_n<Pole>(d.poles.size());
  auto* windows = ompx::malloc_n<Window>(d.windows.size());
  auto* k0rs = ompx::malloc_n<double>(d.pseudo_k0rs.size());
  auto* num_nucs = ompx::malloc_n<int>(d.num_nucs.size());
  auto* mats = ompx::malloc_n<int>(d.mats.size());
  auto* concs = ompx::malloc_n<double>(d.concs.size());
  auto* hash = ompx::malloc_n<std::uint64_t>(1);
  OMPX_REQUIRE(ompx_memcpy(poles, d.poles.data(), d.poles.size() * sizeof(Pole)));
  OMPX_REQUIRE(ompx_memcpy(windows, d.windows.data(), d.windows.size() * sizeof(Window)));
  OMPX_REQUIRE(ompx_memcpy(k0rs, d.pseudo_k0rs.data(),
              d.pseudo_k0rs.size() * sizeof(double)));
  OMPX_REQUIRE(ompx_memcpy(num_nucs, d.num_nucs.data(), d.num_nucs.size() * sizeof(int)));
  OMPX_REQUIRE(ompx_memcpy(mats, d.mats.data(), d.mats.size() * sizeof(int)));
  OMPX_REQUIRE(ompx_memcpy(concs, d.concs.data(), d.concs.size() * sizeof(double)));
  OMPX_REQUIRE(ompx_memset(hash, 0, sizeof(std::uint64_t)));

  const Options opt = d.opt;
  const std::int64_t n = opt.lookups;
  ompx::LaunchSpec spec;
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(n, kBlock))};
  spec.thread_limit = {kBlock};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "rsbench_event";
  spec.profile = t.profile;
  spec.cost = cost_for(d, t);
  spec.device = &dev;
  const DeviceData dd{poles, windows, k0rs, num_nucs, mats, concs};
  ompx::launch(spec, [=] {
    const std::int64_t i = ompx::global_thread_id();
    if (i >= n) return;
    std::complex<double> scratch[4];  // stays in registers (ompx codegen)
    const int arg =
        lookup_one(static_cast<std::uint64_t>(i), dd.poles, dd.windows,
                   dd.k0rs, dd.num_nucs, dd.mats, dd.concs, opt, scratch);
    xor_into(hash, mix64(static_cast<std::uint64_t>(i) ^
                         (static_cast<std::uint64_t>(arg) + 1)));
  }).wait();
  const std::uint64_t h = *hash;
  for (void* p :
       {static_cast<void*>(poles), static_cast<void*>(windows),
        static_cast<void*>(k0rs), static_cast<void*>(num_nucs),
        static_cast<void*>(mats), static_cast<void*>(concs),
        static_cast<void*>(hash)})
    ompx::free_on(dev, p);
  return h;
}

std::uint64_t run_omp(const SimulationData& d, simt::Device& dev) {
  const VersionTraits t = traits_for(Version::kOmp, dev);
  std::uint64_t h = 0;
  omp::TargetClauses c;
  c.device = &dev;
  c.thread_limit = kBlock;
  c.name = "rsbench_event_omp";
  c.profile = t.profile;
  c.cost = cost_for(d, t);
  c.spill_in_shared = t.heap_to_shared;  // §4.2.2 heap-to-shared opt
  c.maps = {
      omp::map_to(d.poles.data(), d.poles.size() * sizeof(Pole)),
      omp::map_to(d.windows.data(), d.windows.size() * sizeof(Window)),
      omp::map_to(d.pseudo_k0rs.data(), d.pseudo_k0rs.size() * sizeof(double)),
      omp::map_to(d.num_nucs.data(), d.num_nucs.size() * sizeof(int)),
      omp::map_to(d.mats.data(), d.mats.size() * sizeof(int)),
      omp::map_to(d.concs.data(), d.concs.size() * sizeof(double)),
      omp::map_tofrom(&h, sizeof(h)),
  };
  const Options opt = d.opt;
  omp::target_teams_distribute_parallel_for(c, opt.lookups,
                                            [&](omp::DeviceEnv& env) {
    const DeviceData dd{
        env.translate(d.poles.data()),    env.translate(d.windows.data()),
        env.translate(d.pseudo_k0rs.data()), env.translate(d.num_nucs.data()),
        env.translate(d.mats.data()),     env.translate(d.concs.data())};
    std::uint64_t* hash = env.translate(&h);
    return [=](std::int64_t i) {
      std::complex<double> scratch[4];  // globalized -> shared by the rt
      const int arg =
          lookup_one(static_cast<std::uint64_t>(i), dd.poles, dd.windows,
                     dd.k0rs, dd.num_nucs, dd.mats, dd.concs, opt, scratch);
      xor_into(hash, mix64(static_cast<std::uint64_t>(i) ^
                           (static_cast<std::uint64_t>(arg) + 1)));
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
  r.app = "RSBench";
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
  return r;
}

}  // namespace apps::rsbench

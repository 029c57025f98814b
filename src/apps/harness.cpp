#include "apps/harness.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "apps/adam/adam.h"
#include "apps/aidw/aidw.h"
#include "apps/rsbench/rsbench.h"
#include "apps/stencil1d/stencil1d.h"
#include "apps/su3/su3.h"
#include "apps/xsbench/xsbench.h"
#include "kl/kl.h"

namespace apps {

const char* version_name(Version v) {
  switch (v) {
    case Version::kOmpx: return "ompx";
    case Version::kOmp: return "omp";
    case Version::kNative: return "native";
    case Version::kNativeVendor: return "native-vendor";
  }
  return "?";
}

std::string bar_label(Version v, const simt::Device& dev) {
  const bool nv = dev.config().vendor == simt::Vendor::kNvidia;
  switch (v) {
    case Version::kOmpx: return "ompx";
    case Version::kOmp: return "omp";
    case Version::kNative: return nv ? "cuda" : "hip";
    case Version::kNativeVendor: return nv ? "cuda-nvcc" : "hip-hipcc";
  }
  return "?";
}

double modeled_kernel_ms(simt::Device& dev) {
  return dev.modeled_kernel_ms_total();
}

void use_kl_device(simt::Device& dev) {
  const auto& reg = simt::device_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    if (reg[i] != &dev) continue;
    if (kl::klSetDevice(static_cast<int>(i)) != kl::klSuccess)
      throw std::runtime_error("klSetDevice(" + std::to_string(i) +
                               ") failed");
    return;
  }
  throw std::invalid_argument(
      "device '" + dev.config().name +
      "' is not in the device registry: the CUDA/HIP versions reach "
      "devices through kl, by registry index");
}

RunResult run_cell(const AppDesc& app, Version v, simt::Device& dev) {
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r = app.run(v, dev);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.version = bar_label(v, dev);
  r.device = dev.config().name;
  return r;
}

const std::vector<AppDesc>& registry() {
  static const std::vector<AppDesc> apps = {
      {"XSBench", "Monte Carlo neutron transport algorithm", "-m event",
       "nuclides=32 gridpoints=1024 lookups=50000",
       [](Version v, simt::Device& dev) { return xsbench::run(v, dev); }},
      {"RSBench", "Monte Carlo neutron transport algorithm", "-m event",
       "nuclides=32 poles=512 windows=64 lookups=20000",
       [](Version v, simt::Device& dev) { return rsbench::run(v, dev); }},
      {"SU3", "Lattice QCD SU3 matrix multiply",
       "-i 1000 -l 32 -t 128 -v 3 -w 1", "sites=32768 iterations=10 block=128",
       [](Version v, simt::Device& dev) { return su3::run(v, dev); }},
      {"AIDW", "Adaptive inverse distance weighting", "100 0 100",
       "data=4096 queries=4096 tile=256",
       [](Version v, simt::Device& dev) { return aidw::run(v, dev); }},
      {"Adam", "Adaptive moment estimation", "10000 200 100",
       "n=10000 steps=50",
       [](Version v, simt::Device& dev) { return adam::run(v, dev); }},
      {"Stencil 1D", "1D version of stencil computation", "134217728 1000",
       "n=2^20 radius=7 iterations=8",
       [](Version v, simt::Device& dev) { return stencil1d::run(v, dev); }},
  };
  return apps;
}

}  // namespace apps

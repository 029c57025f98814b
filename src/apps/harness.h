// Shared benchmark-application harness.
//
// Every HeCBench port in apps/ exposes the same surface: a set of
// program versions (the paper's four bars), a deterministic workload,
// kernel-time measurement via the engine's launch log, and the
// benchmark's own verification. The harness runs a (version, device)
// pair and returns the row a figure printer consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simt/simt.h"

namespace apps {

/// The paper's four program versions (Figure 8's four bars).
enum class Version {
  kOmpx,          ///< OpenMP kernel language (this work)
  kOmp,           ///< classic OpenMP target offloading
  kNative,        ///< CUDA/HIP compiled with LLVM/Clang
  kNativeVendor,  ///< CUDA/HIP compiled with nvcc/hipcc
};

const char* version_name(Version v);
/// The per-device bar label the paper uses ("cuda" vs "hip", ...).
std::string bar_label(Version v, const simt::Device& dev);

/// One benchmark run's outcome.
struct RunResult {
  std::string app;
  std::string version;   ///< bar label
  std::string device;
  double kernel_ms = 0.0;     ///< modeled device time the app reports
  double wall_ms = 0.0;       ///< host wall time of the simulation
  std::uint64_t checksum = 0; ///< the benchmark's verification value
  bool valid = false;         ///< checksum matched the reference
  std::string note;
};

/// An application registered with the harness.
struct AppDesc {
  std::string name;
  std::string description;    ///< Fig. 6 row
  std::string paper_cli;      ///< Fig. 6 command line
  std::string scaled_params;  ///< what this reproduction runs
  /// Runs one version on one device and fills kernel_ms/checksum.
  std::function<RunResult(Version, simt::Device&)> run;
};

/// Registry of the six ported benchmarks (order matches Fig. 6/8).
const std::vector<AppDesc>& registry();

/// Executes one (app, version, device) cell with log bookkeeping and
/// wall-time measurement around the app's own run function.
RunResult run_cell(const AppDesc& app, Version v, simt::Device& dev);

/// Makes `dev` the calling thread's kl device, for the CUDA/HIP
/// versions: kl addresses devices by registry index, so `dev` must be
/// one of simt::device_registry()'s. Throws std::invalid_argument when
/// it is not, rather than running the cell on another device.
void use_kl_device(simt::Device& dev);

/// Utility: sum of modeled kernel time currently in the device log.
double modeled_kernel_ms(simt::Device& dev);

/// An app's host reference value for `opt`: `compute()` runs on the
/// first call with an equal `opt` (the full Options value is the key)
/// and its result is reused for the rest of the process. Every cell
/// still checks its own device result against it; the memo only spares
/// recomputing the same host reference cell after cell. The lock is
/// held across compute() so each reference is computed exactly once.
template <typename Options, typename Compute>
std::uint64_t memo_reference(const Options& opt, Compute&& compute) {
  static std::mutex mu;
  static std::vector<std::pair<Options, std::uint64_t>> memo;
  std::lock_guard lock(mu);
  for (const auto& [key, ref] : memo)
    if (key == opt) return ref;
  const std::uint64_t ref = compute();
  memo.emplace_back(opt, ref);
  return ref;
}

/// Deterministic 64-bit mix (splitmix64) used by app RNGs and hashes.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0,1) from a seed (deterministic across versions).
constexpr double uniform01(std::uint64_t seed) {
  return static_cast<double>(mix64(seed) >> 11) * 0x1.0p-53;
}

}  // namespace apps

// XSBench (Tramm et al., PHYSOR'14): the OpenMC proxy computing
// continuous-energy macroscopic neutron cross-section lookups. The
// paper runs the event-based variant (`-m event`): one independent
// lookup per GPU thread, dominated by random gather loads over the
// nuclide grids — the memory-intensive end of the pair of OpenMC
// proxies (RSBench is the compute-bound one).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::xsbench {

struct Options {
  int n_nuclides = 32;       ///< nuclides in the problem
  int n_gridpoints = 1024;   ///< energy gridpoints per nuclide
  int n_mats = 12;           ///< materials
  int max_nucs_per_mat = 12; ///< densest material size
  std::int64_t lookups = 50000;  ///< events (paper CLI: -m event)
  /// Launch mode of the ompx version's event kernel. Direct by default
  /// (sync-free, one plain call per thread); tests flip it to
  /// cooperative to prove the analyzer's convergent verdict routes the
  /// kernel back to direct.
  simt::ExecMode mode = simt::ExecMode::kDirect;

  bool operator==(const Options&) const = default;
};

/// Flattened simulation data (SoA, as XSBench lays it out).
struct SimulationData {
  Options opt;
  std::vector<double> energy;   ///< [nuc][gp] ascending per nuclide
  std::vector<double> xs;       ///< [nuc][gp][5] micro cross sections
  std::vector<int> num_nucs;    ///< [mat]
  std::vector<int> mats;        ///< [mat][max_nucs] nuclide ids
  std::vector<double> concs;    ///< [mat][max_nucs] concentrations
};

/// Deterministic problem construction (same data for every version).
SimulationData make_data(const Options& opt);

/// One macroscopic XS lookup: samples (mat, energy) from `seed`,
/// accumulates the 5 macroscopic cross sections over the material's
/// nuclides (binary search + linear interpolation per nuclide), and
/// returns the index of the largest one — XSBench's verification value.
/// Pure function shared by the device kernels and the host reference.
int lookup_one(std::uint64_t seed, const double* energy, const double* xs,
               const int* num_nucs, const int* mats, const double* concs,
               int n_gridpoints, int max_nucs, int n_mats);

/// The benchmark's verification hash over all lookups, host-computed
/// with the canonical (loop-index) seeding.
std::uint64_t reference_hash(const SimulationData& data);

/// Runs one version on one device (the Figure 8a/8g cell).
RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::xsbench

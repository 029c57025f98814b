// Stencil-1D: the classic shared-memory 1-D stencil from the CUDA
// tutorials (paper §4.2.6): each block stages a tile plus halo in
// shared memory, synchronizes, and sums a (2*RADIUS+1)-point window.
// The omp version cannot avoid the generic-mode state machine and is
// dramatically slower. Paper CLI: `134217728 1000` (scaled here).
// The ompx and kl kernels have exactly one barrier, so they launch in
// ExecMode::kDirect: the engine runs a block's lanes nested through
// that barrier instead of on fibers (see simt/block.h).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::stencil1d {

inline constexpr int kRadius = 7;
inline constexpr int kBlock = 256;

struct Options {
  std::int64_t n = 1 << 20;  ///< elements (paper: 2^27, scaled)
  int iterations = 8;        ///< repetitions (paper: 1000, scaled)
  /// Launch mode of the ompx and kl kernels. Direct by default (one
  /// barrier, lanes nested through it); tests flip it to cooperative
  /// to run the same kernels on fibers.
  simt::ExecMode mode = simt::ExecMode::kDirect;

  bool operator==(const Options&) const = default;
};

struct SimulationData {
  Options opt;
  std::vector<int> input;  ///< n + 2*kRadius with halo padding
};

SimulationData make_data(const Options& opt);

std::uint64_t reference_checksum(const SimulationData& d);
std::uint64_t checksum_of(const std::vector<int>& out);

RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::stencil1d

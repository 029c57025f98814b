// AIDW (Mei et al., arXiv:1601.05904): adaptive inverse distance
// weighting interpolation. Each GPU thread interpolates one query
// point over all data points; the block stages data-point tiles in
// shared memory (the pattern whose shared-variable demotion the paper
// discusses in §4.2.4). Paper CLI: `100 0 100`.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::aidw {

struct Options {
  int n_data = 4096;     ///< scattered data points
  int n_query = 4096;    ///< interpolated points
  int tile = 256;        ///< shared-memory tile = block size

  bool operator==(const Options&) const = default;
};

struct SimulationData {
  Options opt;
  std::vector<float> dx, dy, dz;  ///< data points + values
  std::vector<float> qx, qy;      ///< query points
  float avg_spacing = 0.0f;       ///< for the adaptive power parameter
};

SimulationData make_data(const Options& opt);

/// The adaptive power parameter: AIDW picks the IDW exponent from the
/// local density (here the normalized distance to the nearest staged
/// neighbour against the expected spacing).
float adaptive_alpha(float nearest_d2, float avg_spacing);

/// Host reference interpolation of one query point.
float interpolate_one_host(const SimulationData& d, int q);

/// Quantized sum of all interpolated values (the verification value).
std::uint64_t reference_checksum(const SimulationData& d);
std::uint64_t checksum_of(const std::vector<float>& out);

RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::aidw

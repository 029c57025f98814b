// SU3 (MILC lattice-QCD kernel, DeTar et al.): per lattice site,
// multiply the site's four SU(3) link matrices (3x3 complex) by four
// constant gauge matrices. The paper runs the HeCBench su3_bench port
// with `-i 1000 -l 32 -t 128 -v 3 -w 1` (paper §4.2.3).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::su3 {

using cmplx = std::complex<float>;

/// A 3x3 complex matrix (MILC su3_matrix).
struct Matrix {
  cmplx e[3][3];
};

struct Options {
  int lattice_sites = 32768;  ///< paper: 32^4 = 1,048,576 (scaled)
  int iterations = 10;        ///< paper: 1000 (scaled)
  int threads_per_block = 128;  ///< the -t 128 CLI argument

  bool operator==(const Options&) const = default;
};

struct SimulationData {
  Options opt;
  std::vector<Matrix> a;  ///< [sites][4] link matrices
  std::vector<Matrix> b;  ///< [4] constant gauge matrices
};

SimulationData make_data(const Options& opt);

/// c = a * b for 3x3 complex matrices (the MILC mult_su3_nn kernel).
inline Matrix mult_su3_nn(const Matrix& a, const Matrix& b) {
  Matrix c;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      cmplx s{0.0f, 0.0f};
      for (int k = 0; k < 3; ++k) s += a.e[i][k] * b.e[k][j];
      c.e[i][j] = s;
    }
  return c;
}

/// The benchmark's verification value: quantized sum of all result
/// elements' real and imaginary parts after `iterations` sweeps.
std::uint64_t reference_checksum(const SimulationData& d);
std::uint64_t checksum_of(const std::vector<Matrix>& c);

RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::su3

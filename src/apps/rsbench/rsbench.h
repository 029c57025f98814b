// RSBench (Tramm et al., EASC'14): the multipole-representation OpenMC
// proxy. Computes the same macroscopic cross-section lookups as
// XSBench but from windowed multipole data — heavy complex arithmetic
// per pole instead of large table gathers, i.e. the compute-bound
// sibling (paper §4.2.2). Event-based variant (`-m event`).
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::rsbench {

struct Options {
  int n_nuclides = 32;
  int n_poles = 512;     ///< poles per nuclide
  int n_windows = 64;    ///< windows per nuclide (8 poles per window)
  int n_mats = 12;
  int max_nucs_per_mat = 12;
  std::int64_t lookups = 20000;

  bool operator==(const Options&) const = default;
};

/// One windowed-multipole pole (the RSBench Pole struct).
struct Pole {
  std::complex<double> mp_ea;  ///< pole energy
  std::complex<double> mp_rt;  ///< total residue
  std::complex<double> mp_ra;  ///< absorption residue
  std::complex<double> mp_rf;  ///< fission residue
  short l_value;               ///< angular momentum index (0..3)
};

/// Per-window curve-fit background (RSBench Window struct).
struct Window {
  double t_fit, a_fit, f_fit;
  int start, end;  ///< pole index range
};

struct SimulationData {
  Options opt;
  std::vector<Pole> poles;      ///< [nuc][n_poles]
  std::vector<Window> windows;  ///< [nuc][n_windows]
  std::vector<double> pseudo_k0rs;  ///< [nuc][4] channel radii
  std::vector<int> num_nucs;    ///< [mat]
  std::vector<int> mats;        ///< [mat][max_nucs]
  std::vector<double> concs;    ///< [mat][max_nucs]
};

SimulationData make_data(const Options& opt);

/// One lookup: samples (mat, E), evaluates the windowed multipole
/// cross sections (sigT/sigA/sigF/sigE) over the material, returns the
/// argmax channel — the verification value. `sig_t_factors` is the
/// per-thread scratch of 4 complex values RSBench recomputes per
/// nuclide; callers pass their own storage so each program version can
/// place it where its compiler would (registers / local / shared).
int lookup_one(std::uint64_t seed, const Pole* poles, const Window* windows,
               const double* pseudo_k0rs, const int* num_nucs, const int* mats,
               const double* concs, const Options& opt,
               std::complex<double>* sig_t_factors);

std::uint64_t reference_hash(const SimulationData& d);

RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::rsbench

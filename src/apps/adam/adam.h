// Adam (Kingma & Ba, ICLR'15): the adaptive-moment-estimation
// optimizer update, the HeCBench `adam` kernel — one fused elementwise
// update of (param, m, v) from gradients, launched once per timestep.
// Small n makes it latency-bound, which is why the LLVM 32-thread
// launch issue costs the omp version 8x (paper §4.2.5).
// Paper CLI: `10000 200 100`.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"

namespace apps::adam {

struct Options {
  int n = 10000;        ///< parameters (paper CLI arg 1)
  int steps = 50;       ///< timesteps (paper: 200, scaled)
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;

  bool operator==(const Options&) const = default;
};

struct SimulationData {
  Options opt;
  std::vector<float> params0;  ///< initial parameters
  std::vector<float> grads;    ///< per-step synthetic gradient basis
};

SimulationData make_data(const Options& opt);

/// One fused Adam update for element i at timestep t (1-based),
/// identical across host reference and every device version.
void adam_update(int i, int t, const Options& o, const float* g, float* p,
                 float* m, float* v);

/// Host reference: full optimization, returns quantized parameter sum.
std::uint64_t reference_checksum(const SimulationData& d);
std::uint64_t checksum_of(const std::vector<float>& params);

RunResult run(Version v, simt::Device& dev, const Options& opt = {});

}  // namespace apps::adam

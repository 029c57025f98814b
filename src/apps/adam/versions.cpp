// Adam data construction and the four program versions (Figure 8e/8k).
#include <cmath>

#include "apps/adam/adam.h"
#include "core/ompx.h"
#include "kl/kl.h"

namespace apps::adam {

SimulationData make_data(const Options& opt) {
  SimulationData d;
  d.opt = opt;
  d.params0.resize(opt.n);
  d.grads.resize(opt.n);
  for (int i = 0; i < opt.n; ++i) {
    d.params0[i] = static_cast<float>(uniform01(mix64(i)) - 0.5);
    d.grads[i] = static_cast<float>(uniform01(mix64(i ^ 0x6ead)) - 0.5);
  }
  return d;
}

void adam_update(int i, int t, const Options& o, const float* g, float* p,
                 float* m, float* v) {
  // Synthetic per-step gradient: the stored basis modulated by step.
  const float grad = g[i] * (1.0f + 0.01f * static_cast<float>(t % 7));
  m[i] = o.beta1 * m[i] + (1.0f - o.beta1) * grad;
  v[i] = o.beta2 * v[i] + (1.0f - o.beta2) * grad * grad;
  const float mhat = m[i] / (1.0f - std::pow(o.beta1, static_cast<float>(t)));
  const float vhat = v[i] / (1.0f - std::pow(o.beta2, static_cast<float>(t)));
  p[i] -= o.lr * mhat / (std::sqrt(vhat) + o.eps);
}

std::uint64_t checksum_of(const std::vector<float>& params) {
  double sum = 0.0;
  for (float p : params) sum += p;
  return static_cast<std::uint64_t>(std::llround(sum * 1e4));
}

std::uint64_t reference_checksum(const SimulationData& d) {
  std::vector<float> p = d.params0;
  std::vector<float> m(d.opt.n, 0.0f), v(d.opt.n, 0.0f);
  for (int t = 1; t <= d.opt.steps; ++t)
    for (int i = 0; i < d.opt.n; ++i)
      adam_update(i, t, d.opt, d.grads.data(), p.data(), m.data(), v.data());
  return checksum_of(p);
}

namespace {

constexpr int kBlock = 256;

/// Roofline: 7 fp32 array accesses and ~20 fp32 ops per element per
/// step (pow/sqrt expanded). n = 10k means ~40 blocks: far below the
/// latency-hiding knee, so launch latency and concurrency dominate —
/// the regime the paper's 8x omp finding lives in.
simt::KernelCost adam_cost() {
  simt::KernelCost c;
  c.flops_per_thread = 20.0;
  c.global_bytes_per_thread = 7.0 * 4.0;
  return c;
}

simt::CompilerProfile profile_for(Version v, const simt::Device& dev) {
  const bool nv = dev.config().vendor == simt::Vendor::kNvidia;
  simt::CompilerProfile p;
  switch (v) {
    case Version::kOmpx:
      p.name = "ompx-proto";
      p.regs_per_thread = 32;
      p.binary_kib = 9.0;
      break;
    case Version::kOmp:
      p.name = "llvm-clang-omp";
      p.regs_per_thread = 40;
      p.binary_kib = 14.0;
      break;
    case Version::kNative:
      // §4.2.5/8k: on sim-mi250 the hip builds trail ompx by ~16.6%
      // (worse load/store selection on this latency-bound kernel);
      // on sim-a100 ompx matches cuda. Calibrated stand-in.
      p.name = "llvm-clang";
      p.regs_per_thread = 32;
      p.binary_kib = 8.0;
      p.mem_efficiency = nv ? 1.0 : 0.86;
      break;
    case Version::kNativeVendor:
      p.name = "vendor";
      p.regs_per_thread = 30;
      p.binary_kib = 7.5;
      p.mem_efficiency = nv ? 0.98 : 0.85;
      break;
  }
  return p;
}

std::uint64_t run_kl(const SimulationData& d, simt::Device& dev, Version v) {
  using namespace kl;
  use_kl_device(dev);
  const Options o = d.opt;
  float *p = nullptr, *m = nullptr, *vv = nullptr, *g = nullptr;
  check(klMalloc(&p, o.n * sizeof(float)), "klMalloc p");
  check(klMalloc(&m, o.n * sizeof(float)), "klMalloc m");
  check(klMalloc(&vv, o.n * sizeof(float)), "klMalloc v");
  check(klMalloc(&g, o.n * sizeof(float)), "klMalloc g");
  check(klMemcpy(p, d.params0.data(), o.n * sizeof(float),
                 klMemcpyHostToDevice),
        "klMemcpy p");
  check(klMemcpy(g, d.grads.data(), o.n * sizeof(float), klMemcpyHostToDevice),
        "klMemcpy g");
  check(klMemset(m, 0, o.n * sizeof(float)), "klMemset m");
  check(klMemset(vv, 0, o.n * sizeof(float)), "klMemset v");

  KernelAttrs attrs;
  attrs.name = "adam_step";
  attrs.mode = simt::ExecMode::kDirect;
  attrs.profile = profile_for(v, dev);
  attrs.cost = adam_cost();
  const int n = o.n;
  for (int t = 1; t <= o.steps; ++t) {
    check(
        launch({static_cast<unsigned>(simt::ceil_div(n, kBlock))}, {kBlock}, 0,
           nullptr, attrs, [=] {
             const int i = static_cast<int>(global_thread_id_x());
             if (i < n) adam_update(i, t, o, g, p, m, vv);
           }),
        "adam_step launch");
  }
  check(klDeviceSynchronize(), "klDeviceSynchronize");
  std::vector<float> result(o.n);
  check(klMemcpy(result.data(), p, o.n * sizeof(float), klMemcpyDeviceToHost),
        "klMemcpy D2H");
  for (void* q : {static_cast<void*>(p), static_cast<void*>(m),
                  static_cast<void*>(vv), static_cast<void*>(g)})
    check(klFree(q), "klFree");
  return checksum_of(result);
}

std::uint64_t run_ompx(const SimulationData& d, simt::Device& dev) {
  ompx::set_default_device(dev);
  const Options o = d.opt;
  auto* p = ompx::malloc_n<float>(o.n);
  auto* m = ompx::malloc_n<float>(o.n);
  auto* vv = ompx::malloc_n<float>(o.n);
  auto* g = ompx::malloc_n<float>(o.n);
  OMPX_REQUIRE(ompx_memcpy(p, d.params0.data(), o.n * sizeof(float)));
  OMPX_REQUIRE(ompx_memcpy(g, d.grads.data(), o.n * sizeof(float)));
  OMPX_REQUIRE(ompx_memset(m, 0, o.n * sizeof(float)));
  OMPX_REQUIRE(ompx_memset(vv, 0, o.n * sizeof(float)));

  ompx::LaunchSpec spec;
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(o.n, kBlock))};
  spec.thread_limit = {kBlock};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = "adam_step";
  spec.profile = profile_for(Version::kOmpx, dev);
  spec.cost = adam_cost();
  spec.device = &dev;
  const int n = o.n;
  for (int t = 1; t <= o.steps; ++t) {
    ompx::launch(spec, [=] {
      const int i = static_cast<int>(ompx::global_thread_id());
      if (i < n) adam_update(i, t, o, g, p, m, vv);
    });
  }
  std::vector<float> result(o.n);
  OMPX_REQUIRE(ompx_memcpy(result.data(), p, o.n * sizeof(float)));
  for (void* q : {static_cast<void*>(p), static_cast<void*>(m),
                  static_cast<void*>(vv), static_cast<void*>(g)})
    ompx::free_on(dev, q);
  return checksum_of(result);
}

std::uint64_t run_omp(const SimulationData& d, simt::Device& dev) {
  // The classic port. Its `parallel for` thread requirement cannot be
  // proven by the runtime, which falls back to 32 threads per team
  // while the team count stays sized for 256 — the LLVM issue behind
  // the paper's 8x slowdown (§4.2.5). Results stay correct.
  const Options o = d.opt;
  std::vector<float> p = d.params0;
  std::vector<float> m(o.n, 0.0f), vv(o.n, 0.0f);
  omp::TargetData data(
      dev, {omp::map_tofrom(p.data(), o.n * sizeof(float)),
            omp::map_tofrom(m.data(), o.n * sizeof(float)),
            omp::map_tofrom(vv.data(), o.n * sizeof(float)),
            omp::map_to(d.grads.data(), o.n * sizeof(float))});
  omp::TargetClauses c;
  c.device = &dev;
  c.num_teams = static_cast<int>(simt::ceil_div(o.n, kBlock));
  c.thread_limit = kBlock;
  c.thread_limit_bug_32 = true;  // the reproduced LLVM issue
  c.name = "adam_step_omp";
  c.profile = profile_for(Version::kOmp, dev);
  // Same per-element work, but each of the 32 threads covers 8
  // elements serially: per-thread cost scales by 256/32.
  c.cost = adam_cost();
  c.cost.flops_per_thread *= kBlock / 32.0;
  c.cost.global_bytes_per_thread *= kBlock / 32.0;
  for (int t = 1; t <= o.steps; ++t) {
    omp::target_teams_distribute_parallel_for(c, o.n, [&](omp::DeviceEnv& env) {
      const float* g = env.translate(d.grads.data());
      float* dp = env.translate(p.data());
      float* dm = env.translate(m.data());
      float* dv = env.translate(vv.data());
      return [=](std::int64_t i) {
        adam_update(static_cast<int>(i), t, o, g, dp, dm, dv);
      };
    });
  }
  omp::target_update_from(dev, p.data(), o.n * sizeof(float));
  return checksum_of(p);
}

}  // namespace

RunResult run(Version v, simt::Device& dev, const Options& opt) {
  const SimulationData d = make_data(opt);
  const std::uint64_t ref =
      memo_reference(opt, [&] { return reference_checksum(d); });
  dev.clear_launch_log();
  RunResult r;
  r.app = "Adam";
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

}  // namespace apps::adam

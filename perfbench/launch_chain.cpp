// launch_chain: one host thread issues Adam/Stencil-shaped timesteps
// through ompx::launch on the default stream, with one ticket wait per
// timestep. Each timestep is 16 tiny sync-free kernels alternating a
// 1x64 elementwise update and a 16x64 radius-1 stencil, hinted
// convergent, so per-thread work is near zero and the fixed cost of
// engine + stream + ompx dominates. After every timestep the host
// replays the same arithmetic and compares both buffers.
//
// Every launch adds one record to the device launch log. The log is
// cleared every kLogWindow timesteps (the warm-up is exactly one
// window), so peak RSS shows one full window of records and does not
// depend on how many timesteps a run managed.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/ompx.h"
#include "perfbench.h"
#include "simt/simt.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kBlock = 64;
constexpr std::uint32_t kWideBlocks = 16;
constexpr std::size_t kElems = std::size_t{kWideBlocks} * kBlock;
constexpr int kKernelsPerStep = 16;
constexpr std::uint64_t kLogWindow = 2048;  // timesteps (32768 records)
constexpr std::uint64_t kMul = 6364136223846793005ull;
/// Simulated threads per timestep: 8 kernels of 1x64, 8 of 16x64.
constexpr std::uint64_t kThreadsPerStep =
    kKernelsPerStep / 2 * (kBlock + kElems);

/// Kernel k of timestep t. Even k: x[i] = x[i]*kMul + y[i] + (16t+k) ^
/// salt over the first 64 elements (one block). Odd k: y[i] = x[i-1] +
/// 2x[i] + x[i+1] + salt over all 1024 (clamped at the ends).
void step_element(std::uint64_t* x, std::uint64_t* y, std::uint64_t t, int k,
                  std::uint64_t salt, std::size_t i) {
  if (k % 2 == 0) {
    x[i] = x[i] * kMul + y[i] +
           ((t * kKernelsPerStep + static_cast<std::uint64_t>(k)) ^ salt);
  } else {
    const std::size_t lo = i == 0 ? 0 : i - 1;
    const std::size_t hi = i + 1 == kElems ? i : i + 1;
    y[i] = x[lo] + 2 * x[i] + x[hi] + salt;
  }
}

/// One device plus its buffers and the host's reference copy of them.
struct Chain {
  std::unique_ptr<simt::Device> dev;
  std::uint64_t* dx = nullptr;
  std::uint64_t* dy = nullptr;
  std::vector<std::uint64_t> hx, hy;
  std::uint64_t salt = 0;
  std::uint64_t t = 0;

  explicit Chain(std::uint64_t seed)
      : dev(std::make_unique<simt::Device>(simt::make_sim_a100_config())),
        hx(kElems),
        hy(kElems) {
    Rng rng{seed};
    for (std::size_t i = 0; i < kElems; ++i) {
      hx[i] = rng.next();
      hy[i] = rng.next();
    }
    salt = rng.next();
    dx = static_cast<std::uint64_t*>(ompx::malloc_on(*dev, kElems * 8));
    dy = static_cast<std::uint64_t*>(ompx::malloc_on(*dev, kElems * 8));
    ompx::memcpy_on(*dev, dx, hx.data(), kElems * 8);
    ompx::memcpy_on(*dev, dy, hy.data(), kElems * 8);
  }
  ~Chain() {
    ompx::free_on(*dev, dx);
    ompx::free_on(*dev, dy);
  }
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  ompx::LaunchResult launch(int k) {
    ompx::LaunchSpec spec;
    spec.device = dev.get();
    spec.num_teams = {k % 2 == 0 ? 1u : kWideBlocks};
    spec.thread_limit = {kBlock};
    spec.name = k % 2 == 0 ? "chain_adam" : "chain_stencil";
    spec.cost.flops_per_thread = 4.0;
    spec.cost.global_bytes_per_thread = k % 2 == 0 ? 24.0 : 32.0;
    std::uint64_t* x = dx;
    std::uint64_t* y = dy;
    const std::uint64_t step = t;
    const std::uint64_t s = salt;
    return ompx::launch(spec, [x, y, step, k, s] {
      step_element(x, y, step, k, s,
                   static_cast<std::size_t>(ompx::global_thread_id()));
    });
  }

  /// Replays timestep t on the host and compares both buffers.
  bool check() {
    // Each kernel reads only x[] and y[] elements no other thread of
    // it writes, so a sequential replay is exact.
    for (int k = 0; k < kKernelsPerStep; ++k) {
      const std::size_t n = k % 2 == 0 ? kBlock : kElems;
      for (std::size_t i = 0; i < n; ++i)
        step_element(hx.data(), hy.data(), t, k, salt, i);
    }
    t++;
    return std::memcmp(hx.data(), dx, kElems * 8) == 0 &&
           std::memcmp(hy.data(), dy, kElems * 8) == 0;
  }
};

/// Runs one timestep; returns its wall ms, or a negative value when the
/// buffers disagree with the host replay.
double timestep(Chain& c, SpanLog& log, Result* counters) {
  const std::uint64_t unit = c.t + 1;
  ompx::LaunchResult results[kKernelsPerStep];
  const auto t0 = Clock::now();
  {
    Scope step(log, Layer::kBench, "timestep", unit);
    for (int k = 0; k < kKernelsPerStep; ++k) {
      Scope call(log, Layer::kOmpx, "ompx.launch", unit);
      results[k] = c.launch(k);
    }
    Scope wait(log, Layer::kOmpx, "ompx.wait", unit);
    results[kKernelsPerStep - 1].wait();
  }
  const double ms = ms_since(t0);
  if (counters != nullptr) {
    // The stream runs in order, so every earlier ticket is complete.
    for (ompx::LaunchResult& r : results) {
      if (!r.query()) throw std::logic_error("launch_chain: ticket pending");
      add_launch_stats(r.record.stats, counters->values);
      counters->values["engine.wall_ms"] += r.record.wall_ms;
    }
  }
  return c.check() ? ms : -1.0;
}

}  // namespace

Result run_launch_chain(const Options& opt) {
  Result out;
  ompx::launch_hints("chain_adam", /*convergent=*/true);
  ompx::launch_hints("chain_stencil", /*convergent=*/true);
  SpanLog untraced(false);

  // Cold set-up, repeated: a fresh device, its buffers and seeded
  // inputs, and one checked timestep. The last one is kept.
  std::unique_ptr<Chain> chain;
  for (int rep = 0; rep < kColdSetups; ++rep) {
    chain.reset();
    const double cpu0 = cpu_seconds();
    chain = std::make_unique<Chain>(opt.seed);
    const bool ok = timestep(*chain, untraced, nullptr) >= 0.0;
    out.setup_s.push_back(cpu_seconds() - cpu0);
    out.attempted++;
    if (!ok) out.failed++;
  }

  // Warm-up: fill the launch log to one window, then clear it.
  const double warm0 = cpu_seconds();
  while (chain->t < kLogWindow) {
    out.attempted++;
    if (timestep(*chain, untraced, nullptr) < 0.0) out.failed++;
  }
  if (opt.trace)
    out.values["engine.launch_log_records"] =
        static_cast<double>(chain->dev->launch_log().size());
  chain->dev->clear_launch_log();
  out.warmup_s = cpu_seconds() - warm0;

  // Measured phase. A traced run traces every other timestep and
  // counts the engine work of all of them.
  out.logs.emplace_back(opt.trace);
  SpanLog& log = out.logs.back();
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  do {
    out.attempted++;
    const bool traced = traced_op(opt.trace, chain->t);
    const double ms = timestep(*chain, traced ? log : untraced,
                               opt.trace ? &out : nullptr);
    if (ms < 0.0) {
      out.failed++;
    } else {
      out.ops++;
      out.threads += kThreadsPerStep;
    }
    const double sample = ms < 0.0 ? kFailed : ms;
    out.op_ms.push_back(sample);
    if (opt.trace)
      (traced ? out.traced_op_ms : out.untraced_op_ms).push_back(sample);
    if (chain->t % kLogWindow == 0) chain->dev->clear_launch_log();
  } while (s_since(t0) < opt.seconds);
  out.measure_cpu_s = cpu_seconds() - cpu0;
  out.measure_s = s_since(t0);

  if (opt.trace) {
    for (auto& [key, value] : out.values)
      if (key != "engine.launch_log_records")
        value /= static_cast<double>(out.ops);
    out.samples["ompx.enqueue_us"] = log.durations_us("ompx.launch");
    out.samples["ompx.wait_us"] = log.durations_us("ompx.wait");
  }
  return out;
}

}  // namespace perfbench

// Layer probe (traced runs only): the fixed cost each layer adds to one
// launch, measured from outside with an empty kernel hinted convergent.
// Each path is a public entry point, sampled as probe.<path>_us; run.py
// subtracts the median of the path below it:
//
//   engine  Device::launch_sync, 1x32
//   blocks  Device::launch_sync, 16x64            (minus engine)
//   stream  Stream::launch + synchronize, 1x32    (minus engine)
//   ompx    ompx::launch().wait(), 1x32           (minus stream)
//   kl      kl::launch + klDeviceSynchronize      (minus stream)
//   serve   ClientContext::launch, 1x32           (minus engine)
//
// Paths are interleaved call by call so host noise spreads over all of
// them. Then the cost of one simt::model_time call (the perf layer) is
// sampled as layer.model_ns, each sample the mean of kModelCalls calls.
#include <functional>
#include <iterator>
#include <stdexcept>

#include "core/ompx.h"
#include "kl/kl.h"
#include "perfbench.h"
#include "serve/serve.h"
#include "simt/simt.h"

namespace perfbench {
namespace {

constexpr const char* kKernel = "perfbench_empty";
constexpr int kWarmup = 200;
constexpr int kSamples = 2000;
constexpr int kModelCalls = 1000;

simt::LaunchParams empty_params(std::uint32_t blocks, std::uint32_t threads) {
  simt::LaunchParams p;
  p.grid = {blocks, 1, 1};
  p.block = {threads, 1, 1};
  p.name = kKernel;
  return p;
}

}  // namespace

void probe_layers(Result& out) {
  ompx::launch_hints(kKernel, /*convergent=*/true);
  simt::Device& dev = simt::sim_a100();
  if (kl::klSetDevice(0) != kl::klSuccess)
    throw std::runtime_error("layer probe: klSetDevice failed");
  serve::Server server;
  serve::ClientContext* client = server.create_client(&dev);

  const simt::LaunchParams p1 = empty_params(1, 32);
  const simt::LaunchParams p16 = empty_params(16, 64);
  const simt::KernelFn empty = [] {};
  ompx::LaunchSpec spec;
  spec.device = &dev;
  spec.num_teams = {1};
  spec.thread_limit = {32};
  spec.name = kKernel;
  kl::KernelAttrs attrs;
  attrs.name = kKernel;
  simt::LaunchStats stats;
  stats.blocks = 1;
  stats.threads = 32;
  volatile double sink = 0.0;

  struct Path {
    const char* samples;  // samples key, µs per call
    std::function<void()> fn;
  };
  const Path paths[] = {
      {"probe.engine_us", [&] { (void)dev.launch_sync(p1, empty); }},
      {"probe.blocks_us", [&] { (void)dev.launch_sync(p16, empty); }},
      {"probe.stream_us",
       [&] {
         dev.default_stream().launch(p1, empty);
         dev.default_stream().synchronize();
       }},
      {"probe.ompx_us", [&] { ompx::launch(spec, empty).wait(); }},
      {"probe.kl_us",
       [&] {
         kl::check(kl::launch(simt::Dim3{1}, simt::Dim3{32}, 0, nullptr, attrs,
                              empty),
                   "kl::launch");
         kl::check(kl::klDeviceSynchronize(), "klDeviceSynchronize");
       }},
      {"probe.serve_us", [&] { (void)client->launch(p1, empty); }},
  };

  for (int i = 0; i < kWarmup; ++i)
    for (const Path& path : paths) path.fn();
  std::vector<std::vector<double>*> dst;
  for (const Path& path : paths) {
    dst.push_back(&out.samples[path.samples]);
    dst.back()->reserve(kSamples);
  }
  for (int i = 0; i < kSamples; ++i) {
    for (std::size_t j = 0; j < std::size(paths); ++j) {
      const auto t0 = Clock::now();
      paths[j].fn();
      dst[j]->push_back(ms_since(t0) * 1e3);
    }
  }

  std::vector<double>& model_ns = out.samples["layer.model_ns"];
  for (int i = 0; i < kSamples; ++i) {
    const auto t0 = Clock::now();
    for (int c = 0; c < kModelCalls; ++c)
      sink = sink + simt::model_time(dev.config(), p1.profile, p1.cost, stats,
                                     32, 0, dev.costs())
                        .total_ms;
    model_ns.push_back(ms_since(t0) * 1e6 / kModelCalls);
  }

  server.destroy_client(client);
  dev.clear_launch_log();
}

}  // namespace perfbench

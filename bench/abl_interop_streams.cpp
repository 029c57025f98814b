// Ablation A5 — depend(interopobj:) streams (paper §3.5, Figure 5):
// independent kernel chains dispatched synchronously vs into one
// stream vs across four interop streams. The modeled device timeline
// shows the overlap asynchronous dispatch buys.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/ompx.h"
#include "fig8_common.h"

namespace {

constexpr int kChains = 4;
constexpr int kKernelsPerChain = 8;
constexpr unsigned kTeams = 64;
constexpr unsigned kThreads = 256;

ompx::LaunchSpec kernel_spec(simt::Device& dev, const char* name) {
  ompx::LaunchSpec spec;
  spec.num_teams = {kTeams};
  spec.thread_limit = {kThreads};
  spec.mode = simt::ExecMode::kDirect;
  spec.name = name;
  spec.cost.global_bytes_per_thread = 512;
  spec.device = &dev;
  return spec;
}

/// Each chain repeatedly doubles its own slice (serial within a chain,
/// independent across chains).
void chain_step(std::vector<double>& data, int chain) {
  const std::size_t per = data.size() / kChains;
  double* p = data.data() + chain * per;
  const std::int64_t n = static_cast<std::int64_t>(per);
  auto& t = simt::this_thread();
  const std::int64_t total =
      static_cast<std::int64_t>(t.grid_dim.count() * t.block_dim.count());
  for (std::int64_t i = ompx::global_thread_id(); i < n; i += total)
    p[i] *= 1.0000001;
}

double run_synchronous(simt::Device& dev, std::vector<double>& data) {
  // Synchronous target regions: each launch completes before the next
  // (waited on even under the async launch default), so the device
  // timeline is the serial sum of kernel times.
  dev.clear_launch_log();
  for (int k = 0; k < kKernelsPerChain; ++k)
    for (int chain = 0; chain < kChains; ++chain) {
      auto spec = kernel_spec(dev, "sync_chain");
      std::vector<double>* d = &data;
      ompx::launch(spec, [d, chain] { chain_step(*d, chain); }).wait();
    }
  return dev.modeled_kernel_ms_total();
}

double run_streams(simt::Device& dev, std::vector<double>& data) {
  std::vector<omp::Interop> objs;
  for (int i = 0; i < kChains; ++i)
    objs.push_back(omp::interop_init_targetsync(dev));
  for (int k = 0; k < kKernelsPerChain; ++k)
    for (int chain = 0; chain < kChains; ++chain) {
      auto spec = kernel_spec(dev, "interop_chain");
      spec.nowait = true;
      spec.depend_interop = &objs[chain];  // depend(interopobj: obj)
      std::vector<double>* d = &data;
      ompx::launch(spec, [d, chain] { chain_step(*d, chain); });
    }
  // taskwait depend(interopobj:). The interop streams are fresh, so each
  // one's timeline starts at 0 and ends where its chain does; the
  // device-wide modeled_now_ms() would read the default stream's tail.
  double elapsed = 0.0;
  for (auto& obj : objs) {
    ompx::taskwait(obj);
    elapsed = std::max(elapsed, obj.stream->modeled_ready_ms());
  }
  for (auto& obj : objs) omp::interop_destroy(obj);
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace renders the 4-chain overlap as one Chrome-trace track per
  // interop stream — the timeline this ablation is about.
  bench::TraceGuard trace(argc, argv, "abl_interop_streams_trace.json");
  bench::SanGuard san(argc, argv);
  bench::ShardGuard shard(argc, argv);
  std::printf("=== Ablation A5 — depend(interopobj:) streams vs synchronous "
              "launches ===\n(%d independent chains x %d kernels)\n\n",
              kChains, kKernelsPerChain);
  simt::Device& dev = simt::sim_a100();
  std::vector<double> a(1 << 16, 1.0), b(1 << 16, 1.0);
  const double sync_ms = run_synchronous(dev, a);
  const double stream_ms = run_streams(dev, b);
  std::printf("%-36s %10.3f ms\n", "synchronous target regions", sync_ms);
  std::printf("%-36s %10.3f ms\n", "4 interop streams (Fig. 5 pattern)",
              stream_ms);
  std::printf("overlap speedup: %.2fx (ideal: %dx for %d independent "
              "chains)\n\n",
              sync_ms / stream_ms, kChains, kChains);
  if (a != b) {
    std::printf("ERROR: results differ\n");
    return 1;
  }
  std::printf("Results identical; the extended depend clause turns stream-"
              "style CUDA code\ninto OpenMP without restructuring (§3.5).\n");
  return 0;
}

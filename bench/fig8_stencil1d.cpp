// Regenerates Figure 8f (NVIDIA) and 8l (AMD): Stencil 1D.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/stencil1d/stencil1d.h"
#include "fig8_common.h"

namespace {

// --graph: the stencil's repetition loop re-issued as graph replays.
// Every iteration applies the same tiled kernel to the same input, so
// one captured iteration (recorded, not executed) replayed
// `iterations` times is the whole benchmark; the checksum must match
// the host reference.
void graph_demo(simt::Device& dev) {
  using namespace apps::stencil1d;
  const Options o;
  const SimulationData d = make_data(o);
  const std::uint64_t ref = reference_checksum(d);
  ompx::set_default_device(dev);
  const ompx::LaunchMode saved = ompx::launch_mode();
  ompx::set_launch_mode(ompx::LaunchMode::kAsync);

  const std::int64_t n = o.n;
  auto* din = ompx::malloc_n<int>(d.input.size());
  auto* dout = ompx::malloc_n<int>(n);
  OMPX_REQUIRE(ompx_memcpy(din, d.input.data(), d.input.size() * sizeof(int)));

  ompx::LaunchSpec spec;
  spec.num_teams = {static_cast<unsigned>(simt::ceil_div(n, kBlock))};
  spec.thread_limit = {kBlock};
  spec.name = "stencil1d_graph";
  spec.device = &dev;
  spec.mode = o.mode;

  simt::Stream& s = dev.default_stream();
  ompx::stream_begin_capture(s);
  ompx::launch(spec, [=] {
    int* tile = ompx::groupprivate<int>(kBlock + 2 * kRadius);
    const std::int64_t g = ompx::global_thread_id();
    const int l = ompx_thread_id_x() + kRadius;
    const std::int64_t src = std::min(g, n - 1) + kRadius;
    tile[l] = din[src];
    if (ompx_thread_id_x() < kRadius) {
      tile[l - kRadius] = din[src - kRadius];
      tile[l + kBlock] =
          din[std::min<std::int64_t>(src + kBlock, n + 2 * kRadius - 1)];
    }
    ompx_sync_thread_block();
    if (g < n) {
      int acc = 0;
      for (int off = -kRadius; off <= kRadius; ++off) acc += tile[l + off];
      dout[g] = acc;
    }
  });
  {
    ompx::Graph graph = ompx::end_capture(s);
    graph.instantiate();
    for (int it = 0; it < o.iterations; ++it) graph.launch(s);
    std::vector<int> out(n);
    OMPX_REQUIRE(ompx_memcpy(out.data(), dout, n * sizeof(int)));  // syncs first
    bench::print_graph_row(dev, graph.node_count(), graph.replay_count(),
                           checksum_of(out), ref);
  }
  ompx::free_on(dev, din);
  ompx::free_on(dev, dout);
  ompx::set_launch_mode(saved);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceGuard trace(argc, argv, "fig8_stencil1d_trace.json");
  bench::SanGuard san(argc, argv);
  bench::ShardGuard shard(argc, argv);
  bench::FaultGuard fault(argc, argv);
  bench::run_fig8({
      "Stencil 1D", "8f", "8l",
      "ompx outperforms the native versions on both systems; omp is two "
      "orders of magnitude slower (145.6ms vs ~1.4ms on A100, 60.87ms vs "
      "~1.2ms on MI250) because the generic state machine cannot be "
      "rewritten and the tile is globalized (§4.2.6)"});
  if (bench::graph_flag(argc, argv)) {
    std::printf("-- graph capture/replay (one captured iteration, "
                "replayed %d times) --\n", apps::stencil1d::Options{}.iterations);
    for (simt::Device* dev : {&simt::sim_a100(), &simt::sim_mi250()})
      graph_demo(*dev);
  }
  return 0;
}

// fig8_grid: the full Figure 8 grid — six apps x four versions x the
// two registry devices, 48 cells — through apps::registry() and
// apps::run_cell, timed after one warm-up grid. One operation is one
// grid. The seed only permutes the cell order of each grid; the apps'
// own inputs are fixed, so every cell's checksum validity and modeled
// ms must match the reference table kept with the benchmark (run.py
// checks them).
#include <algorithm>
#include <array>
#include <cctype>
#include <stdexcept>
#include <utility>

#include "apps/harness.h"
#include "core/ompx.h"
#include "perfbench.h"
#include "simt/simt.h"

namespace perfbench {
namespace {

constexpr std::array<std::pair<apps::Version, const char*>, 4> kVersions = {{
    {apps::Version::kOmpx, "ompx"},
    {apps::Version::kOmp, "omp"},
    {apps::Version::kNative, "native"},
    {apps::Version::kNativeVendor, "vendor"},
}};

struct CellRef {
  std::size_t id;  ///< position in the unshuffled grid
  std::size_t app;
  std::size_t version;
  simt::Device* dev;
};

/// "Stencil 1D" -> "stencil1d": the key used in metric names.
std::string app_key(const std::string& name) {
  std::string key;
  for (char c : name)
    if (c != ' ') key += static_cast<char>(std::tolower(c));
  return key;
}

std::vector<CellRef> shuffled_grid(Rng& rng) {
  std::vector<CellRef> cells;
  for (simt::Device* dev : {&simt::sim_a100(), &simt::sim_mi250()})
    for (std::size_t a = 0; a < apps::registry().size(); ++a)
      for (std::size_t v = 0; v < kVersions.size(); ++v)
        cells.push_back({cells.size(), a, v, dev});
  for (std::size_t i = cells.size() - 1; i > 0; --i)
    std::swap(cells[i], cells[rng.next() % (i + 1)]);
  return cells;
}

/// Folds one cell's launch log into the per-layer counters.
void add_cell_counters(simt::Device& dev, double cell_wall_ms,
                       std::map<std::string, double>& v) {
  double engine_wall_ms = 0.0;
  for (const simt::LaunchRecord& rec : dev.launch_log()) {
    engine_wall_ms += rec.wall_ms;
    add_launch_stats(rec.stats, v);
    v["omp.handshakes"] += static_cast<double>(rec.stats.parallel_handshakes);
    v["omp.globalized_bytes"] +=
        static_cast<double>(rec.stats.globalized_bytes);
  }
  v["engine.wall_ms"] += engine_wall_ms;
  v["apps.outside_engine_ms"] += cell_wall_ms - engine_wall_ms;
  v["omp.transfer_ms_modeled"] += dev.modeled_transfer_ms_total();
}

/// Runs one grid, appends its cells to `out.cells`, adds the simulated
/// threads it ran to `threads` and returns its wall seconds. When `log`
/// is on, every other cell is traced (which ones flips every grid);
/// `counters` folds every cell's launch log into the per-layer values.
double run_grid(int grid, Rng& rng, SpanLog& log, bool counters, Result& out,
                std::uint64_t& threads) {
  const std::vector<apps::AppDesc>& registry = apps::registry();
  SpanLog off(false);
  const auto t0 = Clock::now();
  for (const CellRef& ref : shuffled_grid(rng)) {
    const apps::AppDesc& app = registry[ref.app];
    const auto& [version, label] = kVersions[ref.version];
    const std::uint64_t unit =
        out.cells.size() + 1;  // unique per cell across the run
    const bool traced = traced_op(log.on(), ref.id + grid);
    SpanLog& cell_log = traced ? log : off;
    apps::RunResult rr;
    {
      Scope cell(cell_log, Layer::kBench, "cell", unit);
      Scope call(cell_log, Layer::kApps, "apps.run_cell", unit);
      rr = apps::run_cell(app, version, *ref.dev);
    }
    Cell c;
    c.grid = grid;
    c.app = app_key(app.name);
    c.version = label;
    c.device = ref.dev->config().name;
    c.kernel_ms = rr.kernel_ms;
    c.wall_ms = rr.wall_ms;
    c.valid = rr.valid;
    c.traced = traced;
    out.cells.push_back(c);
    for (const simt::LaunchRecord& rec : ref.dev->launch_log())
      threads += rec.stats.threads;
    if (counters) {
      out.values["apps.wall_ms." + c.app] += rr.wall_ms;
      out.values["apps.wall_ms." + c.version] += rr.wall_ms;
      add_cell_counters(*ref.dev, rr.wall_ms, out.values);
    }
  }
  return s_since(t0);
}

}  // namespace

Result run_fig8_grid(const Options& opt) {
  Result out;
  Rng rng{opt.seed};

  // Cold set-up, repeated: fresh devices built from the registry's
  // configurations, the app registry, the seeded cell order, and one
  // checked cell (the cheapest, Adam ompx) on the fresh A100, with an
  // empty launch on the fresh MI250 (lazy engine state).
  const std::vector<apps::AppDesc>& registry = apps::registry();
  const auto adam = std::find_if(
      registry.begin(), registry.end(),
      [](const apps::AppDesc& a) { return app_key(a.name) == "adam"; });
  if (adam == registry.end())
    throw std::runtime_error("fig8_grid: no Adam in the app registry");
  for (int rep = 0; rep < kColdSetups; ++rep) {
    const double cpu0 = cpu_seconds();
    {
      simt::Device a100(simt::make_sim_a100_config());
      simt::Device mi250(simt::make_sim_mi250_config());
      simt::LaunchParams p;
      p.grid = {1, 1, 1};
      p.block = {32, 1, 1};
      p.name = "perfbench_setup";
      (void)mi250.launch_sync(p, [] {});
      Rng probe{opt.seed};
      (void)shuffled_grid(probe);
      simt::Device& previous = ompx::default_device();
      const bool valid =
          apps::run_cell(*adam, apps::Version::kOmpx, a100).valid;
      ompx::set_default_device(previous);  // the cell made a100 the default
      out.attempted++;
      if (!valid) out.failed++;
    }
    out.setup_s.push_back(cpu_seconds() - cpu0);
  }

  SpanLog untraced(false);
  std::uint64_t unmeasured = 0;
  const double warm0 = cpu_seconds();
  run_grid(0, rng, untraced, false, out, unmeasured);
  out.warmup_s = cpu_seconds() - warm0;

  // Measured grids until --seconds have passed (at least one; a traced
  // run makes two, so every cell is timed traced and untraced). Its
  // counters cover every measured grid (per grid).
  out.logs.emplace_back(opt.trace);
  SpanLog& log = out.logs.back();
  const int min_grids = opt.trace ? 2 : 1;
  int grid = 1;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  do {
    out.op_ms.push_back(
        run_grid(grid++, rng, log, opt.trace, out, out.threads) * 1e3);
    out.ops++;
  } while (grid <= min_grids || s_since(t0) < opt.seconds);
  out.measure_cpu_s = cpu_seconds() - cpu0;
  out.measure_s = s_since(t0);
  for (auto& [key, value] : out.values) value /= static_cast<double>(out.ops);
  return out;
}

}  // namespace perfbench

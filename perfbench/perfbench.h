// Shared pieces of the perfbench program: clocks, the seeded input
// generator, the in-memory span log used by traced runs, and the raw
// result each workload hands back to main.cpp for output.
//
// The program measures and checks; it computes no statistics. It writes
// raw samples and counts as JSON, and run.py turns them into the
// metrics listed in BENCHMARK.json (see METRICS.md).
#pragma once

#include <sys/mman.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "simt/perf.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double s_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

/// Host CPU seconds (user + system, all threads) the process has used.
/// Unlike wall time, it does not grow while the process waits for a CPU
/// (another process, or the hypervisor, holding it).
double cpu_seconds();

/// splitmix64: every workload input is drawn from one of these, seeded
/// from --seed, so the same seed gives the same inputs.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// Allocator for the benchmark's own latency samples. Their pages come
/// from mmap, not malloc, so they stay out of heap_mb (the program's
/// live heap), which would otherwise grow with the run's throughput.
template <typename T>
struct OffHeap {
  using value_type = T;
  OffHeap() = default;
  template <typename U>
  OffHeap(const OffHeap<U>& /*other*/) {}
  T* allocate(std::size_t n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  template <typename U>
  bool operator==(const OffHeap<U>& /*other*/) const {
    return true;
  }
};
using Samples = std::vector<double, OffHeap<double>>;

/// The layers a span can be charged to: the benchmark's own loop and
/// the repository modules it calls into.
enum class Layer : std::uint8_t { kBench, kApps, kOmpx, kServe, kCount };
const char* layer_name(Layer layer);

/// One call the benchmark made into a layer. `parent` is the id of the
/// enclosing span (0 for a root); `unit` is the cell, timestep or
/// request the call belongs to.
struct Span {
  std::uint32_t parent = 0;
  Layer layer = Layer::kBench;
  const char* name = "";
  std::uint64_t unit = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Per-thread span log. Spans stay in memory until the run ends. When
/// tracing is off, open() returns 0 at the cost of one branch and
/// close(0) does nothing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  std::uint32_t open(Layer layer, const char* name, std::uint64_t unit) {
    if (!on_) return 0;
    spans_.push_back({current_, layer, name, unit, now_ns(), 0});
    current_ = static_cast<std::uint32_t>(spans_.size());
    return current_;
  }
  void close(std::uint32_t id) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.t1_ns = now_ns();
    current_ = s.parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool on_;
  std::uint32_t current_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(SpanLog& log, Layer layer, const char* name, std::uint64_t unit)
      : log_(log), id_(log.open(layer, name, unit)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// One Fig. 8 cell as the apps harness reported it.
struct Cell {
  int grid = 0;  ///< 0 is the warm-up grid, 1.. the measured ones
  std::string app, version, device;
  double kernel_ms = 0.0;
  double wall_ms = 0.0;
  bool valid = false;   ///< the app's checksum matched its reference
  bool traced = false;  ///< its calls were recorded as spans
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The latency sample of a failed operation: it counts as missing
/// every percentile (written as null, read back as inf by run.py).
constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Cold set-ups per run; setup_s is their median.
constexpr int kColdSetups = 31;

/// A traced run alternates traced and untraced operations (timesteps,
/// requests, and Fig. 8 cells, whose parity flips every grid), so the
/// tracing overhead compares the two halves of one phase and host drift
/// cancels out.
constexpr bool traced_op(bool trace, std::uint64_t n) {
  return trace && n % 2 == 0;
}

/// What a workload hands back.
struct Result {
  /// Host CPU seconds of each cold set-up: CPU time, like
  /// cpu_ns_per_thread, so a busy host does not read as slower set-up.
  std::vector<double> setup_s;
  double warmup_s = 0.0;  ///< host CPU seconds of the warm-up pass
  double measure_s = 0.0;       ///< wall time of the measured phase
  double measure_cpu_s = 0.0;   ///< CPU time of the measured phase
  std::uint64_t ops = 0;        ///< correct operations in that phase
  std::uint64_t threads = 0;    ///< simulated GPU threads they ran
  Samples op_ms;                ///< latency per operation (kFailed)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> heap_mb;  ///< live malloc heap, sampled while it ran
  /// A traced run's operations split by whether they were traced (for
  /// the tracing overhead; every one is also in op_ms).
  Samples traced_op_ms, untraced_op_ms;
  std::vector<Cell> cells;
  std::map<std::string, double> values;                ///< per-layer scalars
  std::map<std::string, std::vector<double>> samples;  ///< per-layer samples
  std::vector<SpanLog> logs;                           ///< one per thread
};

/// Adds one launch's engine counters (engine.launches, .threads,
/// .fibers_created, ...) to `values`.
void add_launch_stats(const simt::LaunchStats& s,
                      std::map<std::string, double>& values);

Result run_fig8_grid(const Options& opt);
Result run_launch_chain(const Options& opt);
Result run_serve_mix(const Options& opt);
/// Fixed launch cost of each layer, from empty kernels (traced runs).
void probe_layers(Result& out);

}  // namespace perfbench

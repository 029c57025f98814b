// Launch telemetry: per-operation trace spans, a process-wide counters
// registry, and a Chrome trace-event exporter.
//
// Every completed device operation — kernel launch, async memcpy/memset,
// host-synchronous transfer, event record/wait — can be captured as a
// TraceSpan carrying its position on the *modeled* device timeline
// (stream-track start + duration), the host wall time the simulation
// spent executing it, and (for kernels) the full LaunchStats counter
// set. Spans live in the process-wide Profiler singleton, which also
// aggregates counters across launches and renders the whole capture as
// Chrome trace-event JSON (open in chrome://tracing or Perfetto):
// streams become tracks, kernels and memcpys become slices at their
// modeled timestamps, and event record/wait pairs become flow arrows —
// so multi-stream overlap (bench/abl_interop_streams) is visually
// inspectable.
//
// The tracing-off path is one relaxed atomic load per operation
// (profiling_enabled()); nothing else on the engine hot path changes.
// Activation: Profiler::instance().start(), the layer APIs above
// (ompx_profiler_start / ompx::Profiler / klProfilerStart), or the
// OMPX_TRACE=<path> environment variable, which starts capture at
// process start and dumps the trace to <path> at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "simt/dim.h"
#include "simt/perf.h"

namespace simt {

class Device;
struct LaunchRecord;

/// What kind of device operation a span describes.
enum class SpanKind : std::uint8_t {
  kKernel,
  kMemcpy,
  kMemset,
  kHostFn,
  kEventRecord,
  kEventWait,
  kAlloc,       ///< stream-ordered malloc_async
  kFree,        ///< stream-ordered free_async
  kGraph,       ///< a graph replay (umbrella slice over its node spans)
};

const char* span_kind_name(SpanKind k);

/// One captured operation. `track` 0 is the device's host-synchronous
/// track (direct launch_sync calls, blocking transfers); stream ops use
/// track = stream id + 1. Timestamps are modeled milliseconds on that
/// track's timeline, not host wall time.
struct TraceSpan {
  SpanKind kind = SpanKind::kKernel;
  std::string name;
  std::uint32_t device_pid = 0;   ///< assigned by the profiler per device
  std::uint64_t track = 0;        ///< 0 = host-sync, else stream id + 1
  double ts_ms = 0.0;             ///< modeled start on the track timeline
  double dur_ms = 0.0;            ///< modeled duration
  double wall_ms = 0.0;           ///< host wall time executing the op
  std::uint64_t bytes = 0;        ///< memcpy/memset payload
  std::uint64_t flow_id = 0;      ///< links an event record to its waits,
                                  ///< or a peer copy's two device spans
  bool flow_out = false;          ///< this span is the arrow's source
                                  ///< (event record / peer-copy src side)
  // --- kernels only
  Dim3 grid{0, 0, 0};
  Dim3 block{0, 0, 0};
  std::string exec_mode;          ///< "fiber" / "direct"
  LaunchStats stats;
  ModeledTime time;
};

/// The kernel span of a completed launch: name, modeled duration, host
/// wall time, shape, exec mode, stats and modeled time from `rec`. The
/// caller places it (track, ts_ms).
TraceSpan kernel_span(const LaunchRecord& rec);

/// Process-wide aggregation over every span recorded since the last
/// reset — the counters registry layered APIs expose.
struct ProfilerCounters {
  std::uint64_t launches = 0;
  std::uint64_t memcpys = 0;
  std::uint64_t memsets = 0;
  std::uint64_t event_records = 0;
  std::uint64_t event_waits = 0;
  std::uint64_t allocs = 0;         ///< stream-ordered malloc_asyncs
  std::uint64_t frees = 0;          ///< stream-ordered free_asyncs
  std::uint64_t graph_replays = 0;  ///< completed graph replays
  std::uint64_t bytes_copied = 0;
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t block_barriers = 0;
  std::uint64_t warp_collectives = 0;
  std::uint64_t atomics = 0;
  std::uint64_t parallel_handshakes = 0;
  std::uint64_t globalized_bytes = 0;
  std::uint64_t lane_loops = 0;  ///< threads run as plain calls (kDirect)
  double modeled_kernel_ms = 0.0;
  double modeled_memcpy_ms = 0.0;
  double host_wall_ms = 0.0;
};

namespace telemetry_detail {
/// The tracing switch. Read relaxed on every hot-path operation; set
/// only by Profiler::start/stop.
extern std::atomic<bool> g_enabled;
/// True on a pool thread while a drain runs a stream op: the op step
/// records the span itself (it knows the stream track and modeled
/// start), so an inner add_transfer/launch_sync must not double-record.
extern constinit thread_local bool t_in_stream_op;
}  // namespace telemetry_detail

/// The hot-path guard: one relaxed atomic load when tracing is off.
inline bool profiling_enabled() {
  return telemetry_detail::g_enabled.load(std::memory_order_relaxed);
}

/// The process-wide telemetry sink. Thread-safe; shared by every device.
class Profiler {
 public:
  /// The singleton (leaked, so atexit dumps and late spans stay safe).
  static Profiler& instance();

  void start();
  void stop();
  [[nodiscard]] bool enabled() const { return profiling_enabled(); }
  /// Drops captured spans, counters, and track cursors (keeps enabled).
  void reset();

  /// Appends a span and folds it into the counters. Spans on track 0
  /// (host-synchronous ops have no stream timeline) are placed at the
  /// device's sync-track cursor, which then advances by the duration —
  /// keeping per-track timestamps monotonic by construction.
  void record(const Device& dev, TraceSpan span);

  [[nodiscard]] ProfilerCounters counters() const;
  [[nodiscard]] std::vector<TraceSpan> spans() const;

  /// Renders every captured span as Chrome trace-event JSON: one
  /// process per device, one thread (track) per stream, "X" slices at
  /// modeled timestamps (microseconds), flow arrows for event
  /// record -> wait edges, and the counters registry under "otherData".
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; false on I/O failure.
  bool dump_chrome_trace(const std::string& path) const;

 private:
  Profiler() = default;

  struct DeviceEntry {
    const Device* dev = nullptr;
    std::string name;
    double sync_cursor_ms = 0.0;  ///< end of the last track-0 span
  };

  /// Registers `dev` on first sight; returns its stable pid index.
  std::size_t device_index_locked(const Device& dev);

  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::vector<DeviceEntry> devices_;
  ProfilerCounters counters_;
};

}  // namespace simt

#include "simt/profiler.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "simt/device.h"

namespace simt {

namespace telemetry_detail {
std::atomic<bool> g_enabled{false};
constinit thread_local bool t_in_stream_op = false;
}  // namespace telemetry_detail

namespace {

/// Minimal JSON string escaping for kernel names.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// OMPX_TRACE=<path>: start capturing at process start, dump at exit.
/// Lives in this TU, which links in whenever the engine records spans.
struct EnvActivation {
  EnvActivation() {
    const char* path = std::getenv("OMPX_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    static std::string trace_path;  // outlives the atexit callback
    trace_path = path;
    Profiler::instance().start();
    std::atexit([] {
      if (!Profiler::instance().dump_chrome_trace(trace_path))
        std::fprintf(stderr, "ompx telemetry: cannot write OMPX_TRACE=%s\n",
                     trace_path.c_str());
    });
  }
} g_env_activation;

}  // namespace

TraceSpan kernel_span(const LaunchRecord& rec) {
  TraceSpan span;
  span.kind = SpanKind::kKernel;
  span.name = rec.name;
  span.dur_ms = rec.time.total_ms;
  span.wall_ms = rec.wall_ms;
  span.grid = rec.grid;
  span.block = rec.block;
  span.exec_mode = rec.exec_mode;
  span.stats = rec.stats;
  span.time = rec.time;
  return span;
}

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kMemcpy: return "memcpy";
    case SpanKind::kMemset: return "memset";
    case SpanKind::kHostFn: return "host-fn";
    case SpanKind::kEventRecord: return "event-record";
    case SpanKind::kEventWait: return "event-wait";
    case SpanKind::kAlloc: return "alloc";
    case SpanKind::kFree: return "free";
    case SpanKind::kGraph: return "graph";
  }
  return "?";
}

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler;  // leaked: see header
  return *p;
}

void Profiler::start() {
  telemetry_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Profiler::stop() {
  telemetry_detail::g_enabled.store(false, std::memory_order_relaxed);
}

void Profiler::reset() {
  std::lock_guard lock(mu_);
  spans_.clear();
  counters_ = ProfilerCounters{};
  for (auto& d : devices_) d.sync_cursor_ms = 0.0;
}

std::size_t Profiler::device_index_locked(const Device& dev) {
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (devices_[i].dev == &dev) return i;
  devices_.push_back({&dev, dev.config().name, 0.0});
  return devices_.size() - 1;
}

void Profiler::record(const Device& dev, TraceSpan span) {
  std::lock_guard lock(mu_);
  const std::size_t di = device_index_locked(dev);
  span.device_pid = static_cast<std::uint32_t>(di);
  if (span.track == 0) {
    // Host-synchronous ops have no stream timeline: serialize them on
    // the device's sync track so per-track timestamps stay monotonic.
    span.ts_ms = devices_[di].sync_cursor_ms;
    devices_[di].sync_cursor_ms += span.dur_ms;
  }

  switch (span.kind) {
    case SpanKind::kKernel:
      counters_.launches++;
      counters_.blocks += span.stats.blocks;
      counters_.threads += span.stats.threads;
      counters_.block_barriers += span.stats.block_barriers;
      counters_.warp_collectives += span.stats.warp_collectives;
      counters_.atomics += span.stats.atomics;
      counters_.parallel_handshakes += span.stats.parallel_handshakes;
      counters_.globalized_bytes += span.stats.globalized_bytes;
      counters_.lane_loops += span.stats.sched_lane_loops;
      counters_.modeled_kernel_ms += span.dur_ms;
      break;
    case SpanKind::kMemcpy:
      counters_.memcpys++;
      counters_.bytes_copied += span.bytes;
      counters_.modeled_memcpy_ms += span.dur_ms;
      break;
    case SpanKind::kMemset:
      counters_.memsets++;
      break;
    case SpanKind::kEventRecord:
      counters_.event_records++;
      break;
    case SpanKind::kEventWait:
      counters_.event_waits++;
      break;
    case SpanKind::kAlloc:
      counters_.allocs++;
      break;
    case SpanKind::kFree:
      counters_.frees++;
      break;
    case SpanKind::kGraph:
      // Umbrella replay slices only; per-node spans count themselves
      // (the zero-duration fence spans are filtered by duration).
      if (span.dur_ms > 0.0 || span.flow_out == false)
        counters_.graph_replays++;
      break;
    case SpanKind::kHostFn:
      break;
  }
  counters_.host_wall_ms += span.wall_ms;
  spans_.push_back(std::move(span));
}

ProfilerCounters Profiler::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

std::vector<TraceSpan> Profiler::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::string Profiler::chrome_trace_json() const {
  std::lock_guard lock(mu_);
  std::string out;
  out.reserve(256 + spans_.size() * 200);
  out += "{\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: one Chrome "process" per device, one named "thread" per
  // track (host-sync + each stream seen in the capture).
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    sep();
    append(out,
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":0,"
           "\"args\":{\"name\":\"%s\"}}",
           di, json_escape(devices_[di].name).c_str());
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> tracks;
  for (const TraceSpan& s : spans_) {
    const std::pair<std::uint32_t, std::uint64_t> key{s.device_pid, s.track};
    bool seen = false;
    for (const auto& t : tracks) seen |= t == key;
    if (seen) continue;
    tracks.push_back(key);
    sep();
    if (s.track == 0) {
      append(out,
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
             "\"args\":{\"name\":\"host-sync\"}}",
             s.device_pid);
    } else {
      append(out,
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%llu,"
             "\"args\":{\"name\":\"stream %llu%s\"}}",
             s.device_pid, static_cast<unsigned long long>(s.track),
             static_cast<unsigned long long>(s.track - 1),
             s.track == 1 ? " (default)" : "");
    }
  }

  // Spans: complete ("X") slices at modeled microsecond timestamps,
  // plus flow arrows ("s" -> "f") for event record/wait pairs.
  for (const TraceSpan& s : spans_) {
    const double ts_us = s.ts_ms * 1000.0;
    const double dur_us = s.dur_ms * 1000.0;
    sep();
    append(out,
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
           "\"tid\":%llu,\"ts\":%.4f,\"dur\":%.4f,\"args\":{",
           json_escape(s.name).c_str(), span_kind_name(s.kind), s.device_pid,
           static_cast<unsigned long long>(s.track), ts_us, dur_us);
    append(out, "\"host_wall_ms\":%.6f", s.wall_ms);
    if (s.kind == SpanKind::kKernel) {
      append(out,
             ",\"grid\":\"%s\",\"block\":\"%s\",\"blocks\":%llu,"
             "\"threads\":%llu,\"block_barriers\":%llu,"
             "\"warp_collectives\":%llu,\"atomics\":%llu,"
             "\"parallel_handshakes\":%llu,\"globalized_bytes\":%llu",
             s.grid.to_string().c_str(), s.block.to_string().c_str(),
             static_cast<unsigned long long>(s.stats.blocks),
             static_cast<unsigned long long>(s.stats.threads),
             static_cast<unsigned long long>(s.stats.block_barriers),
             static_cast<unsigned long long>(s.stats.warp_collectives),
             static_cast<unsigned long long>(s.stats.atomics),
             static_cast<unsigned long long>(s.stats.parallel_handshakes),
             static_cast<unsigned long long>(s.stats.globalized_bytes));
      if (!s.exec_mode.empty())
        append(out, ",\"exec_mode\":\"%s\",\"lane_loops\":%llu",
               json_escape(s.exec_mode).c_str(),
               static_cast<unsigned long long>(s.stats.sched_lane_loops));
      append(out,
             ",\"modeled_compute_ms\":%.6f,\"modeled_memory_ms\":%.6f,"
             "\"modeled_overhead_ms\":%.6f,\"occupancy\":%.4f",
             s.time.compute_ms, s.time.memory_ms, s.time.overhead_ms,
             s.time.occupancy);
    }
    if (s.kind == SpanKind::kMemcpy || s.kind == SpanKind::kMemset ||
        s.kind == SpanKind::kAlloc || s.kind == SpanKind::kFree)
      append(out, ",\"bytes\":%llu",
             static_cast<unsigned long long>(s.bytes));
    out += "}}";
    if (s.flow_id != 0) {
      // Chrome flow events: "s" leaves the source slice (event record,
      // or the source-device side of a peer copy), "f" lands on the
      // sink slice (binding point "e" = enclosing slice). Peer copies
      // draw the arrow *across* device processes.
      sep();
      append(out,
             "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"%s\","
             "\"id\":%llu,\"pid\":%u,\"tid\":%llu,\"ts\":%.4f%s}",
             s.kind == SpanKind::kMemcpy   ? "peer-copy"
             : s.kind == SpanKind::kGraph  ? "graph-replay"
                                           : "event",
             s.flow_out ? "s" : "f",
             static_cast<unsigned long long>(s.flow_id), s.device_pid,
             static_cast<unsigned long long>(s.track), ts_us,
             s.flow_out ? "" : ",\"bp\":\"e\"");
    }
  }

  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  append(out,
         "\"launches\":%llu,\"memcpys\":%llu,\"memsets\":%llu,"
         "\"event_records\":%llu,\"event_waits\":%llu,"
         "\"allocs\":%llu,\"frees\":%llu,\"graph_replays\":%llu,"
         "\"bytes_copied\":%llu,\"blocks\":%llu,\"threads\":%llu,"
         "\"block_barriers\":%llu,\"warp_collectives\":%llu,"
         "\"atomics\":%llu,\"parallel_handshakes\":%llu,"
         "\"globalized_bytes\":%llu,\"lane_loops\":%llu,"
         "\"modeled_kernel_ms\":%.6f,\"modeled_memcpy_ms\":%.6f,"
         "\"host_wall_ms\":%.6f",
         static_cast<unsigned long long>(counters_.launches),
         static_cast<unsigned long long>(counters_.memcpys),
         static_cast<unsigned long long>(counters_.memsets),
         static_cast<unsigned long long>(counters_.event_records),
         static_cast<unsigned long long>(counters_.event_waits),
         static_cast<unsigned long long>(counters_.allocs),
         static_cast<unsigned long long>(counters_.frees),
         static_cast<unsigned long long>(counters_.graph_replays),
         static_cast<unsigned long long>(counters_.bytes_copied),
         static_cast<unsigned long long>(counters_.blocks),
         static_cast<unsigned long long>(counters_.threads),
         static_cast<unsigned long long>(counters_.block_barriers),
         static_cast<unsigned long long>(counters_.warp_collectives),
         static_cast<unsigned long long>(counters_.atomics),
         static_cast<unsigned long long>(counters_.parallel_handshakes),
         static_cast<unsigned long long>(counters_.globalized_bytes),
         static_cast<unsigned long long>(counters_.lane_loops),
         counters_.modeled_kernel_ms, counters_.modeled_memcpy_ms,
         counters_.host_wall_ms);
  out += "}\n}\n";
  return out;
}

bool Profiler::dump_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace simt

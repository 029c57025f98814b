// perfbench: runs one workload of the repository benchmark and writes
// its raw samples, counts and checks as one JSON object.
//
//   perfbench --workload fig8_grid|launch_chain|serve_mix --seed N
//             --seconds S --trace 0|1 --out result.json
//             [--spans-out spans.csv]
//
// run.py builds this binary, runs it, and derives the metrics. Exit 0
// means the workload ran; output correctness is judged from the JSON
// (failed operations, Fig. 8 reference table).
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "perfbench.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kApps: return "apps";
    case Layer::kOmpx: return "ompx";
    case Layer::kServe: return "serve";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.t1_ns != 0 && std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
  return out;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

void add_launch_stats(const simt::LaunchStats& s,
                      std::map<std::string, double>& v) {
  v["engine.launches"] += 1.0;
  v["engine.threads"] += static_cast<double>(s.threads);
  v["engine.fibers_created"] += static_cast<double>(s.fibers_created);
  v["engine.fiber_reuses"] += static_cast<double>(s.fiber_reuses);
  v["engine.lane_loops"] += static_cast<double>(s.sched_lane_loops);
  v["engine.deflations"] += static_cast<double>(s.sched_deflations);
  v["engine.steals"] += static_cast<double>(s.sched_steals);
  v["engine.block_barriers"] += static_cast<double>(s.block_barriers);
  v["engine.atomics"] += static_cast<double>(s.atomics);
}

namespace {

/// Minimal JSON emitter for the flat shapes this program writes.
class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}
  void key(const char* k) {
    sep();
    std::fprintf(f_, "\"%s\":", k);
    fresh_ = true;
  }
  void num(double v) {
    sep();
    if (std::isfinite(v))
      std::fprintf(f_, "%.17g", v);
    else
      std::fputs("null", f_);
  }
  void str(const std::string& s) {
    sep();
    std::fputc('"', f_);
    for (char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f_);
      std::fputc(c, f_);
    }
    std::fputc('"', f_);
  }
  void boolean(bool b) {
    sep();
    std::fputs(b ? "true" : "false", f_);
  }
  void open(char c) {
    sep();
    std::fputc(c, f_);
    fresh_ = true;
  }
  void close(char c) {
    std::fputc(c, f_);
    fresh_ = false;
  }
  template <typename Vector>
  void nums(const Vector& v) {
    open('[');
    for (double x : v) num(x);
    close(']');
  }

 private:
  void sep() {
    if (!fresh_) std::fputc(',', f_);
    fresh_ = false;
  }
  std::FILE* f_;
  bool fresh_ = true;
};

/// Samples the live malloc heap (in-use plus mmapped chunks) every
/// 20 ms on its own thread while a workload runs; its median is the
/// memory metric. Resident memory also holds what glibc retains after
/// frees, which follows thread timing: one seed of fig8_grid read 50 to
/// 71 MB median RSS run to run while its live heap read 12.75-12.77 MB.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { loop(); }) {}
  ~HeapSampler() { stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops sampling (idempotent) and returns the samples in MB.
  const std::vector<double>& stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [&] { return stop_; })) {
#if defined(__GLIBC__)
      const struct mallinfo2 mi = mallinfo2();
      samples_.push_back(static_cast<double>(mi.uordblks + mi.hblkhd) /
                         (1024.0 * 1024.0));
#endif
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed over every thread's log.
std::map<std::string, double> self_ms(const std::vector<SpanLog>& logs) {
  std::map<std::string, double> out;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
    out[layer_name(static_cast<Layer>(l))] = 0.0;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent != 0) child[s.parent - 1] += s.t1_ns - s.t0_ns;
    for (std::size_t i = 0; i < spans.size(); ++i)
      out[layer_name(spans[i].layer)] +=
          static_cast<double>(spans[i].t1_ns - spans[i].t0_ns - child[i]) /
          1e6;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog& log : logs)
    for (const Span& s : log.spans()) origin = std::min(origin, s.t0_ns);
  std::fputs("thread,id,parent,layer,name,unit,start_ns,end_ns\n", f);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%u,%s,%s,%llu,%lld,%lld\n", t, i + 1, s.parent,
                   layer_name(s.layer), s.name,
                   static_cast<unsigned long long>(s.unit),
                   static_cast<long long>(s.t0_ns - origin),
                   static_cast<long long>(s.t1_ns - origin));
    }
  }
  return std::fclose(f) == 0;
}

void write_result(std::FILE* f, const Options& opt, const Result& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json j(f);
  j.open('{');
  j.key("workload"); j.str(opt.workload);
  j.key("seed"); j.num(static_cast<double>(opt.seed));
  j.key("trace"); j.boolean(opt.trace);
  j.key("rss_peak_mb"); j.num(static_cast<double>(ru.ru_maxrss) / 1024.0);
  j.key("heap_mb"); j.nums(r.heap_mb);
  j.key("setup_s"); j.nums(r.setup_s);
  j.key("warmup_s"); j.num(r.warmup_s);
  j.key("measure_s"); j.num(r.measure_s);
  j.key("measure_cpu_s"); j.num(r.measure_cpu_s);
  j.key("ops"); j.num(static_cast<double>(r.ops));
  j.key("threads"); j.num(static_cast<double>(r.threads));
  j.key("attempted"); j.num(static_cast<double>(r.attempted));
  j.key("failed"); j.num(static_cast<double>(r.failed));
  j.key("op_ms"); j.nums(r.op_ms);
  j.key("traced_op_ms"); j.nums(r.traced_op_ms);
  j.key("untraced_op_ms"); j.nums(r.untraced_op_ms);
  j.key("cells");
  j.open('[');
  for (const Cell& c : r.cells) {
    j.open('{');
    j.key("grid"); j.num(c.grid);
    j.key("app"); j.str(c.app);
    j.key("version"); j.str(c.version);
    j.key("device"); j.str(c.device);
    j.key("kernel_ms"); j.num(c.kernel_ms);
    j.key("wall_ms"); j.num(c.wall_ms);
    j.key("valid"); j.boolean(c.valid);
    j.key("traced"); j.boolean(c.traced);
    j.close('}');
  }
  j.close(']');
  std::map<std::string, double> values = r.values;
  if (opt.trace) {
    std::size_t spans = 0;
    std::size_t roots = 0;  // traced cells, timesteps or requests
    for (const SpanLog& log : r.logs) {
      spans += log.spans().size();
      for (const Span& s : log.spans()) roots += s.parent == 0;
    }
    values["trace.spans"] = static_cast<double>(spans);
    values["trace.units"] = static_cast<double>(roots);
    for (const auto& [layer, ms] : self_ms(r.logs))
      values["self_ms." + layer] = ms;
  }
  j.key("values");
  j.open('{');
  for (const auto& [k, v] : values) {
    j.key(k.c_str());
    j.num(v);
  }
  j.close('}');
  j.key("samples");
  j.open('{');
  for (const auto& [k, v] : r.samples) {
    j.key(k.c_str());
    j.nums(v);
  }
  j.close('}');
  j.close('}');
  std::fputc('\n', f);
}

const char* arg_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig8_grid|launch_chain|serve_mix "
               "--seed N --seconds S --trace 0|1 --out PATH "
               "[--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* workload = arg_value(argc, argv, "--workload");
  const char* out_path = arg_value(argc, argv, "--out");
  if (workload == nullptr || out_path == nullptr) return usage();
  Options opt;
  opt.workload = workload;
  if (const char* v = arg_value(argc, argv, "--seed"))
    opt.seed = std::strtoull(v, nullptr, 10);
  if (const char* v = arg_value(argc, argv, "--seconds"))
    opt.seconds = std::strtod(v, nullptr);
  if (const char* v = arg_value(argc, argv, "--trace"))
    opt.trace = std::strcmp(v, "0") != 0;
  if (!(opt.seconds > 0.0)) return usage();

  if (opt.workload != "fig8_grid" && opt.workload != "launch_chain" &&
      opt.workload != "serve_mix")
    return usage();
  Result r;
  try {
    HeapSampler heap;
    if (opt.workload == "fig8_grid")
      r = run_fig8_grid(opt);
    else if (opt.workload == "launch_chain")
      r = run_launch_chain(opt);
    else
      r = run_serve_mix(opt);
    r.heap_mb = heap.stop();
    if (opt.trace) probe_layers(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload, e.what());
    return 1;
  }

  if (const char* spans = arg_value(argc, argv, "--spans-out");
      spans != nullptr && opt.trace && !write_spans(spans, r.logs)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans);
    return 1;
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path);
    return 1;
  }
  write_result(f, opt, r);
  return std::fclose(f) == 0 ? 0 : 1;
}

// Launch telemetry subsystem: span capture across launch_sync, stream
// ops, and transfers; the counters registry; destroy semantics; and the
// Chrome trace-event exporter (validated with a self-contained JSON
// parser — the schema contract chrome://tracing / Perfetto relies on).
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/simt.h"

namespace {

// --- minimal JSON parser (validation only) -------------------------------
//
// Just enough JSON to check the trace export is well-formed and to walk
// traceEvents: objects, arrays, strings, numbers, true/false/null.

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull } kind =
      Kind::kNull;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'b': case 'f': case 'n': case 'r': case 't': break;
          case 'u': pos_ += 4; break;
          default: throw std::runtime_error("bad escape");
        }
      } else {
        v.string += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) { v.boolean = true; pos_ += 4; }
    else if (s_.compare(pos_, 5, "false") == 0) { v.boolean = false; pos_ += 5; }
    else throw std::runtime_error("bad literal");
    return v;
  }

  JsonValue null() {
    JsonValue v;
    if (s_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("+-.eE", s_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- fixtures ------------------------------------------------------------

/// The profiler is a process-wide singleton, so every test starts and
/// ends from a clean, disabled capture.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simt::Profiler::instance().stop();
    simt::Profiler::instance().reset();
  }
  void TearDown() override {
    simt::Profiler::instance().stop();
    simt::Profiler::instance().reset();
  }

  static simt::LaunchParams params(const char* name, unsigned grid = 4,
                                   unsigned block = 64) {
    simt::LaunchParams p;
    p.grid = {grid};
    p.block = {block};
    p.name = name;
    return p;
  }
};

TEST_F(ProfilerTest, DisabledCapturesNothing) {
  ASSERT_FALSE(simt::profiling_enabled());
  simt::Device dev(simt::make_sim_a100_config());
  dev.launch_sync(params("untraced"), [] {});
  dev.add_transfer(256);
  EXPECT_TRUE(simt::Profiler::instance().spans().empty());
  EXPECT_EQ(simt::Profiler::instance().counters().launches, 0u);
}

TEST_F(ProfilerTest, KernelSpanCarriesModelAndStats) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Profiler::instance().start();
  ASSERT_TRUE(simt::profiling_enabled());
  const simt::LaunchRecord rec = dev.launch_sync(params("traced", 8, 32), [] {
    auto& t = simt::this_thread();
    t.block->sync_threads(t);
  });
  simt::Profiler::instance().stop();

  const auto spans = simt::Profiler::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  const simt::TraceSpan& s = spans[0];
  EXPECT_EQ(s.kind, simt::SpanKind::kKernel);
  EXPECT_EQ(s.name, "traced");
  EXPECT_EQ(s.track, 0u);  // host-synchronous launch -> sync track
  EXPECT_DOUBLE_EQ(s.dur_ms, rec.time.total_ms);
  EXPECT_EQ(s.grid.x, 8u);
  EXPECT_EQ(s.block.x, 32u);
  EXPECT_EQ(s.stats.blocks, rec.stats.blocks);
  EXPECT_EQ(s.stats.block_barriers, rec.stats.block_barriers);
  EXPECT_GE(s.wall_ms, 0.0);
}

TEST_F(ProfilerTest, CountersAggregateAcrossOperations) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Profiler::instance().start();
  dev.launch_sync(params("k1", 2, 32), [] {});
  dev.launch_sync(params("k2", 3, 32), [] {});
  dev.add_transfer(1024);
  simt::Profiler::instance().stop();

  const simt::ProfilerCounters c = simt::Profiler::instance().counters();
  EXPECT_EQ(c.launches, 2u);
  EXPECT_EQ(c.blocks, 5u);
  EXPECT_EQ(c.threads, 5u * 32u);
  EXPECT_EQ(c.memcpys, 1u);
  EXPECT_EQ(c.bytes_copied, 1024u);
  EXPECT_GT(c.modeled_kernel_ms, 0.0);
  EXPECT_GT(c.host_wall_ms, 0.0);

  simt::Profiler::instance().reset();
  EXPECT_EQ(simt::Profiler::instance().counters().launches, 0u);
  EXPECT_TRUE(simt::Profiler::instance().spans().empty());
}

TEST_F(ProfilerTest, SyncTrackTimestampsAreMonotonic) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Profiler::instance().start();
  for (int i = 0; i < 4; ++i) dev.launch_sync(params("mono"), [] {});
  simt::Profiler::instance().stop();

  const auto spans = simt::Profiler::instance().spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].ts_ms, spans[i - 1].ts_ms + spans[i - 1].dur_ms -
                                  1e-12);
  }
}

TEST_F(ProfilerTest, StreamOpsLandOnStreamTracks) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* s = dev.create_stream();
  simt::Profiler::instance().start();
  s->launch(params("streamed", 2, 32), [] {});
  void* d = dev.memory().allocate(512);
  char host[512] = {};
  s->memcpy_async(d, host, sizeof host, simt::CopyKind::kHostToDevice);
  s->synchronize();
  simt::Profiler::instance().stop();

  const auto spans = simt::Profiler::instance().spans();
  ASSERT_EQ(spans.size(), 2u);  // executor records; no double-record
  EXPECT_EQ(spans[0].kind, simt::SpanKind::kKernel);
  EXPECT_EQ(spans[0].track, s->id() + 1);
  EXPECT_EQ(spans[1].kind, simt::SpanKind::kMemcpy);
  EXPECT_EQ(spans[1].track, s->id() + 1);
  EXPECT_EQ(spans[1].bytes, 512u);
  // Back-to-back ops on one stream: the memcpy starts when the kernel ends.
  EXPECT_GE(spans[1].ts_ms, spans[0].ts_ms + spans[0].dur_ms - 1e-12);
  dev.memory().deallocate(d);
  dev.destroy_stream(s);
}

// A launch completes only after its span is recorded, so a ticket
// waiter that stops the profiler and dumps right away sees the kernel —
// whether the launch runs live or as a node of a graph replay.
TEST_F(ProfilerTest, StreamKernelSpanIsRecordedBeforeCompletion) {
  for (const bool replay : {false, true}) {
    SCOPED_TRACE(replay ? "graph replay" : "live launch");
    simt::Profiler::instance().reset();
    simt::Device dev(simt::make_sim_a100_config());
    simt::Stream* s = dev.create_stream();
    bool span_seen = false;
    const auto launch = [&] {
      s->launch(params("record_then_complete", 2, 32), [] {},
                [&](const simt::LaunchRecord& rec) {
                  for (const simt::TraceSpan& sp :
                       simt::Profiler::instance().spans())
                    if (sp.kind == simt::SpanKind::kKernel &&
                        sp.name == rec.name)
                      span_seen = true;
                });
    };
    std::unique_ptr<simt::Graph> graph;
    if (replay) {
      s->begin_capture();
      launch();
      graph = s->end_capture();
    }
    simt::Profiler::instance().start();
    if (replay)
      s->launch_graph(*graph);
    else
      launch();
    s->synchronize();
    simt::Profiler::instance().stop();
    EXPECT_TRUE(span_seen);
    graph.reset();
    dev.destroy_stream(s);
  }
}

TEST_F(ProfilerTest, EventRecordAndWaitShareAFlowId) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* a = dev.create_stream();
  simt::Stream* b = dev.create_stream();
  simt::Event* ev = dev.create_event();
  simt::Profiler::instance().start();
  a->launch(params("producer", 8, 64), [] {});
  a->record(*ev);
  b->wait(*ev);
  b->launch(params("consumer", 1, 32), [] {});
  dev.synchronize();
  simt::Profiler::instance().stop();

  std::uint64_t record_flow = 0, wait_flow = 0;
  for (const auto& s : simt::Profiler::instance().spans()) {
    if (s.kind == simt::SpanKind::kEventRecord) record_flow = s.flow_id;
    if (s.kind == simt::SpanKind::kEventWait) wait_flow = s.flow_id;
  }
  EXPECT_NE(record_flow, 0u);  // recorded events get a flow arrow id
  EXPECT_EQ(record_flow, wait_flow);
  dev.destroy_event(ev);
  dev.destroy_stream(a);
  dev.destroy_stream(b);
}

TEST_F(ProfilerTest, DestroyStreamDrainsAndKeepsTimelineMonotonic) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* s = dev.create_stream();
  int ran = 0;
  s->host_fn([&] { ran = 1; });
  s->launch(params("pre_destroy", 16, 64), [] {});
  const double before = dev.modeled_now_ms();
  dev.destroy_stream(s);  // drains both queued ops
  EXPECT_EQ(ran, 1);
  // The destroyed stream's modeled time survives into the device clock.
  EXPECT_GE(dev.modeled_now_ms(), before);
  const double after_destroy = dev.modeled_now_ms();
  EXPECT_GT(after_destroy, 0.0);
  dev.synchronize();
  EXPECT_GE(dev.modeled_now_ms(), after_destroy);
}

TEST_F(ProfilerTest, DestroyStreamRejectsDefaultAndIgnoresNull) {
  simt::Device dev(simt::make_sim_a100_config());
  EXPECT_THROW(dev.destroy_stream(&dev.default_stream()),
               std::invalid_argument);
  dev.destroy_stream(nullptr);  // no-op
  dev.destroy_event(nullptr);   // no-op
}

TEST_F(ProfilerTest, DestroyEventWaitsForInFlightReferences) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* s = dev.create_stream();
  simt::Event* ev = dev.create_event();
  s->launch(params("before_record", 8, 64), [] {});
  s->record(*ev);
  s->wait(*ev);
  dev.destroy_event(ev);  // blocks until the queue no longer references it
  s->synchronize();
  dev.destroy_stream(s);
}

TEST_F(ProfilerTest, ChromeTraceExportIsValidAndSchemaComplete) {
  simt::Device dev(simt::make_sim_a100_config());
  simt::Stream* s = dev.create_stream();
  simt::Event* ev = dev.create_event();
  simt::Profiler::instance().start();
  dev.launch_sync(params("sync_kernel", 4, 64), [] {});
  s->launch(params("stream_kernel", 2, 32), [] {});
  s->record(*ev);
  dev.default_stream().wait(*ev);
  dev.add_transfer(2048);
  dev.synchronize();
  simt::Profiler::instance().stop();

  const std::string json = simt::Profiler::instance().chrome_trace_json();
  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(json).parse()) << json;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  // Top-level schema.
  ASSERT_TRUE(root.object.count("traceEvents"));
  ASSERT_TRUE(root.object.count("displayTimeUnit"));
  ASSERT_TRUE(root.object.count("otherData"));
  const JsonValue& events = root.object["traceEvents"];
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events.array.empty());

  // Every event carries the keys chrome://tracing requires, slices have
  // non-negative durations, and per-(pid, tid) timestamps never go
  // backwards.
  std::map<std::pair<double, double>, double> track_cursor;
  std::size_t slices = 0, metadata = 0, flow_starts = 0, flow_ends = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    ASSERT_TRUE(e.object.count("ph"));
    ASSERT_TRUE(e.object.count("pid"));
    ASSERT_TRUE(e.object.count("name"));
    const std::string ph = e.object.at("ph").string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(e.object.count("tid"));
    ASSERT_TRUE(e.object.count("ts"));
    const double pid = e.object.at("pid").number;
    const double tid = e.object.at("tid").number;
    const double ts = e.object.at("ts").number;
    if (ph == "X") {
      ++slices;
      ASSERT_TRUE(e.object.count("dur"));
      EXPECT_GE(e.object.at("dur").number, 0.0);
      const auto key = std::make_pair(pid, tid);
      const auto it = track_cursor.find(key);
      if (it != track_cursor.end()) EXPECT_GE(ts, it->second - 1e-9);
      track_cursor[key] = ts;
    } else if (ph == "s") {
      ++flow_starts;
      ASSERT_TRUE(e.object.count("id"));
    } else if (ph == "f") {
      ++flow_ends;
      ASSERT_TRUE(e.object.count("id"));
      ASSERT_TRUE(e.object.count("bp"));  // bind to enclosing slice
    } else {
      FAIL() << "unexpected phase " << ph;
    }
  }
  EXPECT_GE(slices, 5u);  // 2 kernels + record + wait + memcpy
  EXPECT_GE(metadata, 3u);  // process_name + >= 2 thread_name entries
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_ends, 1u);

  // The default stream and the created stream render as separate
  // tracks, plus the host-sync track: >= 3 distinct (pid, tid) pairs.
  EXPECT_GE(track_cursor.size(), 3u);

  // Counters registry rides along under otherData.
  const JsonValue& other = root.object["otherData"];
  ASSERT_EQ(other.kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(other.object.count("launches"));
  EXPECT_TRUE(other.object.count("bytes_copied"));
  EXPECT_TRUE(other.object.count("modeled_kernel_ms"));

  dev.destroy_event(ev);
  dev.destroy_stream(s);
}

TEST_F(ProfilerTest, SpanKindNamesAreStable) {
  EXPECT_STREQ(simt::span_kind_name(simt::SpanKind::kKernel), "kernel");
  EXPECT_STREQ(simt::span_kind_name(simt::SpanKind::kMemcpy), "memcpy");
}

}  // namespace

#include "simt/graph.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "simt/block.h"
#include "simt/capi.h"
#include "simt/device.h"
#include "simt/fault.h"
#include "simt/perf.h"
#include "simt/profiler.h"
#include "simt/san.h"

namespace simt {

namespace {

/// Grid-size ceiling for the cached-BlockState replay path. Cached
/// blocks run serially under the graph's replay lock, so the cache is
/// reserved for grids small enough that block *construction*, not
/// block compute, dominates — larger grids keep the work-stealing
/// parallelism of Device::run_blocks.
constexpr std::uint64_t kMaxCachedBlocks = 8;

/// Cached direct-mode blocks never suspend, so the FiberPool reference
/// the BlockState constructor requires is never dereferenced; a
/// graph-local pool satisfies it without tying cached blocks to the
/// thread-local pool of whichever thread ran instantiate().
FiberPool& replay_fiber_pool() {
  static FiberStackPool stacks(FiberStackPool::kDefaultStackSize);
  static FiberPool pool(stacks);
  return pool;
}

std::atomic<std::uint64_t> g_graph_uid{1};

/// Modeled cost of a replayed alloc/free node — matches the executor's
/// charge for the live op (see stream.cpp).
constexpr double kAllocModelMs = 0.0005;

const char* node_kind_name(StreamOp::Kind k) {
  switch (k) {
    case StreamOp::Kind::kKernel: return "kernel";
    case StreamOp::Kind::kMemcpy: return "memcpy";
    case StreamOp::Kind::kMemset: return "memset";
    case StreamOp::Kind::kHostFn: return "host-fn";
    case StreamOp::Kind::kEventRecord: return "event-record";
    case StreamOp::Kind::kEventWait: return "event-wait";
    case StreamOp::Kind::kAlloc: return "alloc";
    case StreamOp::Kind::kFree: return "free";
    case StreamOp::Kind::kGraph: return "graph";
  }
  return "?";
}

const char* copy_label(CopyKind k) {
  switch (k) {
    case CopyKind::kHostToDevice: return "memcpy H2D";
    case CopyKind::kDeviceToHost: return "memcpy D2H";
    case CopyKind::kDeviceToDevice: return "memcpy D2D";
    case CopyKind::kHostToHost: return "memcpy H2H";
  }
  return "memcpy";
}

/// Flow id for the arrow chaining replay k to replay k+1 of one graph.
/// Bit 62 keeps these disjoint from event flows ((uid<<20)+gen) and
/// peer-copy flows (bit 63).
std::uint64_t chain_flow_id(std::uint64_t graph_uid, std::uint64_t k) {
  return (1ull << 62) | (graph_uid << 20) | (k & 0xFFFFF);
}

}  // namespace

Graph::Graph(Device& dev)
    : dev_(dev), uid_(g_graph_uid.fetch_add(1, std::memory_order_relaxed)) {
  capi::LiveSet<Graph>::instance().insert(this);
}

Graph::~Graph() {
  capi::LiveSet<Graph>::instance().erase(this);
  // Graph-owned memory (captured malloc_async) keeps its address across
  // replays and is returned to the device heap only now.
  for (void* p : owned_allocs_) {
    try {
      dev_.memory().deallocate(p);
    } catch (...) {
      // Teardown must not throw; a corrupted block already produced a
      // sanitizer diagnostic where it was detected.
    }
  }
}

void Graph::add_node(StreamOp op) { nodes_.push_back(std::move(op)); }

void Graph::own_allocation(void* p) { owned_allocs_.push_back(p); }

bool Graph::owns_allocation(const void* p) const {
  for (const void* q : owned_allocs_)
    if (q == p) return true;
  return false;
}

std::vector<Graph::NodeInfo> Graph::nodes() const {
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const StreamOp& n : nodes_) {
    NodeInfo info;
    info.kind = node_kind_name(n.kind);
    switch (n.kind) {
      case StreamOp::Kind::kKernel: info.name = n.params.name; break;
      case StreamOp::Kind::kMemcpy: info.name = copy_label(n.copy_kind); break;
      case StreamOp::Kind::kMemset: info.name = "memset"; break;
      case StreamOp::Kind::kAlloc: info.name = "malloc_async"; break;
      case StreamOp::Kind::kFree: info.name = "free_async"; break;
      default: break;
    }
    info.bytes = n.bytes;
    out.push_back(std::move(info));
  }
  return out;
}

void Graph::instantiate() {
  std::lock_guard lock(run_mu_);
  instantiate_locked();
}

bool Graph::instantiated() const {
  std::lock_guard lock(run_mu_);
  return instantiated_;
}

std::uint64_t Graph::replay_count() const {
  std::lock_guard lock(run_mu_);
  return replays_;
}

void Graph::instantiate_locked() {
  if (instantiated_) return;
  if (fault_should_fire(FaultSite::kGraphInstantiate))
    throw std::runtime_error(
        "fault injection: graph instantiate failed (" +
        std::to_string(nodes_.size()) + " node(s) discarded)");
  span_names_.assign(nodes_.size(), std::string());
  exec_modes_.assign(nodes_.size(), std::string());
  cached_blocks_.clear();
  cached_blocks_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    StreamOp& n = nodes_[i];
    switch (n.kind) {
      case StreamOp::Kind::kKernel:
        // Bake what launch_sync re-derives on every submission: the
        // configuration check and the resolved lane-execution mode.
        dev_.validate(n.params);
        n.params.lane_exec = dev_.resolve_lane_exec(n.params);
        if (n.params.lane_exec == LaneExec::kConvergent &&
            exec_hint(n.params.name).atomics_ok)
          n.params.inline_atomics = true;
        span_names_[i] = n.params.name;
        exec_modes_[i] = exec_mode_name(n.params.mode, n.params.lane_exec);
        // Pre-build the node's BlockStates when the grid is small and
        // sync-free: replay then pays a reset instead of reconstructing
        // warp states and thread contexts per launch. The references
        // the blocks capture (n.params, n.kernel) stay valid — nodes_
        // does not change after capture.
        if (n.params.mode == ExecMode::kDirect &&
            n.params.grid.count() <= kMaxCachedBlocks) {
          auto& cache = cached_blocks_[i];
          cache.reserve(n.params.grid.count());
          for (std::uint64_t b = 0; b < n.params.grid.count(); ++b)
            cache.push_back(std::make_unique<BlockState>(
                dev_, n.params, block_id(n.params, b), n.kernel,
                replay_fiber_pool()));
        }
        break;
      case StreamOp::Kind::kEventRecord:
      case StreamOp::Kind::kEventWait:
        if (!dev_.exec_->event_alive(n.event))
          throw std::invalid_argument(
              "graph instantiate: captured event was destroyed");
        break;
      default:
        break;
    }
  }
  instantiated_ = true;
}

LaunchStats Graph::run_cached(std::size_t i) {
  LaunchStats stats = launch_header(nodes_[i].params);
  for (auto& block : cached_blocks_[i]) {
    block->reset_for_replay();
    block->run();
    stats += block->counters();
  }
  return stats;
}

Graph::ReplayExtent Graph::execute_on(Stream& s) {
  std::lock_guard run_lock(run_mu_);
  instantiate_locked();
  StreamExecutor& ex = s.ex_;
  const bool prof = profiling_enabled();
  double ts;
  {
    std::lock_guard lock(ex.mu_);
    ts = s.modeled_ready_ms_;
  }
  const double start_ms = ts;
  std::vector<TraceSpan> spans;
  if (prof) spans.reserve(nodes_.size() + 1);

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    StreamOp& n = nodes_[i];
    TraceSpan span;
    span.ts_ms = ts;
    switch (n.kind) {
      case StreamOp::Kind::kKernel: {
        // The replay fast path: straight to the block runner with the
        // baked params. No validation, no policy lookup, no launch-log
        // record — per-launch setup was paid once at instantiate.
        // Small direct-mode grids go further and reuse the BlockStates
        // built at instantiate; the sanitizer check routes instrumented
        // runs through the ordinary runner, whose fresh blocks carry
        // fresh shadow state.
        const LaunchStats stats =
            !cached_blocks_[i].empty() && !san_enabled(kSanAll)
                ? run_cached(i)
                : dev_.run_blocks(n.params, n.kernel);
        const ModeledTime t = model_time(
            dev_.cfg_, n.params.profile, n.params.cost, stats,
            static_cast<std::uint32_t>(n.params.block.count()),
            n.params.dynamic_smem_bytes, dev_.costs_);
        if (n.on_complete || prof) {
          LaunchRecord rec;
          rec.name = span_names_[i];
          rec.grid = n.params.grid;
          rec.block = n.params.block;
          rec.stats = stats;
          rec.time = t;
          rec.exec_mode = exec_modes_[i];
          if (prof) span = kernel_span(rec);
          if (n.on_complete) n.on_complete(rec);
        }
        span.ts_ms = ts;
        ts += t.total_ms;
        break;
      }
      case StreamOp::Kind::kMemcpy: {
        dev_.memory().copy(n.dst, n.src, n.bytes, n.copy_kind);
        const double ms = n.copy_kind == CopyKind::kDeviceToDevice
                              ? static_cast<double>(n.bytes) /
                                    (dev_.config().mem_bw_gbps * 1e6)
                              : dev_.model_transfer_ms(n.bytes);
        if (n.copy_kind != CopyKind::kDeviceToDevice &&
            n.copy_kind != CopyKind::kHostToHost)
          dev_.add_transfer(n.bytes);
        ts += ms;
        if (prof) {
          span.kind = SpanKind::kMemcpy;
          span.name = copy_label(n.copy_kind);
          span.dur_ms = ms;
          span.bytes = n.bytes;
        }
        break;
      }
      case StreamOp::Kind::kMemset: {
        dev_.memory().set(n.dst, n.value, n.bytes);
        const double ms =
            static_cast<double>(n.bytes) / (dev_.config().mem_bw_gbps * 1e6);
        ts += ms;
        if (prof) {
          span.kind = SpanKind::kMemset;
          span.name = "memset";
          span.dur_ms = ms;
          span.bytes = n.bytes;
        }
        break;
      }
      case StreamOp::Kind::kAlloc:
      case StreamOp::Kind::kFree: {
        // Same virtual address every replay; only modeled time moves.
        ts += kAllocModelMs;
        if (prof) {
          span.kind = n.kind == StreamOp::Kind::kAlloc ? SpanKind::kAlloc
                                                       : SpanKind::kFree;
          span.name = n.kind == StreamOp::Kind::kAlloc ? "malloc_async"
                                                       : "free_async";
          span.dur_ms = kAllocModelMs;
          span.bytes = n.bytes;
        }
        break;
      }
      case StreamOp::Kind::kHostFn: {
        n.fn();
        if (prof) {
          span.kind = SpanKind::kHostFn;
          span.name = "host-fn";
        }
        break;
      }
      case StreamOp::Kind::kEventRecord: {
        std::lock_guard lock(ex.mu_);
        n.event->recorded_ = true;
        n.event->pending_ = false;
        n.event->generation_++;
        n.event->modeled_ms_ = ts;
        ex.cv_complete_.notify_all();
        if (prof) {
          span.kind = SpanKind::kEventRecord;
          span.name = "event record";
          span.flow_id = (n.event->uid_ << 20) + n.event->generation_;
          span.flow_out = true;
        }
        break;
      }
      case StreamOp::Kind::kEventWait: {
        // Replays re-use the captured interleaving: the wait only maxes
        // the modeled timeline, it does not block node execution.
        std::lock_guard lock(ex.mu_);
        const double before = ts;
        ts = std::max(ts, n.event->modeled_ms_);
        if (prof) {
          span.kind = SpanKind::kEventWait;
          span.name = "event wait";
          span.dur_ms = ts - before;
          span.flow_id = n.event->generation_ == 0
                             ? 0
                             : (n.event->uid_ << 20) + n.event->generation_;
        }
        break;
      }
      case StreamOp::Kind::kGraph:
        break;  // unreachable: submit() rejects captured graph launches
    }
    if (prof) {
      span.track = s.id_ + 1;
      spans.push_back(std::move(span));
    }
  }

  {
    std::lock_guard lock(ex.mu_);
    s.modeled_ready_ms_ = std::max(s.modeled_ready_ms_, ts);
  }
  replays_++;

  ReplayExtent ext;
  ext.start_ms = start_ms;
  ext.end_ms = ts;
  ext.chain_flow_id = replays_ > 1 ? chain_flow_id(uid_, replays_ - 1) : 0;
  if (prof) {
    // A zero-duration fence closes each replay; the *next* replay's
    // umbrella span consumes its arrow, so chained replays are visibly
    // linked even when they land on different stream tracks.
    TraceSpan fence;
    fence.kind = SpanKind::kGraph;
    fence.name = "graph fence";
    fence.ts_ms = ts;
    fence.track = s.id_ + 1;
    fence.flow_id = chain_flow_id(uid_, replays_);
    fence.flow_out = true;
    spans.push_back(std::move(fence));
    for (TraceSpan& sp : spans) Profiler::instance().record(dev_, sp);
  }
  return ext;
}

bool graph_alive(const Graph* g) {
  return capi::LiveSet<Graph>::instance().contains(g);
}

void destroy_graph(Graph* g) {
  if (g == nullptr) return;
  if (!graph_alive(g))
    throw std::invalid_argument("destroy_graph: not a live graph");
  // Drain any in-flight replay before tearing the node list down.
  g->device().synchronize();
  delete g;
}

}  // namespace simt

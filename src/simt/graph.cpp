#include "simt/graph.h"

#include <atomic>
#include <mutex>
#include <stdexcept>

#include "simt/capi.h"
#include "simt/device.h"
#include "simt/fault.h"
#include "simt/profiler.h"

namespace simt {

namespace {

std::atomic<std::uint64_t> g_graph_uid{1};

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
    out.push_back({span_kind_name(n.kind), op_label(n), n.bytes});
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
  for (StreamOp& n : nodes_) {
    if (n.kind == StreamOp::Kind::kKernel) {
      // Bake what a live launch re-derives on every submission: the
      // configuration check and the resolved lane-execution mode.
      // Replays do not append to the launch log.
      dev_.resolve_launch(n.params);
      n.params.log = false;
      n.resolved = true;
    } else if ((n.kind == StreamOp::Kind::kEventRecord ||
                n.kind == StreamOp::Kind::kEventWait) &&
               !dev_.exec_->event_alive(n.event)) {
      throw std::invalid_argument(
          "graph instantiate: captured event was destroyed");
    }
  }
  instantiated_ = true;
}

std::uint64_t Graph::execute_on(Stream& s) {
  std::lock_guard run_lock(run_mu_);
  instantiate_locked();
  for (StreamOp& n : nodes_) s.ex_.run_op(s, n);
  replays_++;
  if (profiling_enabled()) {
    // A zero-duration fence closes each replay; the *next* replay's
    // umbrella span consumes its arrow, so chained replays are visibly
    // linked even when they land on different stream tracks.
    TraceSpan fence;
    fence.kind = SpanKind::kGraph;
    fence.name = "graph fence";
    fence.ts_ms = s.modeled_ready_ms();
    fence.track = s.id_ + 1;
    fence.flow_id = chain_flow_id(uid_, replays_);
    fence.flow_out = true;
    Profiler::instance().record(dev_, std::move(fence));
  }
  return replays_ > 1 ? chain_flow_id(uid_, replays_ - 1) : 0;
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

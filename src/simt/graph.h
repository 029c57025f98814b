// Graph capture & replay (the cudaGraph analogue).
//
// A Graph is a recorded sequence of stream operations — kernel
// launches, async copies/memsets, stream-ordered allocs/frees, host
// callbacks, event records/waits — captured between
// Stream::begin_capture() and Stream::end_capture(). instantiate()
// bakes the per-launch setup that a live launch pays every time
// (configuration validation and lane-exec resolution, via
// Device::resolve_launch); replay (Stream::launch_graph) then re-issues
// the whole sequence as a single stream op that runs each node through
// the executor's one op step (StreamExecutor::run_op) — the same
// blocks (Device::run_blocks), modeled cost, span, watchdog and
// completion code a live op gets — minus the per-launch setup and the
// per-op submission: no validation, no exec-policy lookup, no
// launch-log push, no queueing or drain wakeup per node, and a record
// assembled only when something reads it. That is what makes replay
// of a launch-bound iteration (Adam, Stencil-1D) several times cheaper
// than re-submitting the launches individually.
//
// Semantics (deliberately CUDA-faithful):
//  - malloc_async during capture allocates immediately; the graph owns
//    the block, every replay sees the same virtual address, and the
//    memory is returned to the device heap when the graph is destroyed.
//  - Replays do not append Device::launch_log records (cudaGraphLaunch
//    does not report per-kernel results either); equivalence with the
//    captured sequence is observed through memory effects and the
//    modeled timeline, and per-node spans still appear under tracing.
//  - Event records/waits replay as modeled-timeline operations: a
//    record publishes the stream's replay-time timestamp, a wait maxes
//    the timeline against the event's — cross-stream *blocking* is not
//    re-evaluated inside a replay (the captured order already encodes
//    one legal interleaving).
//  - Concurrent replays of one graph serialize on the graph's mutex;
//    replays of different graphs overlap freely.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simt/stream.h"

namespace simt {

class Graph {
 public:
  ~Graph();

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  [[nodiscard]] Device& device() const { return dev_; }

  /// Captured nodes, in stream order (the two-call C enumeration idiom
  /// is built on this).
  struct NodeInfo {
    std::string kind;        ///< "kernel", "memcpy", "alloc", ...
    std::string name;        ///< kernel name / op label (op_label)
    std::uint64_t bytes = 0; ///< payload for memory nodes
  };
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::vector<NodeInfo> nodes() const;

  /// Bakes per-node setup: validates every kernel configuration,
  /// resolves and pins each kernel's lane-execution mode, and checks
  /// that captured event references are still alive. Idempotent;
  /// replay calls it automatically if the caller has not. Throws
  /// std::invalid_argument on a node that can no longer execute (e.g.
  /// a destroyed event).
  void instantiate();
  [[nodiscard]] bool instantiated() const;

  /// How many times this graph has been replayed to completion.
  [[nodiscard]] std::uint64_t replay_count() const;

 private:
  friend class Stream;
  friend class StreamExecutor;

  explicit Graph(Device& dev);

  void add_node(StreamOp op);      // capture path (executor lock held)
  void own_allocation(void* p);
  [[nodiscard]] bool owns_allocation(const void* p) const;

  /// Runs every node through the executor's op step on the drain that
  /// runs the replay op, then closes the replay with its chain-fence span.
  /// Serialized per graph. Returns the flow id of the arrow arriving
  /// from the previous replay's fence (0 for the first replay).
  std::uint64_t execute_on(Stream& s);

  void instantiate_locked();

  Device& dev_;
  std::uint64_t uid_;
  std::vector<StreamOp> nodes_;
  std::vector<void*> owned_allocs_;
  mutable std::mutex run_mu_;  // serializes replays and instantiation
  bool instantiated_ = false;
  std::uint64_t replays_ = 0;
};

/// True if `g` points at a live (not yet destroyed) Graph — the C ABI's
/// use-after-destroy check.
[[nodiscard]] bool graph_alive(const Graph* g);

/// Synchronizes the graph's device (draining any in-flight replay),
/// releases graph-owned allocations, and destroys the graph. nullptr
/// is a no-op; throws std::invalid_argument if `g` is not a live graph
/// (double destroy / never created).
void destroy_graph(Graph* g);

}  // namespace simt

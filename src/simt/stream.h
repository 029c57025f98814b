// Streams, events and the per-device executor.
//
// A stream is an ordered queue of device operations; operations in
// different streams may execute concurrently and are ordered only
// through events — CUDA/HIP semantics. The engine executes operations
// functionally in *drains*: tasks the executor posts to the host thread
// pool (run_on_host_pool), at most a few per device. A drain runs ready
// stream heads, one op per stream in flight at a time, choosing any
// ready head (a legal interleaving), and goes back to the pool when
// none is ready — so independent streams genuinely overlap in host wall
// time, and an idle device holds no thread. A *modeled* timeline
// tracks what the concurrency would cost on the simulated device: each
// op begins at max(stream-ready, awaited-event timestamps) and advances
// its stream by the op's modeled duration. Cross-stream dependency
// cycles are detected and thrown instead of hanging.
//
// Streams also feed two higher-level mechanisms:
//  - the stream-ordered allocator (malloc_async/free_async) reusing
//    freed blocks from a per-stream pool (see simt/memory.h), and
//  - graph capture (begin_capture/end_capture), which redirects
//    submitted ops into a simt::Graph for cheap replay (simt/graph.h).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "simt/kernel.h"
#include "simt/memory.h"
#include "simt/profiler.h"

namespace simt {

class Device;
class Graph;
class StreamExecutor;
struct LaunchRecord;

/// True on a pool thread while a drain runs an op on it. Host-blocking
/// waits skip themselves there: the op would wait on its own stream.
inline bool in_stream_op() { return telemetry_detail::t_in_stream_op; }

/// An event marks a point in a stream; other streams (or the host) can
/// wait on it. Create via Device::create_event().
class Event {
 public:
  ~Event();  // unregisters from the live-handle registry

  /// The device whose executor owns this event.
  [[nodiscard]] Device& device() const;
  /// Host-side wait until the marked point has executed.
  void synchronize();
  /// True once the marked point has executed (false if never recorded).
  [[nodiscard]] bool query() const;
  /// Modeled timestamp (ms on the device timeline) of the marked point.
  [[nodiscard]] double modeled_ms() const;

 private:
  friend class StreamExecutor;
  friend class Stream;
  friend class Device;
  explicit Event(StreamExecutor& ex);

  StreamExecutor& ex_;
  bool recorded_ = false;   // an EventRecord op executed
  bool pending_ = false;    // an EventRecord op is enqueued
  double modeled_ms_ = 0.0;
  std::uint64_t generation_ = 0;
  std::uint64_t uid_ = 0;   // stable id; seeds trace flow-arrow ids
};

/// One queued stream operation. Normally these live briefly in the
/// executor's per-stream rings; during graph capture they are recorded
/// into a simt::Graph instead and replayed from there.
struct StreamOp {
  /// Ops and their trace spans share one kind list.
  using Kind = SpanKind;
  Kind kind = Kind::kKernel;
  // kernel
  LaunchParams params{};
  KernelFn kernel{};
  std::function<void(const LaunchRecord&)> on_complete{};
  /// Set on graph kernel nodes by Graph::instantiate, which resolved
  /// `params` once. False on live ops, which the op step resolves per
  /// launch.
  bool resolved = false;
  // memcpy / memset / alloc / free (alloc & free carry the block in
  // `dst` and its size in `bytes`; the memory work happened at enqueue
  // time — executing the op only advances the modeled timeline)
  void* dst = nullptr;
  const void* src = nullptr;
  std::size_t bytes = 0;
  CopyKind copy_kind = CopyKind::kHostToDevice;
  int value = 0;
  bool pool_hit = false;  // kAlloc: served from the stream pool
  // host fn
  std::function<void()> fn{};
  // events
  Event* event = nullptr;
  // graph replay
  Graph* graph = nullptr;
};

/// The name `op`'s trace span and graph node carry: the kernel's name,
/// else a fixed label per kind ("memcpy H2D", "malloc_async (pooled)",
/// "event wait", ...).
[[nodiscard]] const char* op_label(const StreamOp& op);

/// An ordered queue of device operations. Create via
/// Device::create_stream(); Device::default_stream() always exists.
class Stream {
 public:
  ~Stream();  // unregisters from the live-handle registry

  Device& device() { return dev_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Enqueue a kernel. The launch executes asynchronously; use
  /// synchronize()/events to observe completion. Per-launch results
  /// (stats + modeled time) land in Device::launch_log(). A non-null
  /// `on_complete` gets the finished record on the executor's thread —
  /// how a sharded launch collects per-shard records whose log entries
  /// are suppressed (LaunchParams::log = false), and how ompx::launch
  /// tickets complete. A launch that fails, or is dropped unrun
  /// (deadlock, watchdog, executor shutdown), gets an empty record.
  void launch(const LaunchParams& params, KernelFn kernel,
              std::function<void(const LaunchRecord&)> on_complete = {});

  /// Asynchronous memcpy/memset on this stream.
  void memcpy_async(void* dst, const void* src, std::size_t bytes, CopyKind kind);
  void memset_async(void* ptr, int value, std::size_t bytes);

  /// Stream-ordered allocation (cudaMallocAsync): the pointer is usable
  /// by any op enqueued on this stream after this call. Reuses an
  /// exact-size block from this stream's free pool when one is
  /// available, else allocates fresh device memory.
  void* malloc_async(std::size_t bytes);
  /// Stream-ordered free (cudaFreeAsync): the block joins this stream's
  /// free pool for reuse by later malloc_asyncs; it is only returned to
  /// the device heap when the pool is trimmed (stream destroy / device
  /// teardown / explicit trim). Throws std::invalid_argument unless
  /// `ptr` is the base of a live allocation on this stream's device.
  /// During capture, only graph-owned (captured-malloc_async) blocks
  /// may be freed.
  void free_async(void* ptr);

  /// Enqueue a host callback (runs on the executor's thread when reached).
  void host_fn(std::function<void()> fn);

  /// Record `ev` at this point of the stream / make this stream wait
  /// for `ev` before executing later operations.
  void record(Event& ev);
  void wait(Event& ev);

  /// Graph capture (cudaStreamBeginCapture): until end_capture(), ops
  /// submitted to this stream are recorded into a Graph instead of
  /// executing. One capture may be active per device at a time.
  /// Synchronizing or destroying a capturing stream throws.
  void begin_capture();
  /// Ends capture and returns the recorded graph. Throws if the stream
  /// is not capturing.
  std::unique_ptr<Graph> end_capture();
  [[nodiscard]] bool capturing() const;

  /// Enqueue a replay of `g` (cudaGraphLaunch): the captured op
  /// sequence re-executes as a single stream op, skipping per-launch
  /// setup (validation, exec-mode resolution, record assembly).
  /// Instantiates the graph first if the caller has not.
  void launch_graph(Graph& g);

  /// Host-side wait for everything enqueued so far on this stream.
  void synchronize();
  /// True if everything enqueued so far has executed.
  [[nodiscard]] bool query() const;

  /// Modeled device-timeline timestamp at which this stream is idle.
  [[nodiscard]] double modeled_ready_ms() const;

 private:
  friend class StreamExecutor;
  friend class Device;
  friend class Graph;
  Stream(Device& dev, StreamExecutor& ex, std::uint64_t id);

  Device& dev_;
  StreamExecutor& ex_;
  std::uint64_t id_;
  /// Written only by the drain running this stream's op (one in flight
  /// per stream); atomic so host readers need no executor lock.
  std::atomic<double> modeled_ready_ms_{0.0};
  std::deque<StreamOp> queue_;      // ops not yet taken (executor mutex)
  std::uint64_t submitted_ = 0;     // ops enqueued (executor mutex)
  std::uint64_t completed_ = 0;     // ops executed (executor mutex)
  bool inflight_ = false;           // a drain is executing this stream's
                                    // head (executor mutex)
  bool capturing_ = false;          // ops redirect into a Graph (executor
                                    // mutex)
  bool timed_out_ = false;          // the wall-clock watchdog killed this
                                    // stream; it stays dead (executor mutex)
};

/// Live-handle registries: true while the pointer refers to a Stream /
/// Event that has been created and not yet destroyed. The C ABIs use
/// these to reject use-after-destroy handles with a clean error code
/// instead of undefined behavior. nullptr returns false.
[[nodiscard]] bool stream_alive(const Stream* s);
[[nodiscard]] bool event_alive(const Event* ev);

/// One executor per device: owns the op queues and posts the drains
/// and the watchdog monitor that work them to the host thread pool.
class StreamExecutor {
 public:
  explicit StreamExecutor(Device& dev);
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  Stream* create_stream();
  Event* create_event();
  Stream& default_stream() { return *streams_.front(); }

  /// Drains the stream's pending/in-flight ops (including anything a
  /// drain is currently running), trims its memory pool, then
  /// releases it. Destroying the default stream or a capturing stream
  /// throws; nullptr is a no-op.
  void destroy_stream(Stream* s);
  /// Waits until no queued or in-flight op references the event, then
  /// releases it. nullptr is a no-op. (Captured graphs hold event
  /// references this cannot see; destroying an event a live graph uses
  /// invalidates that graph — re-instantiate to detect it.)
  void destroy_event(Event* ev);

  /// Host-side wait for every op on every stream submitted so far.
  void synchronize_all();

  /// Max modeled ready time across all streams (the device timeline).
  [[nodiscard]] double modeled_now_ms() const;

  /// Rethrows (once) an exception raised by an asynchronous op, like
  /// cudaGetLastError surfacing async failures.
  void check_async_error();

  /// True if `ev` is a live event of this executor (graphs validate
  /// their captured event references against this at instantiate).
  [[nodiscard]] bool event_alive(const Event* ev) const;

 private:
  friend class Stream;
  friend class Event;
  friend class Graph;

  using Op = StreamOp;

  /// One in-flight op's slot, watched by the wall-clock watchdog
  /// monitor. `epoch` is bumped when the monitor abandons the slot: the
  /// stuck drain sees the mismatch when (if) its op finally returns and
  /// leaves as a zombie instead of touching state its successor owns.
  struct SlotState {
    const Event* event = nullptr;  ///< pins the op's event vs destroy_event
    Stream* stream = nullptr;      ///< stream whose op is executing
    std::uint64_t epoch = 0;
    bool busy = false;
    std::chrono::steady_clock::time_point start{};
  };

  void submit(Stream& s, Op op);
  /// Under lock: can `s`'s head op run now (none of its ops in flight,
  /// and not a wait on an unrecorded event)? Is any op queued at all?
  [[nodiscard]] bool ready_locked(const Stream& s) const;
  [[nodiscard]] bool queued_locked() const;
  /// Under lock: posts a drain (up to one per slot) for each ready head
  /// no idle drain will take, and one when work is queued but none runs.
  void post_drains_locked();
  /// A pool task: runs ready stream heads until none is ready. The last
  /// drain stays while work is queued, for the dependency-deadlock check.
  void drain();
  /// Under `lock`: counts the queued ops of `only` (of every stream when
  /// null) complete and drops them, releasing their launches' tickets
  /// with the lock released.
  void drop_queued(std::unique_lock<std::mutex>& lock, Stream* only);
  /// The one op step, shared by live execution and graph replay: runs
  /// `op` on `s`'s modeled timeline (start at the stream's ready time,
  /// advance it by the op's modeled cost), records the op's span, then
  /// completes a kernel's on_complete — after the span, and with an
  /// empty record if the kernel failed (the error is then rethrown).
  void run_op(Stream& s, Op& op);
  /// Under lock: any queued (or in-flight) op referencing `ev`?
  [[nodiscard]] bool event_referenced_locked(const Event* ev) const;
  /// Watchdog monitor, a pool task: polls busy slots against
  /// simt::wall_watchdog_ms() until shutdown.
  void monitor_loop();
  /// Under `lock`: fails `slot`'s stream with TimeoutError, drops its
  /// queue, and frees the slot for a replacement drain (the stuck one
  /// becomes a zombie that leaves when its op returns).
  void abandon_slot(std::unique_lock<std::mutex>& lock, unsigned slot,
                    double elapsed_ms, double budget_ms);

  Device& dev_;
  mutable std::mutex mu_;
  std::condition_variable cv_submit_;   // the last drain waits for work
  std::condition_variable cv_complete_; // op completion, task exit
  std::condition_variable cv_monitor_;  // wakes the watchdog monitor
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Event>> events_;
  std::exception_ptr async_error_;
  bool shutdown_ = false;
  std::uint64_t next_stream_id_ = 0;
  std::uint64_t next_event_uid_ = 1;
  std::uint64_t total_submitted_ = 0;
  std::uint64_t total_completed_ = 0;
  unsigned executing_ = 0;                 // ops currently in flight
  unsigned drains_ = 0;                    // drain tasks posted
  std::vector<SlotState> slots_;           // one per drain allowed
  /// Event pins moved out of an abandoned slot; the zombie drops its
  /// entry when it exits (destroy_event scans these too).
  std::vector<const Event*> zombie_event_pins_;
  /// Streams destroyed while timed out are parked here (not freed):
  /// their zombie drain may still touch them when its op returns.
  std::vector<std::unique_ptr<Stream>> abandoned_streams_;
  unsigned zombies_ = 0;
  double destroyed_streams_max_ms_ = 0.0;  // keeps modeled_now_ms monotonic
  // Graph capture: at most one capturing stream per device.
  Stream* capture_stream_ = nullptr;
  std::unique_ptr<Graph> capture_;
  bool monitor_running_ = false;  // the watchdog monitor task is posted
};

}  // namespace simt

#include "simt/stream.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "simt/capi.h"
#include "simt/device.h"
#include "simt/fault.h"
#include "simt/graph.h"
#include "simt/profiler.h"
#include "simt/watchdog.h"

namespace simt {

namespace {

/// Marks the drain's thread as inside a stream op so the inner
/// add_transfer (or a launch_sync a host fn makes) does not record on
/// the sync track: the op step records the span itself, with the
/// stream track and modeled start.
struct ScopedStreamOp {
  bool prev;
  ScopedStreamOp() : prev(telemetry_detail::t_in_stream_op) {
    telemetry_detail::t_in_stream_op = true;
  }
  ~ScopedStreamOp() { telemetry_detail::t_in_stream_op = prev; }
};

/// Flow-arrow id linking an event's record slice to the waits that
/// observed that recording (generation 0 = never recorded, no arrow).
std::uint64_t event_flow_id(std::uint64_t uid, std::uint64_t generation) {
  return generation == 0 ? 0 : (uid << 20) + generation;
}

/// Completes a kernel op that has no record — it failed, or it was
/// dropped unrun — with an empty one, so a ticket waiting on it is
/// released. Called without the executor lock.
void complete_empty(StreamOp& op) {
  if (op.kind != StreamOp::Kind::kKernel || !op.on_complete) return;
  try {
    op.on_complete(LaunchRecord{});
  } catch (...) {
  }
}

/// Modeled cost of a stream-ordered alloc/free op: a fixed sliver of
/// device time (suballocation from a resident pool, not an OS call).
constexpr double kAllocModelMs = 0.0005;

}  // namespace

const char* op_label(const StreamOp& op) {
  switch (op.kind) {
    case StreamOp::Kind::kKernel: return op.params.name;
    case StreamOp::Kind::kMemcpy:
      switch (op.copy_kind) {
        case CopyKind::kHostToDevice: return "memcpy H2D";
        case CopyKind::kDeviceToHost: return "memcpy D2H";
        case CopyKind::kDeviceToDevice: return "memcpy D2D";
        case CopyKind::kHostToHost: return "memcpy H2H";
      }
      return "memcpy";
    case StreamOp::Kind::kMemset: return "memset";
    case StreamOp::Kind::kHostFn: return "host-fn";
    case StreamOp::Kind::kEventRecord: return "event record";
    case StreamOp::Kind::kEventWait: return "event wait";
    case StreamOp::Kind::kAlloc:
      return op.pool_hit ? "malloc_async (pooled)" : "malloc_async";
    case StreamOp::Kind::kFree: return "free_async";
    case StreamOp::Kind::kGraph: return "graph replay";
  }
  return "?";
}

bool stream_alive(const Stream* s) {
  return capi::LiveSet<Stream>::instance().contains(s);
}

bool event_alive(const Event* ev) {
  return capi::LiveSet<Event>::instance().contains(ev);
}

// ---------------------------------------------------------------- Event

Event::Event(StreamExecutor& ex) : ex_(ex) {
  capi::LiveSet<Event>::instance().insert(this);
}

Event::~Event() { capi::LiveSet<Event>::instance().erase(this); }

Device& Event::device() const { return ex_.dev_; }

void Event::synchronize() {
  std::unique_lock lock(ex_.mu_);
  // CUDA semantics: synchronizing an event that was never recorded (and
  // has no record in flight) succeeds immediately.
  if (!recorded_ && !pending_) return;
  ex_.cv_complete_.wait(lock, [&] {
    return recorded_ || ex_.async_error_ != nullptr;
  });
}

bool Event::query() const {
  std::lock_guard lock(ex_.mu_);
  return recorded_;
}

double Event::modeled_ms() const {
  std::lock_guard lock(ex_.mu_);
  return modeled_ms_;
}

// ---------------------------------------------------------------- Stream

Stream::Stream(Device& dev, StreamExecutor& ex, std::uint64_t id)
    : dev_(dev), ex_(ex), id_(id) {
  capi::LiveSet<Stream>::instance().insert(this);
}

Stream::~Stream() { capi::LiveSet<Stream>::instance().erase(this); }

void Stream::launch(const LaunchParams& params, KernelFn kernel,
                    std::function<void(const LaunchRecord&)> on_complete) {
  dev_.validate_launch(params);
  ex_.submit(*this, {.kind = StreamOp::Kind::kKernel,
                     .params = params,
                     .kernel = std::move(kernel),
                     .on_complete = std::move(on_complete)});
}

void Stream::memcpy_async(void* dst, const void* src, std::size_t bytes,
                          CopyKind kind) {
  ex_.submit(*this, {.kind = StreamOp::Kind::kMemcpy,
                     .dst = dst,
                     .src = src,
                     .bytes = bytes,
                     .copy_kind = kind});
}

void Stream::memset_async(void* ptr, int value, std::size_t bytes) {
  ex_.submit(*this, {.kind = StreamOp::Kind::kMemset,
                     .dst = ptr,
                     .bytes = bytes,
                     .value = value});
}

void* Stream::malloc_async(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  {
    std::lock_guard lock(ex_.mu_);
    if (capturing_) {
      // Captured allocation: materialize now so every replay sees the
      // same virtual address; the graph owns the block until destroy.
      void* p = nullptr;
      try {
        p = dev_.memory().allocate(bytes);
      } catch (const std::bad_alloc&) {
        // Pooled blocks are idle capacity; reclaim them and retry once
        // before reporting device OOM.
        dev_.mem_pool().trim();
        p = dev_.memory().allocate(bytes);
      }
      ex_.capture_->own_allocation(p);
      ex_.capture_->add_node(
          {.kind = StreamOp::Kind::kAlloc, .dst = p, .bytes = bytes});
      return p;
    }
  }
  // Stream-ordered reuse happens at enqueue time: a block freed_async
  // earlier on this stream is safe to hand out because every op that
  // used it was enqueued (and thus executes) before any op that will
  // use it under its new life — the cudaMallocAsync guarantee.
  void* p = dev_.mem_pool().acquire(id_, bytes);
  const bool hit = p != nullptr;
  if (p == nullptr) {
    try {
      p = dev_.memory().allocate(bytes);
    } catch (const std::bad_alloc&) {
      // Device OOM with pooled blocks parked on other streams: those
      // blocks are live-but-idle capacity. Wait out pending work (their
      // last uses), return every pool to the device heap, and retry once
      // before letting the OOM surface — the cudaMallocAsync fallback.
      // Inside a stream op (graph replay) skip the wait; waiting on
      // our own pool would deadlock.
      if (!telemetry_detail::t_in_stream_op) ex_.synchronize_all();
      dev_.mem_pool().trim();
      p = dev_.memory().allocate(bytes);
    }
  }
  try {
    ex_.submit(*this, {.kind = StreamOp::Kind::kAlloc,
                       .dst = p,
                       .bytes = bytes,
                       .pool_hit = hit});
  } catch (...) {
    // Enqueue refused (timed-out stream, injected fault): return the
    // block to the heap before surfacing the error, or it is stranded
    // outside both the pool and the caller — a silent leak.
    dev_.memory().deallocate(p);
    throw;
  }
  dev_.mem_pool().note_async_live(p, id_);
  return p;
}

void Stream::free_async(void* ptr) {
  if (ptr == nullptr) return;
  const std::size_t bytes = dev_.memory().allocation_size(ptr);
  if (bytes == 0) {
    // A peer device's pointer gets a routing diagnostic; anything else
    // is an invalid free against this device's registry.
    Device* owner = resolve_device(ptr);
    if (owner != nullptr && owner != &dev_)
      throw std::invalid_argument(
          "free_async: pointer belongs to device '" + owner->config().name +
          "'; stream-ordered frees must target a stream on the owning "
          "device");
    throw std::invalid_argument(
        "free_async: pointer is not the base of a live allocation on this "
        "stream's device");
  }
  {
    std::lock_guard lock(ex_.mu_);
    if (capturing_) {
      if (!ex_.capture_->owns_allocation(ptr))
        throw std::invalid_argument(
            "free_async during capture: only blocks from a captured "
            "malloc_async may be freed (an external block would be freed "
            "again on every replay)");
      ex_.capture_->add_node(
          {.kind = StreamOp::Kind::kFree, .dst = ptr, .bytes = bytes});
      return;
    }
  }
  if (!dev_.mem_pool().is_async_live(ptr))
    throw std::invalid_argument(
        "free_async: pointer was not allocated with malloc_async; use "
        "ompx_free for plain ompx_malloc blocks (a cross-API free would "
        "corrupt the stream-ordered pool)");
  // Enqueue before pooling: if the stream refuses the op (timed out),
  // the allocation stays live and the caller's error is accurate —
  // pooling first would hand out a block whose free "failed".
  ex_.submit(*this,
             {.kind = StreamOp::Kind::kFree, .dst = ptr, .bytes = bytes});
  dev_.mem_pool().note_async_dead(ptr);
  dev_.mem_pool().release(id_, ptr, bytes);
}

void Stream::host_fn(std::function<void()> fn) {
  ex_.submit(*this, {.kind = StreamOp::Kind::kHostFn, .fn = std::move(fn)});
}

void Stream::record(Event& ev) {
  ex_.submit(*this, {.kind = StreamOp::Kind::kEventRecord, .event = &ev});
}

void Stream::wait(Event& ev) {
  ex_.submit(*this, {.kind = StreamOp::Kind::kEventWait, .event = &ev});
}

void Stream::begin_capture() {
  std::lock_guard lock(ex_.mu_);
  if (ex_.capture_stream_ != nullptr)
    throw std::invalid_argument(
        "begin_capture: a capture is already active on this device");
  ex_.capture_ = std::unique_ptr<Graph>(new Graph(dev_));
  ex_.capture_stream_ = this;
  capturing_ = true;
}

std::unique_ptr<Graph> Stream::end_capture() {
  std::lock_guard lock(ex_.mu_);
  if (!capturing_)
    throw std::invalid_argument("end_capture: stream is not capturing");
  capturing_ = false;
  ex_.capture_stream_ = nullptr;
  return std::move(ex_.capture_);
}

bool Stream::capturing() const {
  std::lock_guard lock(ex_.mu_);
  return capturing_;
}

void Stream::launch_graph(Graph& g) {
  if (&g.device() != &dev_)
    throw std::invalid_argument(
        "launch_graph: graph was captured on a different device");
  g.instantiate();  // idempotent; no-op after the first call
  ex_.submit(*this, {.kind = StreamOp::Kind::kGraph, .graph = &g});
}

void Stream::synchronize() {
  std::unique_lock lock(ex_.mu_);
  if (capturing_)
    throw std::invalid_argument(
        "cannot synchronize a stream while it is capturing a graph");
  const std::uint64_t upto = submitted_;
  ex_.cv_complete_.wait(lock, [&] {
    return completed_ >= upto || ex_.async_error_ != nullptr;
  });
  const bool timed_out = timed_out_;
  lock.unlock();
  ex_.check_async_error();
  // The watchdog's first report goes through async_error_ above; every
  // later wait on the dead stream still fails deterministically.
  if (timed_out)
    throw TimeoutError(
        "stream synchronize: stream was timed out by the watchdog; destroy "
        "it and create a new one");
}

bool Stream::query() const {
  std::lock_guard lock(ex_.mu_);
  return completed_ >= submitted_;
}

double Stream::modeled_ready_ms() const {
  return modeled_ready_ms_.load(std::memory_order_relaxed);
}

// -------------------------------------------------------- StreamExecutor

StreamExecutor::StreamExecutor(Device& dev) : dev_(dev) {
  streams_.emplace_back(new Stream(dev_, *this, next_stream_id_++));
  // Drains at once: a small share of the host (2..4). More buys nothing
  // — each op already fans its blocks out over the host pool; drains
  // only provide stream overlap. Results are identical for any count.
  slots_.resize(std::clamp(std::thread::hardware_concurrency() / 2, 2u, 4u));
}

StreamExecutor::~StreamExecutor() {
  {
    std::unique_lock lock(mu_);
    shutdown_ = true;
    cv_submit_.notify_all();
    cv_monitor_.notify_all();
    // Drains run what is still ready and return; so does the monitor.
    cv_complete_.wait(lock,
                      [&] { return drains_ == 0 && !monitor_running_; });
    // Watchdog-abandoned ops still run on their pool threads; give
    // stragglers a bounded window to notice their epoch is stale and
    // leave before their executor disappears out from under them.
    if (!cv_complete_.wait_for(lock, std::chrono::seconds(30),
                               [&] { return zombies_ == 0; }))
      std::fprintf(stderr,
                   "[simt] warning: %u watchdog-abandoned op(s) still "
                   "running at device teardown\n",
                   zombies_);
    drop_queued(lock, nullptr);  // waits on events that never record
  }
  // An abandoned capture (begin_capture with no end_capture) dies here:
  // ~Graph releases any graph-owned allocations.
}

Stream* StreamExecutor::create_stream() {
  dev_.check_not_lost("stream create");
  if (fault_should_fire(FaultSite::kHostAlloc))
    throw std::bad_alloc();  // modeled host allocation failure
  std::lock_guard lock(mu_);
  streams_.emplace_back(new Stream(dev_, *this, next_stream_id_++));
  return streams_.back().get();
}

Event* StreamExecutor::create_event() {
  dev_.check_not_lost("event create");
  if (fault_should_fire(FaultSite::kHostAlloc))
    throw std::bad_alloc();  // modeled host allocation failure
  std::lock_guard lock(mu_);
  events_.emplace_back(new Event(*this));
  events_.back()->uid_ = next_event_uid_++;
  return events_.back().get();
}

void StreamExecutor::destroy_stream(Stream* s) {
  if (s == nullptr) return;
  const std::uint64_t id = s->id_;
  {
    std::unique_lock lock(mu_);
    if (!streams_.empty() && s == streams_.front().get())
      throw std::invalid_argument("cannot destroy the default stream");
    if (s->capturing_)
      throw std::invalid_argument(
          "cannot destroy a stream while it is capturing a graph");
    // Drain the stream's queued and in-flight work first (completed_ is
    // bumped only after the op returns, so this also waits out an op a
    // drain is currently running). The dependency-deadlock detector
    // guarantees this terminates even for permanently blocked heads.
    cv_complete_.wait(lock, [&] { return s->completed_ >= s->submitted_; });
    destroyed_streams_max_ms_ =
        std::max(destroyed_streams_max_ms_, s->modeled_ready_ms());
    auto it = std::find_if(streams_.begin(), streams_.end(),
                           [&](const auto& sp) { return sp.get() == s; });
    if (s->timed_out_) {
      // A watchdog-abandoned op's drain may still hold a raw pointer to
      // this stream; park the object instead of freeing it. It dies
      // with the executor, after the bounded zombie wait. The handle
      // still reads as destroyed to the C ABIs from here on.
      capi::LiveSet<Stream>::instance().erase(s);
      abandoned_streams_.push_back(std::move(*it));
    }
    streams_.erase(it);
  }
  // The dead stream's free pool can never be reused; return it to the
  // device heap. Outside mu_ — trimming takes the memory locks.
  dev_.mem_pool().trim_stream(id);
}

void StreamExecutor::destroy_event(Event* ev) {
  if (ev == nullptr) return;
  std::unique_lock lock(mu_);
  // Queued EventRecord/EventWait ops hold a raw pointer to the event;
  // wait until none remain (drains notify cv_complete_ per op).
  cv_complete_.wait(lock, [&] { return !event_referenced_locked(ev); });
  std::erase_if(events_, [&](const auto& e) { return e.get() == ev; });
}

bool StreamExecutor::event_alive(const Event* ev) const {
  std::lock_guard lock(mu_);
  return std::any_of(events_.begin(), events_.end(),
                     [&](const auto& e) { return e.get() == ev; });
}

bool StreamExecutor::event_referenced_locked(const Event* ev) const {
  for (const SlotState& st : slots_)
    if (st.event == ev) return true;
  for (const Event* pinned : zombie_event_pins_)
    if (pinned == ev) return true;
  for (const auto& sp : streams_)
    for (const Op& op : sp->queue_)
      if (op.event == ev) return true;
  return false;
}

void StreamExecutor::submit(Stream& s, Op op) {
  dev_.check_not_lost("stream operation");
  std::lock_guard lock(mu_);
  if (shutdown_) throw std::logic_error("submit on shut-down executor");
  if (s.timed_out_)
    throw TimeoutError(
        "stream operation: stream was timed out by the watchdog; destroy "
        "it and create a new one");
  // The watchdog monitor is lazy: it is posted with the first submit
  // made while a budget is set, and then runs for the executor's
  // lifetime (it re-reads the budget every poll, so later changes apply).
  if (!monitor_running_ && watchdog_ms() > 0.0) {
    monitor_running_ = true;
    run_on_host_pool([this] { monitor_loop(); });
  }
  if (s.capturing_) {
    if (op.kind == Op::Kind::kGraph)
      throw std::invalid_argument(
          "cannot capture a graph launch (child graphs are not "
          "supported)");
    capture_->add_node(std::move(op));
    return;
  }
  if (op.kind == Op::Kind::kEventRecord) {
    op.event->pending_ = true;
    op.event->recorded_ = false;
  }
  s.queue_.push_back(std::move(op));
  s.submitted_++;
  total_submitted_++;
  post_drains_locked();
  cv_submit_.notify_all();  // the last drain may be waiting for work
}

bool StreamExecutor::ready_locked(const Stream& s) const {
  if (s.inflight_ || s.queue_.empty()) return false;  // one op in flight
  const Op& head = s.queue_.front();
  return head.kind != Op::Kind::kEventWait || head.event->recorded_;
}

bool StreamExecutor::queued_locked() const {
  return std::any_of(streams_.begin(), streams_.end(),
                     [](const auto& sp) { return !sp->queue_.empty(); });
}

void StreamExecutor::post_drains_locked() {
  if (shutdown_) return;
  // A drain that runs no op takes a ready head itself. With work queued
  // and no drain at all, post one anyway: it watches for a deadlock.
  unsigned ready = 0;
  for (const auto& sp : streams_) ready += ready_locked(*sp) ? 1 : 0;
  const unsigned idle = drains_ - executing_;
  unsigned want = ready > idle ? ready - idle : 0;
  if (drains_ == 0 && queued_locked()) want = std::max(want, 1u);
  for (; want > 0 && drains_ < slots_.size(); --want, ++drains_)
    run_on_host_pool([this] { drain(); });
}

void StreamExecutor::drop_queued(std::unique_lock<std::mutex>& lock,
                                 Stream* only) {
  std::vector<Op> dropped;
  for (auto& sp : streams_) {
    if (only != nullptr && sp.get() != only) continue;
    sp->completed_ += sp->queue_.size();
    total_completed_ += sp->queue_.size();
    std::move(sp->queue_.begin(), sp->queue_.end(),
              std::back_inserter(dropped));
    sp->queue_.clear();
  }
  cv_complete_.notify_all();
  lock.unlock();
  for (Op& op : dropped) complete_empty(op);
  dropped.clear();  // the ops' closures die off the lock too
  lock.lock();
}

void StreamExecutor::monitor_loop() {
  std::unique_lock lock(mu_);
  while (!shutdown_) {
    const double budget = wall_watchdog_ms();
    // Poll at a quarter of the budget (clamped to 1..50 ms) so a timeout
    // is reported well within ~2x the budget; with the watchdog turned
    // off, idle at 50 ms waiting for it to be turned back on.
    const double poll_ms =
        budget > 0.0 ? std::clamp(budget / 4.0, 1.0, 50.0) : 50.0;
    cv_monitor_.wait_for(
        lock, std::chrono::duration<double, std::milli>(poll_ms));
    if (shutdown_) break;
    const double live_budget = wall_watchdog_ms();
    if (live_budget <= 0.0) continue;
    const auto now = std::chrono::steady_clock::now();
    for (unsigned slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].busy) continue;
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(now - slots_[slot].start)
              .count();
      if (elapsed_ms > live_budget)
        abandon_slot(lock, slot, elapsed_ms, live_budget);
    }
  }
  monitor_running_ = false;
  cv_complete_.notify_all();
}

void StreamExecutor::abandon_slot(std::unique_lock<std::mutex>& lock,
                                  unsigned slot, double elapsed_ms,
                                  double budget_ms) {
  SlotState& st = slots_[slot];
  Stream* s = st.stream;
  if (async_error_ == nullptr)
    async_error_ = std::make_exception_ptr(TimeoutError(
        "watchdog: op on stream " + std::to_string(s->id_) +
        " exceeded the wall-clock budget (" + std::to_string(elapsed_ms) +
        " ms > " + std::to_string(budget_ms) +
        " ms); the stream is dead, other streams continue"));
  // The stream is permanently dead: inflight_ stays true so no drain
  // picks it again, submit() refuses new work, and its queue is dropped
  // below so host-side waits return promptly.
  s->timed_out_ = true;
  s->completed_++;  // the abandoned in-flight op
  total_completed_++;
  executing_--;
  // Keep the abandoned op's event pinned until the zombie finishes with
  // it (destroy_event waits on this).
  if (st.event != nullptr) zombie_event_pins_.push_back(st.event);
  // Bumping the epoch tells the stuck drain — whenever its op finally
  // returns — that its slot was given away: it must not touch
  // completion bookkeeping, just unpin and go back to the pool. A
  // replacement drain takes its place.
  st = SlotState{.epoch = st.epoch + 1};
  drains_--;
  zombies_++;
  cv_submit_.notify_all();
  post_drains_locked();
  drop_queued(lock, s);
}

void StreamExecutor::drain() {
  std::unique_lock lock(mu_);
  while (true) {
    Stream* s = nullptr;
    for (auto& sp : streams_)
      if (ready_locked(*sp)) {
        s = sp.get();
        break;
      }
    if (s == nullptr) {
      // Every drain but the last goes back to the pool. The last one
      // stays while blocked work is queued and watches for a deadlock:
      // every nonempty stream head waits on an unrecorded event and no
      // in-flight op can record one. Only drains record events, so the
      // queues can only unblock if the host submits the missing record.
      // Give it a grace period; if nothing changes, declare a dependency
      // deadlock (a wait submitted before its record forming a cycle, or
      // a wait on an event that is never recorded) instead of hanging
      // forever. Only a full grace period counts: any wakeup re-checks
      // from the top, because a wakeup can belong to a submission this
      // drain already saw (and may even have run to completion).
      if (shutdown_ || drains_ > 1 || executing_ != 0 ||
          async_error_ != nullptr || !queued_locked())
        break;
      const std::uint64_t subs_before = total_submitted_;
      const std::uint64_t comps_before = total_completed_;
      if (cv_submit_.wait_for(lock, std::chrono::milliseconds(250)) ==
          std::cv_status::no_timeout)
        continue;
      if (total_submitted_ != subs_before ||
          total_completed_ != comps_before || executing_ != 0 || shutdown_)
        continue;
      if (async_error_ == nullptr)  // an op may have failed meanwhile
        async_error_ = std::make_exception_ptr(std::runtime_error(
            "stream dependency deadlock: every stream head waits on an "
            "event whose record cannot execute"));
      drop_queued(lock, nullptr);  // so host-side synchronize() returns
      continue;
    }

    Op op = std::move(s->queue_.front());
    s->queue_.pop_front();
    s->inflight_ = true;
    executing_++;
    // A slot is free: the busy ones run the other drains' ops.
    SlotState& st = *std::find_if(slots_.begin(), slots_.end(),
                                  [](const SlotState& x) { return !x.busy; });
    const std::uint64_t my_epoch = st.epoch;
    st.event = op.event;  // pins against destroy_event
    st.stream = s;
    st.busy = true;
    st.start = std::chrono::steady_clock::now();
    lock.unlock();
    try {
      if (fault_should_fire(FaultSite::kStreamStall)) {
        // Injected wall-clock stall: the op sleeps here, on the drain's
        // thread, exactly where a wedged device op would sit. With a
        // watchdog budget below the stall, the monitor abandons this
        // slot mid-sleep and this drain leaves as a zombie.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            FaultInjector::instance().stall_ms()));
      }
      ScopedStreamOp op_scope;
      run_op(*s, op);
    } catch (...) {
      std::lock_guard elock(mu_);
      // A watchdog-abandoned op's late failure is not news: the
      // TimeoutError was already posted when the slot was given away.
      if (st.epoch == my_epoch && async_error_ == nullptr)
        async_error_ = std::current_exception();
    }
    lock.lock();
    if (st.epoch != my_epoch) {
      // The watchdog abandoned this slot while the op was running: the
      // monitor already did the completion bookkeeping and freed the
      // slot. Unpin the op's event and go back to the pool.
      if (op.event != nullptr) {
        auto it = std::find(zombie_event_pins_.begin(),
                            zombie_event_pins_.end(), op.event);
        if (it != zombie_event_pins_.end()) zombie_event_pins_.erase(it);
      }
      zombies_--;
      cv_complete_.notify_all();
      return;
    }
    st.event = nullptr;
    st.stream = nullptr;
    st.busy = false;
    s->inflight_ = false;
    s->completed_++;
    total_completed_++;
    executing_--;
    cv_complete_.notify_all();
    // A completed op (an event record, say) may make other streams'
    // heads ready; this drain takes one of them itself.
    post_drains_locked();
  }
  drains_--;
  cv_complete_.notify_all();
  host_pool_task_done();
}

void StreamExecutor::run_op(Stream& s, Op& op) {
  // Tracing-off cost on this path: this one relaxed load.
  const bool prof = profiling_enabled();
  std::chrono::steady_clock::time_point t0;
  if (prof) t0 = std::chrono::steady_clock::now();
  // Happens-before for host readers comes from the executor mutex
  // (completion bookkeeping) or a ticket's completion, so relaxed
  // suffices; only this drain writes the value meanwhile.
  const double start = s.modeled_ready_ms_.load(std::memory_order_relaxed);
  double end = start;
  TraceSpan span;
  LaunchRecord rec;  // kernels only, filled only when something reads it

  switch (op.kind) {
    case Op::Kind::kKernel: {
      try {
        // Live launches pay the per-launch setup here; graph nodes paid
        // it once, at instantiate.
        if (!op.resolved) dev_.resolve_launch(op.params);
        const bool needs_record = prof || op.on_complete || op.params.log;
        end += dev_.run_resolved(op.params, op.kernel,
                                 needs_record ? &rec : nullptr);
      } catch (...) {
        // A failed kernel never gets its record; release any ticket
        // waiter with an empty one (the error surfaces at the next
        // synchronize).
        complete_empty(op);
        throw;
      }
      if (prof) span = kernel_span(rec);
      break;
    }
    case Op::Kind::kMemcpy: {
      dev_.memory().copy(op.dst, op.src, op.bytes, op.copy_kind);
      span.dur_ms = op.copy_kind == CopyKind::kDeviceToDevice
                        ? dev_.model_device_copy_ms(op.bytes)
                        : dev_.model_transfer_ms(op.bytes);
      if (op.copy_kind != CopyKind::kDeviceToDevice &&
          op.copy_kind != CopyKind::kHostToHost)
        dev_.add_transfer(op.bytes);
      end += span.dur_ms;
      break;
    }
    case Op::Kind::kMemset:
      dev_.memory().set(op.dst, op.value, op.bytes);
      span.dur_ms = dev_.model_device_copy_ms(op.bytes);
      end += span.dur_ms;
      break;
    case Op::Kind::kAlloc:
    case Op::Kind::kFree:
      // The memory work happened at enqueue time (pool acquire/release,
      // or capture for graph nodes, which keep their address); the op
      // only charges the modeled sliver.
      span.dur_ms = kAllocModelMs;
      end += kAllocModelMs;
      break;
    case Op::Kind::kHostFn:
      op.fn();  // instantaneous on the model
      break;
    case Op::Kind::kEventRecord: {
      std::lock_guard lock(mu_);
      op.event->recorded_ = true;
      op.event->pending_ = false;
      op.event->generation_++;
      op.event->modeled_ms_ = start;
      span.flow_id = event_flow_id(op.event->uid_, op.event->generation_);
      span.flow_out = true;
      cv_complete_.notify_all();
      break;
    }
    case Op::Kind::kEventWait: {
      // Live, the scheduler held this op back until the event recorded;
      // in a replay the captured order already encodes one legal
      // interleaving, so the wait only maxes the modeled timeline.
      std::lock_guard lock(mu_);
      end = std::max(start, op.event->modeled_ms_);
      span.dur_ms = end - start;  // the stall the wait imposed
      span.flow_id = event_flow_id(op.event->uid_, op.event->generation_);
      break;
    }
    case Op::Kind::kGraph:
      // Destination of the previous replay's fence arrow: chained
      // replays are visually linked across stream tracks.
      span.flow_id = op.graph->execute_on(s);
      end = s.modeled_ready_ms_.load(std::memory_order_relaxed);
      span.dur_ms = end - start;
      break;
  }
  s.modeled_ready_ms_.store(end, std::memory_order_relaxed);

  if (prof) {
    if (op.kind != Op::Kind::kKernel) {
      span.kind = op.kind;
      span.name = op_label(op);
      span.bytes = op.bytes;
      span.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    }
    span.ts_ms = start;
    span.track = s.id_ + 1;  // track 0 is the host-sync track
    Profiler::instance().record(dev_, std::move(span));  // outside mu_
  }
  // Complete the launch only once its span is recorded: a ticket waiter
  // may stop the profiler and dump the trace as soon as it wakes.
  if (op.kind == Op::Kind::kKernel && op.on_complete) op.on_complete(rec);
}

void StreamExecutor::synchronize_all() {
  std::unique_lock lock(mu_);
  std::uint64_t upto_total = 0;
  for (auto& sp : streams_) upto_total += sp->submitted_;
  cv_complete_.wait(lock, [&] {
    std::uint64_t done = 0;
    for (auto& sp : streams_) done += sp->completed_;
    return done >= upto_total || async_error_ != nullptr;
  });
}

double StreamExecutor::modeled_now_ms() const {
  std::lock_guard lock(mu_);
  double now = destroyed_streams_max_ms_;
  for (const auto& sp : streams_) now = std::max(now, sp->modeled_ready_ms());
  return now;
}

void StreamExecutor::check_async_error() {
  std::exception_ptr e;
  {
    std::lock_guard lock(mu_);
    e = async_error_;
    async_error_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

}  // namespace simt

#include "simt/block.h"

#include <pthread.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "simt/device.h"
#include "simt/san.h"

namespace simt {

void detail::throw_outside_kernel() {
  throw std::logic_error("simt::this_thread() called outside a kernel");
}

namespace {
using detail::t_ctx;

/// Makes `ctx` current again when the scope ends, on return or unwind.
struct CtxRestore {
  ThreadCtx* ctx;
  ~CtxRestore() { t_ctx = ctx; }
};

/// OS-thread stack a direct-mode barrier must leave free before it
/// nests one more lane: that lane's own frames (its prefix, its
/// post-barrier code, an exception unwind) must fit in it.
constexpr std::uintptr_t kNestStackReserve = 256 << 10;

/// The calling OS thread's stack, [lo, hi), read once per thread
/// (pthread_getattr_np); {0, 0} if it cannot be read.
struct StackBounds {
  std::uintptr_t lo = 0, hi = 0;
};

const StackBounds& thread_stack() {
  thread_local const StackBounds bounds = [] {
    StackBounds b;
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return b;
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      b.lo = reinterpret_cast<std::uintptr_t>(addr);
      b.hi = b.lo + size;
    }
    pthread_attr_destroy(&attr);
    return b;
  }();
  return bounds;
}
}  // namespace

BlockState::BlockState(Device& device, const LaunchParams& params,
                       Dim3 block_idx, const KernelFn& kernel,
                       FiberPool& fibers)
    : device_(device), params_(params), block_idx_(block_idx),
      kernel_(kernel), fiber_pool_(fibers),
      nthreads_(static_cast<std::uint32_t>(params.block.count())),
      live_(nthreads_),
      arena_(device.config().smem_per_block_max, params.dynamic_smem_bytes) {
  const std::uint32_t ws = device.config().warp_size;
  const std::uint32_t nwarps = static_cast<std::uint32_t>(ceil_div(nthreads_, ws));
  warps_.reserve(nwarps);
  for (std::uint32_t w = 0; w < nwarps; ++w)
    warps_.emplace_back(*this, w, std::min(ws, nthreads_ - w * ws));
  shared_alloc_ordinal_.assign(nthreads_, 0);
}

ThreadCtx BlockState::first_ctx() {
  ThreadCtx ctx;
  ctx.thread_idx = {0, 0, 0};
  ctx.block_idx = block_idx_;
  ctx.block_dim = params_.block;
  // A shard of a multi-device launch reports the full logical grid, so
  // gridDim-based indexing (global_thread_id, grid-stride loops) sees
  // the same geometry as the unsharded launch.
  ctx.grid_dim = params_.logical_grid.count() != 0 ? params_.logical_grid
                                                   : params_.grid;
  ctx.block = this;
  ctx.warp = &warps_[0];
  ctx.device = &device_;
  return ctx;
}

// Incremental carry arithmetic instead of per-thread delinearize /
// div/mod: context setup is per-thread work on every launch path, so
// the ~6 integer divisions it saves per thread are visible in
// launches/s.
BlockState::NextLane BlockState::next_lane() {
  return {params_.block, device_.config().warp_size, nthreads_,
          warps_.data()};
}

void BlockState::NextLane::operator()(ThreadCtx& ctx) const {
  if (++ctx.thread_idx.x == block_dim.x) {
    ctx.thread_idx.x = 0;
    if (++ctx.thread_idx.y == block_dim.y) {
      ctx.thread_idx.y = 0;
      ++ctx.thread_idx.z;
    }
  }
  ++ctx.flat_tid;
  if (++ctx.lane == warp_size && ctx.flat_tid < nthreads) {
    ctx.lane = 0;
    ctx.warp = &warps[++ctx.warp_id];
  }
}

void BlockState::run() {
  if (params_.mode == ExecMode::kCooperative) {
    run_cooperative();
  } else {
    run_direct();
  }
}

void BlockState::reset_for_replay() {
  if (params_.mode != ExecMode::kDirect)
    throw std::logic_error(
        "BlockState::reset_for_replay: direct-mode blocks only");
  counters_.reset();
  arena_.reset();
  shared_vars_.clear();
  std::fill(shared_alloc_ordinal_.begin(), shared_alloc_ordinal_.end(), 0);
  san_shadow_.clear();
  next_thread_ = 0;
  direct_released_ = false;
  barrier_arrived_ = 0;
}

// pocl's work-item loop, the one both executors run: thread
// next_thread_ runs on `ctx`, and each thread after it runs on the same
// context advanced in place, as a plain call, until no thread is left
// that no call has started. In direct mode a lane that reaches the
// barrier runs every later lane nested inside it, so the loop ends
// after that lane returns. On a fiber the loop is the fiber's body: a
// thread that parks suspends the whole loop with it, and a thread not
// yet started is always the scheduler's next pick (wakeups queue
// behind every one of them), so running it here, without a switch,
// keeps the scheduling order. A fiber therefore returns to the
// scheduler only when its thread parks or when every thread has
// started.
template <bool kOnFiber>
void BlockState::lane_loop(ThreadCtx& ctx) {
  const NextLane next = next_lane();
  const bool probed = probe != nullptr;
  t_ctx = &ctx;
  while (next_thread_ < next.nthreads) {
    if (probed) probe_step();
    next_thread_++;
    kernel_();
    if constexpr (kOnFiber) on_thread_exit(ctx);
    next(ctx);
  }
}

void BlockState::run_direct() {
  ThreadCtx ctx = first_ctx();
  CtxRestore restore{nullptr};
  lane_loop<false>(ctx);
  counters_.sched_lane_loops += nthreads_;
}

// Direct mode's one barrier, without fibers: the arriving lane runs
// every lane the cursor has not started, each nested on this OS
// thread's stack, so by the time the loop ends every lane has either
// returned (exited early, or finished after a release deeper down) or
// is suspended in an enclosing barrier call further up the stack. The
// innermost call therefore releases, exactly once; the calls then
// return one by one and each lane's post-barrier code runs, in
// descending lane order. Prefix accesses carry barrier epoch e and
// post-barrier ones e+1, as under the fiber scheduler. The nested lanes
// run on one context of this frame, carried from the caller's (the lane
// before them), so the caller's own stays intact for its post-barrier
// code.
void BlockState::direct_barrier(ThreadCtx& ctx) {
  if (in_run_lanes_) direct_error("block barrier inside run_lanes");
  if (direct_released_) direct_error("second block barrier");
  barrier_arrived_++;
  if (next_thread_ < nthreads_) {
    ThreadCtx lane = ctx;
    const NextLane next = next_lane();
    CtxRestore restore{&ctx};
    t_ctx = &lane;
    while (next_thread_ < nthreads_) {
      // The frame address, not a local's: ASan may move locals off
      // the real stack.
      const StackBounds& stack = thread_stack();
      const auto sp =
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      if (sp < stack.lo + kNestStackReserve || sp >= stack.hi)
        direct_error("block barrier nesting lane " +
                     std::to_string(next_thread_) + " of " +
                     std::to_string(nthreads_) + " with less than " +
                     std::to_string(kNestStackReserve >> 10) +
                     " KiB of OS-thread stack left");
      next(lane);
      next_thread_++;
      kernel_();
    }
  }
  if (direct_released_) return;
  direct_released_ = true;
  barrier_arrived_ = 0;
  count_barrier();
}

void BlockState::direct_error(const std::string& what) const {
  throw std::logic_error(what + " in ExecMode::kDirect (kernel '" +
                         params_.name + "'); launch cooperatively");
}

// ---------------------------------------------------------------------------
// Ready-queue scheduler.
//
// Threads start in ascending order, and every one not yet started is
// runnable ahead of any woken thread: next_thread_ is the next pick
// until all have started. After that the picks come off the ready
// queue, which holds exactly the woken threads: a parked thread is
// enqueued only by the event that wakes it — barrier release enqueues
// the barrier's waiters, a warp-epoch advance enqueues that warp's
// waiters, both in ascending thread order. Scheduling work is
// therefore O(threads woken), not O(nthreads) per round. An empty queue
// with every thread started and some unfinished is a deadlock by
// construction (threads only leave the queue by finishing or recording
// a wait state), so the census fires exactly when no thread can make
// progress.
//
// Only a thread that parks keeps a fiber of its own: the threads that
// start after it run on a new fiber's lane loop, and a fiber whose
// threads have all finished is recycled through free_fibers_. A
// sync-free block executes all nthreads_ threads on a single fiber,
// one plain call each.
// ---------------------------------------------------------------------------

void BlockState::rq_push(std::uint32_t flat) {
  ready_[(rq_head_ + rq_count_) & rq_mask_] = flat;
  rq_count_++;
}

std::uint32_t BlockState::rq_pop() {
  const std::uint32_t flat = ready_[rq_head_];
  rq_head_ = (rq_head_ + 1) & rq_mask_;
  rq_count_--;
  return flat;
}

bool BlockState::next_runnable(std::uint32_t& flat) {
  if (drain_active_) {
    while (drain_bits_ == 0) {
      if (drain_word_ >= drain_map_.size()) {
        drain_active_ = false;
        goto ring;
      }
      drain_bits_ = drain_map_[drain_word_];
      drain_map_[drain_word_] = 0;  // keep the swap buffer all-zero
      drain_word_++;
    }
    flat = (drain_word_ - 1) * 64 +
           static_cast<std::uint32_t>(std::countr_zero(drain_bits_));
    drain_bits_ &= drain_bits_ - 1;
    return true;
  }
ring:
  if (rq_count_ == 0) return false;
  flat = rq_pop();
  return true;
}

Fiber* BlockState::acquire_fiber() {
  if (!free_fibers_.empty()) {
    // Re-arm lazily, on actual reuse: a block whose threads all suspend
    // recycles nothing and should pay nothing.
    Fiber* f = free_fibers_.back();
    free_fibers_.pop_back();
    f->reset();
    counters_.fiber_reuses++;
    return f;
  }
  const bool pooled = fiber_pool_.cached() > 0;
  // A new fiber's lane loop starts at thread next_thread_, on a copy of
  // the context of the thread before it, which has just parked.
  fibers_.push_back(fiber_pool_.acquire([this] {
    ThreadCtx ctx =
        next_thread_ == 0 ? first_ctx() : *parked_[next_thread_ - 1].ctx;
    if (next_thread_ > 0) next_lane()(ctx);
    ctx.fiber = Fiber::current();
    lane_loop<true>(ctx);
  }));
  if (pooled)
    counters_.fiber_reuses++;
  else
    counters_.fibers_created++;
  return fibers_.back().get();
}

void BlockState::recycle_fiber(Fiber* f) { free_fibers_.push_back(f); }

void BlockState::run_cooperative() {
  waits_.resize(nthreads_);
  barrier_waitmap_.assign((nthreads_ + 63) / 64, 0);
  drain_map_.assign(barrier_waitmap_.size(), 0);
  // A kernel's exception reaches here through resume(): the launching
  // thread must not stay "inside" this block once it unwinds.
  CtxRestore restore{nullptr};
  const bool probed = probe != nullptr;
  while (live_ > 0) {
    if (probed) probe_step();
    Fiber* f;
    if (next_thread_ < nthreads_) {
      f = acquire_fiber();
    } else {
      // waits_[i] is already kNone: every wakeup clears it at enqueue
      // time.
      std::uint32_t i;
      if (!next_runnable(i)) deadlock("block scheduler");
      t_ctx = parked_[i].ctx;
      f = parked_[i].fiber;
    }
    f->resume();
    if (f->done()) recycle_fiber(f);
  }
  // All fibers are finished here: donate them to the cross-launch pool
  // (an exception unwinds past this instead, destroying any suspended
  // fibers and returning their stacks). Raw free-list pointers first —
  // they alias entries of fibers_.
  free_fibers_.clear();
  for (auto& f : fibers_) fiber_pool_.recycle(std::move(f));
  fibers_.clear();
}

void BlockState::count_barrier() {
  barrier_epoch_++;
  counters_.block_barriers++;
}

void BlockState::run_lanes(ThreadCtx& caller, std::uint32_t n,
                           const std::function<void(int)>& lane) {
  if (params_.mode != ExecMode::kDirect || n > nthreads_)
    throw std::logic_error(
        "BlockState::run_lanes: direct-mode blocks and n <= block size only");
  struct Restore {
    ThreadCtx* ctx;
    bool& in_lanes;
    bool was_in_lanes;
    ~Restore() {
      t_ctx = ctx;
      in_lanes = was_in_lanes;
    }
  } restore{&caller, in_run_lanes_, in_run_lanes_};
  in_run_lanes_ = true;
  ThreadCtx ctx = first_ctx();
  const NextLane next = next_lane();
  t_ctx = &ctx;
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    lane(static_cast<int>(tid));
    next(ctx);
  }
}

void BlockState::release_barrier() {
  barrier_arrived_ = 0;
  count_barrier();
  if (rq_count_ == 0) {
    // Nothing else is runnable (a release needs every live thread at
    // the barrier, so every thread has started): snapshot the waiters
    // and drain them straight off the bitmap (ascending) instead of
    // round-tripping them through the ring. The snapshot is a buffer
    // swap, not a copy: next_runnable zeroes each drain word as it
    // loads it, and a drain always completes before the next release
    // (drain-pending threads are still suspended at this one), so the
    // swapped-in buffer is all zeroes.
    drain_map_.swap(barrier_waitmap_);
    drain_active_ = true;
    drain_word_ = 0;
    drain_bits_ = 0;
    return;
  }
  // Wake waiters in ascending thread order (low-to-high bit scan): warp
  // rendezvous arrival order (hence last-arrival identity) must stay
  // deterministic. Clearing the bit is what marks the thread runnable
  // again (barrier waits are tracked only in the bitmap; their wait
  // state stays kNone).
  for (std::size_t w = 0; w < barrier_waitmap_.size(); ++w) {
    std::uint64_t bits = barrier_waitmap_[w];
    barrier_waitmap_[w] = 0;
    while (bits != 0) {
      const std::uint32_t flat = static_cast<std::uint32_t>(w * 64) +
                                 static_cast<std::uint32_t>(
                                     std::countr_zero(bits));
      bits &= bits - 1;
      rq_push(flat);
    }
  }
}

void BlockState::on_thread_exit(const ThreadCtx& ctx) {
  live_--;
  ctx.warp->on_lane_exit(ctx.lane);
  // A barrier waiting only on now-exited threads releases (kernel-language
  // behaviour: exited threads no longer participate in __syncthreads).
  if (live_ > 0 && barrier_arrived_ >= live_ && barrier_arrived_ > 0)
    release_barrier();
}

void BlockState::sync_threads(ThreadCtx& ctx) {
  if (params_.mode == ExecMode::kDirect) {
    direct_barrier(ctx);
    return;
  }
  barrier_arrived_++;
  if (barrier_arrived_ >= live_) {
    release_barrier();
    return;
  }
  wait_barrier(ctx);
}

void BlockState::wait_barrier(ThreadCtx& ctx) {
  // The bitmap alone records the wait (the wait state stays kNone), and
  // release_barrier wakes by bit scan.
  barrier_waitmap_[ctx.flat_tid / 64] |= 1ull << (ctx.flat_tid % 64);
  park(ctx);
}

void BlockState::notify_warp_release(WarpState& warp) {
  // Enqueue the warp's suspended waiters in ascending lane (hence flat
  // thread) order. The releasing lane is still running and is not on
  // the queue; scanning one warp is O(warp_size) <= 64.
  const std::uint32_t base = warp.warp_id() * device_.config().warp_size;
  for (std::uint32_t l = 0; l < warp.width(); ++l) {
    const std::uint32_t flat = base + l;
    if (waits_[flat] == Wait::kWarp) {
      waits_[flat] = Wait::kNone;  // runnable now; see release_barrier
      rq_push(flat);
    }
  }
}

void BlockState::wait_warp(ThreadCtx& ctx) {
  waits_[ctx.flat_tid] = Wait::kWarp;
  park(ctx);
}

void BlockState::park(ThreadCtx& ctx) {
  if (parked_.empty()) {
    // The block's first parked thread: size what only parking uses.
    parked_.resize(nthreads_);
    ready_.resize(std::bit_ceil(nthreads_));
    rq_mask_ = static_cast<std::uint32_t>(ready_.size()) - 1;
    fibers_.reserve(nthreads_);
    free_fibers_.reserve(nthreads_);
  }
  parked_[ctx.flat_tid] = {&ctx, ctx.fiber};
  ctx.fiber->yield();
}

void* BlockState::shared_alloc(ThreadCtx& ctx, std::size_t bytes,
                               std::size_t align) {
  const std::uint32_t k = shared_alloc_ordinal_[ctx.flat_tid]++;
  if (k < shared_vars_.size()) {
    const SharedVar& v = shared_vars_[k];
    if (v.bytes != bytes || v.align != align) {
      std::string msg =
          "shared allocation mismatch at ordinal " + std::to_string(k) +
          " (kernel '" + params_.name + "', block " + block_idx_.to_string() +
          "): thread " + std::to_string(ctx.flat_tid) + " requested " +
          std::to_string(bytes) + " byte(s) aligned " + std::to_string(align) +
          ", but thread " + std::to_string(v.first_tid) + " established " +
          std::to_string(v.bytes) + " byte(s) aligned " +
          std::to_string(v.align) +
          " — every thread of a block must reach identical shared/"
          "groupprivate allocations";
      SanDiag d;
      d.kind = SanKind::kSharedAllocMismatch;
      d.message = msg;
      d.kernel = params_.name;
      d.block = block_idx_;
      d.tid_a = ctx.flat_tid;
      d.tid_b = v.first_tid;
      d.bytes = bytes;
      San::instance().record(std::move(d));
      throw std::logic_error(msg);
    }
    return v.ptr;
  }
  if (k != shared_vars_.size())
    throw std::logic_error(
        "shared allocation sequence diverged across threads: thread " +
        std::to_string(ctx.flat_tid) + " is at ordinal " + std::to_string(k) +
        " but only " + std::to_string(shared_vars_.size()) +
        " block-level shared variables exist (kernel '" + params_.name +
        "', block " + block_idx_.to_string() + ")");
  void* p = arena_.allocate(bytes, align);
  shared_vars_.push_back({p, bytes, align, ctx.flat_tid});
  return p;
}

bool BlockState::san_shared_access(ThreadCtx& ctx, const void* ptr,
                                   std::size_t bytes, bool is_write,
                                   bool is_atomic) {
  if (!arena_.contains(ptr)) return false;
  if (!san_enabled(kSanRace) || bytes == 0) return true;
  // Atomics are ordered rendezvous points, never data races — they
  // bypass the shadow entirely (and do not clear prior state: a plain
  // access racing with a *different* plain access still reports).
  if (is_atomic) return true;
  if (san_shadow_.empty()) san_shadow_.resize(arena_.capacity());
  const std::size_t off = arena_.offset_of(ptr);
  const std::size_t end = std::min(off + bytes, san_shadow_.size());
  const std::uint32_t me = ctx.flat_tid + 1;
  const auto epoch = static_cast<std::uint32_t>(barrier_epoch_);
  bool reported = false;
  for (std::size_t i = off; i < end; ++i) {
    SanShadowCell& c = san_shadow_[i];
    std::uint32_t other = 0;
    const char* kind = nullptr;
    if (is_write) {
      if (c.writer != 0 && c.writer != me && c.writer_epoch == epoch) {
        other = c.writer;
        kind = "write-after-write";
      } else if (c.reader != 0 && c.reader != me && c.reader_epoch == epoch) {
        other = c.reader;
        kind = "write-after-read";
      }
      c.writer = me;
      c.writer_epoch = epoch;
    } else {
      if (c.writer != 0 && c.writer != me && c.writer_epoch == epoch) {
        other = c.writer;
        kind = "read-after-write";
      }
      if (c.reader == 0 || c.reader_epoch != epoch) {
        c.reader = me;
        c.reader_epoch = epoch;
      } else if (c.reader != me) {
        c.reader = kManyReaders;
      }
    }
    if (kind == nullptr || reported) continue;
    reported = true;  // one diagnostic per access, but keep updating shadow
    SanDiag d;
    d.kind = SanKind::kSharedRace;
    d.kernel = params_.name;
    d.block = block_idx_;
    d.tid_a = ctx.flat_tid;
    d.tid_b = other == kManyReaders ? kSanManyThreads : other - 1;
    d.addr = static_cast<const std::uint8_t*>(ptr) + (i - off);
    d.bytes = bytes;
    d.epoch = barrier_epoch_;
    char buf[256];
    char whobuf[32];
    if (other == kManyReaders) {
      std::snprintf(whobuf, sizeof whobuf, "several threads");
    } else {
      std::snprintf(whobuf, sizeof whobuf, "thread %u", other - 1);
    }
    std::snprintf(
        buf, sizeof buf,
        "shared-memory race (%s): thread %u %s %zu byte(s) at shared+%zu "
        "also touched by %s in the same barrier interval (epoch %" PRIu64
        ") (kernel '%s', block %s)",
        kind, ctx.flat_tid, is_write ? "writes" : "reads", bytes, i,
        whobuf, barrier_epoch_, params_.name,
        block_idx_.to_string().c_str());
    d.message = buf;
    San::instance().record(std::move(d));
  }
  return true;
}

void BlockState::deadlock(const char* where) const {
  std::string msg = std::string("SIMT deadlock in ") + where + " (kernel '" +
                    params_.name + "', block " + block_idx_.to_string() +
                    "): ";
  std::uint32_t at_barrier = 0, at_warp = 0;
  for (std::uint32_t i = 0; i < nthreads_; ++i)
    if (waits_[i] == Wait::kWarp) at_warp++;
  for (const std::uint64_t bits : barrier_waitmap_)
    at_barrier += static_cast<std::uint32_t>(std::popcount(bits));
  msg += std::to_string(live_) + " live threads, " +
         std::to_string(at_barrier) + " at block barrier, " +
         std::to_string(at_warp) + " in warp collectives. Divergent "
         "synchronization (threads of one block taking sync paths that can "
         "never all meet) is the usual cause.";
  if (at_barrier > 0) {
    msg += " [barrier divergence: the stranded threads wait at barrier "
           "epoch " + std::to_string(barrier_epoch_) +
           ", which the remaining threads can never release]";
    if (san_enabled(kSanSync)) {
      SanDiag d;
      d.kind = SanKind::kBarrierDivergence;
      d.kernel = params_.name;
      d.block = block_idx_;
      d.epoch = barrier_epoch_;
      d.message = msg;
      San::instance().record(std::move(d));
    }
  }
  throw std::runtime_error(msg);
}

}  // namespace simt

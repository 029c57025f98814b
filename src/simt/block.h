// Block runner: executes one thread block of a launch.
//
// Both modes run threads as plain calls from one lane loop, on one
// ThreadCtx it advances in place (pocl's work-item loop), in ascending
// thread order; no block builds a per-thread context array.
//
// In cooperative mode the lane loop runs on a fiber, and only a thread
// that blocks keeps one: a thread that suspends at a block barrier or
// a warp rendezvous parks the fiber with its context in the fiber's
// frame, and the threads after it start on a new fiber. A sync-free
// block thus runs on one fiber. A single-threaded scheduler starts
// threads until all have started, then resumes parked threads as they
// wake; barrier release and warp-epoch advance enqueue exactly their
// waiters, in ascending thread order within each wakeup (warp
// rendezvous semantics depend on deterministic arrival order), behind
// every thread not yet started. Finished fibers are recycled. An empty
// ready queue with threads remaining is a deadlock — reported with a
// census of who waits where, which is how invalid divergent
// synchronization surfaces as an error instead of a hang.
//
// In direct mode no thread may suspend, so the lane loop runs on the
// OS thread's own stack, with no fiber and no scheduler. A block may
// pass one barrier: the lane that reaches it runs
// every lane not yet started nested on the same OS-thread stack, on a
// context of the barrier call's own frame, the innermost call releases
// the barrier once every lane has arrived or exited, and the
// post-barrier code then runs as the calls return (in descending lane
// order, no context switch; each lane's context survives in its
// caller's frame). A second barrier, a warp collective, an atomic after
// the release, a barrier inside run_lanes or too little stack left to
// nest throws std::logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/dim.h"
#include "simt/fiber.h"
#include "simt/kernel.h"
#include "simt/shared_arena.h"
#include "simt/warp.h"

namespace simt {

class Device;

class BlockState {
 public:
  BlockState(Device& device, const LaunchParams& params, Dim3 block_idx,
             const KernelFn& kernel, FiberPool& fibers);

  BlockState(const BlockState&) = delete;
  BlockState& operator=(const BlockState&) = delete;

  /// Runs every thread of the block to completion.
  void run();

  // --- device-side primitives, called from kernel code via ThreadCtx ---

  /// Block-wide barrier (__syncthreads / ompx_sync_thread_block).
  void sync_threads(ThreadCtx& ctx);

  /// Counts one block barrier that every thread passes together,
  /// without suspending anyone: the barrier count and the racecheck
  /// epoch advance exactly as a real release advances them. For
  /// barriers the caller's control flow already implies (the omp
  /// generic-mode handshakes, which are priced, not executed).
  void count_barrier();

  /// Runs `lane(tid)` for tid in [0, n) in ascending order, each as a
  /// plain call with thread tid's identity current (one context of this
  /// call's frame, advanced in place), and makes
  /// `caller` current again on return or on an exception. Direct-mode
  /// blocks only; the lanes cannot nest, so a barrier or warp
  /// collective reached inside a lane raises std::logic_error.
  void run_lanes(ThreadCtx& caller, std::uint32_t n,
                 const std::function<void(int)>& lane);

  /// Funnelled shared-memory allocation: the k-th call of every thread
  /// returns the same pointer (one block-level variable per call site
  /// ordinal, the library equivalent of a __shared__ declaration).
  /// Sizes and alignments must agree across threads; disagreement is
  /// diagnosed with both thread ids and both requests.
  void* shared_alloc(ThreadCtx& ctx, std::size_t bytes, std::size_t align);

  /// ompxsan racecheck entry (see simt/san.h): records a shared-memory
  /// access against the per-byte shadow cells. Returns false when `ptr`
  /// is not in this block's shared arena (the caller may then treat it
  /// as a global access); true when it was handled here — including
  /// "handled by doing nothing" when kSanRace is off or the access is
  /// atomic.
  bool san_shared_access(ThreadCtx& ctx, const void* ptr, std::size_t bytes,
                         bool is_write, bool is_atomic);

  /// Base of the dynamic shared segment (extern __shared__).
  void* dynamic_shared() { return arena_.dynamic_base(); }
  [[nodiscard]] std::size_t dynamic_shared_size() const {
    return arena_.dynamic_size();
  }

  [[nodiscard]] WarpState& warp(std::uint32_t warp_id) { return warps_[warp_id]; }
  [[nodiscard]] std::uint32_t num_warps() const {
    return static_cast<std::uint32_t>(warps_.size());
  }
  [[nodiscard]] Device& device() { return device_; }
  [[nodiscard]] const LaunchParams& params() const { return params_; }
  [[nodiscard]] Dim3 block_index() const { return block_idx_; }
  /// This block's event counts (blocks/threads and the runtime-mode
  /// flags stay zero; the launch header carries them).
  [[nodiscard]] const LaunchStats& counters() const { return counters_; }
  /// While set, the block's scheduling loops call probe(probe_arg) at
  /// their 32nd, 64th, 128th, ... step (a thread start or a fiber
  /// resume): the launcher's fan-out check (BlockJob::run, device.cpp).
  void (*probe)(void*) = nullptr;
  void* probe_arg = nullptr;
  [[nodiscard]] std::size_t shared_high_water() const {
    return arena_.high_water();
  }

  /// Parks the calling thread marked as waiting on the block barrier /
  /// its warp. Internal to the engine's blocking primitives.
  void wait_barrier(ThreadCtx& ctx);
  void wait_warp(ThreadCtx& ctx);

  /// Gate every warp collective passes before touching engine state:
  /// a fiberless (ExecMode::kDirect) thread is an error.
  void require_fiber(ThreadCtx& ctx, const char* what) {
    if (ctx.fiber == nullptr) direct_error(what);
  }

  /// Atomic accounting, called before the RMW runs. Fiber threads and
  /// direct-mode threads before the barrier just count; after a
  /// direct-mode release the lanes run in descending order, so an
  /// atomic there is an error.
  void note_atomic() {
    if (direct_released_) direct_error("atomic after the block barrier");
    counters_.atomics++;
  }

  /// Called by WarpState when a rendezvous completes: enqueues the
  /// warp's suspended waiters (ascending lane order) on the ready queue.
  void notify_warp_release(WarpState& warp);

  // Counted in place by WarpState on release and by the omp device
  // runtime emulation (handshakes, dispatches, globalized bytes).
  LaunchStats counters_;

 private:
  // A thread's wait state. Barrier waits are not recorded here but in
  // barrier_waitmap_.
  enum class Wait : std::uint8_t { kNone, kWarp };

  void run_cooperative();
  void run_direct();
  /// The lane loop both modes run (see block.cpp): threads from
  /// next_thread_ on, as plain calls on `ctx` advanced in place. On a
  /// fiber (kOnFiber) it also retires each thread as it returns.
  template <bool kOnFiber>
  void lane_loop(ThreadCtx& ctx);
  /// Suspends a thread whose wait is recorded until a wakeup resumes
  /// its fiber.
  void park(ThreadCtx& ctx);
  /// sync_threads under ExecMode::kDirect: nests the lanes not yet
  /// started, then releases the block's one barrier.
  void direct_barrier(ThreadCtx& ctx);
  /// The ExecMode::kDirect std::logic_error for `what`, naming the kernel.
  [[noreturn]] void direct_error(const std::string& what) const;
  /// Thread 0's context.
  [[nodiscard]] ThreadCtx first_ctx();
  /// Advances a context to the block's next thread: carry arithmetic,
  /// no divisions. It copies the block's shape, so a lane loop keeps
  /// it in registers across the opaque kernel calls.
  struct NextLane {
    Dim3 block_dim;
    std::uint32_t warp_size;
    std::uint32_t nthreads;
    WarpState* warps;
    void operator()(ThreadCtx& ctx) const;
  };
  [[nodiscard]] NextLane next_lane();
  void on_thread_exit(const ThreadCtx& ctx);
  void release_barrier();
  [[noreturn]] void deadlock(const char* where) const;

  // Ready-queue plumbing. The queue is a fixed ring of nthreads_ slots:
  // a thread is enqueued only on the blocked->runnable transition, so it
  // can appear at most once and the ring never overflows.
  void rq_push(std::uint32_t flat);
  [[nodiscard]] std::uint32_t rq_pop();
  /// Next woken thread (drain batch first, then the ring); false when
  /// none is — with every thread started, the deadlock condition.
  [[nodiscard]] bool next_runnable(std::uint32_t& flat);

  // Fiber recycling: acquire one per lane loop, reuse through a
  // block-local free list backed by fibers_ (which owns every fiber this
  // block holds); finished fibers are donated to the cross-launch
  // FiberPool at the end of a clean run.
  [[nodiscard]] Fiber* acquire_fiber();
  void recycle_fiber(Fiber* f);

  Device& device_;
  const LaunchParams& params_;
  Dim3 block_idx_;
  const KernelFn& kernel_;
  FiberPool& fiber_pool_;
  std::uint32_t nthreads_;
  std::uint32_t live_;  // fiber scheduler only

  SharedArena arena_;
  std::vector<WarpState> warps_;  // one allocation, never resized

  // Barrier state (epoch-based; single-threaded scheduler, no atomics).
  std::uint32_t barrier_arrived_ = 0;
  std::uint64_t barrier_epoch_ = 0;

  // The next thread no call has started yet (both modes: threads start
  // in ascending order).
  std::uint32_t next_thread_ = 0;

  // Direct-mode barrier state: whether the block's one barrier has
  // released, and whether run_lanes is running lanes (which cannot
  // nest).
  bool direct_released_ = false;
  bool in_run_lanes_ = false;
  // Scheduling steps taken while `probe` is set.
  std::uint32_t probe_steps_ = 0;
  void probe_step() {
    if (++probe_steps_ >= 32 && (probe_steps_ & (probe_steps_ - 1)) == 0)
      probe(probe_arg);
  }

  // Shared-allocation funnel. first_tid remembers who established the
  // variable so a mismatch diagnostic can name both threads.
  struct SharedVar {
    void* ptr;
    std::size_t bytes;
    std::size_t align;
    std::uint32_t first_tid;
  };
  std::vector<SharedVar> shared_vars_;
  // Per thread; sized at the block's first shared_alloc.
  std::vector<std::uint32_t> shared_alloc_ordinal_;

  // ompxsan racecheck shadow: one cell per shared-arena byte, allocated
  // lazily on the first instrumented access. The block runs single-OS-
  // threaded, so no locking. tids are stored +1 (0 = no access yet);
  // reader == kManyReaders means several distinct threads read the byte
  // this epoch. Epochs are the block barrier epoch truncated to 32 bits.
  struct SanShadowCell {
    std::uint32_t writer = 0;
    std::uint32_t writer_epoch = 0;
    std::uint32_t reader = 0;
    std::uint32_t reader_epoch = 0;
  };
  static constexpr std::uint32_t kManyReaders = ~0u;
  std::vector<SanShadowCell> san_shadow_;

  // Fiber scheduler state. waits_ is per thread; parked_ and the ready
  // ring are sized when the block's first thread parks. A parked
  // thread's context lives in its fiber's frame; parked_ keeps the
  // fiber pointer beside it so a resume reads no other fiber's stack.
  std::vector<Wait> waits_;
  struct Parked {
    ThreadCtx* ctx;
    Fiber* fiber;
  };
  std::vector<Parked> parked_;

  // Ready queue (ring buffer of thread ids, power-of-two capacity
  // >= nthreads_ so wraparound is a mask, not a division).
  std::vector<std::uint32_t> ready_;
  std::uint32_t rq_mask_ = 0;
  std::uint32_t rq_head_ = 0;
  std::uint32_t rq_count_ = 0;

  // Bitmap of threads suspended at the current block barrier (one bit
  // per thread). Released by scanning set bits low-to-high, which gives
  // the deterministic ascending wakeup order without sorting.
  std::vector<std::uint64_t> barrier_waitmap_;

  // Batch-drain fast path: a barrier that releases while the ready ring
  // is empty (the common everyone-at-the-barrier case) snapshots the
  // bitmap into drain_map_ and the scheduler pops waiters straight off
  // it — one bit scan per wakeup instead of a ring push plus pop. The
  // snapshot is taken at release time, so bits the releaser or woken
  // threads set for the *next* barrier never join the current batch;
  // and a new release cannot fire while the batch has pending threads
  // (a release needs every live thread at the barrier, and pending
  // threads are suspended at the previous one), so one buffer suffices.
  std::vector<std::uint64_t> drain_map_;
  bool drain_active_ = false;
  std::uint32_t drain_word_ = 0;   // cursor into drain_map_
  std::uint64_t drain_bits_ = 0;   // word being drained

  // Declared after arena_ so suspended fibers (exception unwind) are
  // destroyed — stacks returned to the pool — before the arena dies.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> free_fibers_;
};

}  // namespace simt

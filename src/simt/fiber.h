// Cooperative fibers: the execution vehicle for simulated GPU threads.
//
// A resident block's GPU threads run on fibers, one after another on a
// fiber until one blocks. Fibers are scheduled cooperatively by the
// block runner on a single OS thread; a fiber suspends (yields back to
// its scheduler) whenever the thread it is running blocks at a barrier
// or a warp collective, and keeps that thread until it finishes. This gives arbitrary kernel
// code — including `__syncthreads()` in divergent-looking positions —
// the same suspension semantics real SIMT hardware provides.
//
// The context switch is a hand-written x86-64 routine (callee-saved
// registers + stack pointer only, ~20 ns per switch). ucontext's
// swapcontext() performs a sigprocmask system call per switch, which is
// ~50x slower and dominates simulation time; it remains available as a
// portability fallback (-DOMPX_USE_UCONTEXT=ON).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace simt {

class FiberStackPool;

/// A single cooperative fiber. Not thread-safe: a fiber and its scheduler
/// must live on the same OS thread.
class Fiber {
 public:
  using EntryFn = std::function<void()>;

  /// Creates a fiber that will run `entry` when first resumed.
  /// The stack is leased from `pool` and returned on destruction.
  Fiber(FiberStackPool& pool, EntryFn entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Re-arms a finished (or never-started) fiber so it can run again,
  /// keeping its leased stack. This is the recycling primitive: a block
  /// whose threads run to completion without suspending needs one fiber,
  /// not one per thread. Throws if the fiber is suspended mid-run.
  void reset();

  /// Re-arms with a new entry function (same constraints as reset()).
  void reset(EntryFn entry);

  /// Runs the fiber until it yields or finishes. Must be called from the
  /// scheduler context (never from inside another fiber's resume).
  /// An exception escaping the entry function is captured on the fiber
  /// and rethrown here, on the scheduler's stack.
  void resume();

  /// Yields from inside the fiber back to whoever called resume().
  /// Must be called from inside this fiber.
  void yield();

  /// True once the entry function has returned.
  [[nodiscard]] bool done() const { return done_; }

  /// The fiber currently executing on this OS thread, or nullptr when in
  /// scheduler context.
  static Fiber* current();

  /// First-entry point invoked by the machine-specific thunk. Internal;
  /// public only because the extern "C" bridge must reach it.
  static void trampoline(Fiber* self);

 private:
  struct Context;  // opaque machine context

  /// (Re)builds the suspended context so the next resume() enters the
  /// trampoline at the top of the leased stack.
  void arm();

  FiberStackPool& pool_;
  EntryFn entry_;
  void* stack_ = nullptr;          // base of the leased stack
  std::size_t stack_size_ = 0;
  std::unique_ptr<Context> ctx_;   // this fiber's suspended context
  std::unique_ptr<Context> link_;  // scheduler context to return to
  std::exception_ptr exception_;   // escaped from entry, rethrown in resume
  bool started_ = false;
  bool done_ = false;

  // ASan fiber-switch bookkeeping (see SIMT_ASAN_* in fiber.cpp). Kept
  // unconditionally so the layout never depends on sanitizer flags.
  void* asan_fake_stack_ = nullptr;        // this fiber's fake-stack save
  const void* asan_link_stack_ = nullptr;  // scheduler stack bottom
  std::size_t asan_link_stack_size_ = 0;
  // TSan fiber-switch bookkeeping (see SIMT_TSAN_* in fiber.cpp). Same
  // rule: members exist whether or not TSan is enabled.
  void* tsan_fiber_ = nullptr;  // __tsan_create_fiber handle
  void* tsan_link_ = nullptr;   // scheduler's TSan fiber to return to
};

/// Recycles whole Fiber objects (and the stacks they lease) across
/// launches on one OS thread. Constructing a Fiber costs several heap
/// allocations (the object, two machine contexts, a stack lease); at
/// one fiber per blocking thread per launch that overhead dominates
/// barrier-heavy kernels, so the block runner re-arms pooled fibers
/// with Fiber::reset(entry) instead. Only finished fibers are cached;
/// anything else handed to recycle() is simply destroyed (releasing
/// its stack). Not thread-safe: like FiberStackPool, one pool per OS
/// thread.
class FiberPool {
 public:
  explicit FiberPool(FiberStackPool& stacks, std::size_t max_cached = 4096);

  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

  /// A cached fiber re-armed with `entry`, or a newly constructed one.
  std::unique_ptr<Fiber> acquire(Fiber::EntryFn entry);

  /// Returns a fiber to the cache (or destroys it if suspended or the
  /// cache is full). The fiber must have been acquired from a pool
  /// backed by the same FiberStackPool.
  void recycle(std::unique_ptr<Fiber> fiber);

  [[nodiscard]] std::size_t cached() const { return free_.size(); }

 private:
  FiberStackPool& stacks_;
  std::size_t max_cached_;
  std::vector<std::unique_ptr<Fiber>> free_;
};

/// Recycles fiber stacks. mmap/munmap per GPU thread would dominate the
/// simulation; the pool leases stacks and keeps a bounded free list.
class FiberStackPool {
 public:
  /// `stack_size` is rounded up to the page size; a guard page is placed
  /// below every stack so overflow faults instead of corrupting memory.
  explicit FiberStackPool(std::size_t stack_size = kDefaultStackSize,
                          std::size_t max_cached = 4096);
  ~FiberStackPool();

  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  void* lease();
  void release(void* stack);

  [[nodiscard]] std::size_t stack_size() const { return stack_size_; }
  [[nodiscard]] std::size_t cached() const { return free_.size(); }
  [[nodiscard]] std::size_t total_mapped() const { return total_mapped_; }

  static constexpr std::size_t kDefaultStackSize = 128 * 1024;

 private:
  void* map_stack();
  void unmap_stack(void* stack);

  std::size_t stack_size_;
  std::size_t max_cached_;
  std::size_t total_mapped_ = 0;
  std::vector<void*> free_;
};

}  // namespace simt

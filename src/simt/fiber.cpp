#include "simt/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && !defined(OMPX_USE_UCONTEXT)
#define SIMT_FIBER_ASM 1
#else
#define SIMT_FIBER_ASM 0
#include <ucontext.h>
#endif

#if SIMT_FIBER_ASM
#include <immintrin.h>
#endif

// ASan cannot follow a manual stack switch: it tracks one stack per OS
// thread and misattributes frames (or crashes in __asan_handle_no_return
// when an exception unwinds on a fiber stack) unless each switch is
// announced through the fiber API. The annotations compile away when
// ASan is off.
#if defined(__SANITIZE_ADDRESS__)
#define SIMT_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIMT_FIBER_ASAN 1
#endif
#endif
#ifndef SIMT_FIBER_ASAN
#define SIMT_FIBER_ASAN 0
#endif

#if SIMT_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define SIMT_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber(save, bottom, size)
#define SIMT_ASAN_FINISH_SWITCH(fake, bottom, size) \
  __sanitizer_finish_switch_fiber(fake, bottom, size)
#define SIMT_ASAN_UNPOISON(addr, size) __asan_unpoison_memory_region(addr, size)
#else
#define SIMT_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define SIMT_ASAN_FINISH_SWITCH(fake, bottom, size) ((void)0)
#define SIMT_ASAN_UNPOISON(addr, size) ((void)0)
#endif

// TSan has the same blind spot: it models one synchronization clock per
// OS thread and reports false races (or loses real ones) across a manual
// stack switch unless every switch is announced through its fiber API.
#if defined(__SANITIZE_THREAD__)
#define SIMT_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIMT_FIBER_TSAN 1
#endif
#endif
#ifndef SIMT_FIBER_TSAN
#define SIMT_FIBER_TSAN 0
#endif

#if SIMT_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#define SIMT_TSAN_CREATE_FIBER() __tsan_create_fiber(0)
#define SIMT_TSAN_DESTROY_FIBER(f) \
  do {                             \
    if ((f) != nullptr) __tsan_destroy_fiber(f); \
  } while (0)
#define SIMT_TSAN_CURRENT_FIBER() __tsan_get_current_fiber()
#define SIMT_TSAN_SWITCH_TO_FIBER(f) __tsan_switch_to_fiber(f, 0)
#else
#define SIMT_TSAN_CREATE_FIBER() nullptr
#define SIMT_TSAN_DESTROY_FIBER(f) ((void)0)
#define SIMT_TSAN_CURRENT_FIBER() nullptr
#define SIMT_TSAN_SWITCH_TO_FIBER(f) ((void)0)
#endif

namespace simt {

namespace {
thread_local Fiber* t_current_fiber = nullptr;

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Fiber* Fiber::current() { return t_current_fiber; }

#if SIMT_FIBER_ASM

extern "C" void simt_fiber_swap(void** save_sp, void* restore_sp);
extern "C" void simt_fiber_entry_thunk();

struct Fiber::Context {
  void* sp = nullptr;
};

extern "C" [[noreturn]] void simt_fiber_trampoline(Fiber* self) {
  Fiber::trampoline(self);
  __builtin_unreachable();
}

Fiber::Fiber(FiberStackPool& pool, EntryFn entry)
    : pool_(pool),
      entry_(std::move(entry)),
      ctx_(std::make_unique<Context>()),
      link_(std::make_unique<Context>()) {
  stack_size_ = pool_.stack_size();
  stack_ = pool_.lease();
  tsan_fiber_ = SIMT_TSAN_CREATE_FIBER();
  arm();
}

void Fiber::arm() {
  // Every stack top is page-aligned, so without an offset the hot top
  // frames of all fibers (saved registers, a parked thread's context)
  // share the same L1 sets and evict each other at every switch. A
  // per-stack offset of 0-63 cache lines, hashed from the stack address,
  // spreads them over every set.
  const std::size_t color =
      (((reinterpret_cast<std::uintptr_t>(stack_) >> 12) * 0x9E3779B1u >> 26) &
       63) * 64;
  // Seed the stack so the restore path of simt_fiber_swap "returns" into
  // simt_fiber_entry_thunk with this Fiber parked in r12. Layout must
  // mirror the save frame in fiber_switch_x86_64.S exactly.
  auto* top = reinterpret_cast<std::uint64_t*>(
      reinterpret_cast<std::uint8_t*>(stack_) + stack_size_ - color);
  // `top` is page-aligned less a multiple of 64, hence 16-byte aligned;
  // the thunk runs with rsp == top, satisfying the call-site alignment
  // rule.
  std::uint64_t* sp = top - 8;  // 64-byte seed frame
  const std::uint32_t mxcsr = _mm_getcsr();
  std::uint16_t fcw = 0;
  asm volatile("fnstcw %0" : "=m"(fcw));
  sp[0] = static_cast<std::uint64_t>(mxcsr) |
          (static_cast<std::uint64_t>(fcw) << 32);
  sp[1] = 0;                                      // r15
  sp[2] = 0;                                      // r14
  sp[3] = 0;                                      // r13
  sp[4] = reinterpret_cast<std::uint64_t>(this);  // r12 -> thunk's rdi
  sp[5] = 0;                                      // rbx
  sp[6] = 0;                                      // rbp
  sp[7] = reinterpret_cast<std::uint64_t>(&simt_fiber_entry_thunk);
  ctx_->sp = sp;
}

void Fiber::resume() {
  if (done_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* prev = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
  [[maybe_unused]] void* host_fake = nullptr;
  SIMT_ASAN_START_SWITCH(&host_fake, stack_, stack_size_);
  tsan_link_ = SIMT_TSAN_CURRENT_FIBER();
  SIMT_TSAN_SWITCH_TO_FIBER(tsan_fiber_);
  simt_fiber_swap(&link_->sp, ctx_->sp);
  SIMT_ASAN_FINISH_SWITCH(host_fake, nullptr, nullptr);
  t_current_fiber = prev;
  if (exception_) {
    auto e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Fiber::yield() {
  SIMT_ASAN_START_SWITCH(&asan_fake_stack_, asan_link_stack_,
                         asan_link_stack_size_);
  SIMT_TSAN_SWITCH_TO_FIBER(tsan_link_);
  simt_fiber_swap(&ctx_->sp, link_->sp);
  SIMT_ASAN_FINISH_SWITCH(asan_fake_stack_, &asan_link_stack_,
                          &asan_link_stack_size_);
}

void Fiber::trampoline(Fiber* self) {
  SIMT_ASAN_FINISH_SWITCH(nullptr, &self->asan_link_stack_,
                          &self->asan_link_stack_size_);
  try {
    self->entry_();
  } catch (...) {
    self->exception_ = std::current_exception();
  }
  self->done_ = true;
  // nullptr save slot: the fiber is terminating, so ASan frees its fake
  // stack instead of keeping it for a return that never happens.
  SIMT_ASAN_START_SWITCH(nullptr, self->asan_link_stack_,
                         self->asan_link_stack_size_);
  SIMT_TSAN_SWITCH_TO_FIBER(self->tsan_link_);
  // Final switch back to the scheduler. The save slot is never resumed
  // again; it only exists because the swap routine unconditionally saves.
  simt_fiber_swap(&self->ctx_->sp, self->link_->sp);
}

#else  // ucontext fallback

struct Fiber::Context {
  ucontext_t uc;
};

extern "C" void simt_fiber_trampoline_uc(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
  Fiber::trampoline(self);
}

Fiber::Fiber(FiberStackPool& pool, EntryFn entry)
    : pool_(pool),
      entry_(std::move(entry)),
      ctx_(std::make_unique<Context>()),
      link_(std::make_unique<Context>()) {
  stack_size_ = pool_.stack_size();
  stack_ = pool_.lease();
  tsan_fiber_ = SIMT_TSAN_CREATE_FIBER();
  arm();
}

void Fiber::arm() {
  if (getcontext(&ctx_->uc) != 0)
    throw std::runtime_error("getcontext failed");
  ctx_->uc.uc_stack.ss_sp = stack_;
  ctx_->uc.uc_stack.ss_size = stack_size_;
  ctx_->uc.uc_link = &link_->uc;
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_->uc, reinterpret_cast<void (*)()>(simt_fiber_trampoline_uc),
              2, static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
}

void Fiber::resume() {
  if (done_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* prev = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
  [[maybe_unused]] void* host_fake = nullptr;
  SIMT_ASAN_START_SWITCH(&host_fake, stack_, stack_size_);
  tsan_link_ = SIMT_TSAN_CURRENT_FIBER();
  SIMT_TSAN_SWITCH_TO_FIBER(tsan_fiber_);
  swapcontext(&link_->uc, &ctx_->uc);
  SIMT_ASAN_FINISH_SWITCH(host_fake, nullptr, nullptr);
  t_current_fiber = prev;
  if (exception_) {
    auto e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Fiber::yield() {
  SIMT_ASAN_START_SWITCH(&asan_fake_stack_, asan_link_stack_,
                         asan_link_stack_size_);
  SIMT_TSAN_SWITCH_TO_FIBER(tsan_link_);
  swapcontext(&ctx_->uc, &link_->uc);
  SIMT_ASAN_FINISH_SWITCH(asan_fake_stack_, &asan_link_stack_,
                          &asan_link_stack_size_);
}

void Fiber::trampoline(Fiber* self) {
  SIMT_ASAN_FINISH_SWITCH(nullptr, &self->asan_link_stack_,
                          &self->asan_link_stack_size_);
  try {
    self->entry_();
  } catch (...) {
    self->exception_ = std::current_exception();
  }
  self->done_ = true;
  // nullptr save slot: the fiber is terminating, so ASan frees its fake
  // stack instead of keeping it for a return that never happens.
  SIMT_ASAN_START_SWITCH(nullptr, self->asan_link_stack_,
                         self->asan_link_stack_size_);
  SIMT_TSAN_SWITCH_TO_FIBER(self->tsan_link_);
  // uc_link returns to the scheduler when this function falls off the end.
}

#endif  // SIMT_FIBER_ASM

void Fiber::reset() {
  if (started_ && !done_)
    throw std::logic_error("Fiber::reset on a suspended fiber");
  started_ = false;
  done_ = false;
  exception_ = nullptr;
  arm();
}

void Fiber::reset(EntryFn entry) {
  if (started_ && !done_)
    throw std::logic_error("Fiber::reset on a suspended fiber");
  entry_ = std::move(entry);
  started_ = false;
  done_ = false;
  exception_ = nullptr;
  arm();
}

Fiber::~Fiber() {
  SIMT_TSAN_DESTROY_FIBER(tsan_fiber_);
  // A fiber destroyed while suspended never unwound its frames, so the
  // ASan shadow of their redzones and out-of-scope locals outlives
  // them; clear it, or the next fiber to lease the stack trips on it.
  if (started_ && !done_) SIMT_ASAN_UNPOISON(stack_, stack_size_);
  if (stack_ != nullptr) pool_.release(stack_);
}

FiberPool::FiberPool(FiberStackPool& stacks, std::size_t max_cached)
    : stacks_(stacks), max_cached_(max_cached) {}

std::unique_ptr<Fiber> FiberPool::acquire(Fiber::EntryFn entry) {
  if (!free_.empty()) {
    std::unique_ptr<Fiber> f = std::move(free_.back());
    free_.pop_back();
    f->reset(std::move(entry));
    return f;
  }
  return std::make_unique<Fiber>(stacks_, std::move(entry));
}

void FiberPool::recycle(std::unique_ptr<Fiber> fiber) {
  if (fiber == nullptr) return;
  // A suspended fiber cannot be re-armed (reset() would throw); let it
  // go — its destructor releases the stack back to the stack pool.
  if (fiber->done() && free_.size() < max_cached_)
    free_.push_back(std::move(fiber));
}

FiberStackPool::FiberStackPool(std::size_t stack_size, std::size_t max_cached)
    : stack_size_(round_up(stack_size, page_size())), max_cached_(max_cached) {}

FiberStackPool::~FiberStackPool() {
  for (void* s : free_) unmap_stack(s);
}

void* FiberStackPool::lease() {
  if (!free_.empty()) {
    void* s = free_.back();
    free_.pop_back();
    return s;
  }
  return map_stack();
}

void FiberStackPool::release(void* stack) {
  if (free_.size() < max_cached_) {
    free_.push_back(stack);
  } else {
    unmap_stack(stack);
    total_mapped_ -= 1;
  }
}

void* FiberStackPool::map_stack() {
  const std::size_t ps = page_size();
  // One guard page below the stack: overflow faults instead of silently
  // scribbling over a neighbouring fiber's stack.
  void* base = ::mmap(nullptr, stack_size_ + ps, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  if (::mprotect(base, ps, PROT_NONE) != 0) {
    ::munmap(base, stack_size_ + ps);
    throw std::runtime_error("mprotect(guard) failed");
  }
  total_mapped_ += 1;
  return static_cast<std::uint8_t*>(base) + ps;
}

void FiberStackPool::unmap_stack(void* stack) {
  const std::size_t ps = page_size();
  ::munmap(static_cast<std::uint8_t*>(stack) - ps, stack_size_ + ps);
}

}  // namespace simt

// Device-scope atomics for kernel code (atomicAdd and friends).
//
// Implemented over std::atomic_ref so the same pointer can also be used
// non-atomically elsewhere in the kernel, exactly like CUDA atomics on
// global/shared memory. Each call is counted into the current launch's
// statistics for the performance model.
#pragma once

#include <atomic>
#include <type_traits>

#include "simt/block.h"
#include "simt/kernel.h"

namespace simt {

namespace detail {
inline void count_atomic() {
  // Before the RMW below executes: a kDirect lane past its block's
  // barrier throws instead (see BlockState::note_atomic).
  if (in_kernel()) this_thread().block->note_atomic();
}
}  // namespace detail

/// atomicAdd: returns the old value.
template <typename T>
T atomic_add(T* addr, T value) {
  detail::count_atomic();
  if constexpr (std::is_floating_point_v<T>) {
    std::atomic_ref<T> ref(*addr);
    T old = ref.load(std::memory_order_relaxed);
    while (!ref.compare_exchange_weak(old, old + value,
                                      std::memory_order_relaxed)) {
    }
    return old;
  } else {
    return std::atomic_ref<T>(*addr).fetch_add(value,
                                               std::memory_order_relaxed);
  }
}

/// atomicMax: returns the old value.
template <typename T>
T atomic_max(T* addr, T value) {
  detail::count_atomic();
  std::atomic_ref<T> ref(*addr);
  T old = ref.load(std::memory_order_relaxed);
  while (old < value &&
         !ref.compare_exchange_weak(old, value, std::memory_order_relaxed)) {
  }
  return old;
}

/// atomicMin: returns the old value.
template <typename T>
T atomic_min(T* addr, T value) {
  detail::count_atomic();
  std::atomic_ref<T> ref(*addr);
  T old = ref.load(std::memory_order_relaxed);
  while (value < old &&
         !ref.compare_exchange_weak(old, value, std::memory_order_relaxed)) {
  }
  return old;
}

/// atomicExch: returns the old value.
template <typename T>
T atomic_exchange(T* addr, T value) {
  detail::count_atomic();
  return std::atomic_ref<T>(*addr).exchange(value, std::memory_order_relaxed);
}

/// atomicXor: returns the old value.
template <typename T>
T atomic_xor(T* addr, T value) {
  detail::count_atomic();
  return std::atomic_ref<T>(*addr).fetch_xor(value, std::memory_order_relaxed);
}

/// atomicCAS: returns the old value.
template <typename T>
T atomic_cas(T* addr, T expected, T desired) {
  detail::count_atomic();
  std::atomic_ref<T> ref(*addr);
  T e = expected;
  ref.compare_exchange_strong(e, desired, std::memory_order_relaxed);
  return e;
}

/// __threadfence equivalent (sequentially consistent fence).
inline void threadfence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

}  // namespace simt

// Kernel representation and the per-thread execution context.
//
// A kernel is any callable run once per GPU thread. Thread identity is
// ambient — read through this_thread() — exactly as threadIdx/blockIdx
// are ambient in CUDA, so kernel bodies written against the kl/ompx
// layers look like kernel-language code.
#pragma once

#include <cstdint>
#include <functional>

#include "simt/dim.h"
#include "simt/perf.h"

namespace simt {

class BlockState;
class WarpState;
class Fiber;
class Device;

/// Per-thread execution context, valid while that thread's kernel body
/// runs. Owned by the block runner; kernels must not store it beyond
/// the call.
struct ThreadCtx {
  Dim3 thread_idx;
  Dim3 block_idx;
  Dim3 block_dim;
  Dim3 grid_dim;
  std::uint32_t lane = 0;       ///< lane within the warp
  std::uint32_t warp_id = 0;    ///< warp index within the block
  std::uint32_t flat_tid = 0;   ///< linear thread id within the block
  BlockState* block = nullptr;  ///< barrier / shared arena / warp table
  WarpState* warp = nullptr;
  Device* device = nullptr;
  Fiber* fiber = nullptr;       ///< null in direct (non-cooperative) mode
};

namespace detail {
/// The context of the GPU thread running on this OS thread; null in
/// host code. Only the block runner (block.cpp) sets it. A block never
/// moves between OS threads, so a fiber switch inside it keeps the
/// pointer valid.
inline constinit thread_local ThreadCtx* t_ctx = nullptr;
[[noreturn, gnu::cold]] void throw_outside_kernel();
}  // namespace detail

/// The context of the GPU thread currently executing on this OS thread.
/// Throws if called from host code (outside a kernel).
inline ThreadCtx& this_thread() {
  if (detail::t_ctx == nullptr) [[unlikely]]
    detail::throw_outside_kernel();
  return *detail::t_ctx;
}

/// True when called from inside a kernel body.
inline bool in_kernel() { return detail::t_ctx != nullptr; }

using KernelFn = std::function<void()>;

/// Execution mode for a launch.
///
/// kCooperative runs threads as plain calls on fibers, one fiber per
/// thread that blocks, so the kernel may use barriers and warp
/// collectives anywhere. kDirect runs threads as plain calls (no
/// suspension) on one context advanced in place, with no fiber and no
/// scheduler. It allows one block barrier per thread, run by
/// nesting the block's remaining lanes on the OS-thread stack (see
/// BlockState); a second barrier, a warp collective or an atomic after
/// the barrier throws std::logic_error naming the kernel. Results are
/// identical when both are legal. Device::resolve_launch runs a
/// cooperative launch of a kernel hinted convergent (ExecHint) as
/// kDirect under OMPX_EXEC=auto.
enum class ExecMode { kCooperative, kDirect };

/// Execution-model flags the OpenMP runtime emulation sets on its
/// launches; bare/native launches leave them all false (that absence of
/// runtime machinery is exactly what the paper's ompx_bare buys).
struct RuntimeModeFlags {
  bool runtime_init = false;    ///< device runtime state initialized
  bool generic_mode = false;    ///< generic-mode state machine active
  bool spill_in_shared = false; ///< heap-to-shared optimization applied
};

/// Everything that defines one kernel launch.
struct LaunchParams {
  Dim3 grid;
  Dim3 block;
  std::uint64_t dynamic_smem_bytes = 0;
  ExecMode mode = ExecMode::kCooperative;
  CompilerProfile profile;  ///< code-gen attributes of this version
  KernelCost cost;          ///< roofline characterization (see perf.h)
  RuntimeModeFlags rt;
  const char* name = "kernel";
  /// Sharded-launch support (ompx::shard_launch): this launch executes
  /// only the `grid` blocks starting at `grid_offset` of a logical
  /// `logical_grid`-sized grid split across several devices. Kernels
  /// observe block ids offset by `grid_offset` and `logical_grid` as
  /// their grid_dim, so global thread ids are shard-transparent.
  /// Defaults ({0,0,0}) mean "not a shard": no offset, grid_dim = grid.
  Dim3 grid_offset{0, 0, 0};
  Dim3 logical_grid{0, 0, 0};
  /// False suppresses the per-launch entry in Device::launch_log()
  /// (shards log one combined record on the primary device instead).
  bool log = true;
};

/// Block id of the launch's `b`-th block: row-major within `grid`,
/// offset into the logical grid by `grid_offset`.
[[nodiscard]] inline Dim3 block_id(const LaunchParams& p, std::uint64_t b) {
  Dim3 idx = p.grid.delinearize(b);
  idx.x += p.grid_offset.x;
  idx.y += p.grid_offset.y;
  idx.z += p.grid_offset.z;
  return idx;
}

/// The launch-wide part of a launch's stats (blocks, threads, runtime-
/// mode flags); the blocks' own counters are added to it as they run.
[[nodiscard]] inline LaunchStats launch_header(const LaunchParams& p) {
  LaunchStats s;
  s.blocks = p.grid.count();
  s.threads = s.blocks * p.block.count();
  s.runtime_init = p.rt.runtime_init;
  s.generic_mode = p.rt.generic_mode;
  s.spill_in_shared = p.rt.spill_in_shared;
  return s;
}

/// The one grid slicer, shared by serve time slices and shard_launch
/// shards. A launch is split along the largest axis of its grid (the
/// lowest axis on ties); split_extent() is that axis's block count.
[[nodiscard]] std::uint32_t split_extent(const Dim3& grid);

/// The launch of blocks [begin, begin + extent) along `whole`'s split
/// axis. Kernels see the whole grid (logical_grid, offset block ids);
/// the slice is not logged, because the caller logs one combined
/// record for the whole launch.
[[nodiscard]] LaunchParams slice_grid(const LaunchParams& whole,
                                      std::uint32_t begin,
                                      std::uint32_t extent);

}  // namespace simt

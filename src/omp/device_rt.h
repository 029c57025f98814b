// OpenMP GPU device-runtime emulation.
//
// Reproduces the execution machinery of the LLVM OpenMP device runtime
// (Doerfert et al. IPDPS'22, Huber et al. CGO'22) that the paper's
// `omp` baseline pays for and `ompx_bare` removes:
//
//  * generic mode: a team's main thread runs sequential code and wakes
//    worker threads through a state machine for each `parallel` region
//    (a handshake of two block barriers per region). The state machine
//    is priced, not executed: its handshakes and barriers are counted,
//    and the host runs each region's threads as plain lane calls of the
//    main thread, so generic launches need no fibers;
//  * SPMD mode: all threads run the loop body, lighter runtime init;
//  * globalization: variables shared between sequential and parallel
//    parts of a team cannot live in a thread's registers/stack; they
//    are moved to the device heap (counted as global-memory traffic),
//    or to shared memory when the heap-to-shared optimization applies;
//  * workshare loops: static schedules over teams/threads, with
//    dispatch events counted.
//
// Everything here runs *inside* kernels on the SIMT engine and feeds
// the launch statistics the performance model consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simt/simt.h"

namespace omp {

/// How many bytes of traffic one globalized byte generates. Globalized
/// variables are accessed by the main thread and by every parallel
/// region; 8 accesses/byte is the documented calibration constant
/// (EXPERIMENTS.md §Calibration).
constexpr std::uint64_t kGlobalizationTrafficFactor = 8;

// ------------------------------------------------- device-side queries

/// omp_get_team_num / omp_get_num_teams (flattened).
inline int team_num() {
  const auto& t = simt::this_thread();
  return static_cast<int>(t.grid_dim.linear(t.block_idx));
}
inline int num_teams() {
  return static_cast<int>(simt::this_thread().grid_dim.count());
}
/// omp_get_thread_num / omp_get_num_threads within the team.
inline int thread_num() {
  return static_cast<int>(simt::this_thread().flat_tid);
}
inline int num_threads() {
  return static_cast<int>(simt::this_thread().block_dim.count());
}

// --------------------------------------------------------- team state

class TeamCtx;
using ParallelFn = std::function<void(int)>;   ///< arg: omp thread num
using TeamFn = std::function<void(TeamCtx&)>;  ///< generic-mode team body

/// Per-team runtime state (lives in the team's shared memory, like the
/// LLVM device runtime's state block).
struct TeamState {
  int par_nthreads = 0;
  std::int64_t dyn_next = 0;  ///< dynamic-schedule chunk cursor
  /// Globalized storage: device-heap blocks owned by the team.
  std::vector<std::unique_ptr<char[]>> globalized;
};

/// Handle the generic-mode team body uses to run parallel regions and
/// allocate globalized storage. Valid only on the team's main thread.
class TeamCtx {
 public:
  TeamCtx(TeamState& ts, simt::ThreadCtx& main);

  /// #pragma omp parallel num_threads(n): one handshake (a release
  /// and a join barrier, counted), with `body(tid)` run for every
  /// thread of the region in ascending tid order, each under its own
  /// thread context; the main thread's context is restored after,
  /// also when `body` throws. n == 0 uses the whole team. `body` must
  /// not reach a block barrier or warp collective (std::logic_error).
  void parallel(int nthreads, const ParallelFn& body);

  /// #pragma omp parallel for schedule(static): convenience nest.
  void parallel_for(std::int64_t lb, std::int64_t ub,
                    const std::function<void(std::int64_t)>& body);

  /// #pragma omp parallel for schedule(dynamic, chunk): chunks handed
  /// out through a team-shared counter; every grab is a workshare
  /// dispatch event (the cost static schedules avoid).
  void parallel_for_dynamic(std::int64_t lb, std::int64_t ub,
                            std::int64_t chunk,
                            const std::function<void(std::int64_t)>& body);

  /// #pragma omp parallel for reduction(+: result): static workshare
  /// with the standard per-thread-partial + critical-combine lowering.
  /// Returns the team's reduced value (main thread only).
  double parallel_for_reduce(std::int64_t lb, std::int64_t ub,
                             const std::function<double(std::int64_t)>& body);

  /// Storage for a variable that escapes into parallel regions: the
  /// globalization path. Returns device-heap memory owned by the team;
  /// traffic is charged to the launch statistics.
  void* globalized(std::size_t bytes);

  /// groupprivate(team:) storage — the paper's extension for shared
  /// memory; no globalization cost, occupancy charged via smem.
  void* groupprivate(std::size_t bytes, std::size_t align = 16);

  [[nodiscard]] int team() const { return team_num(); }
  [[nodiscard]] int teams() const { return num_teams(); }
  [[nodiscard]] int team_size() const;

 private:
  TeamState& ts_;
  simt::ThreadCtx& main_;
};

// ----------------------------------------------------- kernel builders
// These produce KernelFn bodies the host-side target layer launches.

/// Generic-mode kernel: thread 0 of each team runs `team_body`; other
/// threads return at once, their share of each parallel region run as
/// lanes by TeamCtx::parallel. The worker state machine is charged
/// (2 + 2 x regions block barriers per team), not executed. This is the
/// body shape the LLVM runtime falls back to when it cannot prove
/// SPMD-ness (the Stencil-1D `omp` slowdown in §4.2.6). Launch it in
/// ExecMode::kDirect.
simt::KernelFn make_generic_kernel(TeamFn team_body);

/// SPMD-mode kernel for `target teams distribute parallel for`:
/// iterations [0, n) are blocked over teams and cyclically over a
/// team's threads (static schedules), every thread active.
simt::KernelFn make_spmd_loop_kernel(std::int64_t n,
                                     std::function<void(std::int64_t)> body);

/// SPMD loop with a sum-reduction: per-thread partials are tree-reduced
/// in team shared memory and atomically combined into *result (the
/// standard reduction lowering).
simt::KernelFn make_spmd_loop_reduce_kernel(
    std::int64_t n, std::function<double(std::int64_t)> body, double* result);

/// #pragma omp master: true on thread 0 of the team (no implied
/// barrier, per the spec).
inline bool master() { return thread_num() == 0; }

/// #pragma omp single nowait equivalent within a parallel region: the
/// first thread to arrive executes `body`; the others skip. Uses a
/// team-shared ticket (one atomic per region instance). No implied
/// barrier — add an explicit one for the non-nowait form.
/// `ticket` must be team-shared storage zero-initialized before use.
inline bool single_nowait(int* ticket) {
  return simt::atomic_cas(ticket, 0, 1) == 0;
}

/// #pragma omp critical [(name)]: device-wide mutual exclusion.
/// Usable from any kernel thread (SPMD bodies and generic-mode parallel
/// regions alike); the unnamed critical is the empty name.
void critical(const std::function<void()>& body, const char* name = "");

/// Per-thread globalized storage inside an SPMD region (an escaping
/// local the compiler could not keep in registers). Charged as
/// globalization traffic; the caller owns the storage for the scope of
/// its kernel body (RAII keeps this safe across fibers).
std::unique_ptr<char[]> spmd_globalized_local(std::size_t bytes);

}  // namespace omp

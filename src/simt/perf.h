// Analytic performance model for the SIMT engine.
//
// The engine executes kernels *functionally* (real results, verified by
// checksums) on the host CPU; wall-clock time of that simulation says
// nothing about GPU time. Instead, every launch produces a LaunchStats
// record of mechanistic event counts — threads, barriers, warp
// collectives, runtime handshakes, globalized traffic — measured during
// execution, combined with a per-kernel roofline characterization
// (KernelCost) declared by the application. model_time() converts the
// two into modeled milliseconds using a roofline with a concurrency
// (latency-hiding) term and an occupancy calculation.
//
// Every calibrated constant is either a published hardware number
// (bandwidth, clocks, SM counts) or a per-event cost documented in
// EXPERIMENTS.md. The *shape* of the paper's figures comes from the
// event counts, not from per-figure fudge factors.
#pragma once

#include <cstdint>
#include <string>

#include "simt/dim.h"

namespace simt {

struct DeviceConfig;  // device.h

/// Code-generation attributes of one compiled kernel version. On real
/// hardware these come out of the compiler (nvcc/hipcc/clang); here they
/// are declared per version, calibrated from the paper's own profiling
/// narrative where it gives them (e.g. SU3: 24 vs 26 registers, 3.9 KB
/// vs 29 KB device binary; RSBench omp: 162 registers + 2 KB smem).
struct CompilerProfile {
  std::string name = "llvm-clang";
  /// Registers per thread; drives the occupancy limit.
  int regs_per_thread = 32;
  /// Static shared memory per block in bytes (occupancy limit).
  std::uint64_t static_smem_bytes = 0;
  /// Device binary size in KiB; large binaries pay an icache penalty.
  double binary_kib = 8.0;
  /// Multiplier (>= ~0.5) on achievable compute throughput capturing
  /// instruction-selection quality differences between compilers.
  double compute_efficiency = 1.0;
  /// Multiplier on achievable memory bandwidth capturing address/
  /// coalescing code-generation quality (load vectorization, unrolling
  /// of gather loops). 1.0 = ideal for the kernel's access pattern.
  double mem_efficiency = 1.0;
};

/// Roofline characterization of one kernel, per thread. Declared by the
/// application from its arithmetic (documented per app); identical
/// across program versions except where a version mechanically differs
/// (e.g. globalization reroutes private arrays to global memory).
struct KernelCost {
  double flops_per_thread = 0.0;
  /// Bytes moved to/from device global memory per thread.
  double global_bytes_per_thread = 0.0;
  /// Bytes moved to/from block-shared memory per thread.
  double shared_bytes_per_thread = 0.0;
  /// Per-thread private data that did not fit in registers ("local
  /// memory" spill). Routed to global traffic by default; the OpenMP
  /// device runtime's heap-to-shared optimization can reroute it to
  /// shared memory instead (see LaunchStats::spill_in_shared).
  double local_spill_bytes_per_thread = 0.0;
  /// Iterations of serial work per thread beyond the SIMT parallelism
  /// (e.g. a grid-stride loop executes `n / total_threads` rounds).
  double serial_iterations = 1.0;
};

/// Mechanistic event counts measured while a launch executes.
struct LaunchStats {
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t block_barriers = 0;    ///< __syncthreads-level events (per block)
  std::uint64_t warp_collectives = 0;  ///< shuffles/ballots/votes (per warp)
  std::uint64_t warp_syncs = 0;        ///< warp barrier events (per warp)
  std::uint64_t atomics = 0;           ///< device-scope atomic RMWs

  // --- populated by the OpenMP runtime emulation, zero in bare/native mode
  bool runtime_init = false;            ///< device runtime state init ran
  bool generic_mode = false;            ///< generic-mode state machine active
  std::uint64_t parallel_handshakes = 0;  ///< main->workers wake/join pairs
  std::uint64_t workshare_dispatches = 0; ///< loop-chunk scheduling events
  std::uint64_t globalized_bytes = 0;     ///< locals globalized to device heap
  bool spill_in_shared = false;  ///< heap-to-shared optimization applied

  // --- host-engine execution diagnostics. These describe how the
  // simulator ran (fiber recycling, work stealing), never feed
  // model_time(), and have no effect on modeled GPU time.
  std::uint64_t fibers_created = 0;  ///< Fiber objects constructed
  std::uint64_t fiber_reuses = 0;    ///< fibers re-armed, not constructed
                                     ///< (fibers acquired: created + reuses)
  std::uint64_t sched_steals = 0;    ///< block chunks grabbed beyond each
                                     ///< worker's first (dynamic rebalance);
                                     ///< the launcher's one-block pulls
                                     ///< before it wakes helpers are not
                                     ///< chunks
  std::uint64_t sched_lane_loops = 0;  ///< threads run as plain calls
                                       ///< (ExecMode::kDirect), fiber-free
  std::uint64_t sched_deflations = 0;  ///< always 0: kept for readers of
                                       ///< the retired lane loop's count

  void reset() { *this = LaunchStats{}; }
  bool operator==(const LaunchStats&) const = default;

  /// The one stats merge: blocks into a launch, worker shares into a
  /// launch, parts of a split launch into the whole. Counters sum; the
  /// runtime-mode flags are OR'd (every part of a launch carries the
  /// same flags, and per-block counters carry none).
  LaunchStats& operator+=(const LaunchStats& o) {
    blocks += o.blocks;
    threads += o.threads;
    block_barriers += o.block_barriers;
    warp_collectives += o.warp_collectives;
    warp_syncs += o.warp_syncs;
    atomics += o.atomics;
    runtime_init = runtime_init || o.runtime_init;
    generic_mode = generic_mode || o.generic_mode;
    parallel_handshakes += o.parallel_handshakes;
    workshare_dispatches += o.workshare_dispatches;
    globalized_bytes += o.globalized_bytes;
    spill_in_shared = spill_in_shared || o.spill_in_shared;
    fibers_created += o.fibers_created;
    fiber_reuses += o.fiber_reuses;
    sched_steals += o.sched_steals;
    sched_lane_loops += o.sched_lane_loops;
    sched_deflations += o.sched_deflations;
    return *this;
  }
};

/// Result of the analytic model, all in milliseconds.
struct ModeledTime {
  double total_ms = 0.0;
  double compute_ms = 0.0;
  double memory_ms = 0.0;
  double shared_ms = 0.0;
  double overhead_ms = 0.0;  ///< launch + runtime + sync event costs
  double occupancy = 1.0;    ///< resident-thread fraction of device capacity
};

/// Per-event costs of the modeled machine. Shared across devices except
/// where noted; values documented in EXPERIMENTS.md §Calibration.
struct EventCosts {
  /// Device-side per-kernel dispatch cost. Host-side launch latency
  /// (~4 us) is hidden by queueing when kernels are submitted
  /// back-to-back, which is how every benchmark here measures (events
  /// around kernel sequences), so only the device-side cost is charged.
  double launch_us = 0.8;
  /// OpenMP device runtime init per kernel, after the IPDPS'22
  /// near-zero-overhead optimizations (SPMD mode).
  double runtime_init_us = 0.4;
  double handshake_ns = 350.0;       ///< SPMD-ized parallel wake+join
  /// Wake+join through the *unoptimized* generic state machine
  /// (indirect work-function dispatch through device memory, full-block
  /// barriers, no inlined work function) — the cost the CGO'22
  /// state-machine rewrite removes and the paper's Stencil-1D omp
  /// version cannot avoid (§4.2.6). Calibrated against the paper's
  /// ~100x Stencil-1D gap; see EXPERIMENTS.md §Calibration.
  double handshake_generic_ns = 60000.0;
  double dispatch_ns = 24.0;         ///< workshare chunk dispatch
  double barrier_ns = 18.0;          ///< block barrier per resident block
  double warp_collective_ns = 1.2;   ///< per warp collective
  double atomic_ns = 10.0;           ///< device-scope atomic
  double transfer_latency_us = 8.0;  ///< per host<->device copy
};

/// Occupancy: resident threads per SM given block resources.
/// Mirrors the CUDA occupancy calculation (thread, register, shared
/// memory and block-slot limits).
std::uint32_t resident_threads_per_sm(const DeviceConfig& dev,
                                      std::uint32_t threads_per_block,
                                      const CompilerProfile& prof,
                                      std::uint64_t dynamic_smem_bytes);

/// Convert declared cost + measured stats into modeled time on `dev`
/// using the given per-event costs (Device::costs() by default).
ModeledTime model_time(const DeviceConfig& dev, const CompilerProfile& prof,
                       const KernelCost& cost, const LaunchStats& stats,
                       std::uint32_t threads_per_block,
                       std::uint64_t dynamic_smem_bytes,
                       const EventCosts& ec = EventCosts{});

/// Modeled host<->device transfer time for `bytes` over the link.
double model_transfer_ms(const DeviceConfig& dev, std::uint64_t bytes,
                         const EventCosts& ec = EventCosts{});

/// Modeled device<->device transfer time for `bytes` over the peer
/// link between `src` and `dst`: one link latency plus the bytes at
/// the slower endpoint's peer bandwidth (a link is only as fast as its
/// narrower end). Used when peer access is enabled; with peer access
/// disabled the copy is staged through the host instead (two
/// model_transfer_ms legs).
double model_peer_transfer_ms(const DeviceConfig& src, const DeviceConfig& dst,
                              std::uint64_t bytes,
                              const EventCosts& ec = EventCosts{});

}  // namespace simt

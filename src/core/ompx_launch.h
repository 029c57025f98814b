// ompx_bare target regions (paper §3.1, §3.2, §3.5).
//
// The library form of
//
//   #pragma omp target teams ompx_bare num_teams(gx,gy,gz)
//       thread_limit(bx,by,bz) [nowait] [depend(interopobj: obj)]
//   { body }
//
// is
//
//   ompx::LaunchSpec spec;
//   spec.num_teams = {gx, gy, gz};       // multi-dimensional grid (§3.2)
//   spec.thread_limit = {bx, by, bz};    // multi-dimensional block
//   spec.nowait = true;                  // optional
//   spec.depend_interop = &obj;          // optional (§3.5)
//   ompx::launch(spec, [=] { body });
//
// A nowait launch without an interop object is enqueued on the device's
// default stream and returns a ticket, like every asynchronous launch
// (LaunchMode::kAsync); classic depend clauses first wait for every
// registry device's default stream (omp/api.h), and taskwait() waits
// for all of them.
//
// With `bare = true` (the default) the region runs in bare-metal mode:
// no device runtime initialization, no state machine, no globalization
// of locals — all threads of all teams simply execute the body, exactly
// like a kernel-language launch. With `bare = false` the region pays
// the SPMD runtime machinery (the ablation axis for bench/abl_bare).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "omp/api.h"
#include "simt/simt.h"

namespace ompx {

/// The extent type num_teams/thread_limit take; aliases the engine's
/// Dim3 so ported `dim3` declarations translate one-to-one.
using dim3 = simt::Dim3;

struct LaunchSpec {
  simt::Dim3 num_teams{1};
  simt::Dim3 thread_limit{128};
  bool bare = true;
  /// Dynamic shared-memory segment (dynamic groupprivate storage).
  std::uint64_t dynamic_groupprivate_bytes = 0;
  /// Asynchronous execution (nowait clause): the launch goes on the
  /// default stream even under LaunchMode::kSync.
  bool nowait = false;
  /// depend(interopobj: obj): dispatch into the stream carried by the
  /// interop object (implies asynchronous execution, Figure 5).
  const omp::Interop* depend_interop = nullptr;
  /// Classic depend clauses: when non-empty, the launch first waits for
  /// the default stream of every registry device.
  std::vector<omp::Depend> depends;
  /// Target device (null = default device, registry index 0).
  simt::Device* device = nullptr;
  /// Code-gen / roofline declarations for the performance model.
  simt::CompilerProfile profile{.name = "ompx-proto"};
  simt::KernelCost cost;
  /// kCooperative launches of kernels hinted convergent (launch_hints)
  /// run as kDirect under OMPX_EXEC=auto; see simt::ExecHint.
  simt::ExecMode mode = simt::ExecMode::kCooperative;
  const char* name = "ompx_kernel";
};

/// Registers the execution hint for `kernel` (matched against launch
/// names): `convergent` runs its cooperative launches as fiber-free
/// ExecMode::kDirect plain calls under OMPX_EXEC=auto (a second barrier
/// or a warp op then throws std::logic_error naming the kernel);
/// `needs_fibers` pins it to the fiber path. Atomics need no hint:
/// kDirect runs them in place before its barrier. The hint may also
/// come from the static classifier (rewrite::classify_exec).
void launch_hints(const char* kernel, bool convergent,
                  bool needs_fibers = false);

/// Runs the static exec classifier (rewrite::register_exec_hints) over
/// one translation unit's source text and registers a hint per named
/// kernel region — kernels the analyzer proves rendezvous-free run
/// direct without any per-kernel launch_hints call. Returns the number
/// of kernels hinted.
int register_exec_hints(const std::string& source);

/// How plain ompx::launch calls execute. kAsync (the default) enqueues
/// the kernel on the target device's default stream and returns a
/// ticket immediately — CUDA's launch semantics. kSync runs the kernel
/// on the calling thread before returning (the pre-stream behavior;
/// also the reference side of the async differential tests). Initial
/// value comes from OMPX_LAUNCH=sync|async; process-wide.
enum class LaunchMode : std::uint8_t { kSync, kAsync };
void set_launch_mode(LaunchMode mode);
[[nodiscard]] LaunchMode launch_mode();

/// What a launch hands back: a ticket for work that may still be in
/// flight. The synchronous forms (LaunchMode::kSync without nowait,
/// shard launches, depend_interop without nowait) return with
/// `completed` already true and `record` filled; default-stream async
/// launches (LaunchMode::kAsync or nowait) return immediately and the
/// record becomes available through wait()/query(). Callers read
/// launch measurements from here — no layer above core should reach
/// into simt::Device internals for stats.
struct LaunchResult {
  /// True once the engine's record for the launch is in `record`:
  /// immediately for the synchronous forms, after wait() (or a true
  /// query()) for default-stream async ones. Async launches into an
  /// interop stream carry no ticket; fetch their record after
  /// taskwait(obj) via launch_record().
  bool completed = false;
  simt::LaunchRecord record;

  /// Blocks until the launch finished, then fills `record` and sets
  /// `completed`. No-op for already-completed results. A launch that
  /// failed leaves an empty record here; the error itself surfaces at
  /// the stream/device synchronize, as with any async failure.
  void wait();
  /// Non-blocking: true iff the launch finished (record then filled).
  bool query();
  /// Measurement accessors wait() first, so existing call sites keep
  /// reading correct values under the async default.
  [[nodiscard]] double modeled_ms() {
    wait();
    return record.time.total_ms;
  }
  [[nodiscard]] double wall_ms() {
    wait();
    return record.wall_ms;
  }

  struct Ticket;  // shared completion state, defined in ompx_launch.cpp

 private:
  std::shared_ptr<Ticket> ticket_;
  friend LaunchResult launch(const LaunchSpec& spec, simt::KernelFn body);
};

/// Launches `body` once per thread of the num_teams x thread_limit
/// space. Stream-ordered and asynchronous by default (see LaunchMode);
/// synchronize with the returned ticket, ompx_stream_sync on the
/// default stream, or device synchronization.
LaunchResult launch(const LaunchSpec& spec, simt::KernelFn body);

/// The most recent completed launch on `dev` (default device if null) —
/// the sanctioned way to read stats for launches that went through an
/// interop stream. Synchronizes the device first so in-flight async
/// launches are included. Throws std::logic_error if nothing
/// launched.
simt::LaunchRecord launch_record(simt::Device* dev = nullptr);

/// #pragma omp taskwait depend(interopobj: obj): synchronizes the
/// stream carried by the interop object (Figure 5's stream sync).
void taskwait(const omp::Interop& obj);

/// #pragma omp taskwait: the one omp::taskwait (omp/api.h) — waits for
/// every registry device's default stream, so for every nowait launch.
using omp::taskwait;

/// The device an unqualified ompx call targets (registry index 0 by
/// default; set *per host thread*, CUDA cudaSetDevice semantics — a new
/// std::thread starts back at device 0).
simt::Device& default_device();
void set_default_device(simt::Device& dev);
/// Registry index of the calling thread's default device, cached at
/// set_default_device time so ompx_get_device is O(1). Returns -1 when
/// a device outside the registry was installed.
int default_device_index();

/// Splits a synchronous launch across `devices`: the grid is divided
/// along its largest axis into one shard per device, each shard runs on
/// its device's default stream with its true gridDim/blockIdx geometry
/// (blocks see the full logical grid, offset per shard, so
/// global-id-indexed kernels need no changes), and the shards are
/// joined with events. The per-shard records are combined into one
/// LaunchRecord — stats summed, modeled time the max over shards (they
/// run concurrently), grid the full logical grid — which is appended to
/// the launch log of devices[0] and returned. devices[0] is the
/// "primary": kernels still capture pointers into whatever device the
/// data lives on (cross-device access is legal in the simulation, as
/// under UVA). Throws std::invalid_argument for nowait/interop specs or
/// an empty device list; with one device (or a 1-wide axis) it degrades
/// to a plain synchronous launch.
LaunchResult shard_launch(const LaunchSpec& spec,
                          const std::vector<simt::Device*>& devices,
                          simt::KernelFn body);

/// Process-wide shard override consulted by plain synchronous
/// ompx::launch calls: with n > 1, such launches transparently shard
/// across the first n registry devices (primary first). Benchmarks set
/// this from --devices=N; 1 (the default) disables sharding. Clamped
/// to [1, registry size].
void set_shard_devices(int n);
int shard_devices();

}  // namespace ompx

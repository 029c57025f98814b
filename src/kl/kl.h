// kl: a CUDA/HIP-shaped kernel-language shim over the SIMT engine.
//
// This is the reproduction's stand-in for "native" CUDA and HIP: the
// benchmark versions the paper labels `cuda` / `hip` are written against
// this API, which mirrors the CUDA runtime (klMalloc/klMemcpyAsync/
// chevron-less kl::launch) and device intrinsics (kl::threadIdx(),
// kl::syncthreads(), kl::shfl_down_sync, ...). HeCBench's CUDA and HIP
// versions are textually near-identical, so one kl source serves both:
// it targets sim-a100 when the current device is CUDA-shaped and
// sim-mi250 when HIP-shaped.
//
// Host entry points return klError codes like the CUDA runtime; engine
// exceptions are converted at this boundary and retrievable via
// klGetLastError/klGetErrorString.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "simt/simt.h"

namespace kl {

// ------------------------------------------------------------ host API

enum klError : int {
  klSuccess = 0,
  klErrorInvalidValue = 1,
  klErrorMemoryAllocation = 2,
  klErrorInvalidDevice = 3,
  klErrorLaunchFailure = 4,
  klErrorNotReady = 5,
  klErrorDeviceLost = 6,  // cudaErrorDevicesUnavailable; klDeviceReset recovers
  klErrorTimeout = 7,     // cudaErrorLaunchTimeout; the offending stream dies
  klErrorAdmission = 8,   // serving-layer admission control refused the request
  klErrorUnknown = 999,
};

const char* klGetErrorString(klError e);

/// Last error recorded on this host thread (cleared on read, like
/// cudaGetLastError).
klError klGetLastError();
/// Like klGetLastError but does not clear.
klError klPeekAtLastError();
/// Human-readable detail of the last error (engine exception message).
const char* klGetLastErrorDetail();

/// Device selection (indexes simt::device_registry()).
klError klSetDevice(int index);
klError klGetDevice(int* index);
klError klGetDeviceCount(int* count);
/// The simt device behind the current selection.
simt::Device& current_device();

klError klMalloc(void** ptr, std::size_t bytes);
template <typename T>
klError klMalloc(T** ptr, std::size_t bytes) {
  return klMalloc(reinterpret_cast<void**>(ptr), bytes);
}
klError klFree(void* ptr);

enum klMemcpyKind : int {
  klMemcpyHostToDevice,
  klMemcpyDeviceToHost,
  klMemcpyDeviceToDevice,
  klMemcpyHostToHost,
};

klError klMemcpy(void* dst, const void* src, std::size_t bytes, klMemcpyKind kind);
/// cudaMemcpyPeer: copy between two devices' allocations, each
/// bounds-validated against its own device. Modeled at the peer-link
/// bandwidth once peer access is enabled (either direction suffices),
/// else staged through the host at two host-link legs.
klError klMemcpyPeer(void* dst, int dst_device, const void* src,
                     int src_device, std::size_t bytes);
/// cudaDeviceEnablePeerAccess: current device gains access to
/// `peer_device` (directional; idempotent). `flags` must be 0.
klError klDeviceEnablePeerAccess(int peer_device, unsigned int flags = 0);
klError klDeviceDisablePeerAccess(int peer_device);
/// cudaDeviceCanAccessPeer: *can = 1 for any two distinct registry
/// devices (single-process simulation), 0 when device == peer.
klError klDeviceCanAccessPeer(int* can_access, int device, int peer_device);
/// cudaMemcpy2D: `height` rows of `width` bytes with row pitches.
klError klMemcpy2D(void* dst, std::size_t dpitch, const void* src,
                   std::size_t spitch, std::size_t width, std::size_t height,
                   klMemcpyKind kind);
klError klMemset(void* ptr, int value, std::size_t bytes);

using klStream_t = simt::Stream*;
using klEvent_t = simt::Event*;

klError klStreamCreate(klStream_t* stream);
/// Drains the stream's pending work, then releases it (cudaStreamDestroy).
/// Null is a no-op; the default stream cannot be destroyed.
klError klStreamDestroy(klStream_t stream);
klError klStreamSynchronize(klStream_t stream);
klError klMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                      klMemcpyKind kind, klStream_t stream = nullptr);
klError klMemsetAsync(void* ptr, int value, std::size_t bytes,
                      klStream_t stream = nullptr);

/// __constant__ memory: allocate a symbol in the device's 64 KiB
/// constant space and write it from the host (cudaMemcpyToSymbol). The
/// returned pointer is readable from kernels like any other pointer;
/// the space is capacity-limited and host-writable only.
/// Stream-ordered memory (cudaMallocAsync / cudaFreeAsync): the block
/// is pooled per stream, so a free/malloc pair of the same size on the
/// same stream recycles without touching the device allocator. Null
/// stream means the current device's default stream.
klError klMallocAsync(void** ptr, std::size_t bytes,
                      klStream_t stream = nullptr);
template <typename T>
klError klMallocAsync(T** ptr, std::size_t bytes, klStream_t stream = nullptr) {
  return klMallocAsync(reinterpret_cast<void**>(ptr), bytes, stream);
}
klError klFreeAsync(void* ptr, klStream_t stream = nullptr);

/// Multi-tenant client contexts (CUDA MPS shaped; see serve/serve.h).
/// A client is one tenant's handle onto a shared device: quota-charged
/// allocation accounting and fair-share block-granularity scheduling
/// against sibling clients. device -1 places the client on the
/// least-loaded device. Destroy drains the client's queue first.
using klClient_t = void*;
klError klClientCreate(klClient_t* client, int device = -1);
klError klClientDestroy(klClient_t client);

/// Graph capture and replay (cudaGraph / cudaGraphExec collapsed into
/// one handle, like hipGraph in practice). Work submitted to the
/// stream between BeginCapture and EndCapture is recorded, not
/// executed; the captured graph replays with klGraphLaunch at a
/// fraction of per-launch cost. Destroy waits for outstanding replays
/// and frees graph-owned (captured klMallocAsync) allocations.
using klGraph_t = simt::Graph*;
klError klStreamBeginCapture(klStream_t stream);
klError klStreamEndCapture(klStream_t stream, klGraph_t* graph);
klError klGraphInstantiate(klGraph_t graph);
klError klGraphLaunch(klGraph_t graph, klStream_t stream = nullptr);
klError klGraphDestroy(klGraph_t graph);

klError klMallocConstant(void** ptr, std::size_t bytes);
template <typename T>
klError klMallocConstant(T** ptr, std::size_t bytes) {
  return klMallocConstant(reinterpret_cast<void**>(ptr), bytes);
}
klError klMemcpyToSymbol(void* symbol, const void* src, std::size_t bytes);
klError klFreeConstant(void* ptr);

klError klEventCreate(klEvent_t* ev);
/// Releases the event once no enqueued operation still references it
/// (cudaEventDestroy). Null is a no-op.
klError klEventDestroy(klEvent_t ev);
klError klEventRecord(klEvent_t ev, klStream_t stream = nullptr);
klError klEventSynchronize(klEvent_t ev);
/// Modeled milliseconds between two recorded events (the engine's
/// device timeline, not host wall time) — what the benchmarks report.
klError klEventElapsedTime(float* ms, klEvent_t start, klEvent_t stop);

klError klDeviceSynchronize();

/// cudaDeviceReset-shaped recovery: clears the current device's lost
/// state (set by an injected device_lost fault) and drains its failed
/// pending work so later calls succeed. Watchdog-killed streams stay
/// dead — destroy and recreate them.
klError klDeviceReset();

/// Arms the deterministic fault injector with `spec` (see simt/fault.h:
/// site[:key=value,...][;...], sites oom | host_oom | stall | peer |
/// graph | device_lost). Null disables. A malformed spec returns
/// klErrorInvalidValue and leaves the previous configuration armed.
klError klFaultInject(const char* spec);

/// Kernel watchdog budget in milliseconds (<= 0 disables; also set by
/// OMPX_WATCHDOG_MS). Overruns — modeled launch duration or wall-clock
/// stream-op duration (never below 100 ms) — fail with klErrorTimeout.
klError klSetWatchdogMs(double ms);

/// Launch telemetry (cudaProfilerStart/Stop-shaped front of the uniform
/// profiling API; see simt/profiler.h). klProfilerDump writes the
/// capture as Chrome trace-event JSON.
klError klProfilerStart();
klError klProfilerStop();
klError klProfilerDump(const char* path);

/// ompxsan (see simt/san.h): the kl face of the uniform sanitizer API.
/// `checks` uses the OMPX_SAN syntax ("race,mem,sync", "all"); null or
/// "" enables everything. klSanReport prints the report to stderr and
/// stores the error count in *errors (which may be null).
klError klSanEnable(const char* checks);
klError klSanDisable();
klError klSanReport(unsigned long long* errors);

/// Lane-execution hints (see simt::ExecHint / OMPX_EXEC): registers the
/// execution classification of `kernel` (matched against launch names).
/// convergent != 0 runs its cooperative launches as fiber-free direct
/// plain calls under OMPX_EXEC=auto (a second barrier or a warp op then
/// fails the launch with an error naming the kernel); needs_fibers != 0
/// pins the fiber path.
klError klSetKernelExecHint(const char* kernel, int convergent,
                            int needs_fibers);

/// Runs the static ompx-analyze exec classifier over `source` (one
/// translation unit's text) and registers a hint per named kernel
/// region found; `registered` (optional) receives the count. Kernels
/// proven rendezvous-free run direct with no per-kernel
/// klSetKernelExecHint call.
klError klRegisterExecHints(const char* source, int* registered);

/// Throwing result check (the cudaCheck idiom for C++ hosts): converts
/// a non-success klError into std::runtime_error carrying the error
/// string and the thread's last-error detail. The benchmark apps wrap
/// every kl call in this so an injected fault unwinds as a catchable
/// error instead of being silently dropped.
inline void check(klError e, const char* what = "kl call") {
  if (e == klSuccess) return;
  std::string msg = std::string(what) + ": " + klGetErrorString(e);
  const char* detail = klGetLastErrorDetail();
  if (detail != nullptr && detail[0] != '\0')
    msg += std::string(" (") + detail + ")";
  throw std::runtime_error(msg);
}

// ------------------------------------------------------------- launch

/// Per-kernel attributes: code-generation profile (registers, binary
/// size, compiler) and roofline cost declaration. See simt/perf.h; the
/// calibration story is in EXPERIMENTS.md.
struct KernelAttrs {
  simt::CompilerProfile profile;
  simt::KernelCost cost;
  simt::ExecMode mode = simt::ExecMode::kCooperative;
  const char* name = "kl_kernel";
};

namespace detail {
klError launch_erased(const simt::LaunchParams& p, klStream_t stream,
                      simt::KernelFn fn);
}  // namespace detail

/// Launches `body` (any void() callable; captures are the kernel
/// arguments) on the current device: the library equivalent of
/// kernel<<<grid, block, smem, stream>>>(args...).
template <typename F>
klError launch(simt::Dim3 grid, simt::Dim3 block, std::size_t smem,
               klStream_t stream, const KernelAttrs& attrs, F&& body) {
  simt::LaunchParams p;
  p.grid = grid;
  p.block = block;
  p.dynamic_smem_bytes = smem;
  p.mode = attrs.mode;
  p.profile = attrs.profile;
  p.cost = attrs.cost;
  p.name = attrs.name;
  return detail::launch_erased(p, stream, simt::KernelFn(std::forward<F>(body)));
}

template <typename F>
klError launch(simt::Dim3 grid, simt::Dim3 block, F&& body) {
  return launch(grid, block, 0, nullptr, KernelAttrs{}, std::forward<F>(body));
}

// ----------------------------------------------------- device intrinsics
// Valid only inside a kernel body (they read simt::this_thread()).

inline simt::Dim3 threadIdx() { return simt::this_thread().thread_idx; }
inline simt::Dim3 blockIdx() { return simt::this_thread().block_idx; }
inline simt::Dim3 blockDim() { return simt::this_thread().block_dim; }
inline simt::Dim3 gridDim() { return simt::this_thread().grid_dim; }
inline unsigned laneId() { return simt::this_thread().lane; }
inline unsigned warpSize() {
  return simt::this_thread().device->config().warp_size;
}

/// __syncthreads()
inline void syncthreads() {
  auto& t = simt::this_thread();
  t.block->sync_threads(t);
}

/// __syncwarp(mask)
inline void syncwarp(simt::LaneMask mask = ~0ull) {
  auto& t = simt::this_thread();
  t.warp->collective(t, simt::WarpOp::kSync, 0, 0, mask);
}

namespace detail {
template <typename T>
std::uint64_t to_bits(T v) {
  static_assert(sizeof(T) <= 8, "shuffle payload must fit 64 bits");
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(T));
  return b;
}
template <typename T>
T from_bits(std::uint64_t b) {
  T v;
  std::memcpy(&v, &b, sizeof(T));
  return v;
}
template <typename T>
T warp_collective(simt::WarpOp op, T value, unsigned param,
                  simt::LaneMask mask) {
  auto& t = simt::this_thread();
  return from_bits<T>(t.warp->collective(t, op, to_bits(value), param, mask));
}
}  // namespace detail

/// __shfl_sync / __shfl_up_sync / __shfl_down_sync / __shfl_xor_sync
template <typename T>
T shfl_sync(simt::LaneMask mask, T value, unsigned src_lane) {
  return detail::warp_collective(simt::WarpOp::kShflIdx, value, src_lane, mask);
}
template <typename T>
T shfl_up_sync(simt::LaneMask mask, T value, unsigned delta) {
  return detail::warp_collective(simt::WarpOp::kShflUp, value, delta, mask);
}
template <typename T>
T shfl_down_sync(simt::LaneMask mask, T value, unsigned delta) {
  return detail::warp_collective(simt::WarpOp::kShflDown, value, delta, mask);
}
template <typename T>
T shfl_xor_sync(simt::LaneMask mask, T value, unsigned lane_mask) {
  return detail::warp_collective(simt::WarpOp::kShflXor, value, lane_mask, mask);
}

/// __reduce_add_sync / __reduce_min_sync / __reduce_max_sync (sm_80+
/// warp reduce intrinsics). Integral payloads up to 64 bits; unsigned
/// values below 2^63 round-trip exactly through the engine's signed
/// accumulator.
template <typename T>
T reduce_add_sync(simt::LaneMask mask, T value) {
  static_assert(std::is_integral_v<T>);
  auto& t = simt::this_thread();
  return static_cast<T>(t.warp->collective(
      t, simt::WarpOp::kReduceAdd,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(value)), 0, mask));
}
template <typename T>
T reduce_min_sync(simt::LaneMask mask, T value) {
  static_assert(std::is_integral_v<T>);
  auto& t = simt::this_thread();
  return static_cast<T>(t.warp->collective(
      t, simt::WarpOp::kReduceMin,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(value)), 0, mask));
}
template <typename T>
T reduce_max_sync(simt::LaneMask mask, T value) {
  static_assert(std::is_integral_v<T>);
  auto& t = simt::this_thread();
  return static_cast<T>(t.warp->collective(
      t, simt::WarpOp::kReduceMax,
      static_cast<std::uint64_t>(static_cast<std::int64_t>(value)), 0, mask));
}

/// __ballot_sync / __any_sync / __all_sync
inline simt::LaneMask ballot_sync(simt::LaneMask mask, int predicate) {
  auto& t = simt::this_thread();
  return t.warp->collective(t, simt::WarpOp::kBallot,
                            static_cast<std::uint64_t>(predicate != 0), 0, mask);
}
inline bool any_sync(simt::LaneMask mask, int predicate) {
  auto& t = simt::this_thread();
  return t.warp->collective(t, simt::WarpOp::kAny,
                            static_cast<std::uint64_t>(predicate != 0), 0,
                            mask) != 0;
}
inline bool all_sync(simt::LaneMask mask, int predicate) {
  auto& t = simt::this_thread();
  return t.warp->collective(t, simt::WarpOp::kAll,
                            static_cast<std::uint64_t>(predicate != 0), 0,
                            mask) != 0;
}

/// atomicAdd / atomicMax / ... (device scope)
template <typename T>
T atomicAdd(T* addr, T v) { return simt::atomic_add(addr, v); }
template <typename T>
T atomicMax(T* addr, T v) { return simt::atomic_max(addr, v); }
template <typename T>
T atomicMin(T* addr, T v) { return simt::atomic_min(addr, v); }
template <typename T>
T atomicExch(T* addr, T v) { return simt::atomic_exchange(addr, v); }
template <typename T>
T atomicXor(T* addr, T v) { return simt::atomic_xor(addr, v); }
template <typename T>
T atomicCAS(T* addr, T expected, T desired) {
  return simt::atomic_cas(addr, expected, desired);
}
inline void threadfence() { simt::threadfence(); }

/// Block-shared storage: the library form of `__shared__ T name[n];`.
/// Every thread of the block receives the same pointer.
template <typename T>
T* shared_array(std::size_t count) {
  auto& t = simt::this_thread();
  return static_cast<T*>(
      t.block->shared_alloc(t, count * sizeof(T), alignof(T)));
}
template <typename T>
T* shared_var() {
  return shared_array<T>(1);
}

/// The dynamic shared segment: `extern __shared__ T name[];`.
template <typename T>
T* dynamic_shared() {
  return static_cast<T*>(simt::this_thread().block->dynamic_shared());
}

/// Convenience: the flattened global thread id along x.
inline std::uint64_t global_thread_id_x() {
  const auto& t = simt::this_thread();
  return static_cast<std::uint64_t>(t.block_idx.x) * t.block_dim.x +
         t.thread_idx.x;
}

}  // namespace kl

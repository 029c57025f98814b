// ompx host APIs (paper §3.4): direct device interactions mirroring the
// kernel-language runtime APIs, adapted from the user-facing APIs of
// Doerfert et al. (PACT'22, "Breaking the Vendor Lock").
//
//   CUDA                             ompx
//   cudaMalloc(&p, n)                p = ompx_malloc(n)
//   cudaFree(p)                      ompx_free(p)
//   cudaMemcpy(d, s, n, k)           ompx_memcpy(d, s, n)  (direction inferred)
//   cudaMemset(p, v, n)              ompx_memset(p, v, n)
//   cudaDeviceSynchronize()          ompx_device_synchronize()
//   cudaSetDevice(i)                 ompx_set_device(i)    (per host thread)
//   cudaMemcpyPeer(d,dd,s,sd,n)      ompx_memcpy_peer(d, dd, s, sd, n)
//   cudaDeviceEnablePeerAccess(p,f)  ompx_device_enable_peer_access(p, f)
//   cudaDeviceCanAccessPeer(&c,d,p)  ompx_device_can_access_peer(&c, d, p)
//   cudaMallocAsync(&p, n, s)        p = ompx_malloc_async(n, s)
//   cudaFreeAsync(p, s)              ompx_free_async(p, s)
//   cudaStreamBeginCapture(s, m)     ompx_stream_begin_capture(s)
//   cudaStreamEndCapture(s, &g)      ompx_stream_end_capture(s, &g)
//   cudaGraphLaunch(x, s)            ompx_graph_launch(g, s)
//   cudaGraphDestroy(g)              ompx_graph_destroy(g)
//
// C++ forms live in namespace ompx and accept an explicit device.
//
// Every extern "C" entry point is exception-safe across the C boundary:
// engine failures are translated into an ompx_result_t (returned where
// the signature allows, always retrievable via ompx_get_last_result),
// never thrown into C callers. The C++ forms keep throwing.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "core/ompx_launch.h"
#include "simt/simt.h"

extern "C" {

/// Status codes for the C entry points (cudaError_t analogue). Each
/// host thread keeps its own last-result slot, which holds the result
/// of the thread's most recent ompx_* call: a successful call resets it
/// to OMPX_SUCCESS (unlike kl, whose last error stays until read).
/// ompx_get_last_result() reads and clears it, ompx_peek_last_result()
/// reads without clearing, and ompx_last_result_detail() returns a
/// human-readable message for the failure it holds.
typedef enum ompx_result_t {
  OMPX_SUCCESS = 0,
  OMPX_ERROR_INVALID_VALUE = 1,
  OMPX_ERROR_MEMORY_ALLOCATION = 2, /* host-side allocation failed */
  OMPX_ERROR_INVALID_DEVICE = 3,
  OMPX_ERROR_LAUNCH_FAILURE = 4,
  OMPX_ERROR_OUT_OF_MEMORY = 5, /* device memory exhausted (cudaErrorMemoryAllocation) */
  OMPX_ERROR_DEVICE_LOST = 6,   /* device marked lost; reset to recover
                                   (cudaErrorDevicesUnavailable) */
  OMPX_ERROR_TIMEOUT = 7,       /* watchdog expired a kernel or stream op
                                   (cudaErrorLaunchTimeout) */
  OMPX_ERROR_ADMISSION = 8,     /* serving-layer admission control refused
                                   the request (client queue depth) */
  OMPX_ERROR_UNKNOWN = 999,
} ompx_result_t;

const char* ompx_result_string(ompx_result_t result);
ompx_result_t ompx_get_last_result(void);
ompx_result_t ompx_peek_last_result(void);
const char* ompx_last_result_detail(void);

/// Allocates on the current default ompx device; nullptr (with the
/// thread's last result set) when the device is out of memory.
void* ompx_malloc(std::size_t bytes);
ompx_result_t ompx_free(void* ptr);
/// Copies with the direction inferred from which pointers are device
/// pointers (like cudaMemcpyDefault). The owning devices are resolved
/// against the whole registry, so copies touching a non-current
/// device — including device-to-device copies across two devices —
/// are classified and accounted correctly.
ompx_result_t ompx_memcpy(void* dst, const void* src, std::size_t bytes);
ompx_result_t ompx_memset(void* ptr, int value, std::size_t bytes);
ompx_result_t ompx_device_synchronize();

/// Device management (cudaGetDeviceCount / cudaSetDevice shaped). The
/// current device is *per host thread*, exactly like CUDA: a
/// std::thread starts at device 0 regardless of what other threads
/// selected. ompx_get_device returns the cached registry index in
/// O(1), or -1 if a non-registry device was installed through the C++
/// ompx::set_default_device API.
int ompx_get_num_devices();
int ompx_get_device();
ompx_result_t ompx_set_device(int index);

/// Peer (device-to-device) copies — cudaMemcpyPeer. Both pointers are
/// bounds-validated against their own device's allocation registry.
/// With peer access enabled in either direction the copy is modeled at
/// the peer-link bandwidth of the slower endpoint; otherwise it stages
/// through the host (two host-link legs). Time and bytes are accounted
/// on both devices. Blocking, like ompx_memcpy: in-flight work on both
/// devices finishes first.
ompx_result_t ompx_memcpy_peer(void* dst, int dst_device, const void* src,
                               int src_device, std::size_t bytes);
/// cudaDeviceEnablePeerAccess: lets the *current* device reach
/// `peer_device` over the peer link (directional; idempotent here).
/// `flags` must be 0, as in CUDA.
ompx_result_t ompx_device_enable_peer_access(int peer_device,
                                             unsigned int flags);
ompx_result_t ompx_device_disable_peer_access(int peer_device);
/// Writes 1 to *can_access (simulated devices are all peers) after
/// validating both indices; 0 only for device == peer.
ompx_result_t ompx_device_can_access_peer(int* can_access, int device,
                                          int peer_device);

/// Streams and events, mirroring the CUDA runtime's handles. A stream
/// here is the same object an interop `targetsync` carries, so these
/// compose with depend(interopobj:) launches (§3.5).
typedef void* ompx_stream_t;
typedef void* ompx_event_t;

ompx_stream_t ompx_stream_create();
/// Drains the stream's pending work, then releases the handle. The
/// device's default stream cannot be destroyed; null is a no-op.
ompx_result_t ompx_stream_destroy(ompx_stream_t stream);
ompx_result_t ompx_stream_synchronize(ompx_stream_t stream);
ompx_result_t ompx_memcpy_async(void* dst, const void* src, std::size_t bytes,
                                ompx_stream_t stream);
ompx_result_t ompx_memset_async(void* ptr, int value, std::size_t bytes,
                                ompx_stream_t stream);

/// Stream-ordered memory (cudaMallocAsync / cudaFreeAsync shaped).
/// Allocation is immediate but the block is owned by the stream's
/// order: ompx_free_async returns it to a per-stream pool from which a
/// later same-stream ompx_malloc_async of the same size is recycled
/// without touching the device allocator. Null stream (or allocation
/// failure) returns nullptr with the thread's last result set.
void* ompx_malloc_async(std::size_t bytes, ompx_stream_t stream);
ompx_result_t ompx_free_async(void* ptr, ompx_stream_t stream);

/// Reuse accounting for a device's stream-ordered memory pool.
typedef struct ompx_mempool_stats_t {
  unsigned long long reuse_hits;     /* malloc_async served from the pool */
  unsigned long long misses;         /* malloc_async that hit the allocator */
  unsigned long long frees;          /* free_async calls pooled */
  unsigned long long bytes_reused;   /* total bytes served from the pool */
  unsigned long long pooled_blocks;  /* blocks currently cached */
  unsigned long long pooled_bytes;   /* bytes currently cached */
  unsigned long long reclaimed_blocks; /* pooled blocks returned to the heap
                                          by trim / stream destroy (incl.
                                          timed-out streams) */
  unsigned long long reclaimed_bytes;  /* bytes so returned */
} ompx_mempool_stats_t;
ompx_result_t ompx_mempool_get_stats(int device, ompx_mempool_stats_t* stats);
/// Releases every cached block back to the device allocator
/// (cudaMemPoolTrimTo(0) analogue).
ompx_result_t ompx_mempool_trim(int device);

/// Multi-tenant serving (CUDA MPS shaped; see README "Serving"). A
/// client context is one tenant's handle onto a shared device: its own
/// stream, quota-charged allocation accounting, and per-client stats.
/// The process-wide server time-slices each device among its clients at
/// block granularity (weighted round-robin within the highest non-empty
/// priority class), so one client's huge grid cannot starve the rest.
typedef void* ompx_client_t;

/// All-zero limits mean "unlimited, default share" (weight 0 = 1).
typedef struct ompx_client_limits_t {
  unsigned long long memory_quota_bytes; /* 0 = no quota; over-quota
                                            mallocs fail with
                                            OMPX_ERROR_OUT_OF_MEMORY */
  unsigned max_pending;                  /* queue depth; over-depth submits
                                            fail with OMPX_ERROR_ADMISSION */
  int priority;                          /* higher classes run first */
  unsigned weight;                       /* WRR weight within the class */
} ompx_client_limits_t;

typedef struct ompx_client_stats_t {
  unsigned long long launches;         /* requests completed OK */
  unsigned long long launches_failed;  /* requests failed (any cause) */
  unsigned long long blocks_executed;  /* grid blocks run on the device */
  unsigned long long quanta;           /* scheduler quanta consumed */
  unsigned long long allocs;
  unsigned long long frees;
  unsigned long long bytes_live;       /* current, not cumulative */
  unsigned long long bytes_peak;
  unsigned long long quota_rejections;
  unsigned long long admission_rejections;
  unsigned long long timeouts;         /* requests failed by the watchdog */
  unsigned long long device_losses;    /* requests failed device-lost */
} ompx_client_stats_t;

/// Creates a client on registry device `device` (-1 = least-loaded).
/// `limits` may be null. Returns null with the thread's last result set
/// on failure.
ompx_client_t ompx_client_create(int device,
                                 const ompx_client_limits_t* limits);
/// Drains the client's queued requests, releases any allocations it
/// leaked, and destroys it.
ompx_result_t ompx_client_destroy(ompx_client_t client);
/// Quota-charged device allocation / free. A pointer one client
/// allocated cannot be freed through another (OMPX_ERROR_INVALID_VALUE).
void* ompx_client_malloc(ompx_client_t client, std::size_t bytes);
ompx_result_t ompx_client_free(ompx_client_t client, void* ptr);
/// Blocking request: runs `fn` once per GPU thread of grid x block via
/// the fair-share scheduler and waits for it. A watchdog timeout or
/// device-lost fault fails only this request; sibling clients continue.
ompx_result_t ompx_client_launch_kernel(ompx_client_t client,
                                        void (*fn)(void*), void* arg,
                                        const unsigned grid[3],
                                        const unsigned block[3]);
/// Fire-and-forget request; failures surface from ompx_client_synchronize
/// (first stored error) and in the client's stats.
ompx_result_t ompx_client_launch_async(ompx_client_t client,
                                       void (*fn)(void*), void* arg,
                                       const unsigned grid[3],
                                       const unsigned block[3]);
ompx_result_t ompx_client_synchronize(ompx_client_t client);
ompx_result_t ompx_client_get_stats(ompx_client_t client,
                                    ompx_client_stats_t* stats);
/// Preemption quantum in grid blocks (min 1; default 64).
ompx_result_t ompx_serve_set_quantum(unsigned blocks);
unsigned ompx_serve_quantum(void);

/// Graph capture and replay (cudaGraph shaped). Between begin_capture
/// and end_capture, work submitted to the stream is recorded instead of
/// executed; the captured ompx_graph_t can then be instantiated once
/// and launched many times at a fraction of per-launch cost. Handles
/// are tracked: every graph entry point reports
/// OMPX_ERROR_INVALID_VALUE for a destroyed or foreign handle instead
/// of invoking undefined behavior.
typedef void* ompx_graph_t;

ompx_result_t ompx_stream_begin_capture(ompx_stream_t stream);
/// Ends capture and writes the new graph handle to *graph (null
/// out-param: the capture is discarded and INVALID_VALUE returned).
ompx_result_t ompx_stream_end_capture(ompx_stream_t stream,
                                      ompx_graph_t* graph);
/// 1 while `stream` is capturing, 0 otherwise (including null/invalid).
int ompx_stream_is_capturing(ompx_stream_t stream);
/// Validates and bakes the graph (lane-exec resolution) so replays skip
/// per-launch setup. Optional: the first launch instantiates on demand.
ompx_result_t ompx_graph_instantiate(ompx_graph_t graph);
/// Enqueues one replay of the whole captured sequence on `stream`.
ompx_result_t ompx_graph_launch(ompx_graph_t graph, ompx_stream_t stream);
/// Waits for outstanding replays, frees graph-owned allocations, and
/// releases the handle; null is a no-op.
ompx_result_t ompx_graph_destroy(ompx_graph_t graph);

/// Two-call node enumeration: count first, then fill up to `capacity`
/// entries and report how many were written.
typedef struct ompx_graph_node_info_t {
  char kind[16];            /* "kernel", "memcpy", "alloc", ... */
  char name[64];            /* kernel name, else the op's trace label */
  unsigned long long bytes; /* memcpy/memset/alloc payload */
} ompx_graph_node_info_t;
ompx_result_t ompx_graph_node_count(ompx_graph_t graph, std::size_t* count);
ompx_result_t ompx_graph_get_nodes(ompx_graph_t graph,
                                   ompx_graph_node_info_t* nodes,
                                   std::size_t capacity, std::size_t* written);

/// Enqueues `fn(arg)` once per thread of the grid on `stream` (or the
/// current device's default stream when null) — the C-ABI launch path,
/// capturable like any stream op. grid/block are xyz extents; null
/// pointers mean {1,1,1}.
ompx_result_t ompx_launch_kernel(void (*fn)(void*), void* arg,
                                 const unsigned grid[3],
                                 const unsigned block[3],
                                 ompx_stream_t stream);

ompx_event_t ompx_event_create();
/// Releases the event once no enqueued operation still references it;
/// null is a no-op.
ompx_result_t ompx_event_destroy(ompx_event_t event);
ompx_result_t ompx_event_record(ompx_event_t event, ompx_stream_t stream);
ompx_result_t ompx_event_synchronize(ompx_event_t event);
/// Stream-orders `stream` after `event` (cudaStreamWaitEvent).
ompx_result_t ompx_stream_wait_event(ompx_stream_t stream, ompx_event_t event);
/// Modeled milliseconds between two recorded events; -1.0f (with the
/// thread's last result set to OMPX_ERROR_INVALID_VALUE) on null or
/// destroyed handles and on events that were never recorded.
float ompx_event_elapsed_ms(ompx_event_t start, ompx_event_t stop);

/// Launch telemetry (uniform across layers; see simt/profiler.h).
/// start/stop toggle span capture process-wide; the off state costs one
/// relaxed atomic load per operation. dump writes the capture as Chrome
/// trace-event JSON (chrome://tracing / Perfetto); returns 0 on
/// success, -1 on I/O failure. reset drops captured spans and counters.
void ompx_profiler_start(void);
void ompx_profiler_stop(void);
int ompx_profiler_enabled(void);
void ompx_profiler_reset(void);
int ompx_profiler_dump(const char* path);

/// Snapshot of the most recent completed launch on the default device —
/// the C-API view of ompx::launch_record.
typedef struct ompx_launch_info_t {
  char name[64];
  unsigned grid[3];
  unsigned block[3];
  double modeled_total_ms;
  double modeled_compute_ms;
  double modeled_memory_ms;
  double modeled_overhead_ms;
  double occupancy;
  double wall_ms;
  unsigned long long blocks;
  unsigned long long threads;
  unsigned long long block_barriers;
  unsigned long long warp_collectives;
  unsigned long long atomics;
  unsigned long long parallel_handshakes;
  unsigned long long globalized_bytes;
  /// Resolved execution mode ("fiber"/"direct") and the number of
  /// threads that ran as fiber-free plain calls (see simt::ExecHint /
  /// OMPX_EXEC).
  char exec_mode[16];
  unsigned long long lane_loops;
} ompx_launch_info_t;

/// C view of ompx::launch_hints: registers the execution hint for
/// `kernel`. `convergent` != 0 runs its cooperative launches as direct
/// plain calls under OMPX_EXEC=auto; `needs_fibers` != 0 pins the fiber
/// path.
ompx_result_t ompx_set_exec_hint(const char* kernel, int convergent,
                                 int needs_fibers);
/// ompx_set_exec_hint, kept for C callers built against its older
/// signature: `atomics_ok` is ignored, because a direct kernel already
/// runs its atomics in place before its barrier.
ompx_result_t ompx_set_exec_hint_ex(const char* kernel, int convergent,
                                    int needs_fibers, int atomics_ok);
/// Runs the ompx-analyze exec classifier (rewrite/analyze.h) over
/// `source` — one translation unit's text — and registers one exec
/// hint per named kernel region found. `registered` (optional)
/// receives the number of hints registered. This is the C view of
/// rewrite::register_exec_hints: static convergence proofs feed the
/// launch-time registry directly.
ompx_result_t ompx_register_exec_hints(const char* source, int* registered);
/// Overrides the OMPX_EXEC policy at run time: "fiber" or "auto".
/// Anything else is OMPX_ERROR_INVALID_VALUE.
ompx_result_t ompx_set_exec_policy(const char* policy);

/// OMPX_CHECK's failure sink: prints the failing expression, location
/// and result string to stderr and aborts. Out-of-line so the macro
/// stays cheap at every call site.
void ompx_check_failed(const char* expr, const char* file, int line,
                       ompx_result_t result);

/// Fills `info` from the last completed launch; 0 on success, -1 if no
/// launch has completed yet (or info is null).
int ompx_get_last_launch_info(ompx_launch_info_t* info);

/// Deterministic fault injection over the engine's failure chokepoints
/// (see simt/fault.h for the spec grammar: site[:key=value,...][;...]
/// with sites oom | host_oom | stall | peer | graph | device_lost and
/// triggers after=N / every=N / p=F[+seed=S]). Also armed at process
/// start by OMPX_FAULT. Enabling replaces the previous spec; a
/// malformed spec returns OMPX_ERROR_INVALID_VALUE and leaves the
/// previous configuration in force. Null disables, like
/// ompx_fault_disable().
ompx_result_t ompx_fault_enable(const char* spec);
ompx_result_t ompx_fault_disable(void);
/// 1 while a fault spec is armed, 0 otherwise.
int ompx_fault_active(void);
/// Total faults injected since the spec was (re)armed.
unsigned long long ompx_fault_injected_count(void);

/// Clears a device's lost state and drains its pending failed work so
/// the process can keep using it — the cudaDeviceReset-shaped recovery
/// path after OMPX_ERROR_DEVICE_LOST. Streams the watchdog timed out
/// stay dead; destroy and recreate them.
ompx_result_t ompx_device_reset(int device);

/// Kernel watchdog budget in milliseconds (OMPX_WATCHDOG_MS at process
/// start). <= 0 disables. Applies to both the *modeled* duration of a
/// launch and the *wall-clock* duration of any stream op (never below
/// 100 ms); an overrun fails with OMPX_ERROR_TIMEOUT and kills only the
/// offending stream.
ompx_result_t ompx_set_watchdog_ms(double ms);
double ompx_get_watchdog_ms(void);

}  // extern "C"

/// Result check for the host C ABI (the cudaCheck idiom). Statement
/// position only; evaluates `expr` once. The unchecked-result lint rule
/// flags statement-position ompx_* calls that discard their
/// ompx_result_t — wrapping them in OMPX_CHECK satisfies it.
#define OMPX_CHECK(expr)                                                 \
  do {                                                                   \
    const ompx_result_t ompx_check_result_ = (expr);                     \
    if (ompx_check_result_ != OMPX_SUCCESS)                              \
      ompx_check_failed(#expr, __FILE__, __LINE__, ompx_check_result_);  \
  } while (0)

namespace ompx {

/// A failed ompx_* call, carried as an exception by OMPX_REQUIRE. Lets
/// C++ hosts (the benchmark apps) turn C-ABI failures into unwinding —
/// an injected fault propagates out of the app as a catchable error
/// instead of aborting the process the way OMPX_CHECK does.
class result_error : public std::runtime_error {
 public:
  result_error(ompx_result_t result, const std::string& what)
      : std::runtime_error(what), result_(result) {}
  [[nodiscard]] ompx_result_t result() const { return result_; }

 private:
  ompx_result_t result_;
};

namespace detail {
[[noreturn]] void throw_result_error(const char* expr, ompx_result_t result);
}  // namespace detail

}  // namespace ompx

/// Like OMPX_CHECK, but throws ompx::result_error (with the thread's
/// last-result detail) instead of aborting. Statement position only;
/// evaluates `expr` once.
#define OMPX_REQUIRE(expr)                                                \
  do {                                                                    \
    const ompx_result_t ompx_require_result_ = (expr);                    \
    if (ompx_require_result_ != OMPX_SUCCESS)                             \
      ompx::detail::throw_result_error(#expr, ompx_require_result_);      \
  } while (0)

namespace ompx {

/// RAII fault-injection window: arms `spec` on construction, restores
/// whatever was armed before (or disarms) on destruction. Exception
/// safe — the spec cannot leak past the scope.
class FaultScope {
 public:
  explicit FaultScope(const std::string& spec);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  bool had_previous_;
  std::string previous_spec_;
};

void* malloc_on(simt::Device& dev, std::size_t bytes);
/// Frees `ptr` on its *owning* device (resolved registry-wide); `dev`
/// is only the fallback for pointers no device claims, so a free
/// routed through the wrong current device still succeeds, as in CUDA.
void free_on(simt::Device& dev, void* ptr);
/// Direction-inferring copy. Each pointer is resolved against the
/// whole device registry, not just `dev`: host/device direction comes
/// from the owning devices, and a copy whose endpoints live on two
/// different devices becomes a peer copy (simt::peer_copy) — costed
/// with the peer link and accounted on both devices.
void memcpy_on(simt::Device& dev, void* dst, const void* src,
               std::size_t bytes);
/// memset on `ptr`'s owning device (`dev` is the fallback).
void memset_on(simt::Device& dev, void* ptr, int value, std::size_t bytes);
void device_synchronize(simt::Device& dev);

/// cudaMemcpyPeer with explicit devices; returns the modeled
/// milliseconds (peer link, or two host-link legs when neither
/// endpoint has peer access enabled toward the other).
double memcpy_peer(simt::Device& dst_dev, void* dst, simt::Device& src_dev,
                   const void* src, std::size_t bytes);

/// True if `ptr` points into `dev`'s memory space.
bool is_device_ptr(simt::Device& dev, const void* ptr);

template <typename T>
T* malloc_n(std::size_t count, simt::Device* dev = nullptr) {
  return static_cast<T*>(
      malloc_on(dev != nullptr ? *dev : default_device(), count * sizeof(T)));
}

/// RAII capture window over the process-wide launch telemetry: the
/// constructor starts span capture, the destructor stops it and — if a
/// dump path was given — writes the Chrome trace. The static forms
/// mirror the C API for non-scoped use.
class Profiler {
 public:
  explicit Profiler(std::string dump_path = {});
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  static void start();
  static void stop();
  static bool enabled();
  static void reset();
  static simt::ProfilerCounters counters();
  static std::string trace_json();
  static bool dump(const std::string& path);

 private:
  std::string dump_path_;
};

}  // namespace ompx

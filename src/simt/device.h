// Simulated GPU devices.
//
// The paper evaluates on an NVIDIA A100 (40 GB) under CUDA 11.8 and one
// GCD of an AMD MI250 under ROCm 5.5 (Figure 7). We register two device
// configurations with the published architectural parameters of those
// parts; warp size (32 vs 64) is the semantically visible difference the
// ompx warp APIs must handle, the rest feeds the performance model.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "simt/dim.h"
#include "simt/kernel.h"
#include "simt/perf.h"

namespace simt {

class Device;

enum class Vendor { kNvidia, kAmd };

struct DeviceConfig {
  std::string name;
  Vendor vendor = Vendor::kNvidia;
  std::uint32_t warp_size = 32;
  std::uint32_t num_sms = 108;                 ///< SMs (NVIDIA) / CUs (AMD)
  std::uint32_t max_threads_per_block = 1024;
  std::uint32_t max_threads_per_sm = 2048;
  std::uint32_t max_blocks_per_sm = 32;
  std::uint32_t regs_per_sm = 65536;
  std::uint64_t smem_per_sm = 164 * 1024;      ///< shared memory / LDS per SM
  std::uint64_t smem_per_block_max = 48 * 1024;
  std::uint64_t global_mem_bytes = 40ull << 30;
  std::uint64_t const_mem_bytes = 64 * 1024;   ///< __constant__ space
  double clock_ghz = 1.41;
  double fp_lanes_per_sm = 64;                 ///< FP32 FMA lanes per SM
  double mem_bw_gbps = 1555.0;                 ///< global memory bandwidth
  double shared_bw_gbps = 19400.0;             ///< aggregate smem bandwidth
  double link_bw_gbps = 64.0;                  ///< host link (PCIe 4.0 x16)
  /// Device<->device peer link bandwidth (NVLink / Infinity Fabric
  /// class). A peer copy runs at the slower endpoint's rate; with peer
  /// access disabled it is staged through the host link instead.
  double peer_bw_gbps = 200.0;
  std::uint32_t grid_dims_supported = 3;

  /// Peak FLOP/s (FMA counted as two ops).
  [[nodiscard]] double peak_gflops() const {
    return 2.0 * fp_lanes_per_sm * num_sms * clock_ghz;
  }
};

/// Per-kernel execution classification, keyed by kernel name in a
/// process-wide registry. `convergent` marks a kernel that reaches no
/// warp collective and at most one block barrier (the static analyzer
/// proves "no barrier, no warp op"): under OMPX_EXEC=auto its
/// cooperative launches run as ExecMode::kDirect plain calls. A
/// convergent kernel that does reach a second barrier or a warp op
/// throws kDirect's std::logic_error naming it. `needs_fibers` pins a
/// kernel to fibers whatever `convergent` says.
struct ExecHint {
  bool convergent = false;
  bool needs_fibers = false;
};

/// Process-wide lane-execution policy, initialized from the OMPX_EXEC
/// environment variable (fiber | auto; default auto, and any other
/// value reads as auto). kAuto runs cooperative launches of kernels
/// hinted convergent as kDirect and every other cooperative launch on
/// fibers; kFiber ignores the hints. Launches that ask for kDirect run
/// direct under either policy.
enum class ExecPolicy : std::uint8_t { kAuto, kFiber };

/// Registers/overwrites the hint for `kernel` (launch-time names).
void set_exec_hint(const std::string& kernel, ExecHint hint);
/// The registered hint, or a default-constructed one when unhinted.
[[nodiscard]] ExecHint exec_hint(const std::string& kernel);
/// Drops every registered hint (benchmarks/tests isolation).
void clear_exec_hints();

/// Overrides the OMPX_EXEC policy at run time (tests/benchmarks).
void set_exec_policy(ExecPolicy policy);
[[nodiscard]] ExecPolicy exec_policy();

/// Stable display name of a resolved execution mode: "fiber"
/// (kCooperative) or "direct" (kDirect).
const char* exec_mode_name(ExecMode mode);

/// Runs `task` on the process's one host thread pool, on an idle task
/// thread or a new one: never queues, never blocks. Task threads are
/// never counted toward a launch's `workers - 1` block helpers.
void run_on_host_pool(std::function<void()> task);
/// A pool task's last step, under the lock that guards its return: the
/// thread may take new work from here on, so work posted while the task
/// unwinds reuses it instead of spawning one. A no-op off the pool.
void host_pool_task_done();

/// Engine-wide execution options (host-side knobs, not device model).
struct EngineOptions {
  /// Most OS threads that run one launch's blocks: the launching
  /// thread plus up to `workers - 1` block helpers of the host thread
  /// pool, which grows to the largest `workers - 1` any device asks
  /// for. 0 means the host's hardware concurrency (>= 1), resolved once
  /// when the Device is built, so Device::options().workers is never 0.
  /// 1 runs every block on the launching thread, and so does a launch
  /// whose own first blocks say the rest finish before a helper could
  /// wake (see Device::run_blocks). Launches running on the device at
  /// once share it: a launch posts helpers only for workers that no
  /// other launch's launcher or helpers hold. Simulation results are
  /// identical for any value; only host wall time changes.
  unsigned workers = 0;
};

/// One completed kernel launch: measured stats + modeled time.
struct LaunchRecord {
  std::string name;
  Dim3 grid;
  Dim3 block;
  LaunchStats stats;
  ModeledTime time;
  double wall_ms = 0.0;
  /// Resolved execution mode this launch ran under: "fiber" or
  /// "direct" (see exec_mode_name).
  std::string exec_mode = "fiber";
};

/// How the parts of one split launch overlap in modeled time. Serve
/// time slices run one after another on one device, so their times
/// add; shard_launch shards run at once on separate devices, so the
/// whole launch takes as long as its slowest shard.
enum class PartTiming { kSerial, kConcurrent };

/// The one fold of part records (serve time slices, shard_launch
/// shards) into the record of the whole launch, one part at a time.
/// Stats sum, exec_mode comes from the first part, each ModeledTime
/// duration sums or maxes per PartTiming, and occupancy is the
/// block-weighted mean of the parts'.
class RecordFold {
 public:
  /// `whole` names the combined record and gives it the unsplit grid.
  RecordFold(const LaunchParams& whole, PartTiming timing);

  void add(const LaunchRecord& part);
  /// Stamps the whole launch's occupancy and host wall time.
  void finish(double wall_ms);
  /// The combined record (occupancy is final only after finish()).
  [[nodiscard]] const LaunchRecord& record() const { return rec_; }

 private:
  LaunchRecord rec_;
  PartTiming timing_;
  double occ_weighted_ = 0.0;  ///< sum of part occupancy x part blocks
};

class Stream;
class Event;
class StreamExecutor;
class DeviceMemory;
class StreamMemPool;
class Graph;

/// A simulated GPU: configuration, global memory, streams, and the
/// launch path. Thread-safe for host-side use.
class Device {
 public:
  explicit Device(DeviceConfig cfg, EngineOptions opts = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceConfig& config() const { return cfg_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  DeviceMemory& memory() { return *mem_; }
  /// The stream-ordered allocator's free pool (malloc_async /
  /// free_async reuse; see simt/memory.h).
  StreamMemPool& mem_pool() { return *pool_; }
  /// The __constant__ memory space (§2.5's fourth space): small,
  /// host-writable, broadcast-read by kernels. Same allocation API as
  /// global memory with the 64 KiB capacity CUDA gives it.
  DeviceMemory& constant_memory() { return *cmem_; }
  EventCosts& costs() { return costs_; }

  /// Executes a kernel synchronously on the calling thread (every block,
  /// every thread, functionally) and returns measured stats + modeled
  /// time: resolve_launch, then run_resolved — the path stream kernels
  /// take too, on a stream drain.
  LaunchRecord launch_sync(const LaunchParams& params, const KernelFn& kernel);

  /// Throws std::invalid_argument for an unlaunchable configuration.
  /// Streams call this at submit time so configuration errors surface
  /// synchronously, as the CUDA runtime does.
  void validate_launch(const LaunchParams& params) const { validate(params); }

  /// Streams and events (owned by the device). create_* handles live
  /// until destroy_* or device teardown; the default stream always
  /// exists and cannot be destroyed.
  Stream& default_stream();
  Stream* create_stream();
  Event* create_event();
  /// Drains the stream's pending work, then releases it. Destroying the
  /// default stream throws; nullptr is a no-op (CUDA tolerance).
  void destroy_stream(Stream* stream);
  /// Waits until no queued or in-flight op references the event, then
  /// releases it. nullptr is a no-op.
  void destroy_event(Event* event);
  /// Wait for every operation on every stream (cudaDeviceSynchronize),
  /// then rethrow any asynchronous error.
  void synchronize();
  /// CUDA's legacy-default-stream rule for a host-blocking op (memcpy,
  /// memset, free): first wait for every launch already enqueued on
  /// the device. A no-op inside a stream op, so a host-fn
  /// callback that calls back into the runtime does not wait on its
  /// own stream.
  void sync_for_host_op();

  /// Device-loss poisoning (the simulator's cudaErrorDevicesUnavailable):
  /// once marked lost — by the fault injector's "device_lost" site or a
  /// test — every subsequent entry point that touches this device throws
  /// DeviceLostError (mapped to OMPX_ERROR_DEVICE_LOST / klErrorDeviceLost)
  /// until reset() clears the poison.
  void mark_lost(const std::string& reason);
  [[nodiscard]] bool lost() const {
    return lost_.load(std::memory_order_acquire);
  }
  /// Throws DeviceLostError naming `who` when the device is lost;
  /// `already_lost` is passed on to it (DeviceLostError::already_lost).
  void check_not_lost(const char* who, bool already_lost = false) const;
  /// cudaDeviceReset-shaped recovery: clears the lost poison, drains
  /// every stream, and discards any pending asynchronous error so the
  /// device is usable again. Streams the watchdog timed out stay dead
  /// (destroy and recreate them).
  void reset();

  /// Modeled host<->device transfer time for `bytes` (used by the data
  /// mapping layers; also accumulated when stream memcpys execute).
  [[nodiscard]] double model_transfer_ms(std::uint64_t bytes) const;
  /// Modeled time of a device-local copy or fill of `bytes` at global-
  /// memory bandwidth (D2D memcpy, memset, same-device peer copy).
  [[nodiscard]] double model_device_copy_ms(std::uint64_t bytes) const;

  /// Peer access (cudaDeviceEnablePeerAccess semantics): directional
  /// "this device may read/write `peer`'s memory over the peer link".
  /// Disabled by default; peer copies then stage through the host.
  void enable_peer_access(const Device& peer);
  void disable_peer_access(const Device& peer);
  [[nodiscard]] bool peer_access_enabled(const Device& peer) const;

  // --- bookkeeping for benchmarks and tests ---
  [[nodiscard]] std::vector<LaunchRecord> launch_log() const;
  [[nodiscard]] LaunchRecord last_launch() const;
  /// Appends an externally assembled record (the combined record of a
  /// sharded launch) as if it were a completed launch on this device.
  void append_launch_record(const LaunchRecord& rec);
  void clear_launch_log();
  /// Sum of modeled kernel time over the launch log.
  [[nodiscard]] double modeled_kernel_ms_total() const;
  /// Modeled device-timeline "now" (max stream-ready time).
  [[nodiscard]] double modeled_now_ms() const;
  /// Accumulated modeled transfer time since last clear_launch_log().
  [[nodiscard]] double modeled_transfer_ms_total() const;
  void add_transfer(std::uint64_t bytes);  // used by mapping layers
  /// Accounts an already-costed transfer (peer copies charge each
  /// endpoint with the externally modeled time; no span is recorded —
  /// the caller owns the telemetry for cross-device operations).
  void add_transfer_ms(double ms, std::uint64_t bytes);

 private:
  friend class StreamExecutor;
  friend class Graph;

  void validate(const LaunchParams& params) const;
  /// Per-launch setup, in place: validates `params`, then, under
  /// OMPX_EXEC=auto, turns a cooperative launch of a kernel hinted
  /// convergent (and not needs_fibers) into ExecMode::kDirect, with one
  /// hint-registry lookup. Live launches pay it on every launch; graph
  /// kernel nodes once, at instantiate.
  void resolve_launch(LaunchParams& params) const;
  /// The one run -> model -> watchdog -> record path for a resolved
  /// launch (launch_sync, stream kernels, graph replay). Runs the
  /// blocks — the prebuilt `cached` ones when given and non-empty, else
  /// through run_blocks — models the launch, and throws TimeoutError
  /// when the modeled time exceeds the watchdog budget. Only when `rec`
  /// is given (something reads the record) does it time the launch on
  /// the host, fill `*rec`, and append it to the launch log if
  /// params.log. Returns the modeled duration.
  double run_resolved(const LaunchParams& params, const KernelFn& kernel,
                      const BlockCache* cached, LaunchRecord* rec);
  /// The block-execution core: the grid's blocks, in work-stealing
  /// chunks, on the calling thread and the host pool's block helpers,
  /// with every participant's counters folded in. Helpers are woken
  /// only once the calling thread's own first blocks say the rest take
  /// longer than a fan-out costs.
  [[nodiscard]] LaunchStats run_blocks(const LaunchParams& params,
                                       const KernelFn& kernel);

  DeviceConfig cfg_;
  EngineOptions opts_;
  EventCosts costs_;
  std::unique_ptr<DeviceMemory> mem_;
  std::unique_ptr<DeviceMemory> cmem_;
  std::unique_ptr<StreamMemPool> pool_;
  std::unique_ptr<StreamExecutor> exec_;

  mutable std::mutex log_mu_;
  std::vector<LaunchRecord> log_;
  double kernel_ms_total_ = 0.0;  ///< running sum over log_, in log order
  double transfer_ms_total_ = 0.0;

  mutable std::mutex peers_mu_;
  std::vector<const Device*> peers_;  // peer access enabled toward these

  std::atomic<bool> lost_{false};
  mutable std::mutex lost_mu_;
  std::string lost_reason_;

  /// Threads running this device's blocks in run_blocks: launchers and
  /// the helpers they posted.
  std::atomic<unsigned> on_blocks_{0};
};

/// Returns the process-wide registry of simulated devices. Index 0 is
/// "sim-a100" (CUDA-shaped) and index 1 is "sim-mi250" (HIP-shaped, one
/// GCD), matching the paper's two systems.
std::vector<Device*>& device_registry();

/// Registry-wide pointer->device resolution: the registered device
/// whose global-memory space contains `ptr` (interior pointers
/// included), or nullptr for host pointers. This is what makes the
/// host APIs device-aware — a copy's direction is inferred from the
/// *owning* devices, never from a single device's registry.
Device* resolve_device(const void* ptr);
/// Registry index of resolve_device(ptr), or -1 for host pointers.
int resolve_device_index(const void* ptr);

/// Copies `bytes` from `src` (an allocation of `src_dev`) to `dst` (an
/// allocation of `dst_dev`) — cudaMemcpyPeer. A blocking host op: both
/// devices' in-flight work finishes first (Device::sync_for_host_op), so
/// the copy reads what earlier async launches wrote. Both ranges are bounds-
/// validated against their own device's registry. Returns the modeled
/// milliseconds: the peer link when either endpoint has peer access
/// enabled toward the other, else a device-to-host-to-device staging
/// (two host-link legs). The time and bytes are accounted on *both*
/// devices, and under tracing the copy appears as a span on each
/// device joined by a cross-device flow arrow.
double peer_copy(Device& dst_dev, void* dst, Device& src_dev, const void* src,
                 std::size_t bytes);

/// Look up a registered device by name; throws if unknown.
Device& device_by_name(const std::string& name);

/// Convenience: the registered sim-a100 / sim-mi250 devices.
Device& sim_a100();
Device& sim_mi250();

/// The published configurations used to build the registry (also used
/// by tests and the Fig. 7 table printer).
DeviceConfig make_sim_a100_config();
DeviceConfig make_sim_mi250_config();

}  // namespace simt

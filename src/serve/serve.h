// MPS-style multi-tenant service layer over the simulated GPU fleet.
//
// The paper's runtime assumes one process owns its devices outright; a
// production serving deployment multiplexes many clients onto the same
// fixed fleet (CUDA MPS, pocl's per-queue command machinery). This
// layer adds that without forking the engine: a ClientContext is a thin
// tenant handle (quota-charged allocation accounting, per-client
// launch/fault/watchdog stats), and the Server time-slices each device
// among its clients at block granularity — every launch is executed as
// a sequence of grid chunks through the sharding hooks (grid_offset /
// logical_grid), with a scheduling decision between chunks, so one
// tenant's huge grid cannot starve the rest.
//
// A device runs up to `Device::options().workers` quanta at once, at
// most one per client; each runs in a "slot". A blocking launch() or
// synchronize() takes a free slot and runs its own client's quanta on
// the calling thread, with no handoff (unless it is inside a kernel or
// a stream op, where it waits instead). Whatever no caller runs, such
// as async submits, goes to drains posted to the host thread pool
// (simt::run_on_host_pool), one per slot in use; an idle device holds
// no thread. Both run one slot loop.
//
// Scheduling decides who gets a slot under contention: weighted
// round-robin within the highest non-empty priority class (higher
// classes run first; equal-priority clients converge to shares
// proportional to their weights). Between quanta, a caller hands its
// slot back when no slot is free and that pick prefers another
// runnable client, so a 1-worker device runs exactly the WRR schedule.
// Admission control rejects submits beyond a client's queue depth with
// AdmissionError (OMPX_ERROR_ADMISSION) and allocations beyond its
// memory quota with DeviceOOMError (OMPX_ERROR_OUT_OF_MEMORY). A
// watchdog timeout or device-lost fault while one client's chunk runs
// fails only that client's request; the device is reset and sibling
// clients continue (a sibling's chunk whose launch found the device
// already lost ran no block, so it runs once more after a reset,
// uncharged; a second failure is charged).
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "simt/device.h"
#include "simt/kernel.h"

namespace serve {

struct Request;  // one queued launch (internal to serve.cpp)

/// Per-client resource bounds; all zeros mean "unlimited, default share".
struct ClientLimits {
  std::uint64_t memory_quota_bytes = 0;  ///< 0 = no quota
  std::uint32_t max_pending = 0;         ///< submit queue depth; 0 = unbounded
  int priority = 0;                      ///< higher classes preempt lower ones
  std::uint32_t weight = 1;              ///< WRR weight within the class
};

/// Per-client accounting, all cumulative unless noted.
struct ClientStats {
  std::uint64_t launches = 0;             ///< requests completed OK
  std::uint64_t launches_failed = 0;      ///< requests failed (any cause)
  std::uint64_t blocks_executed = 0;      ///< grid blocks run on the device
  std::uint64_t quanta = 0;               ///< scheduler quanta consumed
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes_live = 0;           ///< current, not cumulative
  std::uint64_t bytes_peak = 0;
  std::uint64_t quota_rejections = 0;     ///< malloc refused by the quota
  std::uint64_t admission_rejections = 0; ///< submit refused by queue depth
  std::uint64_t timeouts = 0;             ///< requests failed by the watchdog
  std::uint64_t device_losses = 0;        ///< requests failed device-lost
};

class Server;

/// One tenant's handle onto a shared device. Create/destroy through the
/// Server; all methods are thread-safe. Allocation goes through the
/// client so bytes are charged to its quota; a pointer one client
/// allocated cannot be freed through another (isolation).
class ClientContext {
 public:
  ClientContext(const ClientContext&) = delete;
  ClientContext& operator=(const ClientContext&) = delete;

  [[nodiscard]] simt::Device& device() const { return dev_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] ClientLimits limits() const { return limits_; }

  /// Quota-charged device allocation. Throws simt::DeviceOOMError when
  /// the client's quota (or the device capacity) would be exceeded.
  void* malloc(std::size_t bytes);
  /// Frees a pointer this client allocated; std::invalid_argument for
  /// anything else (including another client's pointer).
  void free(void* ptr);

  /// Enqueues a launch request; returns immediately with a request id.
  /// Throws simt::AdmissionError beyond the queue-depth limit. A failed
  /// request stores its error: synchronize() rethrows the first one.
  std::uint64_t submit(simt::LaunchParams params, simt::KernelFn body);
  /// Blocking request: submit + wait; returns the combined record or
  /// rethrows the request's failure.
  simt::LaunchRecord launch(simt::LaunchParams params, simt::KernelFn body);
  /// Waits until every submitted request has finished, then rethrows
  /// the first stored async error, if any (clearing it).
  void synchronize();

  [[nodiscard]] ClientStats stats() const;

  /// Public only so the Server's owning container can delete; use
  /// Server::destroy_client, never delete a handle yourself.
  ~ClientContext() = default;

 private:
  friend class Server;
  ClientContext(Server& server, simt::Device& dev, ClientLimits limits,
                std::uint64_t id);

  Server& server_;
  simt::Device& dev_;
  const ClientLimits limits_;
  const std::uint64_t id_;

  // Guarded by Server::mu_.
  ClientStats stats_;
  std::unordered_map<const void*, std::size_t> owned_;  ///< ptr -> bytes
  std::deque<std::shared_ptr<Request>> pending_;
  std::exception_ptr first_error_;
  double wrr_progress_ = 0.0;  ///< quanta / weight, for the WRR pick
  bool running_ = false;       ///< a slot is running one of its quanta
};

/// The process-wide serving daemon: up to `workers` slots per device,
/// time-slicing runnable client requests in `quantum_blocks()` chunks.
class Server {
 public:
  /// Lazily started singleton (the C ABI's backing instance).
  static Server& instance();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates a client on `dev` (nullptr = least-loaded device).
  ClientContext* create_client(simt::Device* dev = nullptr,
                               const ClientLimits& limits = {});
  /// Drains the client's queue, releases its leaked allocations, and
  /// destroys it. Throws std::invalid_argument for an unknown handle.
  void destroy_client(ClientContext* client);

  /// True while `client` is a live handle from create_client.
  [[nodiscard]] bool is_live(const ClientContext* client) const;
  [[nodiscard]] std::size_t client_count() const;

  /// Preemption quantum in grid blocks (min 1). Default 64.
  void set_quantum_blocks(std::uint32_t blocks);
  [[nodiscard]] std::uint32_t quantum_blocks() const;

  Server();   // public for tests that want an isolated server
  ~Server();  // fails queued requests, waits for running slots

 private:
  friend class ClientContext;
  struct DeviceSched {
    simt::Device* dev = nullptr;
    std::uint32_t slots = 1;   ///< quanta run at once: dev->options().workers
    std::uint32_t busy = 0;    ///< slots held by drains and blocking callers
    std::uint32_t posted = 0;  ///< drains posted that have not started
    std::vector<ClientContext*> clients;  ///< rotation order
  };

  /// A pool task holding one of `sched`'s slots (taken when posted).
  void drain(DeviceSched& sched);
  /// The one slot loop, entered holding a slot of `sched` and returning
  /// it. A drain (`own` null) runs the WRR pick's quanta until no client
  /// is runnable. A blocking caller runs `own`'s quanta until `until` is
  /// done (null: until its queue is empty), and hands the slot back
  /// early when no slot is free and the pick prefers another client.
  void run_slot(std::unique_lock<std::mutex>& lock, DeviceSched& sched,
                ClientContext* own, const Request* until);
  /// A blocking caller's wait for `until` (null: `client`'s empty
  /// queue): runs its client's quanta in a free slot when it may and
  /// the slot is not another client's turn, and sleeps otherwise.
  void wait_locked(std::unique_lock<std::mutex>& lock, ClientContext& client,
                   const Request* until);
  /// Posts a drain, taking a slot for it, while a slot is free and a
  /// runnable client has no drain on its way. Called wherever a client
  /// may become runnable or a slot may free, so no work is stranded.
  void post_locked(DeviceSched& sched);
  /// The runnable client (queued work, no quantum in flight) that WRR
  /// and priority prefer, or null.
  ClientContext* pick_locked(DeviceSched& sched);
  /// Runs `client`'s next quantum off the lock; returns with it held.
  void run_quantum(std::unique_lock<std::mutex>& lock, DeviceSched& sched,
                   ClientContext& client);
  DeviceSched& sched_for(simt::Device& dev);
  void submit_locked(ClientContext& client,
                     const std::shared_ptr<Request>& r);

  mutable std::mutex mu_;
  std::condition_variable cv_done_;  ///< broadcast on request completion
                                     ///< and when a slot frees
  bool stopping_ = false;
  std::uint32_t quantum_blocks_ = 64;
  std::uint64_t next_client_id_ = 1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::unique_ptr<DeviceSched>> scheds_;
  std::unordered_map<const ClientContext*, std::unique_ptr<ClientContext>>
      clients_;
};

}  // namespace serve

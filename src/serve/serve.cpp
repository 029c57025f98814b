#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "simt/capi.h"
#include "simt/fault.h"
#include "simt/stream.h"
#include "simt/watchdog.h"

namespace serve {

/// One client launch making its way through the scheduler. The chunking
/// fields are touched only by the owning device's drain; the completion
/// fields are guarded by Server::mu_.
struct Request {
  Request(ClientContext* c, const simt::LaunchParams& p, simt::KernelFn b)
      : client(c), params(p), body(std::move(b)),
        combined(p, simt::PartTiming::kSerial) {}

  ClientContext* client;
  simt::LaunchParams params;
  simt::KernelFn body;
  std::uint64_t id = 0;

  // Chunk progress (the device's drain only).
  bool started = false;
  std::uint32_t total = 0;            ///< extent along the split axis
  std::uint32_t next = 0;             ///< next chunk's begin along the axis
  std::uint32_t blocks_per_unit = 1;  ///< grid blocks per unit of the axis
  simt::RecordFold combined;          ///< chunks run back to back
  std::chrono::steady_clock::time_point t0;

  // Completion (Server::mu_).
  bool done = false;
  std::exception_ptr error;
};

// ------------------------------------------------------- ClientContext

ClientContext::ClientContext(Server& server, simt::Device& dev,
                             ClientLimits limits, std::uint64_t id)
    : server_(server), dev_(dev), limits_(limits), id_(id) {}

void* ClientContext::malloc(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  {
    std::lock_guard lock(server_.mu_);
    if (limits_.memory_quota_bytes != 0 &&
        stats_.bytes_live + bytes > limits_.memory_quota_bytes) {
      stats_.quota_rejections++;
      throw simt::DeviceOOMError(
          "client " + std::to_string(id_) + ": allocation of " +
          std::to_string(bytes) + " bytes exceeds the memory quota (" +
          std::to_string(stats_.bytes_live) + " of " +
          std::to_string(limits_.memory_quota_bytes) + " bytes in use)");
    }
    // Charge before allocating so two racing allocations cannot both
    // slip under the quota.
    stats_.bytes_live += bytes;
    stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_live);
    stats_.allocs++;
  }
  void* p = nullptr;
  try {
    p = dev_.memory().allocate(bytes);
  } catch (...) {
    std::lock_guard lock(server_.mu_);
    stats_.bytes_live -= bytes;
    stats_.allocs--;
    throw;
  }
  std::lock_guard lock(server_.mu_);
  owned_[p] = bytes;
  return p;
}

void ClientContext::free(void* ptr) {
  if (ptr == nullptr) return;
  std::size_t bytes = 0;
  {
    std::lock_guard lock(server_.mu_);
    auto it = owned_.find(ptr);
    if (it == owned_.end())
      throw std::invalid_argument(
          "client " + std::to_string(id_) +
          ": pointer was not allocated by this client (tenant isolation "
          "forbids cross-client frees)");
    bytes = it->second;
    owned_.erase(it);
  }
  dev_.memory().deallocate(ptr);
  std::lock_guard lock(server_.mu_);
  stats_.frees++;
  stats_.bytes_live -= bytes;
}

// Only the shape is validated at submit time (an empty grid would break
// the chunking arithmetic). Device-level validation — launch limits,
// lost-device state, injected faults — happens when the scheduler runs
// the request, where the failure is classified against the client's
// stats and a lost device is reset without the submitting thread racing
// the drain. That matches CUDA: most launch errors surface
// asynchronously.
static void check_shape(const simt::LaunchParams& p) {
  if (p.grid.count() == 0 || p.block.count() == 0)
    throw std::invalid_argument(std::string("launch '") + p.name +
                                "': empty grid or block");
}

std::uint64_t ClientContext::submit(simt::LaunchParams params,
                                    simt::KernelFn body) {
  check_shape(params);
  auto r = std::make_shared<Request>(this, params, std::move(body));
  std::lock_guard lock(server_.mu_);
  server_.submit_locked(*this, r);
  return r->id;
}

simt::LaunchRecord ClientContext::launch(simt::LaunchParams params,
                                         simt::KernelFn body) {
  check_shape(params);
  auto r = std::make_shared<Request>(this, params, std::move(body));
  std::unique_lock lock(server_.mu_);
  server_.submit_locked(*this, r);
  server_.cv_done_.wait(lock, [&] { return r->done; });
  if (r->error) {
    // The blocking caller consumes this failure; don't surface it a
    // second time from a later synchronize().
    if (first_error_ == r->error) first_error_ = nullptr;
    std::rethrow_exception(r->error);
  }
  return r->combined.record();
}

void ClientContext::synchronize() {
  std::unique_lock lock(server_.mu_);
  server_.cv_done_.wait(lock, [&] { return pending_.empty(); });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

ClientStats ClientContext::stats() const {
  std::lock_guard lock(server_.mu_);
  return stats_;
}

// --------------------------------------------------------------- Server

Server& Server::instance() {
  // Touch the registry first: the sim devices are intentionally leaked,
  // so constructing the server after them keeps every drain's device
  // alive through static destruction.
  simt::device_registry();
  static Server s;
  return s;
}

Server::Server() = default;

Server::~Server() {
  {
    std::unique_lock lock(mu_);
    stopping_ = true;
    // Whatever is still queued fails cleanly instead of hanging a
    // waiter: shutdown is an admission decision like any other.
    for (auto& [raw, client] : clients_) {
      for (auto& r : client->pending_) {
        if (r->done) continue;
        r->error = std::make_exception_ptr(
            simt::AdmissionError("serve: server shut down with the request "
                                 "still queued"));
        r->done = true;
      }
      client->pending_.clear();
    }
    cv_done_.notify_all();
    // A drain mid-quantum finds nothing left to pick and returns.
    cv_done_.wait(lock, [&] {
      return std::none_of(scheds_.begin(), scheds_.end(),
                          [](const auto& s) { return s->draining; });
    });
  }
  // Destroy surviving clients (leaked handles): release their device
  // allocations, then the contexts themselves.
  for (auto& [raw, client] : clients_) {
    for (auto& [p, bytes] : client->owned_)
      try {
        client->dev_.memory().deallocate(const_cast<void*>(p));
      } catch (...) {
      }
  }
  clients_.clear();
}

Server::DeviceSched& Server::sched_for(simt::Device& dev) {
  for (auto& s : scheds_)
    if (s->dev == &dev) return *s;
  scheds_.push_back(std::make_unique<DeviceSched>());
  scheds_.back()->dev = &dev;
  return *scheds_.back();
}

ClientContext* Server::create_client(simt::Device* dev,
                                     const ClientLimits& limits) {
  ClientLimits l = limits;
  if (l.weight == 0) l.weight = 1;
  std::lock_guard lock(mu_);
  if (stopping_)
    throw std::invalid_argument("serve: server is shutting down");
  simt::Device* target = dev;
  if (target == nullptr) {
    // Least-loaded placement across the registry fleet.
    std::size_t best = 0;
    for (simt::Device* d : simt::device_registry()) {
      std::size_t n = 0;
      for (auto& s : scheds_)
        if (s->dev == d) n = s->clients.size();
      if (target == nullptr || n < best) {
        target = d;
        best = n;
      }
    }
    if (target == nullptr)
      throw std::invalid_argument("serve: no devices registered");
  }
  auto client = std::unique_ptr<ClientContext>(
      new ClientContext(*this, *target, l, next_client_id_++));
  DeviceSched& sched = sched_for(*target);
  sched.clients.push_back(client.get());
  ClientContext* raw = client.get();
  clients_[raw] = std::move(client);
  return raw;
}

void Server::destroy_client(ClientContext* client) {
  std::unique_lock lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end())
    throw std::invalid_argument(
        "serve: not a live client handle (already destroyed?)");
  // Teardown ordering: drain the queue first (the scheduler may be
  // mid-quantum on this client's request), then unhook from the
  // rotation, then release memory.
  cv_done_.wait(lock, [&] { return client->pending_.empty(); });
  for (auto& s : scheds_) {
    auto pos = std::find(s->clients.begin(), s->clients.end(), client);
    if (pos != s->clients.end()) s->clients.erase(pos);
  }
  std::unique_ptr<ClientContext> owned = std::move(it->second);
  clients_.erase(it);
  auto leaked = std::move(owned->owned_);
  lock.unlock();
  for (auto& [p, bytes] : leaked)
    try {
      owned->dev_.memory().deallocate(const_cast<void*>(p));
    } catch (...) {
    }
}

bool Server::is_live(const ClientContext* client) const {
  std::lock_guard lock(mu_);
  return clients_.count(client) != 0;
}

std::size_t Server::client_count() const {
  std::lock_guard lock(mu_);
  return clients_.size();
}

void Server::set_quantum_blocks(std::uint32_t blocks) {
  std::lock_guard lock(mu_);
  quantum_blocks_ = std::max(1u, blocks);
}

std::uint32_t Server::quantum_blocks() const {
  std::lock_guard lock(mu_);
  return quantum_blocks_;
}

void Server::submit_locked(ClientContext& client,
                           const std::shared_ptr<Request>& r) {
  if (stopping_)
    throw simt::AdmissionError("serve: server is shutting down");
  if (client.limits_.max_pending != 0 &&
      client.pending_.size() >= client.limits_.max_pending) {
    client.stats_.admission_rejections++;
    throw simt::AdmissionError(
        "client " + std::to_string(client.id_) + ": queue depth limit " +
        std::to_string(client.limits_.max_pending) +
        " reached; retry after pending requests drain");
  }
  r->id = next_request_id_++;
  DeviceSched& sched = sched_for(client.dev_);
  // An idle client re-entering the rotation must not replay the share
  // it "saved" while idle: start from the busiest sibling's progress.
  if (client.pending_.empty())
    for (ClientContext* c : sched.clients)
      if (c != &client && !c->pending_.empty())
        client.wrr_progress_ =
            std::max(client.wrr_progress_, c->wrr_progress_);
  client.pending_.push_back(r);
  if (!sched.draining) {
    sched.draining = true;
    simt::run_on_host_pool([this, &sched] { drain(sched); });
  }
}

std::shared_ptr<Request> Server::pick_locked(DeviceSched& sched) {
  // Strict priority across classes; within the winning class, the
  // client with the least weighted progress runs next (weighted
  // round-robin that is deterministic and starvation-free).
  ClientContext* best = nullptr;
  for (ClientContext* c : sched.clients) {
    if (c->pending_.empty()) continue;
    if (best == nullptr || c->limits_.priority > best->limits_.priority ||
        (c->limits_.priority == best->limits_.priority &&
         c->wrr_progress_ < best->wrr_progress_))
      best = c;
  }
  return best != nullptr ? best->pending_.front() : nullptr;
}

void Server::drain(DeviceSched& sched) {
  std::unique_lock lock(mu_);
  while (std::shared_ptr<Request> r = pick_locked(sched)) {
    lock.unlock();
    run_quantum(sched, r);
    lock.lock();
  }
  sched.draining = false;
  cv_done_.notify_all();  // ~Server may be waiting for this drain
  simt::host_pool_task_done();
}

void Server::run_quantum(DeviceSched& sched,
                         const std::shared_ptr<Request>& r) {
  simt::Device& dev = *sched.dev;
  ClientContext* client = r->client;

  if (!r->started) {
    r->total = simt::split_extent(r->params.grid);
    r->blocks_per_unit =
        static_cast<std::uint32_t>(std::max<std::uint64_t>(
            1, r->params.grid.count() / std::max<std::uint32_t>(1, r->total)));
    r->t0 = std::chrono::steady_clock::now();
    r->started = true;
  }

  std::uint32_t quantum;
  {
    std::lock_guard lock(mu_);
    quantum = quantum_blocks_;
  }
  const std::uint32_t remaining = r->total - r->next;
  const std::uint32_t chunk = std::min(
      remaining,
      std::max<std::uint32_t>(1, quantum / r->blocks_per_unit));

  simt::LaunchRecord rec;
  std::exception_ptr err;
  bool lost = false;
  bool timed_out = false;  // single-chunk watchdog overruns included
  try {
    dev.check_not_lost("serve launch");
    rec = dev.launch_sync(simt::slice_grid(r->params, r->next, chunk), r->body);
  } catch (...) {
    err = std::current_exception();
    const char* what = nullptr;
    const auto failure = simt::capi::classify_current_exception(&what);
    lost = failure == simt::capi::Failure::kDeviceLost;
    timed_out = failure == simt::capi::Failure::kTimeout;
  }

  if (!err) {
    r->combined.add(rec);
    r->next += chunk;
    // The modeled watchdog is a per-launch budget: time-slicing must not
    // let a runaway kernel dodge it by being metered in small chunks.
    const double budget_ms = simt::watchdog_ms();
    if (budget_ms > 0.0 && r->combined.record().time.total_ms > budget_ms) {
      err = std::make_exception_ptr(simt::TimeoutError(
          "serve: kernel '" + std::string(r->params.name) +
          "' exceeded the watchdog budget across its time slices"));
      timed_out = true;
    }
  }

  {
    std::lock_guard lock(mu_);
    client->stats_.quanta++;
    client->wrr_progress_ +=
        1.0 / static_cast<double>(std::max(1u, client->limits_.weight));
    if (!err) client->stats_.blocks_executed += rec.stats.blocks;

    // The request may have been failed under our feet by server
    // shutdown; don't double-complete it.
    const bool still_queued =
        !client->pending_.empty() && client->pending_.front() == r && !r->done;
    if (still_queued && (err || r->next >= r->total)) {
      if (err) {
        client->stats_.launches_failed++;
        if (timed_out) client->stats_.timeouts++;
        if (lost) client->stats_.device_losses++;
        r->error = err;
        if (!client->first_error_) client->first_error_ = err;
      } else {
        r->combined.finish(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - r->t0)
                               .count());
        client->stats_.launches++;
        // Logged before the waiter wakes: launch() returns with its
        // record already in the device log.
        dev.append_launch_record(r->combined.record());
      }
      r->done = true;
      client->pending_.pop_front();
      cv_done_.notify_all();
    }
  }

  if (lost) {
    // Graceful degradation: one tenant's poisoned chunk must not take
    // the device away from its siblings.
    try {
      dev.reset();
    } catch (...) {
    }
  }
}

}  // namespace serve

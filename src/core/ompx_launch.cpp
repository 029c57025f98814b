#include "core/ompx_launch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "rewrite/analyze.h"
#include "simt/stream.h"

namespace ompx {

/// The shared completion state behind an asynchronous LaunchResult.
/// The default stream's completion callback fills it; wait()/query()
/// read it. shared_ptr-owned so the ticket outlives whichever side
/// finishes last.
struct LaunchResult::Ticket {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  simt::LaunchRecord rec;
};

void LaunchResult::wait() {
  if (ticket_ == nullptr) return;
  {
    std::unique_lock lock(ticket_->mu);
    ticket_->cv.wait(lock, [&] { return ticket_->done; });
    record = ticket_->rec;
  }
  completed = true;
  ticket_.reset();
}

bool LaunchResult::query() {
  if (ticket_ == nullptr) return completed;
  {
    std::unique_lock lock(ticket_->mu);
    if (!ticket_->done) return false;
    record = ticket_->rec;
  }
  completed = true;
  ticket_.reset();
  return true;
}

namespace {

/// The calling thread's current device plus its registry index, cached
/// together so ompx_get_device never rescans the registry. Null device
/// means "never set": registry index 0.
struct CurrentDevice {
  simt::Device* dev = nullptr;
  int index = 0;
};
thread_local CurrentDevice t_current;

std::atomic<int> g_shard_devices{1};

LaunchMode initial_launch_mode() {
  const char* env = std::getenv("OMPX_LAUNCH");
  if (env != nullptr && std::string_view(env) == "sync")
    return LaunchMode::kSync;
  return LaunchMode::kAsync;
}

std::atomic<LaunchMode> g_launch_mode{initial_launch_mode()};

simt::LaunchParams to_params(const LaunchSpec& spec, const simt::Device& dev) {
  simt::LaunchParams p;
  p.grid = spec.num_teams;
  p.block = spec.thread_limit;
  // §3.2: "any dimensions exceeding a device's capability will be
  // disregarded" — fold unsupported grid/block dimensions away.
  const std::uint32_t dims = dev.config().grid_dims_supported;
  if (dims < 3) {
    p.grid.z = 1;
    p.block.z = 1;
  }
  if (dims < 2) {
    p.grid.y = 1;
    p.block.y = 1;
  }
  p.dynamic_smem_bytes = spec.dynamic_groupprivate_bytes;
  p.mode = spec.mode;
  p.profile = spec.profile;
  p.cost = spec.cost;
  p.name = spec.name;
  if (!spec.bare) {
    // Non-bare SIMT regions still initialize the device runtime and run
    // under the OpenMP execution model's bookkeeping (SPMD mode). This
    // is precisely the cost ompx_bare removes.
    p.rt.runtime_init = true;
  }
  return p;
}
}  // namespace

simt::Device& default_device() {
  return t_current.dev != nullptr ? *t_current.dev
                                  : *simt::device_registry()[0];
}

void set_default_device(simt::Device& dev) {
  t_current.dev = &dev;
  // Cache the registry index now (one scan per set, not per get).
  const auto& reg = simt::device_registry();
  t_current.index = -1;
  for (std::size_t i = 0; i < reg.size(); ++i)
    if (reg[i] == &dev) t_current.index = static_cast<int>(i);
}

int default_device_index() {
  return t_current.dev != nullptr ? t_current.index : 0;
}

void set_shard_devices(int n) {
  const int cap = static_cast<int>(simt::device_registry().size());
  g_shard_devices.store(std::clamp(n, 1, cap), std::memory_order_relaxed);
}

int shard_devices() {
  return g_shard_devices.load(std::memory_order_relaxed);
}

void set_launch_mode(LaunchMode mode) {
  g_launch_mode.store(mode, std::memory_order_relaxed);
}

LaunchMode launch_mode() {
  return g_launch_mode.load(std::memory_order_relaxed);
}

void launch_hints(const char* kernel, bool convergent, bool needs_fibers) {
  simt::set_exec_hint(kernel, {convergent, needs_fibers});
}

int register_exec_hints(const std::string& source) {
  return rewrite::register_exec_hints(source);
}

LaunchResult launch(const LaunchSpec& spec, simt::KernelFn body) {
  simt::Device& dev = spec.device != nullptr ? *spec.device : default_device();
  omp::wait_for_depends(spec.depends);

  // Plain synchronous launches honor the process-wide shard override
  // (--devices=N): split across the first N registry devices, primary
  // first. Interop-stream and nowait launches are never sharded.
  if (!spec.nowait && spec.depend_interop == nullptr) {
    const int n = shard_devices();
    if (n > 1) {
      std::vector<simt::Device*> devs{&dev};
      for (simt::Device* d : simt::device_registry()) {
        if (static_cast<int>(devs.size()) >= n) break;
        if (d != &dev) devs.push_back(d);
      }
      if (devs.size() > 1) return shard_launch(spec, devs, std::move(body));
    }
  }

  const simt::LaunchParams p = to_params(spec, dev);
  LaunchResult result;

  if (spec.depend_interop != nullptr) {
    // §3.5: the interop object's semantics dictate the handling — the
    // kernel is dispatched into the stream linked with the object.
    const omp::Interop& obj = *spec.depend_interop;
    if (!obj.valid())
      throw std::invalid_argument(
          "depend(interopobj): interop object not initialized");
    if (obj.device != &dev)
      throw std::invalid_argument(
          "depend(interopobj): interop object belongs to another device");
    obj.stream->launch(p, std::move(body));
    if (!spec.nowait) {
      obj.stream->synchronize();
      result.completed = true;
      result.record = dev.last_launch();
    }
    return result;
  }

  if (spec.nowait || launch_mode() == LaunchMode::kAsync) {
    // Stream-ordered launch: enqueue on the device's default stream and
    // hand back a ticket. The stream executor runs the same resolve ->
    // run -> record path as launch_sync off-thread, so the record the
    // ticket delivers is the one the synchronous mode would have
    // produced.
    auto ticket = std::make_shared<LaunchResult::Ticket>();
    dev.default_stream().launch(
        p, std::move(body), [ticket](const simt::LaunchRecord& rec) {
          {
            std::lock_guard lock(ticket->mu);
            ticket->rec = rec;
            ticket->done = true;
          }
          ticket->cv.notify_all();
        });
    result.ticket_ = std::move(ticket);
    return result;
  }

  result.completed = true;
  result.record = dev.launch_sync(p, body);
  return result;
}

LaunchResult shard_launch(const LaunchSpec& spec,
                          const std::vector<simt::Device*>& devices,
                          simt::KernelFn body) {
  if (spec.nowait || spec.depend_interop != nullptr)
    throw std::invalid_argument(
        "shard_launch: only plain synchronous launches can be sharded");
  if (devices.empty())
    throw std::invalid_argument("shard_launch: empty device list");
  simt::Device& primary = *devices.front();
  const simt::LaunchParams base = to_params(spec, primary);

  // Shard along the grid's split axis; a grid too small for the device
  // count just uses fewer shards.
  const std::uint32_t total = simt::split_extent(base.grid);
  const std::uint32_t nshards = static_cast<std::uint32_t>(
      std::min<std::size_t>(devices.size(), total));

  LaunchResult result;
  result.completed = true;
  // A degenerate grid (largest axis smaller than the device count)
  // simply uses fewer shards — down to one. The single-shard case still
  // goes through the per-device default stream below, not a direct
  // launch_sync: a direct launch would bypass async work already queued
  // on the default stream, so ordering (and the combined record) would
  // depend on the grid size.

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<simt::LaunchRecord> shards(nshards);
  std::vector<simt::Event*> done(nshards, nullptr);
  std::uint32_t begin = 0;
  for (std::uint32_t i = 0; i < nshards; ++i) {
    const std::uint32_t extent = total / nshards + (i < total % nshards);
    simt::Device& dev = *devices[i];
    simt::Stream& st = dev.default_stream();
    simt::LaunchRecord* slot = &shards[i];
    st.launch(simt::slice_grid(base, begin, extent), body,
              [slot](const simt::LaunchRecord& rec) { *slot = rec; });
    done[i] = dev.create_event();
    st.record(*done[i]);
    begin += extent;
  }

  // Join on the per-device events, then surface any async error the
  // shard raised (the executor parks it; synchronize rethrows).
  for (std::uint32_t i = 0; i < nshards; ++i) {
    done[i]->synchronize();
    devices[i]->destroy_event(done[i]);
    devices[i]->synchronize();
  }

  // The shards ran at once on distinct devices: the whole launch takes
  // as long as the slowest one.
  simt::RecordFold combined(base, simt::PartTiming::kConcurrent);
  for (const simt::LaunchRecord& s : shards) combined.add(s);
  combined.finish(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  primary.append_launch_record(combined.record());
  result.record = combined.record();
  return result;
}

simt::LaunchRecord launch_record(simt::Device* dev) {
  simt::Device& d = dev != nullptr ? *dev : default_device();
  // In-flight async launches must land in the log before we read it.
  d.synchronize();
  return d.last_launch();
}

void taskwait(const omp::Interop& obj) {
  if (!obj.valid())
    throw std::invalid_argument("taskwait(interopobj): invalid interop object");
  obj.stream->synchronize();
}

}  // namespace ompx

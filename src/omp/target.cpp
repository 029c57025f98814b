#include "omp/target.h"

#include <algorithm>
#include <exception>

#include "simt/device.h"
#include "simt/memory.h"
#include "simt/stream.h"

namespace omp {

namespace {
thread_local bool t_offload_disabled = false;
}  // namespace

void set_offload_disabled(bool disabled) { t_offload_disabled = disabled; }
bool offload_disabled() { return t_offload_disabled; }

simt::Device& resolve_device(const TargetClauses& c) {
  return c.device != nullptr ? *c.device : *simt::device_registry()[0];
}

namespace {

struct LaunchShape {
  int teams;
  int threads;
};

LaunchShape resolve_shape(const TargetClauses& c, std::int64_t n,
                          simt::Device& dev) {
  int threads = c.thread_limit > 0 ? c.thread_limit : kDefaultThreadLimit;
  threads = std::min<int>(threads, dev.config().max_threads_per_block);
  // Teams default: cover the loop with the *intended* thread count.
  int teams = c.num_teams > 0
                  ? c.num_teams
                  : static_cast<int>((n + threads - 1) / std::max(threads, 1));
  teams = std::max(teams, 1);
  if (c.thread_limit_bug_32) {
    // LLVM issue reproduced for Adam (§4.2.5): the runtime launches 32
    // threads per team but the grid was sized for the intended count,
    // so every thread carries 8x the work.
    threads = kBuggyThreadLimit;
  }
  return {teams, threads};
}

simt::LaunchParams base_params(const TargetClauses& c, LaunchShape shape,
                               bool generic) {
  simt::LaunchParams p;
  p.grid = {static_cast<std::uint32_t>(shape.teams)};
  p.block = {static_cast<std::uint32_t>(shape.threads)};
  p.profile = c.profile;
  p.cost = c.cost;
  p.name = c.name;
  p.rt.runtime_init = true;
  p.rt.generic_mode = generic;
  p.rt.spill_in_shared = c.spill_in_shared;
  return p;
}

/// Maps, launches, unmaps: the synchronous body of every target region.
template <typename MakeKernel>
void run_target(const TargetClauses& c, bool generic, std::int64_t n,
                MakeKernel&& make_kernel) {
  simt::Device& dev = resolve_device(c);
  MappingTable& table = mapping_for(dev);
  for (const Map& m : c.maps) table.enter(m);
  try {
    DeviceEnv env(table);
    const LaunchShape shape = resolve_shape(c, n, dev);
    simt::LaunchParams p = base_params(c, shape, generic);
    // Generic teams never suspend: their workers' share of a parallel
    // region runs as lanes of the main thread (make_generic_kernel).
    p.mode = (!generic && c.needs_sync) ? simt::ExecMode::kCooperative
                                        : simt::ExecMode::kDirect;
    // Route through the default stream so target regions are
    // stream-ordered with ompx/kl async work on the same device, then
    // wait: nowait regions run undeferred too (target.h), and the unmap
    // below must observe the kernel's writes.
    simt::Stream& st = dev.default_stream();
    st.launch(p, make_kernel(env));
    st.synchronize();
  } catch (...) {
    for (const Map& m : c.maps) table.exit(m);
    throw;
  }
  for (const Map& m : c.maps) table.exit(m);
}

}  // namespace

void target_teams_distribute_parallel_for(const TargetClauses& c,
                                          std::int64_t n,
                                          BodyFactory make_body) {
  wait_for_depends(c.depends);
  if (offload_disabled()) {
    // Host fallback: no mapping, no device — the loop runs here.
    MappingTable& table = mapping_for(resolve_device(c));
    DeviceEnv env(table, /*host_mode=*/true);
    auto body = make_body(env);
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  run_target(c, /*generic=*/false, n, [&](DeviceEnv& env) {
    return make_spmd_loop_kernel(n, make_body(env));
  });
}

double target_teams_distribute_parallel_for_reduce(const TargetClauses& c,
                                                   std::int64_t n,
                                                   ReduceBodyFactory make_body) {
  wait_for_depends(c.depends);
  if (offload_disabled()) {
    MappingTable& table = mapping_for(resolve_device(c));
    DeviceEnv env(table, /*host_mode=*/true);
    auto body = make_body(env);
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) sum += body(i);
    return sum;
  }
  double result = 0.0;
  TargetClauses cc = c;
  cc.needs_sync = true;  // reduction tree uses shared memory + barriers
  run_target(cc, /*generic=*/false, n, [&](DeviceEnv& env) {
    return make_spmd_loop_reduce_kernel(n, make_body(env), &result);
  });
  return result;
}

void target_teams_generic(const TargetClauses& c, TeamBodyFactory make_team_body) {
  wait_for_depends(c.depends);
  const std::int64_t n =
      static_cast<std::int64_t>(std::max(c.num_teams, 1)) *
      (c.thread_limit > 0 ? c.thread_limit : kDefaultThreadLimit);
  run_target(c, /*generic=*/true, n, [&](DeviceEnv& env) {
    return make_generic_kernel(make_team_body(env));
  });
}

TargetData::TargetData(simt::Device& dev, std::vector<Map> maps)
    : table_(mapping_for(dev)), maps_(std::move(maps)) {
  for (const Map& m : maps_) table_.enter(m);
}

TargetData::~TargetData() {
  for (const Map& m : maps_) {
    try {
      table_.exit(m);
    } catch (...) {
      // Destructors must not throw; a corrupted mapping here means the
      // program already misused the table and got an exception there.
    }
  }
}

DeviceEnv TargetData::env() const { return DeviceEnv(table_); }

void target_enter_data(simt::Device& dev, const std::vector<Map>& maps) {
  MappingTable& t = mapping_for(dev);
  for (const Map& m : maps) t.enter(m);
}

void target_exit_data(simt::Device& dev, const std::vector<Map>& maps) {
  MappingTable& t = mapping_for(dev);
  for (const Map& m : maps) t.exit(m);
}

void target_update_to(simt::Device& dev, const void* host, std::size_t bytes) {
  mapping_for(dev).update_to(host, bytes);
}

void target_update_from(simt::Device& dev, void* host, std::size_t bytes) {
  mapping_for(dev).update_from(host, bytes);
}

void* target_alloc(std::size_t bytes, simt::Device& dev) {
  return dev.memory().allocate(bytes);
}

void target_free(void* ptr, simt::Device& dev) {
  dev.memory().deallocate(ptr);
}

void target_memcpy(void* dst, const void* src, std::size_t bytes,
                   bool dst_on_device, bool src_on_device, simt::Device& dev) {
  simt::CopyKind kind;
  if (dst_on_device && src_on_device)
    kind = simt::CopyKind::kDeviceToDevice;
  else if (dst_on_device)
    kind = simt::CopyKind::kHostToDevice;
  else if (src_on_device)
    kind = simt::CopyKind::kDeviceToHost;
  else
    kind = simt::CopyKind::kHostToHost;
  dev.memory().copy(dst, src, bytes, kind);
  if (dst_on_device != src_on_device) dev.add_transfer(bytes);
}

bool target_is_present(const void* host, simt::Device& dev) {
  return mapping_for(dev).is_present(host);
}

void wait_for_depends(const std::vector<Depend>& deps) {
  if (!deps.empty()) taskwait();
}

void taskwait() {
  // Skipped inside stream ops, as in Device::sync_for_host_op.
  if (simt::in_stream_op()) return;
  std::exception_ptr first;
  for (simt::Device* d : simt::device_registry()) {
    try {
      d->default_stream().synchronize();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace omp

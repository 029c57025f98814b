#include "simt/device.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simt/block.h"
#include "simt/fault.h"
#include "simt/memory.h"
#include "simt/profiler.h"
#include "simt/san.h"
#include "simt/stream.h"
#include "simt/watchdog.h"

namespace simt {

namespace {

// Fiber stacks are recycled per OS thread (FiberStackPool is not
// thread-safe by design — a block and its fibers live on one thread).
FiberStackPool& thread_stack_pool() {
  thread_local FiberStackPool pool(FiberStackPool::kDefaultStackSize);
  return pool;
}

// Finished fibers are recycled whole across launches (object + machine
// contexts + stack lease amount to several heap round-trips per
// simulated thread otherwise). Constructed after the stack pool, so it
// is destroyed first and cached fibers can return their stacks.
FiberPool& thread_fiber_pool() {
  thread_local FiberPool pool(thread_stack_pool());
  return pool;
}

// --- the host thread pool -------------------------------------------------

/// Host ns below which a grid runs faster on its launching thread alone
/// than fanned out: block helpers wake tens of µs after the post, so
/// they only take blocks off a grid that keeps the launcher busy that
/// long. On the 4-core dev box, 16 blocks at workers 4 vs 1 took
/// 11.3 vs 4.5 µs per launch when empty, 31 vs 22 µs at 1 µs per block
/// and 37 vs 39 µs at 2 µs per block (the break-even).
constexpr double kFanOutNs = 30'000;

/// One launch's blocks, shared by its participants: each pulls chunks
/// off `next`, then folds in its counters and error (a helper under the
/// pool lock, the launcher after every helper has left).
struct BlockJob {
  Device& dev;
  const LaunchParams& params;
  const KernelFn& kernel;
  std::uint64_t nblocks;
  std::uint64_t chunk;
  LaunchStats stats;  ///< the launch header, then every participant's share
  std::exception_ptr error{};
  std::uint64_t id = 0;   ///< unique per post
  unsigned open = 0;      ///< helpers that may still join
  unsigned reserved = 0;  ///< of those, helpers woken for it, still waking
  unsigned running = 0;   ///< helpers that joined and have not folded
  std::condition_variable drained{};
  std::atomic<std::uint64_t> next{0};

  /// Runs blocks until none are left. A launcher with helpers to wake
  /// (`probing`) first pulls one block at a time and calls `wake` once
  /// the blocks it ran say the blocks left take at least kFanOutNs,
  /// checked after each block and, through BlockState::probe, during
  /// block 0; from then on, and on helpers, it pulls chunks. A throwing
  /// block drains the queue (fail fast); the exception is returned, not
  /// thrown.
  template <typename Wake>
  std::exception_ptr run(LaunchStats& acc, bool probing, Wake&& wake) {
    std::chrono::steady_clock::time_point t0;
    if (probing) t0 = std::chrono::steady_clock::now();
    std::uint64_t end = 0;
    // Until the post, this thread alone pulls: `end` blocks are run or
    // running and `nblocks - end` are left. A running block counts as
    // run: its cost so far is a lower bound on its whole cost, so a
    // check that passes during it would pass after it too.
    auto check = [&] {
      if (!probing) return;
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (ns / static_cast<double>(end) * static_cast<double>(nblocks - end) >=
          kFanOutNs) {
        probing = false;
        wake();
      }
    };
    try {
      for (std::uint64_t chunks = 0;;) {
        const std::uint64_t step = probing ? 1 : chunk;
        const std::uint64_t b0 =
            next.fetch_add(step, std::memory_order_relaxed);
        if (b0 >= nblocks) return nullptr;
        if (!probing && chunks++ > 0) acc.sched_steals++;
        end = std::min(nblocks, b0 + step);
        for (std::uint64_t b = b0; b < end; ++b) {
          BlockState block(dev, params, block_id(params, b), kernel,
                           thread_fiber_pool());
          if (probing && b == 0) {  // the block every launch starts with
            block.probe = [](void* c) {
              (*static_cast<decltype(check)*>(c))();
            };
            block.probe_arg = &check;
          }
          block.run();
          acc += block.counters();
        }
        check();
      }
    } catch (...) {
      next.store(nblocks, std::memory_order_relaxed);
      return std::current_exception();
    }
  }

  void fold(const LaunchStats& acc, std::exception_ptr err) {
    stats += acc;
    if (err && !error) error = std::move(err);
  }
};

/// The process's one host thread pool. A multi-block launch posts its
/// job to the block helpers once its own first blocks show the grid is
/// worth it, and keeps running chunks; once they run out it closes the
/// job and waits only for helpers that already joined, which run
/// nothing but this job's blocks, so concurrent and nested launches
/// cannot deadlock. One-off tasks (stream drains, serve drains, watchdog
/// monitors) run on task helpers and never queue: the warmest idle one
/// takes a task, else a new one. Block helpers are spawned up to the
/// largest `workers - 1` asked for; no helper exits, so thread_local
/// fiber caches stay warm and the warmest idle helpers are woken first.
class HostPool {
 public:
  static HostPool& instance() {
    static HostPool* pool = new HostPool;  // leaked, like the devices
    return *pool;                          // whose work runs on it
  }

  /// Runs `job` on the calling thread. Once its own first blocks show
  /// the grid is worth it (BlockJob::run), it wakes `claim(helpers)`
  /// pool threads for it: up to `helpers`, as many as `claim` grants.
  template <typename Claim>
  void run(BlockJob& job, unsigned helpers, Claim&& claim) {
    bool posted = false;
    LaunchStats acc;
    std::exception_ptr err = job.run(acc, helpers > 0, [&] {
      helpers = claim(helpers);
      if (helpers == 0) return;
      post(job, helpers);
      posted = true;
    });
    if (posted) {
      std::unique_lock lock(mu_);
      if (job.open > 0) std::erase(jobs_, &job);
      job.drained.wait(lock, [&] { return job.running == 0; });
    }
    job.fold(acc, std::move(err));  // every helper has folded and left
    if (job.error) std::rethrow_exception(job.error);
  }

  void post(std::function<void()> task) {
    std::lock_guard lock(mu_);
    if (idle_tasks_.empty()) {
      Helper* h = spawn_locked([this](Helper& w) { task_loop(w); });
      h->task = std::move(task);
      return;
    }
    Helper* h = idle_tasks_.back();
    idle_tasks_.pop_back();
    h->task = std::move(task);
    h->wake.release();
  }

  void task_done() {  // see host_pool_task_done
    if (t_task_helper == nullptr || t_task_helper->done) return;
    std::lock_guard lock(mu_);
    t_task_helper->done = true;
    idle_tasks_.push_back(t_task_helper);
  }

 private:
  struct Helper {
    std::binary_semaphore wake{0};  ///< released when handed work
    std::uint64_t job = 0;          ///< id of the job it was woken for
    std::function<void()> task;     ///< a task helper's next task
    bool done = false;              ///< its task called task_done()
    std::thread thread;
  };

  static inline thread_local Helper* t_task_helper = nullptr;

  /// The one place a host thread is created. The new thread blocks on
  /// mu_ until the caller has handed it its first work.
  template <typename Loop>
  Helper* spawn_locked(Loop loop) {
    Helper* h = all_.emplace_back(std::make_unique<Helper>()).get();
    h->thread = std::thread([h, loop] { loop(*h); });
    return h;
  }

  void task_loop(Helper& h) {
    t_task_helper = &h;
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard lock(mu_);
        task = std::exchange(h.task, nullptr);
        h.done = false;
      }
      task();
      task = nullptr;  // the task's captures die off the lock
      task_done();     // unless the task already did
      h.wake.acquire();
    }
  }

  void post(BlockJob& job, unsigned helpers) {
    std::lock_guard lock(mu_);
    job.id = ++last_id_;
    job.open = helpers;
    const auto reserve = [&](Helper* h) {
      h->job = job.id;
      ++job.reserved;
    };
    while (blockers_ < helpers) {  // before publishing: spawn may throw
      reserve(spawn_locked([this](Helper& h) { helper_loop(h); }));
      ++blockers_;
    }
    jobs_.push_back(&job);
    for (; job.reserved < helpers && !idle_.empty(); idle_.pop_back()) {
      reserve(idle_.back());
      idle_.back()->wake.release();
    }
  }

  void helper_loop(Helper& h) {
    std::unique_lock lock(mu_);
    bool ran = false;
    for (;;) {
      // Join the job it was woken for, else any job with a slot that no
      // woken helper is on its way to: a late wakeup never takes the
      // place of a warm helper a later launch woke.
      BlockJob* job = nullptr;
      for (BlockJob* j : jobs_) {
        if (j->id == h.job) {
          --j->reserved;
          job = j;
          break;
        }
        if (job == nullptr && j->open > j->reserved) job = j;
      }
      h.job = 0;
      if (job == nullptr) {
        // A helper that just ran blocks goes on top, so the next launch
        // wakes the warmest caches first.
        idle_.insert(ran ? idle_.end() : idle_.begin(), &h);
        ran = false;
        lock.unlock();
        h.wake.acquire();
        lock.lock();
        continue;
      }
      if (--job->open == 0) std::erase(jobs_, job);
      ++job->running;
      lock.unlock();
      LaunchStats acc;
      std::exception_ptr err = job->run(acc, false, [] {});
      lock.lock();
      ran = true;
      job->fold(acc, std::move(err));
      // Under the lock: the job lives on its launcher's stack and may
      // be gone as soon as the launcher sees running == 0.
      if (--job->running == 0) job->drained.notify_one();
    }
  }

  std::mutex mu_;  // guards the members below and posted jobs' counts
  std::uint64_t last_id_ = 0;
  unsigned blockers_ = 0;  ///< block helpers spawned so far
  std::vector<std::unique_ptr<Helper>> all_;
  std::vector<Helper*> idle_;        ///< block helpers; back = ran last
  std::vector<Helper*> idle_tasks_;  ///< task helpers; back = ran last
  std::vector<BlockJob*> jobs_;      ///< open jobs, oldest first
};

// --- lane-execution policy + per-kernel hint registry --------------------

/// OMPX_EXEC=fiber|auto, parsed once at first use. Unknown values fall
/// back to auto (forward compatibility, like OMPX_SAN).
ExecPolicy env_exec_policy() {
  const char* spec = std::getenv("OMPX_EXEC");
  return spec != nullptr && std::strcmp(spec, "fiber") == 0
             ? ExecPolicy::kFiber
             : ExecPolicy::kAuto;
}

std::atomic<ExecPolicy> g_exec_policy{env_exec_policy()};

struct ExecHintRegistry {
  std::mutex mu;
  std::unordered_map<std::string, ExecHint> hints;

  static ExecHintRegistry& instance() {
    static ExecHintRegistry* r = new ExecHintRegistry;  // leaked: workers
    return *r;                                          // may outlive main
  }
};

}  // namespace

void run_on_host_pool(std::function<void()> task) {
  HostPool::instance().post(std::move(task));
}

void host_pool_task_done() { HostPool::instance().task_done(); }

void set_exec_hint(const std::string& kernel, ExecHint hint) {
  ExecHintRegistry& r = ExecHintRegistry::instance();
  std::lock_guard lock(r.mu);
  r.hints[kernel] = hint;
}

ExecHint exec_hint(const std::string& kernel) {
  ExecHintRegistry& r = ExecHintRegistry::instance();
  std::lock_guard lock(r.mu);
  const auto it = r.hints.find(kernel);
  return it != r.hints.end() ? it->second : ExecHint{};
}

void clear_exec_hints() {
  ExecHintRegistry& r = ExecHintRegistry::instance();
  std::lock_guard lock(r.mu);
  r.hints.clear();
}

void set_exec_policy(ExecPolicy policy) {
  g_exec_policy.store(policy, std::memory_order_relaxed);
}

ExecPolicy exec_policy() {
  return g_exec_policy.load(std::memory_order_relaxed);
}

const char* exec_mode_name(ExecMode mode) {
  return mode == ExecMode::kDirect ? "direct" : "fiber";
}

Device::Device(DeviceConfig cfg, EngineOptions opts)
    : cfg_(std::move(cfg)), opts_(opts),
      mem_(std::make_unique<DeviceMemory>(cfg_.global_mem_bytes)),
      cmem_(std::make_unique<DeviceMemory>(cfg_.const_mem_bytes)),
      pool_(std::make_unique<StreamMemPool>(*mem_)),
      exec_(std::make_unique<StreamExecutor>(*this)) {
  // Once here, not per launch: the OS answers this with a sysfs or
  // affinity read, several µs each time.
  if (opts_.workers == 0)
    opts_.workers = std::max(1u, std::thread::hardware_concurrency());
}

Device::~Device() {
  // Stop the stream executor first: its drains, monitor and zombie ops
  // leave (an abandoned capture's graph-owned allocations are released
  // with it). Then trim the stream-ordered pool — pooled blocks are
  // live-but-reusable, not leaks.
  exec_.reset();
  pool_.reset();
  // Teardown leak report, unconditional (cheap: one registry walk). A
  // process that exits with live device allocations almost always
  // forgot its frees — CUDA's cudaErrorLeak analogue. Under kSanMem the
  // leaks are additionally recorded as sanitizer diagnostics so they
  // appear in the OMPX_SAN exit report.
  const std::vector<LeakInfo> leaks = mem_->leak_report();
  if (!leaks.empty()) {
    std::uint64_t bytes = 0;
    for (const LeakInfo& l : leaks) bytes += l.bytes;
    std::fprintf(stderr,
                 "[simt] device '%s': %zu allocation(s) (%llu bytes) still "
                 "live at teardown\n",
                 cfg_.name.c_str(), leaks.size(),
                 static_cast<unsigned long long>(bytes));
    if (san_enabled(kSanMem)) {
      for (const LeakInfo& l : leaks) {
        SanDiag d;
        d.kind = SanKind::kLeak;
        d.addr = l.ptr;
        d.bytes = l.bytes;
        d.message = "leaked device allocation of " + std::to_string(l.bytes) +
                    " byte(s) still live at teardown of device '" + cfg_.name +
                    "'";
        San::instance().record(std::move(d));
      }
    }
  }
}

void Device::mark_lost(const std::string& reason) {
  {
    std::lock_guard lock(lost_mu_);
    lost_reason_ = reason;
  }
  lost_.store(true, std::memory_order_release);
}

void Device::check_not_lost(const char* who, bool already_lost) const {
  if (!lost_.load(std::memory_order_acquire)) return;
  std::string reason;
  {
    std::lock_guard lock(lost_mu_);
    reason = lost_reason_;
  }
  throw DeviceLostError(std::string(who) + ": device '" + cfg_.name +
                            "' is lost (" + reason + ")",
                        already_lost);
}

void Device::reset() {
  {
    std::lock_guard lock(lost_mu_);
    lost_reason_.clear();
  }
  lost_.store(false, std::memory_order_release);
  // Drain every stream, discarding asynchronous errors as they surface.
  // synchronize_all returns early when an async error is pending, so
  // loop until the drain completes with no error left; the queues are
  // finite, so this terminates.
  for (;;) {
    exec_->synchronize_all();
    try {
      exec_->check_async_error();
    } catch (...) {
      continue;
    }
    break;
  }
}

void Device::validate(const LaunchParams& p) const {
  // A launch from host code that finds the device lost here has run no
  // block yet; one from a kernel body or a stream op is part of other
  // work, which may have run blocks already.
  check_not_lost("kernel launch", !in_kernel() && !in_stream_op());
  if (fault_should_fire(FaultSite::kDeviceLost)) {
    // Thrown here, not re-read through check_not_lost: the device may be
    // reset by another thread in between, and this launch lost it.
    const std::string reason =
        "fault injection at launch of '" + std::string(p.name) + "'";
    const_cast<Device*>(this)->mark_lost(reason);
    throw DeviceLostError("kernel launch: device '" + cfg_.name +
                          "' is lost (" + reason + ")");
  }
  if (p.grid.count() == 0 || p.block.count() == 0)
    throw std::invalid_argument(std::string("launch '") + p.name +
                                "': empty grid or block");
  if (p.block.count() > cfg_.max_threads_per_block)
    throw std::invalid_argument(
        std::string("launch '") + p.name + "': block " + p.block.to_string() +
        " exceeds max_threads_per_block=" +
        std::to_string(cfg_.max_threads_per_block));
  if (p.dynamic_smem_bytes > cfg_.smem_per_block_max)
    throw std::invalid_argument(
        std::string("launch '") + p.name + "': dynamic shared memory " +
        std::to_string(p.dynamic_smem_bytes) + " exceeds per-block limit " +
        std::to_string(cfg_.smem_per_block_max));
}

void Device::resolve_launch(LaunchParams& params) const {
  validate(params);
  // Resolved once per launch: every block of this launch (and the
  // record/trace span) sees the same mode.
  if (params.mode != ExecMode::kCooperative ||
      exec_policy() == ExecPolicy::kFiber)
    return;
  const ExecHint hint = exec_hint(params.name);  // the launch's one lookup
  if (hint.convergent && !hint.needs_fibers) params.mode = ExecMode::kDirect;
}

double Device::run_resolved(const LaunchParams& params, const KernelFn& kernel,
                            LaunchRecord* rec) {
  std::chrono::steady_clock::time_point t0;
  if (rec != nullptr) t0 = std::chrono::steady_clock::now();
  const LaunchStats stats = run_blocks(params, kernel);
  const ModeledTime time =
      model_time(cfg_, params.profile, params.cost, stats,
                 static_cast<std::uint32_t>(params.block.count()),
                 params.dynamic_smem_bytes, costs_);
  // Modeled-time watchdog (the simulator's cudaErrorLaunchTimeout): a
  // launch whose modeled duration exceeds the budget fails instead of
  // being logged, so a runaway kernel surfaces as OMPX_ERROR_TIMEOUT.
  const double budget_ms = watchdog_ms();
  if (budget_ms > 0.0 && time.total_ms > budget_ms)
    throw TimeoutError("kernel '" + std::string(params.name) +
                       "' exceeded the watchdog budget: modeled " +
                       std::to_string(time.total_ms) + " ms > " +
                       std::to_string(budget_ms) + " ms");
  if (rec != nullptr) {
    rec->name = params.name;
    rec->grid = params.grid;
    rec->block = params.block;
    rec->exec_mode = exec_mode_name(params.mode);
    rec->stats = stats;
    rec->time = time;
    rec->wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (params.log) append_launch_record(*rec);
  }
  return time.total_ms;
}

LaunchRecord Device::launch_sync(const LaunchParams& caller_params,
                                 const KernelFn& kernel) {
  LaunchParams params = caller_params;
  resolve_launch(params);
  LaunchRecord rec;
  run_resolved(params, kernel, &rec);
  // Stream kernels are spanned by the executor (it knows the stream
  // track and modeled start); only direct host-synchronous launches
  // record here, on the device's sync track.
  if (profiling_enabled() && !telemetry_detail::t_in_stream_op)
    Profiler::instance().record(*this, kernel_span(rec));
  return rec;
}

LaunchStats Device::run_blocks(const LaunchParams& params,
                               const KernelFn& kernel) {
  const std::uint64_t nblocks = params.grid.count();
  // Blocks are independent (CUDA semantics: no inter-block ordering),
  // so participants pull chunks from a shared atomic queue instead of a
  // static partition: an irregular block (XSBench/RSBench lookups)
  // delays only its own chunk while the others keep stealing the rest.
  // Whether helpers join at all is decided by this launch's own first
  // blocks (BlockJob::run). Results are identical for any worker count
  // or chunk size.
  //
  // Launches running side by side on this device (serve slots, kernels
  // on several streams, host threads) share its workers: each thread on
  // its blocks, a launcher or a helper one posted, holds one, and a
  // launch posts helpers only for workers no other launch holds. With
  // more threads than cores on blocks, a launch waits out the OS time
  // slices of preempted helpers.
  const unsigned held_before =
      on_blocks_.fetch_add(1, std::memory_order_relaxed);
  struct Held {
    std::atomic<unsigned>& on_blocks;
    unsigned mine = 1;
    ~Held() { on_blocks.fetch_sub(mine, std::memory_order_relaxed); }
  } held{on_blocks_};
  const auto claim = [&](unsigned want) {
    unsigned cur = on_blocks_.load(std::memory_order_relaxed);
    unsigned give = 0;
    do {
      give = std::min(want, opts_.workers - std::min(opts_.workers, cur));
    } while (give > 0 && !on_blocks_.compare_exchange_weak(
                             cur, cur + give, std::memory_order_relaxed));
    held.mine += give;
    return give;
  };
  // A launch that finds every worker held runs alone and does not probe.
  const unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(
      opts_.workers - std::min(opts_.workers - 1, held_before), nblocks));
  const std::uint64_t chunk =
      n == 1 ? nblocks : std::max<std::uint64_t>(1, nblocks / (8ull * n));
  BlockJob job{*this, params, kernel, nblocks, chunk, launch_header(params)};
  HostPool::instance().run(job, n - 1, claim);
  return job.stats;
}

std::uint32_t split_extent(const Dim3& grid) {
  return std::max({grid.x, grid.y, grid.z});
}

LaunchParams slice_grid(const LaunchParams& whole, std::uint32_t begin,
                        std::uint32_t extent) {
  LaunchParams p = whole;
  p.logical_grid = whole.grid;
  p.log = false;
  const Dim3& g = whole.grid;
  if (g.x >= g.y && g.x >= g.z) {
    p.grid.x = extent;
    p.grid_offset.x = begin;
  } else if (g.y >= g.z) {
    p.grid.y = extent;
    p.grid_offset.y = begin;
  } else {
    p.grid.z = extent;
    p.grid_offset.z = begin;
  }
  return p;
}

RecordFold::RecordFold(const LaunchParams& whole, PartTiming timing)
    : timing_(timing) {
  rec_.name = whole.name;
  rec_.grid = whole.grid;
  rec_.block = whole.block;
}

void RecordFold::add(const LaunchRecord& part) {
  if (rec_.stats.blocks == 0) rec_.exec_mode = part.exec_mode;
  rec_.stats += part.stats;
  occ_weighted_ += part.time.occupancy * static_cast<double>(part.stats.blocks);
  const auto fold = [this](double& into, double ms) {
    into = timing_ == PartTiming::kSerial ? into + ms : std::max(into, ms);
  };
  fold(rec_.time.total_ms, part.time.total_ms);
  fold(rec_.time.compute_ms, part.time.compute_ms);
  fold(rec_.time.memory_ms, part.time.memory_ms);
  fold(rec_.time.shared_ms, part.time.shared_ms);
  fold(rec_.time.overhead_ms, part.time.overhead_ms);
}

void RecordFold::finish(double wall_ms) {
  if (rec_.stats.blocks != 0)
    rec_.time.occupancy =
        occ_weighted_ / static_cast<double>(rec_.stats.blocks);
  rec_.wall_ms = wall_ms;
}

Stream& Device::default_stream() { return exec_->default_stream(); }
Stream* Device::create_stream() { return exec_->create_stream(); }
Event* Device::create_event() { return exec_->create_event(); }
void Device::destroy_stream(Stream* stream) { exec_->destroy_stream(stream); }
void Device::destroy_event(Event* event) { exec_->destroy_event(event); }

void Device::synchronize() {
  check_not_lost("device synchronize");
  exec_->synchronize_all();
  exec_->check_async_error();
}

void Device::sync_for_host_op() {
  if (in_stream_op()) return;
  synchronize();
}

double Device::model_transfer_ms(std::uint64_t bytes) const {
  return simt::model_transfer_ms(cfg_, bytes, costs_);
}

double Device::model_device_copy_ms(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / (cfg_.mem_bw_gbps * 1e6);
}

void Device::enable_peer_access(const Device& peer) {
  if (&peer == this)
    throw std::invalid_argument("enable_peer_access: device is its own peer");
  std::lock_guard lock(peers_mu_);
  for (const Device* p : peers_)
    if (p == &peer) return;  // idempotent, unlike CUDA's AlreadyEnabled
  peers_.push_back(&peer);
}

void Device::disable_peer_access(const Device& peer) {
  std::lock_guard lock(peers_mu_);
  for (auto it = peers_.begin(); it != peers_.end(); ++it) {
    if (*it == &peer) {
      peers_.erase(it);
      return;
    }
  }
}

bool Device::peer_access_enabled(const Device& peer) const {
  std::lock_guard lock(peers_mu_);
  for (const Device* p : peers_)
    if (p == &peer) return true;
  return false;
}

std::vector<LaunchRecord> Device::launch_log() const {
  std::lock_guard lock(log_mu_);
  return log_;
}

LaunchRecord Device::last_launch() const {
  std::lock_guard lock(log_mu_);
  if (log_.empty()) throw std::logic_error("Device::last_launch: empty log");
  return log_.back();
}

void Device::append_launch_record(const LaunchRecord& rec) {
  std::lock_guard lock(log_mu_);
  log_.push_back(rec);
  kernel_ms_total_ += rec.time.total_ms;
}

void Device::clear_launch_log() {
  std::lock_guard lock(log_mu_);
  log_.clear();
  kernel_ms_total_ = 0.0;
  transfer_ms_total_ = 0.0;
}

double Device::modeled_kernel_ms_total() const {
  std::lock_guard lock(log_mu_);
  return kernel_ms_total_;
}

double Device::modeled_now_ms() const { return exec_->modeled_now_ms(); }

double Device::modeled_transfer_ms_total() const {
  std::lock_guard lock(log_mu_);
  return transfer_ms_total_;
}

void Device::add_transfer(std::uint64_t bytes) {
  const double ms = model_transfer_ms(bytes);
  {
    std::lock_guard lock(log_mu_);
    transfer_ms_total_ += ms;
  }
  // Stream memcpys are spanned by the executor; host-blocking transfers
  // (mapping layers, ompx_memcpy) record on the sync track here.
  if (profiling_enabled() && !telemetry_detail::t_in_stream_op) {
    TraceSpan span;
    span.kind = SpanKind::kMemcpy;
    span.name = "memcpy";
    span.dur_ms = ms;
    span.bytes = bytes;
    Profiler::instance().record(*this, span);
  }
}

void Device::add_transfer_ms(double ms, std::uint64_t bytes) {
  (void)bytes;  // accounted by the caller's span; kept for symmetry
  std::lock_guard lock(log_mu_);
  transfer_ms_total_ += ms;
}

DeviceConfig make_sim_a100_config() {
  DeviceConfig c;
  c.name = "sim-a100";
  c.vendor = Vendor::kNvidia;
  c.warp_size = 32;
  c.num_sms = 108;
  c.max_threads_per_block = 1024;
  c.max_threads_per_sm = 2048;
  c.max_blocks_per_sm = 32;
  c.regs_per_sm = 65536;
  c.smem_per_sm = 164 * 1024;
  c.smem_per_block_max = 48 * 1024;
  c.global_mem_bytes = 40ull << 30;
  c.clock_ghz = 1.41;
  c.fp_lanes_per_sm = 64;       // FP32 cores per SM (A100: 64)
  c.mem_bw_gbps = 1555.0;       // HBM2e
  c.shared_bw_gbps = 19400.0;   // 128 B/clk/SM aggregate
  c.link_bw_gbps = 64.0;        // PCIe 4.0 x16
  c.peer_bw_gbps = 300.0;       // NVLink 3.0, 6 links/GPU
  return c;
}

DeviceConfig make_sim_mi250_config() {
  DeviceConfig c;
  c.name = "sim-mi250";
  c.vendor = Vendor::kAmd;
  c.warp_size = 64;
  c.num_sms = 104;              // CUs of one MI250 GCD
  c.max_threads_per_block = 1024;
  c.max_threads_per_sm = 2048;
  c.max_blocks_per_sm = 32;
  c.regs_per_sm = 65536 * 2;    // CDNA2: 128 KB VGPR file per CU
  c.smem_per_sm = 64 * 1024;    // LDS per CU
  c.smem_per_block_max = 64 * 1024;
  c.global_mem_bytes = 64ull << 30;
  c.clock_ghz = 1.7;
  c.fp_lanes_per_sm = 64;
  c.mem_bw_gbps = 1638.0;       // HBM2e, one GCD
  c.shared_bw_gbps = 22600.0;
  c.link_bw_gbps = 64.0;
  c.peer_bw_gbps = 200.0;       // Infinity Fabric inter-GCD links
  return c;
}

std::vector<Device*>& device_registry() {
  static std::vector<Device*> reg = [] {
    // Intentionally leaked: host pool tasks work on these devices and
    // they must outlive any static-destruction-order user.
    auto* a100 = new Device(make_sim_a100_config());
    auto* mi250 = new Device(make_sim_mi250_config());
    return std::vector<Device*>{a100, mi250};
  }();
  return reg;
}

Device* resolve_device(const void* ptr) {
  if (ptr == nullptr) return nullptr;
  for (Device* d : device_registry())
    if (d->memory().contains(ptr)) return d;
  return nullptr;
}

int resolve_device_index(const void* ptr) {
  if (ptr == nullptr) return -1;
  const std::vector<Device*>& reg = device_registry();
  for (std::size_t i = 0; i < reg.size(); ++i)
    if (reg[i]->memory().contains(ptr)) return static_cast<int>(i);
  return -1;
}

double peer_copy(Device& dst_dev, void* dst, Device& src_dev, const void* src,
                 std::size_t bytes) {
  dst_dev.sync_for_host_op();
  if (&src_dev != &dst_dev) src_dev.sync_for_host_op();
  if (&dst_dev == &src_dev) {
    // Same device: an ordinary D2D copy at memory bandwidth.
    dst_dev.memory().copy(dst, src, bytes, CopyKind::kDeviceToDevice);
    return dst_dev.model_device_copy_ms(bytes);
  }
  dst_dev.check_not_lost("peer copy destination");
  src_dev.check_not_lost("peer copy source");
  src_dev.memory().validate_device_range(src, bytes, "peer copy source");
  dst_dev.memory().validate_device_range(dst, bytes, "peer copy destination");
  if (fault_should_fire(FaultSite::kPeerCopy))
    throw std::runtime_error("fault injection: peer copy of " +
                             std::to_string(bytes) + " byte(s) failed");
  std::memmove(dst, src, bytes);

  // Direct peer link if either endpoint can reach the other (CUDA
  // requires only one direction enabled for cudaMemcpyPeer to take the
  // fast path); otherwise two host-link legs, D2H then H2D.
  const bool direct = dst_dev.peer_access_enabled(src_dev) ||
                      src_dev.peer_access_enabled(dst_dev);
  const double ms =
      direct ? model_peer_transfer_ms(src_dev.config(), dst_dev.config(), bytes)
             : src_dev.model_transfer_ms(bytes) + dst_dev.model_transfer_ms(bytes);
  src_dev.add_transfer_ms(ms, bytes);
  dst_dev.add_transfer_ms(ms, bytes);

  if (profiling_enabled() && !telemetry_detail::t_in_stream_op) {
    // One span per endpoint, joined by a cross-device flow arrow (the
    // high bit keeps peer-copy ids disjoint from event flow ids).
    static std::atomic<std::uint64_t> next_flow{1};
    const std::uint64_t flow =
        (1ull << 63) | next_flow.fetch_add(1, std::memory_order_relaxed);
    const char* name = direct ? "memcpy P2P" : "memcpy P2P (via host)";
    TraceSpan out;
    out.kind = SpanKind::kMemcpy;
    out.name = name;
    out.dur_ms = ms;
    out.bytes = bytes;
    out.flow_id = flow;
    out.flow_out = true;
    Profiler::instance().record(src_dev, out);
    TraceSpan in = out;
    in.flow_out = false;
    Profiler::instance().record(dst_dev, in);
  }
  return ms;
}

Device& device_by_name(const std::string& name) {
  for (Device* d : device_registry())
    if (d->config().name == name) return *d;
  throw std::invalid_argument("unknown device: " + name);
}

Device& sim_a100() { return *device_registry()[0]; }
Device& sim_mi250() { return *device_registry()[1]; }

}  // namespace simt

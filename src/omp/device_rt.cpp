#include "omp/device_rt.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace omp {

namespace {
/// Charge globalization traffic for `bytes` of storage to the current
/// launch's statistics.
void charge_globalization(std::size_t bytes) {
  auto& t = simt::this_thread();
  t.block->counters_.globalized_bytes +=
      static_cast<std::uint64_t>(bytes) * kGlobalizationTrafficFactor;
}
}  // namespace

TeamCtx::TeamCtx(TeamState& ts, simt::ThreadCtx& main) : ts_(ts), main_(main) {
  if (main.flat_tid != 0)
    throw std::logic_error("TeamCtx constructed off the team main thread");
}

int TeamCtx::team_size() const {
  return static_cast<int>(main_.block_dim.count());
}

void TeamCtx::parallel(int nthreads, const ParallelFn& body) {
  const int team_threads = team_size();
  ts_.par_nthreads =
      nthreads <= 0 ? team_threads : std::min(nthreads, team_threads);
  simt::BlockState& block = *main_.block;
  block.counters_.parallel_handshakes++;
  block.count_barrier();  // release workers into the region
  block.run_lanes(main_, static_cast<std::uint32_t>(ts_.par_nthreads), body);
  block.count_barrier();  // join barrier
}

void TeamCtx::parallel_for(std::int64_t lb, std::int64_t ub,
                           const std::function<void(std::int64_t)>& body) {
  parallel(0, [&](int tid) {
    auto& t = simt::this_thread();
    t.block->counters_.workshare_dispatches++;
    const std::int64_t nth = ts_.par_nthreads;
    for (std::int64_t i = lb + tid; i < ub; i += nth) body(i);
  });
}

void TeamCtx::parallel_for_dynamic(std::int64_t lb, std::int64_t ub,
                                   std::int64_t chunk,
                                   const std::function<void(std::int64_t)>& body) {
  if (chunk <= 0) throw std::invalid_argument("dynamic schedule: chunk <= 0");
  ts_.dyn_next = lb;
  parallel(0, [&](int) {
    auto& t = simt::this_thread();
    while (true) {
      const std::int64_t start = simt::atomic_add(&ts_.dyn_next, chunk);
      if (start >= ub) break;
      t.block->counters_.workshare_dispatches++;
      const std::int64_t end = std::min(start + chunk, ub);
      for (std::int64_t i = start; i < end; ++i) body(i);
    }
  });
}

double TeamCtx::parallel_for_reduce(
    std::int64_t lb, std::int64_t ub,
    const std::function<double(std::int64_t)>& body) {
  // Partials live in team-shared storage (one slot per thread); the
  // main thread folds them after the join barrier — the reduction
  // lowering the OpenMP runtime emits for generic-mode regions.
  const int nthreads = team_size();
  auto* partials = static_cast<double*>(
      groupprivate(sizeof(double) * static_cast<std::size_t>(nthreads),
                   alignof(double)));
  parallel(0, [&](int tid) {
    auto& t = simt::this_thread();
    t.block->counters_.workshare_dispatches++;
    double acc = 0.0;
    for (std::int64_t i = lb + tid; i < ub; i += nthreads) acc += body(i);
    partials[tid] = acc;
  });
  double total = 0.0;
  for (int i = 0; i < nthreads; ++i) total += partials[i];
  return total;
}

void critical(const std::function<void()>& body, const char* name) {
  // Device-wide named locks, as the OpenMP critical construct defines.
  // Cooperative caveat (documented): the body must not block (no
  // barriers inside critical — non-conforming OpenMP anyway).
  static std::mutex registry_mu;
  static std::unordered_map<std::string, std::unique_ptr<std::mutex>> locks;
  std::mutex* lock = nullptr;
  {
    std::lock_guard g(registry_mu);
    auto& slot = locks[name];
    if (!slot) slot = std::make_unique<std::mutex>();
    lock = slot.get();
  }
  // note_atomic, not a bare counter bump: a kDirect lane past its
  // block's barrier must not enter a critical section either.
  if (simt::in_kernel()) simt::this_thread().block->note_atomic();
  std::lock_guard g(*lock);
  body();
}

void* TeamCtx::globalized(std::size_t bytes) {
  charge_globalization(bytes);
  ts_.globalized.push_back(std::make_unique<char[]>(bytes));
  return ts_.globalized.back().get();
}

void* TeamCtx::groupprivate(std::size_t bytes, std::size_t align) {
  return main_.block->shared_alloc(main_, bytes, align);
}

simt::KernelFn make_generic_kernel(TeamFn team_body) {
  return [team_body = std::move(team_body)] {
    auto& t = simt::this_thread();
    // Workers have nothing to wait for: each parallel region runs their
    // share as lanes of the main thread (TeamCtx::parallel).
    if (t.flat_tid != 0) return;
    // The team state block lives in shared memory, like the LLVM device
    // runtime's state.
    struct Destroy {
      void operator()(TeamState* ts) const { ts->~TeamState(); }
    };
    const std::unique_ptr<TeamState, Destroy> ts(new (t.block->shared_alloc(
        t, sizeof(TeamState), alignof(TeamState))) TeamState());
    t.block->count_barrier();  // state-machine init barrier
    TeamCtx ctx(*ts, t);
    team_body(ctx);
    t.block->count_barrier();  // final release: workers see the team done
  };
}

namespace {
/// Static blocking of [0, n) over teams, then cyclic over team threads:
/// the default `distribute parallel for` lowering.
struct LoopChunk {
  std::int64_t lb, ub;
};
LoopChunk team_chunk(std::int64_t n) {
  const std::int64_t teams = num_teams();
  const std::int64_t chunk = (n + teams - 1) / teams;
  const std::int64_t lb = static_cast<std::int64_t>(team_num()) * chunk;
  return {std::min(lb, n), std::min(lb + chunk, n)};
}
}  // namespace

simt::KernelFn make_spmd_loop_kernel(std::int64_t n,
                                     std::function<void(std::int64_t)> body) {
  return [n, body = std::move(body)] {
    auto& t = simt::this_thread();
    const LoopChunk c = team_chunk(n);
    t.block->counters_.workshare_dispatches++;
    const std::int64_t nth = num_threads();
    for (std::int64_t i = c.lb + thread_num(); i < c.ub; i += nth) body(i);
  };
}

simt::KernelFn make_spmd_loop_reduce_kernel(
    std::int64_t n, std::function<double(std::int64_t)> body, double* result) {
  return [n, body = std::move(body), result] {
    auto& t = simt::this_thread();
    const LoopChunk c = team_chunk(n);
    t.block->counters_.workshare_dispatches++;
    const std::int64_t nth = num_threads();
    double partial = 0.0;
    for (std::int64_t i = c.lb + thread_num(); i < c.ub; i += nth)
      partial += body(i);
    // Standard reduction lowering: shared scratch, tree over the team,
    // one device atomic per team.
    auto* scratch = static_cast<double*>(
        t.block->shared_alloc(t, sizeof(double) * nth, alignof(double)));
    scratch[thread_num()] = partial;
    t.block->sync_threads(t);
    if ((nth & (nth - 1)) == 0) {  // power-of-two team: tree reduce
      for (std::int64_t stride = nth / 2; stride > 0; stride /= 2) {
        if (thread_num() < stride)
          scratch[thread_num()] += scratch[thread_num() + stride];
        t.block->sync_threads(t);
      }
      if (thread_num() == 0) simt::atomic_add(result, scratch[0]);
    } else {  // odd team sizes: linear fold on thread 0
      if (thread_num() == 0) {
        double team_sum = 0.0;
        for (std::int64_t i = 0; i < nth; ++i) team_sum += scratch[i];
        simt::atomic_add(result, team_sum);
      }
    }
  };
}

std::unique_ptr<char[]> spmd_globalized_local(std::size_t bytes) {
  charge_globalization(bytes);
  return std::make_unique<char[]>(bytes);
}

}  // namespace omp

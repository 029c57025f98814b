// Host-side OpenMP target constructs (the directive layer).
//
// We have no compiler, so each directive maps 1:1 to a documented API
// call (see README.md for the pragma <-> API table):
//
//   #pragma omp target teams distribute parallel for
//       num_teams(G) thread_limit(B) map(to: a[0:n]) map(from: b[0:n])
//   for (i = 0; i < n; i++) body(i);
//
// becomes
//
//   omp::TargetClauses c; c.num_teams = G; c.thread_limit = B;
//   c.maps = {omp::map_to(a, n*sizeof(*a)), omp::map_from(b, n*sizeof(*b))};
//   omp::target_teams_distribute_parallel_for(c, n, [&](omp::DeviceEnv& env) {
//     auto* da = env.translate(a); auto* db = env.translate(b);
//     return [=](std::int64_t i) { db[i] = f(da[i]); };
//   });
//
// The factory runs once on the (emulated) device side with the mapped
// data environment — the library analogue of the compiler rewriting
// pointer uses inside the region — and returns the per-iteration body.
//
// nowait target regions run undeferred: OpenMP lets a target task
// execute at once on the encountering thread, and here the maps must
// be entered before the kernel can be built. Either way the region is
// launched on the device's default stream, so it stays in order with
// ompx/kl async work on that device. A non-empty `depends` list first
// waits for every registry device's default stream (omp/api.h).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "omp/api.h"
#include "omp/device_rt.h"
#include "omp/mapping.h"
#include "simt/simt.h"

namespace omp {

/// The device data environment of one target region. In host-fallback
/// mode (offload disabled) translation is the identity: the region
/// runs on the host against the original pointers.
class DeviceEnv {
 public:
  explicit DeviceEnv(MappingTable& table, bool host_mode = false)
      : table_(table), host_mode_(host_mode) {}

  /// Device pointer for a mapped host pointer; throws if not present
  /// (OpenMP would give the device garbage — we diagnose instead).
  template <typename T>
  T* translate(T* host) const {
    if (host_mode_) return host;
    void* p = table_.translate(host);
    if (p == nullptr)
      throw std::runtime_error("target region uses unmapped host pointer");
    return static_cast<T*>(p);
  }
  template <typename T>
  const T* translate(const T* host) const {
    return translate(const_cast<T*>(host));
  }

  MappingTable& mapping() const { return table_; }
  [[nodiscard]] bool host_mode() const { return host_mode_; }

 private:
  MappingTable& table_;
  bool host_mode_ = false;
};

/// Clauses of one target construct.
struct TargetClauses {
  simt::Device* device = nullptr;  ///< null = sim_a100 (device 0)
  int num_teams = 0;               ///< 0 = runtime default
  int thread_limit = 0;            ///< 0 = runtime default (128)
  std::vector<Map> maps;
  bool nowait = false;
  std::vector<Depend> depends;
  simt::CompilerProfile profile{.name = "llvm-clang"};
  simt::KernelCost cost;
  const char* name = "omp_target";
  /// SPMD body uses barriers / shared allocs -> run cooperatively.
  bool needs_sync = false;
  /// The device runtime's heap-to-shared optimization applies to this
  /// region's globalized storage (RSBench on sim-a100, §4.2.2).
  bool spill_in_shared = false;
  /// Reproduces the LLVM issue the paper hits in Adam (§4.2.5): the
  /// runtime cannot prove the parallel region's thread requirement and
  /// launches only 32 threads per team while keeping the team count.
  bool thread_limit_bug_32 = false;
};

/// Runtime default thread_limit, as in LLVM's generic-mode default.
constexpr int kDefaultThreadLimit = 128;
/// The fallback the thread_limit inference bug produces.
constexpr int kBuggyThreadLimit = 32;

using BodyFactory =
    std::function<std::function<void(std::int64_t)>(DeviceEnv&)>;
using ReduceBodyFactory =
    std::function<std::function<double(std::int64_t)>(DeviceEnv&)>;
using TeamBodyFactory = std::function<TeamFn(DeviceEnv&)>;

/// #pragma omp target teams distribute parallel for (SPMD mode).
void target_teams_distribute_parallel_for(const TargetClauses& c,
                                          std::int64_t n,
                                          BodyFactory make_body);

/// Same with reduction(+: result); returns the reduced value (a nowait
/// reduction runs undeferred like every nowait region).
double target_teams_distribute_parallel_for_reduce(const TargetClauses& c,
                                                   std::int64_t n,
                                                   ReduceBodyFactory make_body);

/// #pragma omp target teams (generic mode): `make_team_body` returns the
/// sequential team body, which may call TeamCtx::parallel/parallel_for.
void target_teams_generic(const TargetClauses& c, TeamBodyFactory make_team_body);

/// #pragma omp target data: RAII scope that maps on construction and
/// unmaps on destruction. Enclosed target regions find the data present
/// (reference counting makes their maps no-ops).
class TargetData {
 public:
  TargetData(simt::Device& dev, std::vector<Map> maps);
  ~TargetData();
  TargetData(const TargetData&) = delete;
  TargetData& operator=(const TargetData&) = delete;

  [[nodiscard]] DeviceEnv env() const;

 private:
  MappingTable& table_;
  std::vector<Map> maps_;
};

/// #pragma omp target enter data / exit data.
void target_enter_data(simt::Device& dev, const std::vector<Map>& maps);
void target_exit_data(simt::Device& dev, const std::vector<Map>& maps);

/// #pragma omp target update to(...) / from(...).
void target_update_to(simt::Device& dev, const void* host, std::size_t bytes);
void target_update_from(simt::Device& dev, void* host, std::size_t bytes);

/// omp_target_alloc / omp_target_free / omp_target_memcpy.
void* target_alloc(std::size_t bytes, simt::Device& dev);
void target_free(void* ptr, simt::Device& dev);
void target_memcpy(void* dst, const void* src, std::size_t bytes,
                   bool dst_on_device, bool src_on_device, simt::Device& dev);
bool target_is_present(const void* host, simt::Device& dev);

/// OMP_TARGET_OFFLOAD=DISABLED equivalent: when set, target regions
/// execute on the host — maps become no-ops (host pointers are used
/// directly) and loop bodies run sequentially on the calling thread.
/// This is OpenMP's portability escape hatch: the same program runs
/// with no device at all. Thread-local, like an ICV.
void set_offload_disabled(bool disabled);
bool offload_disabled();

/// Resolve the clause device (default: registry device 0).
simt::Device& resolve_device(const TargetClauses& c);

}  // namespace omp

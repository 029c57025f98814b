// OpenMP 5.1 interop objects (#pragma omp interop) and assorted
// host API equivalents.
//
// An interop object initialized with `targetsync` carries a foreign
// synchronization object — on CUDA/HIP plugins, a stream. The paper's
// §3.5 extension lets `depend(interopobj: obj)` route target regions
// into that stream; the routing itself lives in the ompx layer.
//
// nowait and depend ride on the same streams. Every nowait construct
// is an operation on its device's default stream, so constructs on one
// device already run in submission order; a construct with a depend
// list first waits for the default stream of every registry device,
// which also covers dependences across devices (over-ordering is
// allowed by OpenMP). taskwait waits for them all.
#pragma once

#include <cstdint>
#include <vector>

#include "simt/simt.h"

namespace omp {

/// omp_interop_t equivalent.
struct Interop {
  simt::Device* device = nullptr;
  simt::Stream* stream = nullptr;

  [[nodiscard]] bool valid() const { return stream != nullptr; }
};

/// omp_interop_none.
inline constexpr Interop interop_none{};

/// #pragma omp interop init(targetsync: obj) device(dev):
/// acquires a fresh stream from the device runtime.
inline Interop interop_init_targetsync(simt::Device& dev) {
  return Interop{&dev, dev.create_stream()};
}

/// #pragma omp interop destroy(obj): drains the stream, releases it
/// back to the device runtime, and invalidates the object.
inline void interop_destroy(Interop& obj) {
  if (obj.valid()) obj.device->destroy_stream(obj.stream);
  obj = interop_none;
}

/// omp_get_interop_ptr(obj, omp_ipr_targetsync): the raw stream.
inline simt::Stream* interop_targetsync_ptr(const Interop& obj) {
  return obj.stream;
}

enum class DepType : std::uint8_t { kIn, kOut, kInout };

/// One list item of a depend clause.
struct Depend {
  DepType type;
  const void* addr;
};

inline Depend dep_in(const void* p) { return {DepType::kIn, p}; }
inline Depend dep_out(const void* p) { return {DepType::kOut, p}; }
inline Depend dep_inout(const void* p) { return {DepType::kInout, p}; }

/// Honors a construct's depend list: when it is non-empty, waits for
/// the default stream of every registry device (see taskwait).
void wait_for_depends(const std::vector<Depend>& deps);

/// #pragma omp taskwait (no depend clause): waits for the default
/// stream of every registry device, then rethrows the first
/// asynchronous error any of them raised. A no-op on stream-executor
/// threads, where the op would wait on its own stream.
void taskwait();

}  // namespace omp

#include "core/ompx_host.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "rewrite/analyze.h"
#include "serve/serve.h"
#include "simt/capi.h"
#include "simt/device.h"
#include "simt/profiler.h"
#include "simt/stream.h"
#include "simt/memory.h"

namespace ompx {

void* malloc_on(simt::Device& dev, std::size_t bytes) {
  dev.check_not_lost("ompx malloc");
  return dev.memory().allocate(bytes);
}

void free_on(simt::Device& dev, void* ptr) {
  // Route to the owning device: freeing through the wrong current
  // device must not report "not a device pointer" (the original
  // single-device-registry bug). Unresolved pointers fall through to
  // `dev`, whose registry produces the invalid-free diagnostic.
  simt::Device* owner = simt::resolve_device(ptr);
  simt::Device& target = owner != nullptr ? *owner : dev;
  // Cross-API guard: a malloc_async block may already sit in (or be
  // destined for) the stream-ordered pool; freeing it here would leave
  // the pool holding a dangling pointer that trim double-frees.
  if (ptr != nullptr && target.mem_pool().is_async_live(ptr))
    throw std::invalid_argument(
        "ompx_free: pointer was allocated with ompx_malloc_async; use "
        "ompx_free_async on its stream (a cross-API free would corrupt "
        "the stream-ordered pool)");
  // An in-flight async launch may still be using the block.
  target.sync_for_host_op();
  target.memory().deallocate(ptr);
}

void memcpy_on(simt::Device& dev, void* dst, const void* src,
               std::size_t bytes) {
  // Resolve each endpoint against the whole registry, not just `dev`:
  // classifying a copy by a single device's registry misreads another
  // device's pointer as a host pointer (wrong direction, no transfer
  // accounting, memcheck false negatives).
  simt::Device* dst_dev = simt::resolve_device(dst);
  simt::Device* src_dev = simt::resolve_device(src);
  if (dst_dev != nullptr && src_dev != nullptr) {
    dst_dev->check_not_lost("ompx memcpy");
    src_dev->check_not_lost("ompx memcpy");
    // Same device: ordinary D2D. Two devices: a peer copy, costed with
    // the peer link (or host staging) and accounted on both devices.
    simt::peer_copy(*dst_dev, dst, *src_dev, src, bytes);
    return;
  }
  simt::Device* owner = dst_dev != nullptr ? dst_dev : src_dev;
  simt::CopyKind kind = dst_dev != nullptr ? simt::CopyKind::kHostToDevice
                                           : simt::CopyKind::kDeviceToHost;
  if (owner == nullptr) {
    owner = &dev;
    kind = simt::CopyKind::kHostToHost;
  }
  owner->check_not_lost("ompx memcpy");
  owner->sync_for_host_op();
  owner->memory().copy(dst, src, bytes, kind);
  if (kind != simt::CopyKind::kHostToHost) owner->add_transfer(bytes);
}

void memset_on(simt::Device& dev, void* ptr, int value, std::size_t bytes) {
  simt::Device* owner = simt::resolve_device(ptr);
  simt::Device& target = owner != nullptr ? *owner : dev;
  target.check_not_lost("ompx memset");
  target.sync_for_host_op();
  target.memory().set(ptr, value, bytes);
}

double memcpy_peer(simt::Device& dst_dev, void* dst, simt::Device& src_dev,
                   const void* src, std::size_t bytes) {
  return simt::peer_copy(dst_dev, dst, src_dev, src, bytes);
}

void device_synchronize(simt::Device& dev) { dev.synchronize(); }

bool is_device_ptr(simt::Device& dev, const void* ptr) {
  return dev.memory().contains(ptr);
}

Profiler::Profiler(std::string dump_path) : dump_path_(std::move(dump_path)) {
  start();
}

Profiler::~Profiler() {
  stop();
  if (!dump_path_.empty()) dump(dump_path_);
}

void Profiler::start() { simt::Profiler::instance().start(); }
void Profiler::stop() { simt::Profiler::instance().stop(); }
bool Profiler::enabled() { return simt::Profiler::instance().enabled(); }
void Profiler::reset() { simt::Profiler::instance().reset(); }

simt::ProfilerCounters Profiler::counters() {
  return simt::Profiler::instance().counters();
}

std::string Profiler::trace_json() {
  return simt::Profiler::instance().chrome_trace_json();
}

bool Profiler::dump(const std::string& path) {
  return simt::Profiler::instance().dump_chrome_trace(path);
}

}  // namespace ompx

namespace {

using LastResult = simt::capi::LastResult<ompx_result_t>;

/// The ompx code for each simt::capi::Failure.
constexpr simt::capi::CodeTable<ompx_result_t> kCodes = {
    OMPX_ERROR_DEVICE_LOST,        // kDeviceLost
    OMPX_ERROR_TIMEOUT,            // kTimeout
    OMPX_ERROR_ADMISSION,          // kAdmission
    OMPX_ERROR_OUT_OF_MEMORY,      // kDeviceOOM
    OMPX_ERROR_MEMORY_ALLOCATION,  // kHostAlloc
    OMPX_ERROR_INVALID_DEVICE,     // kInvalidDevice
    OMPX_ERROR_INVALID_VALUE,      // kInvalidValue
    OMPX_ERROR_LAUNCH_FAILURE,     // kLaunchFailure
    OMPX_ERROR_LAUNCH_FAILURE,     // kOtherStd
    OMPX_ERROR_UNKNOWN,            // kNonStandard
};

ompx_result_t record_result(ompx_result_t r, const char* what) {
  return LastResult::mine().record(r, what);
}

/// Runs `fn` with every escaping exception translated into an
/// ompx_result_t: nothing ever unwinds across the extern "C" boundary.
/// A success overwrites the thread's last result.
template <typename Fn>
ompx_result_t guarded(Fn&& fn) {
  try {
    fn();
    return record_result(OMPX_SUCCESS, nullptr);
  } catch (const ompx::result_error& e) {
    // A nested OMPX_REQUIRE (host callback re-entering the API); keep
    // the original code.
    return record_result(e.result(), e.what());
  } catch (...) {
    return LastResult::mine().record_current_exception(kCodes);
  }
}

using simt::capi::registry_device;

/// The live object behind a C-API handle. Null, destroyed and foreign
/// handles throw std::invalid_argument (OMPX_ERROR_INVALID_VALUE)
/// instead of being dereferenced.
simt::Graph& checked_graph(const char* who, ompx_graph_t handle) {
  return simt::capi::live(static_cast<simt::Graph*>(handle), who, "graph");
}

simt::Stream& checked_stream(const char* who, ompx_stream_t handle) {
  return simt::capi::live(static_cast<simt::Stream*>(handle), who, "stream");
}

simt::Event& checked_event(const char* who, ompx_event_t handle) {
  return simt::capi::live(static_cast<simt::Event*>(handle), who, "event");
}

serve::ClientContext& checked_client(const char* who, ompx_client_t handle) {
  auto* c = static_cast<serve::ClientContext*>(handle);
  if (!serve::Server::instance().is_live(c))
    simt::capi::throw_bad_handle(who, "client");
  return *c;
}

/// Launch geometry from the C ABI's optional unsigned[3] arrays (null
/// means 1x1x1).
simt::LaunchParams launch_params(const char* name, const unsigned grid[3],
                                 const unsigned block[3]) {
  simt::LaunchParams p;
  p.grid = grid != nullptr ? simt::Dim3{grid[0], grid[1], grid[2]}
                           : simt::Dim3{1, 1, 1};
  p.block = block != nullptr ? simt::Dim3{block[0], block[1], block[2]}
                             : simt::Dim3{1, 1, 1};
  p.name = name;
  return p;
}

/// `fn(arg)` as a kernel body; a null `fn` throws.
simt::KernelFn c_kernel(const char* who, void (*fn)(void*), void* arg) {
  if (fn == nullptr)
    throw std::invalid_argument(std::string(who) + ": null kernel function");
  return [fn, arg] { fn(arg); };
}

}  // namespace

namespace ompx {

namespace detail {
void throw_result_error(const char* expr, ompx_result_t result) {
  std::string msg = std::string(expr) + " -> " + ompx_result_string(result);
  const char* detail = ompx_last_result_detail();
  if (detail != nullptr && detail[0] != '\0')
    msg += std::string(" (") + detail + ")";
  throw result_error(result, msg);
}
}  // namespace detail

FaultScope::FaultScope(const std::string& spec)
    : had_previous_(simt::FaultInjector::instance().active()),
      previous_spec_(simt::FaultInjector::instance().spec()) {
  simt::FaultInjector::instance().enable(spec);
}

FaultScope::~FaultScope() {
  if (had_previous_)
    simt::FaultInjector::instance().enable(previous_spec_);
  else
    simt::FaultInjector::instance().disable();
}

}  // namespace ompx

extern "C" {

const char* ompx_result_string(ompx_result_t result) {
  switch (result) {
    case OMPX_SUCCESS: return "success";
    case OMPX_ERROR_INVALID_VALUE: return "invalid value";
    case OMPX_ERROR_MEMORY_ALLOCATION: return "memory allocation failure";
    case OMPX_ERROR_INVALID_DEVICE: return "invalid device index";
    case OMPX_ERROR_LAUNCH_FAILURE: return "launch failure";
    case OMPX_ERROR_OUT_OF_MEMORY: return "device out of memory";
    case OMPX_ERROR_DEVICE_LOST: return "device lost";
    case OMPX_ERROR_TIMEOUT: return "watchdog timeout";
    case OMPX_ERROR_ADMISSION: return "admission rejected";
    case OMPX_ERROR_UNKNOWN: return "unknown error";
  }
  return "unrecognized ompx_result_t";
}

ompx_result_t ompx_get_last_result(void) { return LastResult::mine().take(); }

ompx_result_t ompx_peek_last_result(void) { return LastResult::mine().peek(); }

const char* ompx_last_result_detail(void) {
  return LastResult::mine().detail();
}

void* ompx_malloc(std::size_t bytes) {
  void* p = nullptr;
  guarded([&] { p = ompx::malloc_on(ompx::default_device(), bytes); });
  return p;
}

ompx_result_t ompx_free(void* ptr) {
  return guarded([&] { ompx::free_on(ompx::default_device(), ptr); });
}

ompx_result_t ompx_memcpy(void* dst, const void* src, std::size_t bytes) {
  return guarded(
      [&] { ompx::memcpy_on(ompx::default_device(), dst, src, bytes); });
}

ompx_result_t ompx_memset(void* ptr, int value, std::size_t bytes) {
  return guarded(
      [&] { ompx::memset_on(ompx::default_device(), ptr, value, bytes); });
}

ompx_result_t ompx_device_synchronize() {
  return guarded([&] { ompx::device_synchronize(ompx::default_device()); });
}

int ompx_get_num_devices() {
  return static_cast<int>(simt::device_registry().size());
}

int ompx_get_device() { return ompx::default_device_index(); }

ompx_result_t ompx_set_device(int index) {
  return guarded([&] {
    ompx::set_default_device(registry_device(index, "ompx_set_device"));
  });
}

ompx_result_t ompx_memcpy_peer(void* dst, int dst_device, const void* src,
                               int src_device, std::size_t bytes) {
  return guarded([&] {
    simt::Device& ddev = registry_device(dst_device, "ompx_memcpy_peer");
    simt::Device& sdev = registry_device(src_device, "ompx_memcpy_peer");
    simt::peer_copy(ddev, dst, sdev, src, bytes);
  });
}

ompx_result_t ompx_device_enable_peer_access(int peer_device,
                                             unsigned int flags) {
  return guarded([&] {
    if (flags != 0)
      throw std::invalid_argument(
          "ompx_device_enable_peer_access: flags must be 0");
    ompx::default_device().enable_peer_access(
        registry_device(peer_device, "ompx_device_enable_peer_access"));
  });
}

ompx_result_t ompx_device_disable_peer_access(int peer_device) {
  return guarded([&] {
    ompx::default_device().disable_peer_access(
        registry_device(peer_device, "ompx_device_disable_peer_access"));
  });
}

ompx_result_t ompx_device_can_access_peer(int* can_access, int device,
                                          int peer_device) {
  return guarded([&] {
    if (can_access == nullptr)
      throw std::invalid_argument(
          "ompx_device_can_access_peer: null result pointer");
    const simt::Device& dev =
        registry_device(device, "ompx_device_can_access_peer");
    const simt::Device& peer =
        registry_device(peer_device, "ompx_device_can_access_peer");
    // Every simulated device can reach every other one (single process);
    // a device is not its own peer, as in CUDA.
    *can_access = &dev != &peer ? 1 : 0;
  });
}

ompx_stream_t ompx_stream_create() {
  void* s = nullptr;
  guarded([&] { s = ompx::default_device().create_stream(); });
  return s;
}

ompx_result_t ompx_stream_destroy(ompx_stream_t stream) {
  if (stream == nullptr) return record_result(OMPX_SUCCESS, nullptr);
  return guarded([&] {
    simt::Stream& s = checked_stream("ompx_stream_destroy", stream);
    s.device().destroy_stream(&s);
  });
}

ompx_result_t ompx_stream_synchronize(ompx_stream_t stream) {
  return guarded(
      [&] { checked_stream("ompx_stream_synchronize", stream).synchronize(); });
}

ompx_result_t ompx_memcpy_async(void* dst, const void* src, std::size_t bytes,
                                ompx_stream_t stream) {
  return guarded([&] {
    simt::Stream& s = checked_stream("ompx_memcpy_async", stream);
    // Direction inference is registry-wide, like ompx_memcpy. A true
    // cross-device pair cannot be expressed as a single-stream op;
    // execute it as a synchronous peer copy ordered after the stream's
    // pending work (the CUDA fallback for non-peer async copies is
    // also synchronous staging).
    simt::Device* dst_dev = simt::resolve_device(dst);
    simt::Device* src_dev = simt::resolve_device(src);
    if (dst_dev != nullptr && src_dev != nullptr && dst_dev != src_dev) {
      s.synchronize();
      simt::peer_copy(*dst_dev, dst, *src_dev, src, bytes);
      return;
    }
    simt::CopyKind kind;
    if (dst_dev != nullptr && src_dev != nullptr)
      kind = simt::CopyKind::kDeviceToDevice;
    else if (dst_dev != nullptr)
      kind = simt::CopyKind::kHostToDevice;
    else if (src_dev != nullptr)
      kind = simt::CopyKind::kDeviceToHost;
    else
      kind = simt::CopyKind::kHostToHost;
    s.memcpy_async(dst, src, bytes, kind);
  });
}

ompx_result_t ompx_memset_async(void* ptr, int value, std::size_t bytes,
                                ompx_stream_t stream) {
  return guarded([&] {
    checked_stream("ompx_memset_async", stream).memset_async(ptr, value, bytes);
  });
}

void* ompx_malloc_async(std::size_t bytes, ompx_stream_t stream) {
  void* p = nullptr;
  guarded([&] {
    p = checked_stream("ompx_malloc_async", stream).malloc_async(bytes);
  });
  return p;
}

ompx_result_t ompx_free_async(void* ptr, ompx_stream_t stream) {
  return guarded(
      [&] { checked_stream("ompx_free_async", stream).free_async(ptr); });
}

ompx_result_t ompx_mempool_get_stats(int device, ompx_mempool_stats_t* stats) {
  return guarded([&] {
    if (stats == nullptr)
      throw std::invalid_argument("ompx_mempool_get_stats: null out pointer");
    const simt::MemPoolStats s =
        registry_device(device, "ompx_mempool_get_stats").mem_pool().stats();
    stats->reuse_hits = s.reuse_hits;
    stats->misses = s.misses;
    stats->frees = s.frees;
    stats->bytes_reused = s.bytes_reused;
    stats->pooled_blocks = s.pooled_blocks;
    stats->pooled_bytes = s.pooled_bytes;
    stats->reclaimed_blocks = s.reclaimed_blocks;
    stats->reclaimed_bytes = s.reclaimed_bytes;
  });
}

ompx_result_t ompx_mempool_trim(int device) {
  return guarded([&] {
    simt::Device& dev = registry_device(device, "ompx_mempool_trim");
    // Quiesce first so no pending pooled op races the deallocation.
    dev.synchronize();
    dev.mem_pool().trim();
  });
}

/* ------------------------------------------------ serving (MPS-style) */

ompx_client_t ompx_client_create(int device,
                                 const ompx_client_limits_t* limits) {
  serve::ClientLimits l;
  if (limits != nullptr) {
    l.memory_quota_bytes = limits->memory_quota_bytes;
    l.max_pending = limits->max_pending;
    l.priority = limits->priority;
    l.weight = limits->weight;
  }
  void* out = nullptr;
  guarded([&] {
    simt::Device* dev =
        device >= 0 ? &registry_device(device, "ompx_client_create") : nullptr;
    out = serve::Server::instance().create_client(dev, l);
  });
  return out;
}

ompx_result_t ompx_client_destroy(ompx_client_t client) {
  return guarded([&] {
    serve::Server::instance().destroy_client(
        &checked_client("ompx_client_destroy", client));
  });
}

void* ompx_client_malloc(ompx_client_t client, std::size_t bytes) {
  void* p = nullptr;
  guarded(
      [&] { p = checked_client("ompx_client_malloc", client).malloc(bytes); });
  return p;
}

ompx_result_t ompx_client_free(ompx_client_t client, void* ptr) {
  return guarded([&] { checked_client("ompx_client_free", client).free(ptr); });
}

ompx_result_t ompx_client_launch_kernel(ompx_client_t client,
                                        void (*fn)(void*), void* arg,
                                        const unsigned grid[3],
                                        const unsigned block[3]) {
  return guarded([&] {
    checked_client("ompx_client_launch_kernel", client)
        .launch(launch_params("ompx_client_launch", grid, block),
                c_kernel("ompx_client_launch_kernel", fn, arg));
  });
}

ompx_result_t ompx_client_launch_async(ompx_client_t client,
                                       void (*fn)(void*), void* arg,
                                       const unsigned grid[3],
                                       const unsigned block[3]) {
  return guarded([&] {
    checked_client("ompx_client_launch_async", client)
        .submit(launch_params("ompx_client_launch", grid, block),
                c_kernel("ompx_client_launch_async", fn, arg));
  });
}

ompx_result_t ompx_client_synchronize(ompx_client_t client) {
  return guarded(
      [&] { checked_client("ompx_client_synchronize", client).synchronize(); });
}

ompx_result_t ompx_client_get_stats(ompx_client_t client,
                                    ompx_client_stats_t* stats) {
  return guarded([&] {
    if (stats == nullptr)
      throw std::invalid_argument("ompx_client_get_stats: null out pointer");
    const serve::ClientStats s =
        checked_client("ompx_client_get_stats", client).stats();
    stats->launches = s.launches;
    stats->launches_failed = s.launches_failed;
    stats->blocks_executed = s.blocks_executed;
    stats->quanta = s.quanta;
    stats->allocs = s.allocs;
    stats->frees = s.frees;
    stats->bytes_live = s.bytes_live;
    stats->bytes_peak = s.bytes_peak;
    stats->quota_rejections = s.quota_rejections;
    stats->admission_rejections = s.admission_rejections;
    stats->timeouts = s.timeouts;
    stats->device_losses = s.device_losses;
  });
}

ompx_result_t ompx_serve_set_quantum(unsigned blocks) {
  // Floored at one block by the server: a zero quantum could never
  // make progress.
  return guarded(
      [&] { serve::Server::instance().set_quantum_blocks(blocks); });
}

unsigned ompx_serve_quantum(void) {
  return serve::Server::instance().quantum_blocks();
}

ompx_result_t ompx_stream_begin_capture(ompx_stream_t stream) {
  return guarded([&] {
    checked_stream("ompx_stream_begin_capture", stream).begin_capture();
  });
}

ompx_result_t ompx_stream_end_capture(ompx_stream_t stream,
                                      ompx_graph_t* graph) {
  return guarded([&] {
    simt::Stream& s = checked_stream("ompx_stream_end_capture", stream);
    if (graph == nullptr) {
      // End the capture anyway (discarding it) so the stream is usable,
      // then report the bad out-param.
      if (s.capturing()) s.end_capture();
      throw std::invalid_argument(
          "ompx_stream_end_capture: null graph out pointer");
    }
    *graph = s.end_capture().release();
  });
}

int ompx_stream_is_capturing(ompx_stream_t stream) {
  if (!simt::stream_alive(static_cast<simt::Stream*>(stream))) return 0;
  int out = 0;
  guarded([&] {
    out = static_cast<simt::Stream*>(stream)->capturing() ? 1 : 0;
  });
  return out;
}

ompx_result_t ompx_graph_instantiate(ompx_graph_t graph) {
  return guarded(
      [&] { checked_graph("ompx_graph_instantiate", graph).instantiate(); });
}

ompx_result_t ompx_graph_launch(ompx_graph_t graph, ompx_stream_t stream) {
  return guarded([&] {
    simt::Graph& g = checked_graph("ompx_graph_launch", graph);
    checked_stream("ompx_graph_launch", stream).launch_graph(g);
  });
}

ompx_result_t ompx_graph_destroy(ompx_graph_t graph) {
  return guarded([&] {
    if (graph == nullptr) return;
    simt::destroy_graph(static_cast<simt::Graph*>(graph));
  });
}

ompx_result_t ompx_graph_node_count(ompx_graph_t graph, std::size_t* count) {
  return guarded([&] {
    if (count == nullptr)
      throw std::invalid_argument("ompx_graph_node_count: null out pointer");
    *count = checked_graph("ompx_graph_node_count", graph).node_count();
  });
}

ompx_result_t ompx_graph_get_nodes(ompx_graph_t graph,
                                   ompx_graph_node_info_t* nodes,
                                   std::size_t capacity, std::size_t* written) {
  return guarded([&] {
    if (written == nullptr || (nodes == nullptr && capacity != 0))
      throw std::invalid_argument("ompx_graph_get_nodes: null out pointer");
    const std::vector<simt::Graph::NodeInfo> infos =
        checked_graph("ompx_graph_get_nodes", graph).nodes();
    const std::size_t n = std::min(capacity, infos.size());
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i] = ompx_graph_node_info_t{};
      std::strncpy(nodes[i].kind, infos[i].kind.c_str(),
                   sizeof nodes[i].kind - 1);
      std::strncpy(nodes[i].name, infos[i].name.c_str(),
                   sizeof nodes[i].name - 1);
      nodes[i].bytes = infos[i].bytes;
    }
    *written = n;
  });
}

ompx_result_t ompx_launch_kernel(void (*fn)(void*), void* arg,
                                 const unsigned grid[3],
                                 const unsigned block[3],
                                 ompx_stream_t stream) {
  return guarded([&] {
    simt::KernelFn body = c_kernel("ompx_launch_kernel", fn, arg);
    simt::Stream& s = stream != nullptr
                          ? checked_stream("ompx_launch_kernel", stream)
                          : ompx::default_device().default_stream();
    s.launch(launch_params("ompx_launch_kernel", grid, block), std::move(body));
  });
}

ompx_event_t ompx_event_create() {
  void* e = nullptr;
  guarded([&] { e = ompx::default_device().create_event(); });
  return e;
}

ompx_result_t ompx_event_destroy(ompx_event_t event) {
  if (event == nullptr) return record_result(OMPX_SUCCESS, nullptr);
  return guarded([&] {
    simt::Event& e = checked_event("ompx_event_destroy", event);
    e.device().destroy_event(&e);
  });
}

ompx_result_t ompx_event_record(ompx_event_t event, ompx_stream_t stream) {
  return guarded([&] {
    simt::Event& e = checked_event("ompx_event_record", event);
    checked_stream("ompx_event_record", stream).record(e);
  });
}

ompx_result_t ompx_event_synchronize(ompx_event_t event) {
  return guarded(
      [&] { checked_event("ompx_event_synchronize", event).synchronize(); });
}

ompx_result_t ompx_stream_wait_event(ompx_stream_t stream,
                                     ompx_event_t event) {
  return guarded([&] {
    simt::Stream& s = checked_stream("ompx_stream_wait_event", stream);
    s.wait(checked_event("ompx_stream_wait_event", event));
  });
}

float ompx_event_elapsed_ms(ompx_event_t start, ompx_event_t stop) {
  float out = -1.0f;
  guarded([&] {
    simt::Event& e0 = checked_event("ompx_event_elapsed_ms", start);
    simt::Event& e1 = checked_event("ompx_event_elapsed_ms", stop);
    if (!e0.query() || !e1.query())
      throw std::invalid_argument("ompx_event_elapsed_ms: event not recorded");
    out = static_cast<float>(e1.modeled_ms() - e0.modeled_ms());
  });
  return out;
}

void ompx_profiler_start(void) { ompx::Profiler::start(); }
void ompx_profiler_stop(void) { ompx::Profiler::stop(); }
int ompx_profiler_enabled(void) { return ompx::Profiler::enabled() ? 1 : 0; }
void ompx_profiler_reset(void) { ompx::Profiler::reset(); }

int ompx_profiler_dump(const char* path) {
  if (path == nullptr) return -1;
  return ompx::Profiler::dump(path) ? 0 : -1;
}

int ompx_get_last_launch_info(ompx_launch_info_t* info) {
  if (info == nullptr) return -1;
  simt::LaunchRecord rec;
  if (guarded([&] { rec = ompx::launch_record(); }) != OMPX_SUCCESS)
    return -1;  // nothing launched yet
  *info = ompx_launch_info_t{};
  std::strncpy(info->name, rec.name.c_str(), sizeof info->name - 1);
  info->grid[0] = rec.grid.x;
  info->grid[1] = rec.grid.y;
  info->grid[2] = rec.grid.z;
  info->block[0] = rec.block.x;
  info->block[1] = rec.block.y;
  info->block[2] = rec.block.z;
  info->modeled_total_ms = rec.time.total_ms;
  info->modeled_compute_ms = rec.time.compute_ms;
  info->modeled_memory_ms = rec.time.memory_ms;
  info->modeled_overhead_ms = rec.time.overhead_ms;
  info->occupancy = rec.time.occupancy;
  info->wall_ms = rec.wall_ms;
  info->blocks = rec.stats.blocks;
  info->threads = rec.stats.threads;
  info->block_barriers = rec.stats.block_barriers;
  info->warp_collectives = rec.stats.warp_collectives;
  info->atomics = rec.stats.atomics;
  info->parallel_handshakes = rec.stats.parallel_handshakes;
  info->globalized_bytes = rec.stats.globalized_bytes;
  std::strncpy(info->exec_mode, rec.exec_mode.c_str(),
               sizeof info->exec_mode - 1);
  info->lane_loops = rec.stats.sched_lane_loops;
  return 0;
}

ompx_result_t ompx_set_exec_hint(const char* kernel, int convergent,
                                 int needs_fibers) {
  return guarded([&] {
    if (kernel == nullptr)
      throw std::invalid_argument("ompx_set_exec_hint: null kernel name");
    simt::set_exec_hint(kernel, {convergent != 0, needs_fibers != 0});
  });
}

ompx_result_t ompx_set_exec_hint_ex(const char* kernel, int convergent,
                                    int needs_fibers, int /*atomics_ok*/) {
  return ompx_set_exec_hint(kernel, convergent, needs_fibers);
}

ompx_result_t ompx_register_exec_hints(const char* source, int* registered) {
  return guarded([&] {
    if (source == nullptr)
      throw std::invalid_argument("ompx_register_exec_hints: null source");
    const int n = rewrite::register_exec_hints(source);
    if (registered != nullptr) *registered = n;
  });
}

void ompx_check_failed(const char* expr, const char* file, int line,
                       ompx_result_t result) {
  std::fprintf(stderr, "OMPX_CHECK failed at %s:%d: %s -> %s (%d)\n", file,
               line, expr, ompx_result_string(result),
               static_cast<int>(result));
  std::abort();
}

ompx_result_t ompx_fault_enable(const char* spec) {
  return guarded([&] {
    if (spec == nullptr) {
      simt::FaultInjector::instance().disable();
      return;
    }
    simt::FaultInjector::instance().enable(spec);
  });
}

ompx_result_t ompx_fault_disable(void) {
  return guarded([&] { simt::FaultInjector::instance().disable(); });
}

int ompx_fault_active(void) {
  return simt::FaultInjector::instance().active() ? 1 : 0;
}

unsigned long long ompx_fault_injected_count(void) {
  return simt::FaultInjector::instance().injected_count();
}

ompx_result_t ompx_device_reset(int device) {
  return guarded([&] { registry_device(device, "ompx_device_reset").reset(); });
}

ompx_result_t ompx_set_watchdog_ms(double ms) {
  return guarded([&] { simt::set_watchdog_ms(ms); });
}

double ompx_get_watchdog_ms(void) { return simt::watchdog_ms(); }

ompx_result_t ompx_set_exec_policy(const char* policy) {
  return guarded([&] {
    if (policy == nullptr)
      throw std::invalid_argument("ompx_set_exec_policy: null policy");
    const std::string p = policy;
    if (p == "fiber") simt::set_exec_policy(simt::ExecPolicy::kFiber);
    else if (p == "auto") simt::set_exec_policy(simt::ExecPolicy::kAuto);
    else
      throw std::invalid_argument(
          "ompx_set_exec_policy: expected fiber|auto, got '" + p + "'");
  });
}

}  // extern "C"

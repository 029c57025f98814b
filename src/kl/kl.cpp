#include "kl/kl.h"

#include <stdexcept>
#include <string>

#include "rewrite/analyze.h"
#include "serve/serve.h"
#include "simt/capi.h"

namespace kl {

namespace {

thread_local int t_device_index = 0;

using LastResult = simt::capi::LastResult<klError>;

/// The kl code for each simt::capi::Failure. Unlike ompx, device-capacity
/// exhaustion keeps reporting klErrorMemoryAllocation (the code CUDA apps
/// test for), and a std::exception that is neither a logic_error nor a
/// runtime_error is klErrorUnknown.
constexpr simt::capi::CodeTable<klError> kCodes = {
    klErrorDeviceLost,        // kDeviceLost
    klErrorTimeout,           // kTimeout
    klErrorAdmission,         // kAdmission
    klErrorMemoryAllocation,  // kDeviceOOM
    klErrorMemoryAllocation,  // kHostAlloc
    klErrorInvalidDevice,     // kInvalidDevice
    klErrorInvalidValue,      // kInvalidValue
    klErrorLaunchFailure,     // kLaunchFailure
    klErrorUnknown,           // kOtherStd
    klErrorUnknown,           // kNonStandard
};

klError record_error(klError e, const char* detail) {
  return LastResult::mine().record(e, detail);
}

/// Converts engine exceptions into runtime error codes at the ABI
/// boundary, the way the CUDA runtime does. A success leaves the
/// thread's last error in place (sticky until read).
template <typename F>
klError guarded(F&& f) {
  try {
    f();
    return klSuccess;
  } catch (...) {
    return LastResult::mine().record_current_exception(kCodes);
  }
}

using simt::capi::live;
using simt::capi::registry_device;

simt::CopyKind to_engine(klMemcpyKind k) {
  switch (k) {
    case klMemcpyHostToDevice: return simt::CopyKind::kHostToDevice;
    case klMemcpyDeviceToHost: return simt::CopyKind::kDeviceToHost;
    case klMemcpyDeviceToDevice: return simt::CopyKind::kDeviceToDevice;
    case klMemcpyHostToHost: return simt::CopyKind::kHostToHost;
  }
  return simt::CopyKind::kHostToHost;
}

}  // namespace

const char* klGetErrorString(klError e) {
  switch (e) {
    case klSuccess: return "klSuccess";
    case klErrorInvalidValue: return "klErrorInvalidValue";
    case klErrorMemoryAllocation: return "klErrorMemoryAllocation";
    case klErrorInvalidDevice: return "klErrorInvalidDevice";
    case klErrorLaunchFailure: return "klErrorLaunchFailure";
    case klErrorNotReady: return "klErrorNotReady";
    case klErrorDeviceLost: return "klErrorDeviceLost";
    case klErrorTimeout: return "klErrorTimeout";
    case klErrorAdmission: return "klErrorAdmission";
    case klErrorUnknown: return "klErrorUnknown";
  }
  return "klError(?)";
}

klError klGetLastError() { return LastResult::mine().take(); }

klError klPeekAtLastError() { return LastResult::mine().peek(); }

const char* klGetLastErrorDetail() { return LastResult::mine().detail(); }

klError klSetDevice(int index) {
  return guarded([&] {
    registry_device(index, "klSetDevice");
    t_device_index = index;
  });
}

klError klGetDevice(int* index) {
  if (index == nullptr) return record_error(klErrorInvalidValue, "null index");
  *index = t_device_index;
  return klSuccess;
}

klError klGetDeviceCount(int* count) {
  if (count == nullptr) return record_error(klErrorInvalidValue, "null count");
  *count = static_cast<int>(simt::device_registry().size());
  return klSuccess;
}

simt::Device& current_device() {
  return *simt::device_registry()[t_device_index];
}

namespace {

/// current_device() plus the lost check: every entry point that touches
/// device state directly fails with klErrorDeviceLost (via guarded)
/// instead of operating on a lost device.
simt::Device& usable_device(const char* who) {
  simt::Device& dev = current_device();
  dev.check_not_lost(who);
  return dev;
}

/// The stream a kl call runs on: null means the current device's default
/// stream; any other handle must be live (a destroyed or foreign one is
/// klErrorInvalidValue, never a dereference).
simt::Stream& stream_or_default(const char* who, klStream_t s) {
  return s != nullptr ? live(s, who, "stream")
                      : current_device().default_stream();
}

}  // namespace

klError klMalloc(void** ptr, std::size_t bytes) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;  // defensive: never leave the out-param dangling
  return guarded(
      [&] { *ptr = usable_device("klMalloc").memory().allocate(bytes); });
}

klError klFree(void* ptr) {
  return guarded([&] {
    auto& dev = usable_device("klFree");
    if (ptr != nullptr && dev.mem_pool().is_async_live(ptr))
      throw std::invalid_argument(
          "klFree: pointer was allocated with klMallocAsync; use "
          "klFreeAsync on its stream (a cross-API free would corrupt the "
          "stream-ordered pool)");
    dev.sync_for_host_op();  // an in-flight launch may still use the block
    dev.memory().deallocate(ptr);
  });
}

klError klMemcpy(void* dst, const void* src, std::size_t bytes,
                 klMemcpyKind kind) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpy");
    dev.sync_for_host_op();
    dev.memory().copy(dst, src, bytes, to_engine(kind));
    if (kind == klMemcpyHostToDevice || kind == klMemcpyDeviceToHost)
      dev.add_transfer(bytes);
  });
}

klError klMemcpyPeer(void* dst, int dst_device, const void* src,
                     int src_device, std::size_t bytes) {
  return guarded([&] {
    simt::Device& ddev = registry_device(dst_device, "klMemcpyPeer");
    simt::Device& sdev = registry_device(src_device, "klMemcpyPeer");
    simt::peer_copy(ddev, dst, sdev, src, bytes);
  });
}

klError klDeviceEnablePeerAccess(int peer_device, unsigned int flags) {
  if (flags != 0) return record_error(klErrorInvalidValue, "flags must be 0");
  return guarded([&] {
    current_device().enable_peer_access(
        registry_device(peer_device, "klDeviceEnablePeerAccess"));
  });
}

klError klDeviceDisablePeerAccess(int peer_device) {
  return guarded([&] {
    current_device().disable_peer_access(
        registry_device(peer_device, "klDeviceDisablePeerAccess"));
  });
}

klError klDeviceCanAccessPeer(int* can_access, int device, int peer_device) {
  if (can_access == nullptr)
    return record_error(klErrorInvalidValue, "null result pointer");
  return guarded([&] {
    const simt::Device& dev = registry_device(device, "klDeviceCanAccessPeer");
    const simt::Device& peer =
        registry_device(peer_device, "klDeviceCanAccessPeer");
    *can_access = &dev != &peer ? 1 : 0;
  });
}

klError klMemcpy2D(void* dst, std::size_t dpitch, const void* src,
                   std::size_t spitch, std::size_t width, std::size_t height,
                   klMemcpyKind kind) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpy2D");
    dev.sync_for_host_op();
    const std::size_t payload =
        dev.memory().copy_2d(dst, dpitch, src, spitch, width, height,
                             to_engine(kind));
    if (kind == klMemcpyHostToDevice || kind == klMemcpyDeviceToHost)
      dev.add_transfer(payload);
  });
}

klError klMemset(void* ptr, int value, std::size_t bytes) {
  return guarded([&] {
    auto& dev = usable_device("klMemset");
    dev.sync_for_host_op();
    dev.memory().set(ptr, value, bytes);
  });
}

klError klStreamCreate(klStream_t* stream) {
  if (stream == nullptr) return record_error(klErrorInvalidValue, "null stream");
  *stream = nullptr;
  return guarded([&] { *stream = current_device().create_stream(); });
}

klError klStreamDestroy(klStream_t stream) {
  if (stream == nullptr) return klSuccess;
  return guarded([&] {
    live(stream, "klStreamDestroy", "stream").device().destroy_stream(stream);
  });
}

klError klStreamSynchronize(klStream_t stream) {
  return guarded(
      [&] { stream_or_default("klStreamSynchronize", stream).synchronize(); });
}

klError klMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                      klMemcpyKind kind, klStream_t stream) {
  return guarded([&] {
    stream_or_default("klMemcpyAsync", stream)
        .memcpy_async(dst, src, bytes, to_engine(kind));
  });
}

klError klMemsetAsync(void* ptr, int value, std::size_t bytes,
                      klStream_t stream) {
  return guarded([&] {
    stream_or_default("klMemsetAsync", stream).memset_async(ptr, value, bytes);
  });
}

klError klMallocAsync(void** ptr, std::size_t bytes, klStream_t stream) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;
  return guarded([&] {
    *ptr = stream_or_default("klMallocAsync", stream).malloc_async(bytes);
  });
}

klError klClientCreate(klClient_t* client, int device) {
  if (client == nullptr) return record_error(klErrorInvalidValue, "null out");
  *client = nullptr;
  return guarded([&] {
    simt::Device* dev =
        device >= 0 ? &registry_device(device, "klClientCreate") : nullptr;
    *client = serve::Server::instance().create_client(dev);
  });
}

klError klClientDestroy(klClient_t client) {
  return guarded([&] {
    auto* c = static_cast<serve::ClientContext*>(client);
    serve::Server::instance().destroy_client(c);
  });
}

klError klFreeAsync(void* ptr, klStream_t stream) {
  return guarded(
      [&] { stream_or_default("klFreeAsync", stream).free_async(ptr); });
}

klError klStreamBeginCapture(klStream_t stream) {
  if (stream == nullptr)
    return record_error(klErrorInvalidValue,
                        "klStreamBeginCapture: the default stream cannot be "
                        "captured; pass a created stream");
  return guarded([&] {
    live(stream, "klStreamBeginCapture", "stream").begin_capture();
  });
}

klError klStreamEndCapture(klStream_t stream, klGraph_t* graph) {
  if (stream == nullptr)
    return record_error(klErrorInvalidValue, "null stream");
  return guarded([&] {
    simt::Stream& s = live(stream, "klStreamEndCapture", "stream");
    if (graph == nullptr) {
      // End the capture anyway (discarding it) so the stream is usable.
      if (s.capturing()) s.end_capture();
      throw std::invalid_argument("null graph out pointer");
    }
    *graph = s.end_capture().release();
  });
}

klError klGraphInstantiate(klGraph_t graph) {
  return guarded(
      [&] { live(graph, "klGraphInstantiate", "graph").instantiate(); });
}

klError klGraphLaunch(klGraph_t graph, klStream_t stream) {
  return guarded([&] {
    simt::Graph& g = live(graph, "klGraphLaunch", "graph");
    auto& s = stream != nullptr ? live(stream, "klGraphLaunch", "stream")
                                : g.device().default_stream();
    s.launch_graph(g);
  });
}

klError klGraphDestroy(klGraph_t graph) {
  if (graph == nullptr) return klSuccess;
  return guarded([&] { simt::destroy_graph(graph); });
}

klError klMallocConstant(void** ptr, std::size_t bytes) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  *ptr = nullptr;
  return guarded([&] {
    *ptr = usable_device("klMallocConstant").constant_memory().allocate(bytes);
  });
}

klError klMemcpyToSymbol(void* symbol, const void* src, std::size_t bytes) {
  return guarded([&] {
    auto& dev = usable_device("klMemcpyToSymbol");
    dev.sync_for_host_op();  // in-flight kernels read the old symbol value
    dev.constant_memory().copy(symbol, src, bytes,
                               simt::CopyKind::kHostToDevice);
    dev.add_transfer(bytes);
  });
}

klError klFreeConstant(void* ptr) {
  return guarded([&] {
    usable_device("klFreeConstant").constant_memory().deallocate(ptr);
  });
}

klError klEventCreate(klEvent_t* ev) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  *ev = nullptr;
  return guarded([&] { *ev = current_device().create_event(); });
}

klError klEventDestroy(klEvent_t ev) {
  if (ev == nullptr) return klSuccess;
  return guarded(
      [&] { live(ev, "klEventDestroy", "event").device().destroy_event(ev); });
}

klError klEventRecord(klEvent_t ev, klStream_t stream) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  return guarded([&] {
    simt::Event& e = live(ev, "klEventRecord", "event");
    stream_or_default("klEventRecord", stream).record(e);
  });
}

klError klEventSynchronize(klEvent_t ev) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  return guarded(
      [&] { live(ev, "klEventSynchronize", "event").synchronize(); });
}

klError klEventElapsedTime(float* ms, klEvent_t start, klEvent_t stop) {
  if (ms == nullptr || start == nullptr || stop == nullptr)
    return record_error(klErrorInvalidValue, "null argument");
  const klError e = guarded([&] {
    live(start, "klEventElapsedTime", "event");
    live(stop, "klEventElapsedTime", "event");
  });
  if (e != klSuccess) return e;
  if (!start->query() || !stop->query())
    return record_error(klErrorNotReady, "event not recorded");
  *ms = static_cast<float>(stop->modeled_ms() - start->modeled_ms());
  return klSuccess;
}

klError klDeviceSynchronize() {
  return guarded([&] { current_device().synchronize(); });
}

klError klDeviceReset() {
  // Deliberately NOT lost-checked: this is the recovery path.
  return guarded([&] { current_device().reset(); });
}

klError klFaultInject(const char* spec) {
  return guarded([&] {
    if (spec == nullptr) {
      simt::FaultInjector::instance().disable();
      return;
    }
    simt::FaultInjector::instance().enable(spec);
  });
}

klError klSetWatchdogMs(double ms) {
  return guarded([&] { simt::set_watchdog_ms(ms); });
}

klError klProfilerStart() {
  return guarded([] { simt::Profiler::instance().start(); });
}

klError klProfilerStop() {
  return guarded([] { simt::Profiler::instance().stop(); });
}

klError klProfilerDump(const char* path) {
  if (path == nullptr) return record_error(klErrorInvalidValue, "null path");
  return guarded([&] {
    if (!simt::Profiler::instance().dump_chrome_trace(path))
      throw std::runtime_error(std::string("cannot write trace to ") + path);
  });
}

klError klSanEnable(const char* checks) {
  return guarded(
      [&] { simt::San::instance().enable(simt::San::parse_checks(checks)); });
}

klError klSanDisable() {
  return guarded([] { simt::San::instance().disable(); });
}

klError klSanReport(unsigned long long* errors) {
  return guarded([&] {
    const std::uint64_t n = simt::San::instance().print_report();
    if (errors != nullptr) *errors = n;
  });
}

klError klSetKernelExecHint(const char* kernel, int convergent,
                            int needs_fibers) {
  if (kernel == nullptr)
    return record_error(klErrorInvalidValue, "null kernel name");
  return guarded([&] {
    simt::set_exec_hint(kernel, {convergent != 0, needs_fibers != 0});
  });
}

klError klRegisterExecHints(const char* source, int* registered) {
  if (source == nullptr)
    return record_error(klErrorInvalidValue, "null source");
  return guarded([&] {
    const int n = rewrite::register_exec_hints(source);
    if (registered != nullptr) *registered = n;
  });
}

namespace detail {
klError launch_erased(const simt::LaunchParams& p, klStream_t stream,
                      simt::KernelFn fn) {
  return guarded([&] {
    stream_or_default("kl::launch", stream).launch(p, std::move(fn));
  });
}
}  // namespace detail

}  // namespace kl

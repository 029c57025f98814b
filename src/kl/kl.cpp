#include "kl/kl.h"

#include <stdexcept>
#include <string>

#include "rewrite/analyze.h"
#include "serve/serve.h"

namespace kl {

namespace {

thread_local int t_device_index = 0;
thread_local klError t_last_error = klSuccess;
thread_local std::string t_last_detail;

klError record_error(klError e, const std::string& detail) {
  t_last_error = e;
  t_last_detail = detail;
  return e;
}

/// Converts engine exceptions into runtime error codes at the ABI
/// boundary, the way the CUDA runtime does.
template <typename F>
klError guarded(F&& f) {
  try {
    f();
    return klSuccess;
  } catch (const simt::DeviceLostError& e) {
    return record_error(klErrorDeviceLost, e.what());
  } catch (const simt::TimeoutError& e) {
    return record_error(klErrorTimeout, e.what());
  } catch (const simt::AdmissionError& e) {
    return record_error(klErrorAdmission, e.what());
  } catch (const std::bad_alloc& e) {
    // Includes simt::DeviceOOMError: device-capacity exhaustion keeps
    // reporting klErrorMemoryAllocation, like cudaErrorMemoryAllocation.
    return record_error(klErrorMemoryAllocation, e.what());
  } catch (const std::invalid_argument& e) {
    return record_error(klErrorInvalidValue, e.what());
  } catch (const std::out_of_range& e) {
    return record_error(klErrorInvalidValue, e.what());
  } catch (const std::logic_error& e) {
    return record_error(klErrorLaunchFailure, e.what());
  } catch (const std::runtime_error& e) {
    return record_error(klErrorLaunchFailure, e.what());
  } catch (const std::exception& e) {
    return record_error(klErrorUnknown, e.what());
  } catch (...) {
    return record_error(klErrorUnknown, "non-standard exception");
  }
}

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

klError klGetLastError() {
  const klError e = t_last_error;
  t_last_error = klSuccess;
  return e;
}

klError klPeekAtLastError() { return t_last_error; }

const char* klGetLastErrorDetail() { return t_last_detail.c_str(); }

klError klSetDevice(int index) {
  const auto& reg = simt::device_registry();
  if (index < 0 || index >= static_cast<int>(reg.size()))
    return record_error(klErrorInvalidDevice,
                        "device index " + std::to_string(index));
  t_device_index = index;
  return klSuccess;
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

/// Handle validation against the live registries: a destroyed or
/// foreign handle is a clean klErrorInvalidValue, never a dereference.
/// Null is legal where the API gives it default-stream / no-op meaning,
/// so null passes here and each entry point keeps its own null policy.
bool bad_stream(klStream_t s) {
  return s != nullptr && !simt::stream_alive(s);
}
bool bad_event(klEvent_t ev) {
  return ev != nullptr && !simt::event_alive(ev);
}
constexpr const char* kBadStream = "invalid or destroyed stream handle";
constexpr const char* kBadEvent = "invalid or destroyed event handle";

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

namespace {
simt::Device* checked_device(int index, klError* err) {
  const auto& reg = simt::device_registry();
  if (index < 0 || index >= static_cast<int>(reg.size())) {
    *err = record_error(klErrorInvalidDevice,
                        "device index " + std::to_string(index));
    return nullptr;
  }
  return reg[static_cast<std::size_t>(index)];
}
}  // namespace

klError klMemcpyPeer(void* dst, int dst_device, const void* src,
                     int src_device, std::size_t bytes) {
  klError err = klSuccess;
  simt::Device* ddev = checked_device(dst_device, &err);
  if (ddev == nullptr) return err;
  simt::Device* sdev = checked_device(src_device, &err);
  if (sdev == nullptr) return err;
  return guarded([&] {
    ddev->sync_for_host_op();
    if (sdev != ddev) sdev->sync_for_host_op();
    simt::peer_copy(*ddev, dst, *sdev, src, bytes);
  });
}

klError klDeviceEnablePeerAccess(int peer_device, unsigned int flags) {
  if (flags != 0) return record_error(klErrorInvalidValue, "flags must be 0");
  klError err = klSuccess;
  simt::Device* peer = checked_device(peer_device, &err);
  if (peer == nullptr) return err;
  return guarded([&] { current_device().enable_peer_access(*peer); });
}

klError klDeviceDisablePeerAccess(int peer_device) {
  klError err = klSuccess;
  simt::Device* peer = checked_device(peer_device, &err);
  if (peer == nullptr) return err;
  return guarded([&] { current_device().disable_peer_access(*peer); });
}

klError klDeviceCanAccessPeer(int* can_access, int device, int peer_device) {
  if (can_access == nullptr)
    return record_error(klErrorInvalidValue, "null result pointer");
  klError err = klSuccess;
  simt::Device* dev = checked_device(device, &err);
  if (dev == nullptr) return err;
  simt::Device* peer = checked_device(peer_device, &err);
  if (peer == nullptr) return err;
  *can_access = dev != peer ? 1 : 0;
  return klSuccess;
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
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] { stream->device().destroy_stream(stream); });
}

klError klStreamSynchronize(klStream_t stream) {
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    (stream != nullptr ? *stream : current_device().default_stream())
        .synchronize();
  });
}

klError klMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                      klMemcpyKind kind, klStream_t stream) {
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    s.memcpy_async(dst, src, bytes, to_engine(kind));
  });
}

klError klMemsetAsync(void* ptr, int value, std::size_t bytes,
                      klStream_t stream) {
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    s.memset_async(ptr, value, bytes);
  });
}

klError klMallocAsync(void** ptr, std::size_t bytes, klStream_t stream) {
  if (ptr == nullptr) return record_error(klErrorInvalidValue, "null ptr");
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  *ptr = nullptr;
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    *ptr = s.malloc_async(bytes);
  });
}

klError klClientCreate(klClient_t* client, int device) {
  if (client == nullptr) return record_error(klErrorInvalidValue, "null out");
  *client = nullptr;
  const auto& reg = simt::device_registry();
  if (device >= static_cast<int>(reg.size()))
    return record_error(klErrorInvalidDevice,
                        "device index " + std::to_string(device));
  return guarded([&] {
    simt::Device* dev =
        device >= 0 ? reg[static_cast<std::size_t>(device)] : nullptr;
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
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    s.free_async(ptr);
  });
}

klError klStreamBeginCapture(klStream_t stream) {
  if (stream == nullptr)
    return record_error(klErrorInvalidValue,
                        "klStreamBeginCapture: the default stream cannot be "
                        "captured; pass a created stream");
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] { stream->begin_capture(); });
}

klError klStreamEndCapture(klStream_t stream, klGraph_t* graph) {
  if (stream == nullptr)
    return record_error(klErrorInvalidValue, "null stream");
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  if (graph == nullptr) {
    // End the capture anyway (discarding it) so the stream is usable.
    guarded([&] {
      if (stream->capturing()) stream->end_capture();
    });
    return record_error(klErrorInvalidValue, "null graph out pointer");
  }
  return guarded([&] { *graph = stream->end_capture().release(); });
}

namespace {
klError check_graph(klGraph_t graph) {
  if (graph == nullptr || !simt::graph_alive(graph))
    return record_error(klErrorInvalidValue,
                        "invalid or destroyed graph handle");
  return klSuccess;
}
}  // namespace

klError klGraphInstantiate(klGraph_t graph) {
  const klError e = check_graph(graph);
  if (e != klSuccess) return e;
  return guarded([&] { graph->instantiate(); });
}

klError klGraphLaunch(klGraph_t graph, klStream_t stream) {
  const klError e = check_graph(graph);
  if (e != klSuccess) return e;
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s =
        stream != nullptr ? *stream : graph->device().default_stream();
    s.launch_graph(*graph);
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
  if (bad_event(ev)) return record_error(klErrorInvalidValue, kBadEvent);
  return guarded([&] { ev->device().destroy_event(ev); });
}

klError klEventRecord(klEvent_t ev, klStream_t stream) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  if (bad_event(ev)) return record_error(klErrorInvalidValue, kBadEvent);
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    s.record(*ev);
  });
}

klError klEventSynchronize(klEvent_t ev) {
  if (ev == nullptr) return record_error(klErrorInvalidValue, "null event");
  if (bad_event(ev)) return record_error(klErrorInvalidValue, kBadEvent);
  return guarded([&] { ev->synchronize(); });
}

klError klEventElapsedTime(float* ms, klEvent_t start, klEvent_t stop) {
  if (ms == nullptr || start == nullptr || stop == nullptr)
    return record_error(klErrorInvalidValue, "null argument");
  if (bad_event(start) || bad_event(stop))
    return record_error(klErrorInvalidValue, kBadEvent);
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
  if (bad_stream(stream)) return record_error(klErrorInvalidValue, kBadStream);
  return guarded([&] {
    auto& s = stream != nullptr ? *stream : current_device().default_stream();
    s.launch(p, std::move(fn));
  });
}
}  // namespace detail

}  // namespace kl

// C-ABI error-contract conformance tests.
//
// Every ompx_* / kl* entry point must be exception-free across the C
// boundary and must honor the written contract: null out-params and
// bad indices report INVALID_VALUE / INVALID_DEVICE, destroyed handles
// are caught by the live registry instead of invoking UB, enumeration
// is two-call with explicit capacity, and the last-result slot is
// per-thread. These tests pin the contract entry point by entry point.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/ompx.h"
#include "kl/kl.h"

namespace {

using namespace kl;

// The contract rules both ABIs share, written once and run against each
// through a small traits struct (a compliance-catalogue layout): a rule
// holds for ompx_* and kl* alike, and where the ABIs deliberately
// differ the difference is a traits constant, not a second test body.
struct OmpxAbi {
  using Code = ompx_result_t;
  static constexpr const char* kName = "Ompx";
  static constexpr Code kSuccess = OMPX_SUCCESS;
  static constexpr Code kInvalidValue = OMPX_ERROR_INVALID_VALUE;
  static constexpr Code kInvalidDevice = OMPX_ERROR_INVALID_DEVICE;
  static constexpr Code kNotRecorded = OMPX_ERROR_INVALID_VALUE;
  static constexpr int kBadDevice = -1;
  static constexpr Code kCodes[] = {
      OMPX_SUCCESS,
      OMPX_ERROR_INVALID_VALUE,
      OMPX_ERROR_MEMORY_ALLOCATION,
      OMPX_ERROR_INVALID_DEVICE,
      OMPX_ERROR_LAUNCH_FAILURE,
      OMPX_ERROR_OUT_OF_MEMORY,
      OMPX_ERROR_DEVICE_LOST,
      OMPX_ERROR_TIMEOUT,
      OMPX_ERROR_ADMISSION,
      OMPX_ERROR_UNKNOWN,
  };
  static const char* str(Code c) { return ompx_result_string(c); }
  static Code take() { return ompx_get_last_result(); }
  static Code peek() { return ompx_peek_last_result(); }
  static const char* detail() { return ompx_last_result_detail(); }
  static Code set_device(int index) { return ompx_set_device(index); }
  static void* malloc(std::size_t bytes) { return ompx_malloc(bytes); }
  static Code free(void* p) { return ompx_free(p); }
  static Code to_host(void* dst, const void* src, std::size_t bytes) {
    return ompx_memcpy(dst, src, bytes);
  }
  static Code memcpy_peer(void* dst, int dst_device, const void* src,
                          int src_device, std::size_t bytes) {
    return ompx_memcpy_peer(dst, dst_device, src, src_device, bytes);
  }
  /// A 1x1x1 launch of `fn(arg)`, async on the default stream.
  static Code launch(void (*fn)(void*), void* arg) {
    return ompx_launch_kernel(fn, arg, nullptr, nullptr, nullptr);
  }
  static void* stream_create() { return ompx_stream_create(); }
  static Code stream_destroy(void* s) {
    return ompx_stream_destroy(static_cast<ompx_stream_t>(s));
  }
  static Code stream_synchronize(void* s) {
    return ompx_stream_synchronize(s);
  }
  static Code begin_capture(void* s) { return ompx_stream_begin_capture(s); }
  static Code memset_async(void* p, int v, std::size_t n, void* s) {
    return ompx_memset_async(p, v, n, s);
  }
  static void* event_create() { return ompx_event_create(); }
  static Code event_destroy(void* e) { return ompx_event_destroy(e); }
  static Code event_record(void* e, void* s) { return ompx_event_record(e, s); }
  static Code event_synchronize(void* e) { return ompx_event_synchronize(e); }
  /// -1 when the elapsed time is unavailable.
  static float event_elapsed_ms(void* start, void* stop) {
    return ompx_event_elapsed_ms(start, stop);
  }
  /// ompx only: kl has no stream-wait-event entry point.
  static Code stream_wait_event(void* s, void* e) {
    return ompx_stream_wait_event(s, e);
  }
};

struct KlAbi {
  using Code = klError;
  static constexpr const char* kName = "Kl";
  static constexpr Code kSuccess = klSuccess;
  static constexpr Code kInvalidValue = klErrorInvalidValue;
  static constexpr Code kInvalidDevice = klErrorInvalidDevice;
  static constexpr Code kNotRecorded = klErrorNotReady;
  static constexpr int kBadDevice = -7;
  static constexpr Code kCodes[] = {
      klSuccess,          klErrorInvalidValue, klErrorMemoryAllocation,
      klErrorInvalidDevice, klErrorLaunchFailure, klErrorNotReady,
      klErrorDeviceLost,  klErrorTimeout,      klErrorAdmission,
      klErrorUnknown,
  };
  static const char* str(Code c) { return klGetErrorString(c); }
  static Code take() { return klGetLastError(); }
  static Code peek() { return klPeekAtLastError(); }
  static const char* detail() { return klGetLastErrorDetail(); }
  static Code set_device(int index) { return klSetDevice(index); }
  static void* malloc(std::size_t bytes) {
    void* p = nullptr;
    return klMalloc(&p, bytes) == klSuccess ? p : nullptr;
  }
  static Code free(void* p) { return klFree(p); }
  static Code to_host(void* dst, const void* src, std::size_t bytes) {
    return klMemcpy(dst, src, bytes, klMemcpyDeviceToHost);
  }
  static Code memcpy_peer(void* dst, int dst_device, const void* src,
                          int src_device, std::size_t bytes) {
    return klMemcpyPeer(dst, dst_device, src, src_device, bytes);
  }
  static Code launch(void (*fn)(void*), void* arg) {
    return kl::launch(simt::Dim3(1), simt::Dim3(1), [fn, arg] { fn(arg); });
  }
  static void* stream_create() {
    klStream_t s = nullptr;
    return klStreamCreate(&s) == klSuccess ? s : nullptr;
  }
  static Code stream_destroy(void* s) {
    return klStreamDestroy(static_cast<klStream_t>(s));
  }
  static Code stream_synchronize(void* s) {
    return klStreamSynchronize(static_cast<klStream_t>(s));
  }
  static Code begin_capture(void* s) {
    return klStreamBeginCapture(static_cast<klStream_t>(s));
  }
  static Code memset_async(void* p, int v, std::size_t n, void* s) {
    return klMemsetAsync(p, v, n, static_cast<klStream_t>(s));
  }
  static void* event_create() {
    klEvent_t e = nullptr;
    return klEventCreate(&e) == klSuccess ? e : nullptr;
  }
  static Code event_destroy(void* e) {
    return klEventDestroy(static_cast<klEvent_t>(e));
  }
  static Code event_record(void* e, void* s) {
    return klEventRecord(static_cast<klEvent_t>(e), static_cast<klStream_t>(s));
  }
  static Code event_synchronize(void* e) {
    return klEventSynchronize(static_cast<klEvent_t>(e));
  }
  static float event_elapsed_ms(void* start, void* stop) {
    float ms = -1.0f;
    (void)klEventElapsedTime(&ms, static_cast<klEvent_t>(start),
                             static_cast<klEvent_t>(stop));
    return ms;
  }
};

template <typename Abi>
class ConformanceContract : public ::testing::Test {};

struct AbiName {
  template <typename Abi>
  static std::string GetName(int) {
    return Abi::kName;
  }
};

using Abis = ::testing::Types<OmpxAbi, KlAbi>;
TYPED_TEST_SUITE(ConformanceContract, Abis, AbiName);

TYPED_TEST(ConformanceContract, ResultStringsDistinctAndNonNull) {
  using Abi = TypeParam;
  std::vector<std::string> seen;
  for (typename Abi::Code c : Abi::kCodes) {
    const char* s = Abi::str(c);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(std::string(s).empty());
    for (const auto& prev : seen) EXPECT_NE(prev, s);
    seen.emplace_back(s);
  }
}

// The last-result slot is per host thread (cudaGetLastError semantics):
// a failure on one thread must never be observable from another.
TYPED_TEST(ConformanceContract, LastResultIsThreadLocal) {
  using Abi = TypeParam;
  ASSERT_EQ(Abi::take(), Abi::kSuccess);
  std::thread other([] {
    // Fail on the other thread only.
    EXPECT_EQ(Abi::set_device(Abi::kBadDevice), Abi::kInvalidDevice);
    EXPECT_EQ(Abi::peek(), Abi::kInvalidDevice);
    // get clears, a second get sees success again.
    EXPECT_EQ(Abi::take(), Abi::kInvalidDevice);
    EXPECT_EQ(Abi::take(), Abi::kSuccess);
  });
  other.join();
  // This thread's slot never saw the other thread's failures.
  EXPECT_EQ(Abi::peek(), Abi::kSuccess);
}

TYPED_TEST(ConformanceContract, UseAfterDestroyIsCaught) {
  using Abi = TypeParam;
  void* s = Abi::stream_create();
  ASSERT_NE(s, nullptr);
  void* e = Abi::event_create();
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(Abi::event_record(e, s), Abi::kSuccess);
  ASSERT_EQ(Abi::stream_synchronize(s), Abi::kSuccess);
  ASSERT_EQ(Abi::event_destroy(e), Abi::kSuccess);
  ASSERT_EQ(Abi::stream_destroy(s), Abi::kSuccess);

  // Every later use of the dead handles must fail cleanly with
  // INVALID_VALUE — no crash, no UB, and a usable detail string.
  EXPECT_EQ(Abi::stream_synchronize(s), Abi::kInvalidValue);
  EXPECT_EQ(Abi::stream_destroy(s), Abi::kInvalidValue);
  EXPECT_EQ(Abi::event_record(e, nullptr), Abi::kInvalidValue);
  EXPECT_EQ(Abi::event_synchronize(e), Abi::kInvalidValue);
  if constexpr (requires { Abi::stream_wait_event(nullptr, nullptr); }) {
    EXPECT_EQ(Abi::stream_wait_event(nullptr, e), Abi::kInvalidValue);
  }
  int x = 0;
  EXPECT_EQ(Abi::memset_async(&x, 0, sizeof x, s), Abi::kInvalidValue);
  EXPECT_EQ(Abi::begin_capture(s), Abi::kInvalidValue);
  const std::string detail = Abi::detail();
  EXPECT_NE(detail.find("invalid or destroyed"), std::string::npos);
  (void)Abi::take();
}

// Elapsed time needs two recorded events: never-recorded ones are an
// error (ompx: INVALID_VALUE, kl: klErrorNotReady), never a silent 0 ms.
TYPED_TEST(ConformanceContract, ElapsedTimeOfUnrecordedEventsFails) {
  using Abi = TypeParam;
  void* start = Abi::event_create();
  ASSERT_NE(start, nullptr);
  void* stop = Abi::event_create();
  ASSERT_NE(stop, nullptr);
  (void)Abi::take();
  EXPECT_EQ(Abi::event_elapsed_ms(start, stop), -1.0f);
  EXPECT_EQ(Abi::peek(), Abi::kNotRecorded);
  const std::string detail = Abi::detail();
  EXPECT_NE(detail.find("event not recorded"), std::string::npos) << detail;
  (void)Abi::take();
  EXPECT_EQ(Abi::event_destroy(start), Abi::kSuccess);
  EXPECT_EQ(Abi::event_destroy(stop), Abi::kSuccess);
}

constexpr int kPeerInts = 256;

void fill_sevens(void* p) {
  auto* v = static_cast<int*>(p);
  for (int i = 0; i < kPeerInts; ++i) v[i] = 7;
}

// A peer copy is a blocking host op: it waits for in-flight work on both
// devices first, so it reads what an earlier async launch wrote. The
// stall fault holds that launch back, so a copy that skips the
// synchronization reads the old zeros every time.
TYPED_TEST(ConformanceContract, PeerCopySynchronizesFirst) {
  using Abi = TypeParam;
  ASSERT_GE(ompx_get_num_devices(), 2);
  constexpr std::size_t kBytes = kPeerInts * sizeof(int);
  const std::vector<int> zeros(kPeerInts, 0);
  ASSERT_EQ(Abi::set_device(1), Abi::kSuccess);
  void* dst = Abi::malloc(kBytes);
  ASSERT_NE(dst, nullptr);
  ASSERT_EQ(ompx_memcpy(dst, zeros.data(), kBytes), OMPX_SUCCESS);
  ASSERT_EQ(Abi::set_device(0), Abi::kSuccess);
  void* src = Abi::malloc(kBytes);
  ASSERT_NE(src, nullptr);
  ASSERT_EQ(ompx_memcpy(src, zeros.data(), kBytes), OMPX_SUCCESS);
  {
    ompx::FaultScope stall("stall:after=0,ms=200");
    ASSERT_EQ(Abi::launch(&fill_sevens, src), Abi::kSuccess);
    EXPECT_EQ(Abi::memcpy_peer(dst, 1, src, 0, kBytes), Abi::kSuccess);
  }
  std::vector<int> out(kPeerInts, 0);
  ASSERT_EQ(Abi::set_device(1), Abi::kSuccess);
  ASSERT_EQ(Abi::to_host(out.data(), dst, kBytes), Abi::kSuccess);
  EXPECT_EQ(out, std::vector<int>(kPeerInts, 7));
  EXPECT_EQ(Abi::free(dst), Abi::kSuccess);
  ASSERT_EQ(Abi::set_device(0), Abi::kSuccess);
  EXPECT_EQ(Abi::free(src), Abi::kSuccess);
  (void)Abi::take();
}

TEST(ConformanceDevice, BadIndicesReportInvalidDevice) {
  int count = 0;
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  EXPECT_EQ(ompx_set_device(-1), OMPX_ERROR_INVALID_DEVICE);
  EXPECT_EQ(ompx_set_device(ompx_get_num_devices()),
            OMPX_ERROR_INVALID_DEVICE);
  EXPECT_EQ(ompx_device_reset(-3), OMPX_ERROR_INVALID_DEVICE);
  EXPECT_EQ(ompx_mempool_trim(1000), OMPX_ERROR_INVALID_DEVICE);
  EXPECT_EQ(klSetDevice(-1), klErrorInvalidDevice);
  EXPECT_EQ(klGetDeviceCount(&count), klSuccess);
  EXPECT_EQ(klSetDevice(count), klErrorInvalidDevice);
  EXPECT_EQ(klSetDevice(0), klSuccess);
}

TEST(ConformanceDevice, NullOutParamsReportInvalidValue) {
  EXPECT_EQ(klGetDevice(nullptr), klErrorInvalidValue);
  EXPECT_EQ(klGetDeviceCount(nullptr), klErrorInvalidValue);
  EXPECT_EQ(ompx_device_can_access_peer(nullptr, 0, 1),
            OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_mempool_get_stats(0, nullptr), OMPX_ERROR_INVALID_VALUE);
  float ms = 0.0f;
  EXPECT_EQ(klEventElapsedTime(&ms, nullptr, nullptr), klErrorInvalidValue);
  EXPECT_EQ(klEventElapsedTime(nullptr, nullptr, nullptr),
            klErrorInvalidValue);
}

TEST(ConformanceStream, NullHandleContract) {
  // Destroying null is a CUDA-tolerated no-op; *using* null is an error.
  EXPECT_EQ(ompx_stream_destroy(nullptr), OMPX_SUCCESS);
  EXPECT_EQ(ompx_event_destroy(nullptr), OMPX_SUCCESS);
  EXPECT_EQ(ompx_graph_destroy(nullptr), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_synchronize(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_event_synchronize(nullptr), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_stream_is_capturing(nullptr), 0);
  int x = 0;
  EXPECT_EQ(ompx_memcpy_async(&x, &x, sizeof x, nullptr),
            OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_malloc_async(16, nullptr), nullptr);
  EXPECT_EQ(ompx_peek_last_result(), OMPX_ERROR_INVALID_VALUE);
  (void)ompx_get_last_result();
}

TEST(ConformanceGraph, TwoCallEnumerationHonorsCapacity) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* buf = ompx_malloc(256);
  ASSERT_NE(buf, nullptr);
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_is_capturing(s), 1);
  ASSERT_EQ(ompx_memset_async(buf, 0, 256, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_memset_async(buf, 1, 128, s), OMPX_SUCCESS);
  ompx_graph_t g = nullptr;
  ASSERT_EQ(ompx_stream_end_capture(s, &g), OMPX_SUCCESS);
  ASSERT_NE(g, nullptr);

  std::size_t count = 0;
  ASSERT_EQ(ompx_graph_node_count(g, &count), OMPX_SUCCESS);
  ASSERT_EQ(count, 2u);
  // Capacity smaller than the node count: fill what fits, report it.
  ompx_graph_node_info_t one[1];
  std::size_t written = 99;
  ASSERT_EQ(ompx_graph_get_nodes(g, one, 1, &written), OMPX_SUCCESS);
  EXPECT_EQ(written, 1u);
  // Zero capacity with a null array is a valid "probe" call.
  ASSERT_EQ(ompx_graph_get_nodes(g, nullptr, 0, &written), OMPX_SUCCESS);
  EXPECT_EQ(written, 0u);
  // Null written pointer is the caller's bug, reported not crashed.
  EXPECT_EQ(ompx_graph_get_nodes(g, one, 1, nullptr),
            OMPX_ERROR_INVALID_VALUE);

  ASSERT_EQ(ompx_graph_destroy(g), OMPX_SUCCESS);
  // Use after destroy: caught by the live-handle registry.
  EXPECT_EQ(ompx_graph_node_count(g, &count), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_graph_launch(g, s), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_free(buf), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(ConformanceGraph, EndCaptureNullOutParamDiscardsCapture) {
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(ompx_stream_begin_capture(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_end_capture(s, nullptr), OMPX_ERROR_INVALID_VALUE);
  // The stream is usable again: the discarded capture did not wedge it.
  EXPECT_EQ(ompx_stream_is_capturing(s), 0);
  EXPECT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(ConformanceWatchdog, BudgetRoundTripsAndDisables) {
  const double saved = ompx_get_watchdog_ms();
  ASSERT_EQ(ompx_set_watchdog_ms(12.5), OMPX_SUCCESS);
  EXPECT_DOUBLE_EQ(ompx_get_watchdog_ms(), 12.5);
  ASSERT_EQ(klSetWatchdogMs(250.0), klSuccess);
  EXPECT_DOUBLE_EQ(ompx_get_watchdog_ms(), 250.0);
  // <= 0 disables.
  ASSERT_EQ(ompx_set_watchdog_ms(0.0), OMPX_SUCCESS);
  EXPECT_DOUBLE_EQ(ompx_get_watchdog_ms(), 0.0);
  ASSERT_EQ(ompx_set_watchdog_ms(-1.0), OMPX_SUCCESS);
  EXPECT_LE(ompx_get_watchdog_ms(), 0.0);
  ASSERT_EQ(ompx_set_watchdog_ms(saved), OMPX_SUCCESS);
}

TEST(ConformanceFault, SpecValidationAndStatus) {
  ASSERT_EQ(ompx_fault_active(), 0);
  // Malformed specs are rejected with INVALID_VALUE and leave the
  // injector disarmed.
  EXPECT_EQ(ompx_fault_enable("bogus_site"), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_fault_enable("oom:after="), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_fault_enable("oom:p=1.5"), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_fault_enable("oom:after=2junk"), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(ompx_fault_active(), 0);
  (void)ompx_get_last_result();

  // A valid spec arms; disable disarms; null spec also disarms.
  ASSERT_EQ(ompx_fault_enable("oom:after=1000000"), OMPX_SUCCESS);
  EXPECT_EQ(ompx_fault_active(), 1);
  ASSERT_EQ(ompx_fault_disable(), OMPX_SUCCESS);
  EXPECT_EQ(ompx_fault_active(), 0);
  ASSERT_EQ(ompx_fault_enable("stall:ms=1,every=1000000"), OMPX_SUCCESS);
  EXPECT_EQ(ompx_fault_active(), 1);
  ASSERT_EQ(ompx_fault_enable(nullptr), OMPX_SUCCESS);
  EXPECT_EQ(ompx_fault_active(), 0);

  // kl mirrors the same validation.
  EXPECT_EQ(klFaultInject("nope"), klErrorInvalidValue);
  (void)klGetLastError();
  ASSERT_EQ(klFaultInject("graph:after=1000000"), klSuccess);
  EXPECT_EQ(ompx_fault_active(), 1);
  ASSERT_EQ(klFaultInject(nullptr), klSuccess);
  EXPECT_EQ(ompx_fault_active(), 0);
}

// Cross-API free audit: mixing the plain and stream-ordered allocator
// families must be rejected with a clean INVALID_VALUE, never by
// corrupting the pool (a block parked for reuse that a plain free also
// released would dangle until trim double-frees it).
TEST(ConformanceCrossApiFree, AsyncFreeOfPlainPointerIsRejected) {
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  ompx_mempool_stats_t before{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &before), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);

  void* plain = ompx_malloc(4096);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(ompx_free_async(plain, s), OMPX_ERROR_INVALID_VALUE);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  // The rejection left the pool untouched: nothing was parked, so a
  // same-size malloc_async cannot alias the still-live plain block.
  ompx_mempool_stats_t after{};
  ASSERT_EQ(ompx_mempool_get_stats(0, &after), OMPX_SUCCESS);
  EXPECT_EQ(after.frees, before.frees);
  void* other = ompx_malloc_async(4096, s);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, plain);
  // The allocation is still live and freeable through its own API.
  EXPECT_EQ(ompx_free(plain), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free_async(other, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(ConformanceCrossApiFree, PlainFreeOfAsyncPointerIsRejected) {
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* p = ompx_malloc_async(2048, s);
  ASSERT_NE(p, nullptr);
  // While the stream owns the block, both plain frees must refuse —
  // ompx and kl are the same registry underneath.
  EXPECT_EQ(ompx_free(p), OMPX_ERROR_INVALID_VALUE);
  EXPECT_EQ(klFree(p), klErrorInvalidValue);
  // The correct path still works after the rejections.
  EXPECT_EQ(ompx_free_async(p, s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  (void)ompx_get_last_result();
  (void)klGetLastError();
}

TEST(ConformanceCrossApiFree, StreamDestroyReleasesAsyncOwnership) {
  // A malloc_async block that outlives its stream is not stranded:
  // destroying the stream releases the async claim, so the plain free
  // becomes the documented way to release it.
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  void* p = ompx_malloc_async(1024, s);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  EXPECT_EQ(ompx_free(p), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(ConformanceCrossApiFree, PeerPointerIsRoutedToItsOwnDevice) {
  // free_async on a stream of the wrong device: the registry resolves
  // the true owner and refuses with INVALID_VALUE instead of touching
  // the wrong device's pool.
  ASSERT_EQ(ompx_set_device(1), OMPX_SUCCESS);
  void* peer = ompx_malloc(512);
  ASSERT_NE(peer, nullptr);
  ASSERT_EQ(ompx_set_device(0), OMPX_SUCCESS);
  ompx_stream_t s = ompx_stream_create();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(ompx_free_async(peer, s), OMPX_ERROR_INVALID_VALUE);
  ASSERT_EQ(ompx_stream_synchronize(s), OMPX_SUCCESS);
  ASSERT_EQ(ompx_stream_destroy(s), OMPX_SUCCESS);
  // Still live; the owning device frees it.
  EXPECT_EQ(ompx_free(peer), OMPX_SUCCESS);
  (void)ompx_get_last_result();
}

TEST(ConformanceKernelException, NonStandardThrowReportsUnknownKl) {
  // A kernel body may throw anything. The stream executor parks the
  // exception and klDeviceSynchronize rethrows it inside the kl error
  // translator, which must not let it cross the C boundary.
  ASSERT_EQ(kl::launch(simt::Dim3(1), simt::Dim3(1), [] { throw 42; }),
            klSuccess);
  EXPECT_EQ(klDeviceSynchronize(), klErrorUnknown);
  EXPECT_EQ(klGetLastError(), klErrorUnknown);
  EXPECT_EQ(klDeviceSynchronize(), klSuccess);  // the error was consumed
}

TEST(ConformanceFault, FaultScopeRestoresPreviousSpec) {
  ASSERT_EQ(ompx_fault_active(), 0);
  {
    ompx::FaultScope outer("oom:after=1000000");
    EXPECT_EQ(ompx_fault_active(), 1);
    {
      ompx::FaultScope inner("graph:after=1000000");
      EXPECT_EQ(ompx_fault_active(), 1);
    }
    // Inner scope restored the outer spec, not "disabled".
    EXPECT_EQ(ompx_fault_active(), 1);
  }
  EXPECT_EQ(ompx_fault_active(), 0);
}

}  // namespace

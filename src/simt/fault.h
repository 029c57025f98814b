// Deterministic fault injection for the SIMT engine.
//
// The injector arms per-site rules from a spec string (the OMPX_FAULT
// environment variable, ompx_fault_enable, klFaultInject, or the
// ompx::FaultScope RAII guard):
//
//   spec    := clause (';' clause)*
//   clause  := site [':' arg (',' arg)*]
//   site    := oom | host_oom | stall | peer | graph | device_lost
//   arg     := after=N          first N calls succeed, call N+1 fires once
//            | every=N          every Nth call fires
//            | p=F [seed=S]     each call fires with probability F,
//                               deterministically derived from the seed
//            | ms=D             stall duration in milliseconds (stall only,
//                               clamped to [0, 1000], default 25)
//
// A bare site with no trigger argument fires on every call. Sites map
// to engine chokepoints:
//
//   oom          DeviceMemory::allocate (covers ompx_malloc, klMalloc,
//                malloc_async pool refill, constant memory)
//   host_oom     host-side control allocation (stream/event creation)
//   stall        a stream drain sleeps `ms` before executing an op —
//                the wall-clock hang the watchdog exists to catch
//   peer         cross-device peer copy fails
//   graph        graph instantiation fails
//   device_lost  Device::mark_lost at launch validation; every later
//                entry point on that device reports device-lost until
//                Device::reset (ompx_device_reset / klDeviceReset)
//
// Injection decisions are deterministic: countdown and every-Nth
// triggers are exact call counters, and probability triggers hash
// (seed, site, call#) with splitmix64 — the same spec replays the same
// faults. The hot-path cost when injection is disarmed is one relaxed
// atomic load (`fault_armed()`), mirroring the sanitizer switch in
// san.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>

namespace simt {

/// Engine chokepoints that can be made to fail.
enum class FaultSite : std::uint8_t {
  kDeviceAlloc = 0,    ///< "oom": device memory allocation
  kHostAlloc,          ///< "host_oom": host-side control allocation
  kStreamStall,        ///< "stall": delay a stream op (wall-clock hang)
  kPeerCopy,           ///< "peer": cross-device copy failure
  kGraphInstantiate,   ///< "graph": graph instantiation failure
  kDeviceLost,         ///< "device_lost": poison the device
  kCount,
};

/// The spec-grammar name of a site ("oom", "stall", ...).
const char* fault_site_name(FaultSite site);

/// Device memory exhausted (real capacity overflow or injected).
/// Derives from std::bad_alloc so pre-existing handlers keep working;
/// the C ABIs map it to OMPX_ERROR_OUT_OF_MEMORY / klErrorMemoryAllocation.
class DeviceOOMError : public std::bad_alloc {
 public:
  explicit DeviceOOMError(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

/// The device has been poisoned (injected loss): every entry point on
/// it reports OMPX_ERROR_DEVICE_LOST / klErrorDeviceLost until reset.
class DeviceLostError : public std::runtime_error {
 public:
  explicit DeviceLostError(const std::string& what, bool already_lost = false)
      : std::runtime_error(what), already_lost_(already_lost) {}
  /// True only when a kernel launch made from host code (not from a
  /// kernel body or a stream op) found the device lost by an earlier
  /// call at its entry check, before any of its blocks ran. False for
  /// the launch that lost the device itself, so the loss can be charged
  /// to that launch, and for every other call that finds it lost.
  [[nodiscard]] bool already_lost() const noexcept { return already_lost_; }

 private:
  bool already_lost_;
};

/// A launch exceeded the watchdog budget (modeled time) or a stream op
/// exceeded it in wall-clock time; maps to OMPX_ERROR_TIMEOUT /
/// klErrorTimeout.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The serving layer's admission control refused a request (per-client
/// queue depth exceeded); maps to OMPX_ERROR_ADMISSION / klErrorAdmission.
/// Lives in simt (not serve) so the core C ABI can translate it without
/// depending on the service layer.
class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace fault_detail {
/// Global injection switch; non-zero while a spec is armed.
extern constinit std::atomic<std::uint32_t> g_armed;
}  // namespace fault_detail

/// True when fault injection is armed. One relaxed load — cheap enough
/// for allocation and submit hot paths.
inline bool fault_armed() {
  return fault_detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// The process-wide injector. Leaked singleton (like the sanitizer and
/// the device registry) so injection stays valid during static
/// teardown of client code.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Parses and arms `spec`. Throws std::invalid_argument on a
  /// malformed spec and leaves the previous configuration armed.
  void enable(const std::string& spec);
  /// Disarms all sites.
  void disable();

  [[nodiscard]] bool active() const;
  /// The currently armed spec string (empty when disarmed).
  [[nodiscard]] std::string spec() const;

  /// Advances the site's call counter and reports whether this call
  /// should fail. Counts fired faults.
  bool should_fire(FaultSite site);
  /// Stall duration for kStreamStall (milliseconds).
  [[nodiscard]] double stall_ms() const;

  /// Total faults fired since enable()/reset_counters().
  [[nodiscard]] std::uint64_t injected_count() const;
  [[nodiscard]] std::uint64_t injected_count(FaultSite site) const;
  void reset_counters();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;

  enum class Trigger : std::uint8_t { kAlways, kAfter, kEvery, kProb };
  struct Rule {
    bool armed = false;
    Trigger trigger = Trigger::kAlways;
    std::uint64_t n = 0;       ///< after=N / every=N argument
    double p = 0.0;            ///< p=F argument
    std::uint64_t seed = 0;    ///< seed=S argument
    double ms = 25.0;          ///< ms=D argument (stall duration)
    std::uint64_t calls = 0;   ///< calls seen since enable()
    std::uint64_t fired = 0;   ///< faults fired since enable()
    bool exhausted = false;    ///< one-shot `after` trigger consumed
  };

  mutable std::mutex mu_;
  Rule rules_[static_cast<std::size_t>(FaultSite::kCount)];
  std::string spec_;
  std::uint64_t fired_total_ = 0;
};

/// should_fire() behind the armed fast path: false in one relaxed load
/// when injection is off.
inline bool fault_should_fire(FaultSite site) {
  return fault_armed() && FaultInjector::instance().should_fire(site);
}

}  // namespace simt

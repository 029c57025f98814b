// The contract both C ABIs share (ompx_* in core/ompx_host.cpp, kl* in
// kl/kl.cpp): one ordered exception ladder, one per-thread last-result
// slot, one registry-index check and one live-handle set per handle
// type. Each ABI keeps only its code enum, a CodeTable mapping every
// Failure to one of its codes, and a guarded() wrapper of a few lines.
// Bad device indexes and dead handles throw from inside guarded(), so
// they reach the caller through the same ladder as engine failures.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace simt {

class Device;

namespace capi {

/// Error class of an exception escaping an entry point, in ladder order:
/// subclasses come before their bases.
enum class Failure : std::uint8_t {
  kDeviceLost,     // DeviceLostError
  kTimeout,        // TimeoutError
  kAdmission,      // AdmissionError
  kDeviceOOM,      // DeviceOOMError (device capacity exhausted)
  kHostAlloc,      // any other std::bad_alloc
  kInvalidDevice,  // InvalidDeviceError
  kInvalidValue,   // std::invalid_argument, any other std::out_of_range
  kLaunchFailure,  // any other std::logic_error or std::runtime_error
  kOtherStd,       // any other std::exception
  kNonStandard,    // not a std::exception
};

/// One ABI's code for each Failure, indexed by the enum.
template <typename Code>
using CodeTable =
    std::array<Code, static_cast<std::size_t>(Failure::kNonStandard) + 1>;

/// A C-API device index outside the device registry.
class InvalidDeviceError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Classifies the exception being handled and points `*what` at its
/// message. Call only from inside a catch block.
Failure classify_current_exception(const char** what) noexcept;

/// The registry device at C-API index `index`; throws InvalidDeviceError
/// ("<who>: bad device index <index>") when it is out of range.
Device& registry_device(int index, const char* who);

/// Throws std::invalid_argument("<who>: invalid or destroyed <kind>
/// handle"), which every ABI reports as its invalid-value code.
[[noreturn]] void throw_bad_handle(const char* who, const char* kind);

/// One ABI's last-result slot: a code (zero is success) and a detail
/// message. Each host thread has its own slot per ABI.
template <typename Code>
class LastResult {
 public:
  /// This host thread's slot.
  static LastResult& mine() {
    thread_local LastResult slot;
    return slot;
  }

  /// Stores `code` and `detail` (null clears the detail); returns `code`.
  Code record(Code code, const char* detail) {
    code_ = code;
    detail_ = detail != nullptr ? detail : "";
    return code;
  }

  /// Records the exception being handled, mapped through `codes`. Call
  /// only from inside a catch block.
  Code record_current_exception(const CodeTable<Code>& codes) {
    const char* what = nullptr;
    const Failure f = classify_current_exception(&what);
    return record(codes[static_cast<std::size_t>(f)], what);
  }

  Code peek() const { return code_; }
  /// Reads and clears the code (cudaGetLastError).
  Code take() {
    const Code code = code_;
    code_ = Code{};
    return code;
  }
  const char* detail() const { return detail_.c_str(); }

 private:
  Code code_{};
  std::string detail_;
};

/// The live objects of one handle type, so a C ABI can reject a
/// destroyed or foreign handle with a result code instead of
/// dereferencing freed memory. Objects insert themselves when built and
/// erase themselves when destroyed.
template <typename T>
class LiveSet {
 public:
  /// The process-wide set for T (leaked on purpose: handles may die
  /// during static destruction).
  static LiveSet& instance() {
    static auto* set = new LiveSet;
    return *set;
  }

  void insert(const T* p) {
    std::lock_guard lock(mu_);
    live_.insert(p);
  }
  void erase(const T* p) {
    std::lock_guard lock(mu_);
    live_.erase(p);
  }
  /// False for null.
  bool contains(const T* p) const {
    if (p == nullptr) return false;
    std::lock_guard lock(mu_);
    return live_.count(p) != 0;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_set<const T*> live_;
};

/// `*p` when `p` is in T's live set; otherwise throw_bad_handle. Null
/// is never live.
template <typename T>
T& live(T* p, const char* who, const char* kind) {
  if (!LiveSet<T>::instance().contains(p)) throw_bad_handle(who, kind);
  return *p;
}

}  // namespace capi
}  // namespace simt

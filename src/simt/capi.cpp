#include "simt/capi.h"

#include <new>
#include <stdexcept>
#include <string>

#include "simt/device.h"
#include "simt/fault.h"

namespace simt::capi {

namespace {
template <typename E>
bool is(const std::exception& e) {
  return dynamic_cast<const E*>(&e) != nullptr;
}
}  // namespace

Failure classify_current_exception(const char** what) noexcept {
  try {
    throw;
  } catch (const std::exception& e) {
    *what = e.what();
    if (is<DeviceLostError>(e)) return Failure::kDeviceLost;
    if (is<TimeoutError>(e)) return Failure::kTimeout;
    if (is<AdmissionError>(e)) return Failure::kAdmission;
    // Before bad_alloc: device-capacity exhaustion is distinct from a
    // failed host allocation.
    if (is<DeviceOOMError>(e)) return Failure::kDeviceOOM;
    if (is<std::bad_alloc>(e)) return Failure::kHostAlloc;
    if (is<InvalidDeviceError>(e)) return Failure::kInvalidDevice;
    if (is<std::invalid_argument>(e) || is<std::out_of_range>(e))
      return Failure::kInvalidValue;
    if (is<std::logic_error>(e) || is<std::runtime_error>(e))
      return Failure::kLaunchFailure;
    return Failure::kOtherStd;
  } catch (...) {
    *what = "non-standard exception";
    return Failure::kNonStandard;
  }
}

Device& registry_device(int index, const char* who) {
  const std::vector<Device*>& reg = device_registry();
  if (index < 0 || index >= static_cast<int>(reg.size()))
    throw InvalidDeviceError(std::string(who) + ": bad device index " +
                             std::to_string(index));
  return *reg[static_cast<std::size_t>(index)];
}

void throw_bad_handle(const char* who, const char* kind) {
  throw std::invalid_argument(std::string(who) + ": invalid or destroyed " +
                              kind + " handle");
}

}  // namespace simt::capi

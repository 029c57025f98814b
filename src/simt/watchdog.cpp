#include "simt/watchdog.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace simt {

namespace {

double env_watchdog_ms() {
  const char* e = std::getenv("OMPX_WATCHDOG_MS");
  if (e == nullptr || e[0] == '\0') return 0.0;
  const double v = std::atof(e);
  return v > 0.0 ? v : 0.0;
}

std::atomic<double> g_watchdog_ms{env_watchdog_ms()};

}  // namespace

void set_watchdog_ms(double ms) {
  g_watchdog_ms.store(ms > 0.0 ? ms : 0.0, std::memory_order_relaxed);
}

double watchdog_ms() {
  return g_watchdog_ms.load(std::memory_order_relaxed);
}

double wall_watchdog_ms() {
  const double budget = watchdog_ms();
  return budget > 0.0 ? std::max(budget, kMinWallWatchdogMs) : 0.0;
}

}  // namespace simt

// Kernel watchdog budget.
//
// One process-wide budget in milliseconds (OMPX_WATCHDOG_MS env,
// ompx_set_watchdog_ms, klSetWatchdogMs; 0 disables) applied two ways:
//
//   * modeled time — every kernel run (launch_sync, stream launches and
//     graph-replayed kernel nodes alike, through Device::run_resolved)
//     fails when its modeled duration exceeds the budget (TimeoutError
//     before the launch is logged), the simulator analogue of
//     cudaErrorLaunchTimeout;
//   * wall clock — each StreamExecutor runs a monitor pool task that
//     abandons a drain stuck past wall_watchdog_ms() on one op (a hung
//     kernel or an injected stall), fails the stream with TimeoutError,
//     and drains its queue so host waits return instead of hanging.
//     That budget is the same value floored at kMinWallWatchdogMs: a
//     budget sized for modeled time (microseconds) is shorter than any
//     host op, so without the floor it would kill healthy streams on
//     host scheduling noise.
//
// A stream the wall-clock watchdog killed is permanently timed out:
// further submissions fail with TimeoutError; destroy it and create a
// new one. Other streams and devices keep working — graceful
// degradation, not process death.
#pragma once

namespace simt {

/// Sets the watchdog budget in milliseconds; values <= 0 disable it.
void set_watchdog_ms(double ms);

/// The current budget (0 when disabled). Initialized once from
/// OMPX_WATCHDOG_MS.
[[nodiscard]] double watchdog_ms();

/// Floor of the wall-clock budget, in milliseconds.
inline constexpr double kMinWallWatchdogMs = 100.0;

/// The wall-clock monitor's budget: 0 when disabled, otherwise
/// max(watchdog_ms(), kMinWallWatchdogMs).
[[nodiscard]] double wall_watchdog_ms();

}  // namespace simt

// Virtual time for the simulated machine.
//
// All simulation timestamps and durations are integer nanoseconds. A plain
// int64_t is used (rather than std::chrono) so that times can be stored in
// shared-memory structures (status words, messages) and compared without any
// conversion; helper constructors keep call sites readable.
#ifndef GHOST_SIM_SRC_BASE_TIME_H_
#define GHOST_SIM_SRC_BASE_TIME_H_

#include <cstdint>

namespace gs {

// A point in virtual time, in nanoseconds since simulation start.
using Time = int64_t;
// A span of virtual time, in nanoseconds.
using Duration = int64_t;

inline constexpr Time kTimeNever = INT64_MAX;

constexpr Duration Nanoseconds(int64_t n) { return n; }
constexpr Duration Microseconds(int64_t n) { return n * 1'000; }
constexpr Duration Milliseconds(int64_t n) { return n * 1'000'000; }
constexpr Duration Seconds(int64_t n) { return n * 1'000'000'000; }

// Fractional config values (scenario JSON, policy settings) to whole
// nanoseconds, truncating toward zero.
constexpr Duration FromMs(double ms) { return static_cast<Duration>(ms * 1e6); }
constexpr Duration FromUs(double us) { return static_cast<Duration>(us * 1e3); }

constexpr double ToSeconds(Duration d) { return static_cast<double>(d) * 1e-9; }
constexpr double ToMicros(Duration d) { return static_cast<double>(d) * 1e-3; }
constexpr double ToMillis(Duration d) { return static_cast<double>(d) * 1e-6; }

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_TIME_H_

// Unit helpers. Bandwidths are bytes/second, times are seconds (double),
// sizes are bytes in int64, matching the quantities in the paper.
#pragma once

#include <cstdint>

namespace pvr {

constexpr std::int64_t KiB = 1024;
constexpr std::int64_t MiB = 1024 * KiB;
constexpr std::int64_t GiB = 1024 * MiB;

constexpr double KB = 1e3;
constexpr double MB = 1e6;
constexpr double GB = 1e9;

/// Gigabits/second → bytes/second (network link ratings).
constexpr double gbps(double v) { return v * 1e9 / 8.0; }

/// Megabytes/second → bytes/second.
constexpr double mbps(double v) { return v * 1e6; }

/// Gigabytes/second → bytes/second.
constexpr double gibps(double v) { return v * 1e9; }

constexpr double usec(double v) { return v * 1e-6; }
constexpr double msec(double v) { return v * 1e-3; }

/// bytes / seconds → MB/s, guarding division by zero.
constexpr double to_mb_per_s(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / 1e6 : 0.0;
}

}  // namespace pvr

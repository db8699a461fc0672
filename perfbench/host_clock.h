// Host clock and resource reads of the benchmark harness.
//
// Every wall-clock and rusage read of the harness sits in this one file, so
// the determinism rule of malec_lint (which bans clock reads everywhere
// else) needs exactly one waiver. Nothing read here ever reaches a
// simulated result: the harness only reports these numbers beside them.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>

namespace perfbench {

/// Monotonic host time in nanoseconds. steady_clock is CLOCK_MONOTONIC on
/// Linux, the clock Python's time.monotonic_ns() reads, so run.py can pass
/// its spawn timestamp in and the harness measures from process start.
inline std::int64_t hostNowNs() {
  // lint:allow(determinism: host timing for the benchmark)
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

/// Process CPU time (user + system, all threads) in seconds.
inline double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of this process in MiB.
inline double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

// Wall-clock use waived at file scope: this fixture file is covered by
// tools/lint/allowlist.txt (determinism entry), mirroring how the real
// tree exempts the sweep coordinator's worker-supervision timers.
#include <chrono>

namespace fixture {

long long wallClockMs() {
  const auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count() / 1000000;
}

}  // namespace fixture

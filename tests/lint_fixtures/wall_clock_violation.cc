// Fixture: FLB001 wall-clock. Reading a real clock in a charged path makes
// simulated timings depend on the host machine. Violations are pinned to
// exact lines by tests/flb_analyze_test.cc — edit with care.

#include <chrono>

namespace fixture {

double ChargedSeconds() {
  const auto now = std::chrono::system_clock::now();  // line 10: FLB001
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

}  // namespace fixture

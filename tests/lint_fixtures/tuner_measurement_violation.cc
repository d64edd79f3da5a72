// Fixture: what a measurement loop over candidate configs must NOT look
// like — timing each probe run with a host clock (FLB001) and drawing the
// exploration pick from ambient entropy (FLB002). A reproducible probe
// loop measures simulated seconds and draws with Rng::ForStream, so it
// picks the same candidate on every host and at every thread count.

#include <chrono>
#include <random>

namespace fixture {

// A successive-halving round that stopwatches the probe on the host.
double MeasureCandidateEpoch() {
  const auto start = std::chrono::steady_clock::now();  // line 14: FLB001
  const double epoch_seconds = 0.0;
  const auto end = std::chrono::steady_clock::now();  // line 16: FLB001
  return epoch_seconds + std::chrono::duration<double>(end - start).count();
}

// An exploration candidate drawn from ambient entropy: irreproducible.
unsigned ExplorationPick(unsigned candidates) {
  std::random_device entropy;  // line 22: FLB002
  return entropy() % candidates;
}

}  // namespace fixture

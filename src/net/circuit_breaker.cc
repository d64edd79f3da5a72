#include "src/net/circuit_breaker.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::net {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

CircuitBreaker::CircuitBreaker(BreakerOptions options, const SimClock* clock)
    : options_(options), clock_(clock) {}

double CircuitBreaker::Now() const {
  return clock_ != nullptr ? clock_->Now() : 0.0;
}

double CircuitBreaker::OpenWindow(const std::string& link,
                                  uint64_t trip) const {
  double window = options_.open_sec;
  for (uint64_t i = 1; i < trip; ++i) {
    window = std::min(window * options_.backoff, options_.max_open_sec);
  }
  window = std::min(window, options_.max_open_sec);
  if (options_.jitter_frac > 0) {
    // Pure function of (seed, link, trip): deterministic regardless of the
    // interleaving of links or the host thread count.
    Rng rng = Rng::ForStream(options_.seed ^ Fnv1a(link), trip);
    window *= 1.0 + options_.jitter_frac * (rng.NextDouble() - 0.5);
  }
  return window;
}

void CircuitBreaker::TripLocked(const std::string& link, LinkState* state) {
  state->state = BreakerState::kOpen;
  state->trips += 1;
  state->consecutive_failures = 0;
  state->open_until_sec = Now() + OpenWindow(link, state->trips);
  stats_.trips += 1;
}

bool CircuitBreaker::AllowSend(const std::string& from,
                               const std::string& to) {
  const std::string link = LinkKey(from, to);
  const char* transition = nullptr;
  bool admit = true;
  {
    common::MutexLock lock(mu_);
    LinkState& state = links_[link];
    switch (state.state) {
      case BreakerState::kClosed:
        admit = true;
        break;
      case BreakerState::kOpen:
        if (Now() >= state.open_until_sec) {
          state.state = BreakerState::kHalfOpen;
          stats_.probes += 1;
          transition = "probe";
          admit = true;
        } else {
          stats_.fast_fails += 1;
          admit = false;
        }
        break;
      case BreakerState::kHalfOpen:
        admit = true;  // the probe (and its retries) flows through
        break;
    }
  }
  if (transition != nullptr) RecordTransition(transition, link);
  return admit;
}

void CircuitBreaker::RecordSuccess(const std::string& from,
                                   const std::string& to) {
  const std::string link = LinkKey(from, to);
  const char* transition = nullptr;
  {
    common::MutexLock lock(mu_);
    LinkState& state = links_[link];
    state.consecutive_failures = 0;
    if (state.state == BreakerState::kHalfOpen) {
      state.state = BreakerState::kClosed;
      stats_.closes += 1;
      transition = "close";
    }
  }
  if (transition != nullptr) RecordTransition(transition, link);
}

void CircuitBreaker::RecordFailure(const std::string& from,
                                   const std::string& to) {
  const std::string link = LinkKey(from, to);
  const char* transition = nullptr;
  {
    common::MutexLock lock(mu_);
    LinkState& state = links_[link];
    if (state.state == BreakerState::kHalfOpen) {
      // Failed probe: reopen with a deeper window.
      TripLocked(link, &state);
      transition = "reopen";
    } else if (state.state == BreakerState::kClosed) {
      state.consecutive_failures += 1;
      if (state.consecutive_failures >= options_.failure_threshold) {
        TripLocked(link, &state);
        transition = "trip";
      }
    }
    // Already open: fast-fails are counted in AllowSend; an admitted send
    // that still fails before the window elapsed cannot happen (AllowSend
    // rejected it), so nothing to do.
  }
  if (transition != nullptr) RecordTransition(transition, link);
}

void CircuitBreaker::RecordTransition(const char* kind,
                                      const std::string& link) {
  obs::MetricsRegistry::Global().Count(
      "flb.resilience.breaker." + std::string(kind) + "s", 1, "link=" + link);
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled()) {
    rec.Instant(rec.RegisterTrack("breaker", link), kind, "breaker", Now(),
                {obs::Arg("link", link)});
  }
  PublishStatus();
}

void CircuitBreaker::PublishStatus() {
  uint64_t open = 0, half_open = 0, trips = 0, fast_fails = 0;
  {
    common::MutexLock lock(mu_);
    for (const auto& [link, state] : links_) {
      if (state.state == BreakerState::kOpen) open += 1;
      if (state.state == BreakerState::kHalfOpen) half_open += 1;
    }
    trips = stats_.trips;
    fast_fails = stats_.fast_fails;
  }
  obs::RunStatus::Global().UpdateBreaker(open, half_open, trips, fast_fails);
}

}  // namespace flb::net

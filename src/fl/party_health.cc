#include "src/fl/party_health.h"

#include <algorithm>

namespace flb::fl {

PartyHealth::PartyHealth(PartyHealthOptions options, const SimClock* clock)
    : options_(options), clock_(clock) {}

double PartyHealth::Now() const {
  return clock_ != nullptr ? clock_->Now() : 0.0;
}

void PartyHealth::Observe(State* state, double failure) {
  const double a = options_.ewma_alpha;
  if (!state->seen) {
    state->failure_ewma = failure;
    state->seen = true;
    return;
  }
  state->failure_ewma = a * failure + (1.0 - a) * state->failure_ewma;
}

double PartyHealth::WindowFor(const State& state) const {
  double window = options_.quarantine_sec;
  for (uint64_t i = 1; i < state.times_quarantined; ++i) {
    window = std::min(window * options_.backoff, options_.max_quarantine_sec);
  }
  return std::min(window, options_.max_quarantine_sec);
}

void PartyHealth::RecordSuccess(const std::string& party) {
  State& state = parties_[party];
  Observe(&state, 0.0);
  // Probation lifts once the failure rate has decayed well under the trip
  // threshold; until then one more failure re-quarantines immediately.
  if (state.probation &&
      state.failure_ewma < 0.5 * options_.failure_threshold) {
    state.probation = false;
  }
}

bool PartyHealth::RecordFailure(const std::string& party) {
  State& state = parties_[party];
  Observe(&state, 1.0);
  if (!enabled() || state.quarantined) return false;
  if (state.probation || state.failure_ewma > options_.failure_threshold) {
    state.quarantined = true;
    state.probation = false;
    state.times_quarantined += 1;
    state.until_sec = Now() + WindowFor(state);
    quarantines_ += 1;
    return true;
  }
  return false;
}

bool PartyHealth::Quarantined(const std::string& party) {
  if (!enabled()) return false;
  const auto it = parties_.find(party);
  if (it == parties_.end() || !it->second.quarantined) return false;
  if (Now() >= it->second.until_sec) {
    // Window elapsed: readmit on probation with a clean slate for the
    // failure average (one fresh failure re-quarantines via `probation`).
    it->second.quarantined = false;
    it->second.probation = true;
    it->second.failure_ewma = options_.failure_threshold * 0.5;
    readmits_ += 1;
    return false;
  }
  return true;
}

uint64_t PartyHealth::QuarantinedCount() const {
  uint64_t n = 0;
  for (const auto& [party, state] : parties_) {
    if (state.quarantined) n += 1;
  }
  return n;
}

}  // namespace flb::fl

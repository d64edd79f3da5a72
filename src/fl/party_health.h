// PartyHealth: per-party EWMA health tracking with a quarantine /
// probation / readmit policy (DESIGN.md §6).
//
// The RobustCoordinator's liveness gate only sees hard crashes; a party
// that is up but persistently failing (lossy link, perpetual straggling)
// drags every round through the full retry budget. PartyHealth tracks an
// exponentially weighted moving average of each party's failure rate (1.0
// per failed exchange, 0.0 per success) and feeds a state machine:
//
//   healthy --failure EWMA > threshold--> quarantined (skipped for
//       quarantine_sec * backoff^(times-1) simulated seconds, capped)
//   quarantined --window elapsed-------> probation (readmitted, watched)
//   probation --next failure-----------> quarantined (deeper window)
//   probation --failure EWMA < 1/2 threshold--> healthy
//
// Everything runs on the SimClock and plain arithmetic, so same-seed chaos
// runs reproduce the same quarantine decisions bit-identically. The policy
// is off (never quarantines) when quarantine_sec <= 0 — the default, so
// existing chaos behavior is opt-in unchanged.

#ifndef FLB_FL_PARTY_HEALTH_H_
#define FLB_FL_PARTY_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/sim_clock.h"

namespace flb::fl {

struct PartyHealthOptions {
  double ewma_alpha = 0.3;         // weight of the newest observation
  double failure_threshold = 0.5;  // failure EWMA that quarantines
  double quarantine_sec = 0.0;     // first window; <= 0 disables the policy
  double backoff = 2.0;            // window multiplier per re-quarantine
  double max_quarantine_sec = 10.0;
};

class PartyHealth {
 public:
  PartyHealth(PartyHealthOptions options, const SimClock* clock);

  bool enabled() const { return options_.quarantine_sec > 0; }

  // One exchange with the party succeeded.
  void RecordSuccess(const std::string& party);
  // One exchange failed (transport dropout, missed deadline, CRC loss).
  // Returns true when this failure pushed the party into quarantine.
  bool RecordFailure(const std::string& party);

  // True while the party sits inside its quarantine window. Crossing the
  // window boundary readmits the party on probation (counted once).
  bool Quarantined(const std::string& party);

  uint64_t quarantines() const { return quarantines_; }
  uint64_t readmits() const { return readmits_; }
  // Parties currently inside a quarantine window.
  uint64_t QuarantinedCount() const;

 private:
  struct State {
    double failure_ewma = 0.0;
    bool seen = false;
    bool quarantined = false;
    bool probation = false;
    uint64_t times_quarantined = 0;
    double until_sec = 0.0;
  };

  void Observe(State* state, double failure);
  double WindowFor(const State& state) const;
  double Now() const;

  PartyHealthOptions options_;
  const SimClock* clock_;
  std::map<std::string, State> parties_;
  uint64_t quarantines_ = 0;
  uint64_t readmits_ = 0;
};

}  // namespace flb::fl

#endif  // FLB_FL_PARTY_HEALTH_H_

// Shared types for the federated trainers.

#ifndef FLB_FL_FL_TYPES_H_
#define FLB_FL_FL_TYPES_H_

#include <cstdint>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/sim_clock.h"
#include "src/core/he_service.h"
#include "src/fl/optimizer.h"
#include "src/net/network.h"

namespace flb::fl {

struct TrainConfig {
  int max_epochs = 3;
  int batch_size = 1024;
  double learning_rate = 0.1;
  double l2 = 0.01;  // L2 penalty coefficient (paper §VI-B: 0.01)
  // Convergence: stop when |loss_t - loss_{t-1}| < tolerance (paper: 1e-6).
  double tolerance = 1e-6;
  OptimizerKind optimizer = OptimizerKind::kAdam;

  // Graceful degradation under a fault plan (both gates are inert unless the
  // platform attaches a FaultInjector). A party that misses the round
  // deadline is excluded and the server aggregates the partial participant
  // set with FedAvg renormalization.
  //
  // Absolute gate: per-round simulated-seconds budget per party (compute +
  // estimated upload); 0 = the server waits forever.
  double straggler_deadline_sec = 0;
  // Relative gate: drop a party whose straggler slowdown factor exceeds
  // this multiple of a healthy party's round time; 0 = off. The server
  // stops waiting at the gate, so the straggler's excess compute beyond
  // factor x (healthy time) is not charged to the global timeline.
  double straggler_deadline_factor = 0;

  // Party-health quarantine policy (fl::PartyHealth), active only under a
  // fault plan AND when health_quarantine_sec > 0: a party whose failure
  // EWMA crosses the threshold is skipped for a backed-off window of
  // simulated seconds, then readmitted on probation. All knobs inert at
  // the defaults (quarantine window 0 = policy off).
  double health_ewma_alpha = 0.3;
  double health_failure_threshold = 0.5;
  double health_quarantine_sec = 0;
  double health_quarantine_backoff = 2.0;
  double health_max_quarantine_sec = 10.0;
};

// Dropout / degradation bookkeeping for a run under a fault plan (all zero
// in healthy runs).
struct RobustnessCounters {
  uint64_t straggler_dropouts = 0;  // parties past the round deadline
  uint64_t crash_dropouts = 0;      // parties down at round start
  uint64_t transport_dropouts = 0;  // sends/receives that exhausted retries
  uint64_t partial_rounds = 0;      // rounds aggregated with < all parties
  uint64_t skipped_rounds = 0;      // rounds with zero contributions
  uint64_t checkpoints = 0;         // epoch-boundary model snapshots
  uint64_t resumes = 0;             // critical-party crash-resumes
  uint64_t quarantines = 0;         // PartyHealth quarantine events
  uint64_t quarantine_skips = 0;    // rounds a quarantined party sat out
  uint64_t readmits = 0;            // probation readmissions
  uint64_t deadline_exceeded = 0;   // run-deadline budget expirations seen

  uint64_t TotalDropouts() const {
    return straggler_dropouts + crash_dropouts + transport_dropouts;
  }
};

struct EpochRecord {
  int epoch = 0;
  double loss = 0.0;
  double accuracy = 0.0;
  // Cumulative simulated seconds at the end of this epoch, plus the
  // component decomposition of this epoch alone.
  double sim_seconds_cum = 0.0;
  double epoch_seconds = 0.0;
  double he_seconds = 0.0;
  double comm_seconds = 0.0;
  double other_seconds = 0.0;
  uint64_t comm_bytes = 0;
};

struct TrainResult {
  std::vector<EpochRecord> epochs;
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  bool converged = false;
  RobustnessCounters robustness;

  double TotalSimSeconds() const {
    return epochs.empty() ? 0.0 : epochs.back().sim_seconds_cum;
  }
  double SecondsPerEpoch() const {
    return epochs.empty() ? 0.0 : TotalSimSeconds() / epochs.size();
  }
};

// Everything a trainer needs from the platform.
struct FlSession {
  core::HeService* he = nullptr;
  net::Network* network = nullptr;
  SimClock* clock = nullptr;  // may be null
  // Set when a fault plan is active: trainers consult it for party
  // liveness and straggler factors (transport faults are injected inside
  // Network and handled by the ReliableChannel without trainer help).
  net::FaultInjector* faults = nullptr;
  // Set when the platform bounds the run with a simulated-time budget:
  // trainers check it at round boundaries (via RobustCoordinator) and
  // return typed kDeadlineExceeded instead of starting work the budget
  // cannot cover. Null = unbounded (the default).
  const common::Deadline* deadline = nullptr;
};

}  // namespace flb::fl

#endif  // FLB_FL_FL_TYPES_H_

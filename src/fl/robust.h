// RobustCoordinator: the trainers' one epoch loop, and their graceful
// degradation under a fault plan (DESIGN.md §6).
//
// All five trainers run through RunEpochs and supply only their own round,
// snapshot/restore and evaluate steps. The loop owns the epoch protocol:
// the critical-party and deadline gate before each round, the epoch record
// (loss, Table VI timing, trace and /status), epoch-boundary checkpoints,
// crash-resume, the convergence stop and the final counters.
//
// When the platform attaches a FaultInjector the trainers face crashed
// parties, stragglers past their deadline, and transport errors that the
// ReliableChannel could not hide (kUnavailable / kDeadlineExceeded /
// kDataLoss after retries). The coordinator centralizes the policy:
//
//   * liveness gating — a party down at round start is excluded (crash
//     dropout) and rejoins automatically when it recovers, picking up the
//     current global model from the next broadcast;
//   * straggler gating — a slow party's extra compute time is charged to
//     the timeline only up to the relative deadline factor; past either the
//     relative or the absolute per-round budget the receiver stops waiting
//     and the party's contribution is dropped (straggler dropout);
//   * partial aggregation — a fold sums the k vectors it actually received
//     (FedAvg renormalization: divide by k, not p);
//   * checkpoint / resume — epoch-boundary model snapshots, kept in memory
//     in model_io's "FLBC" format; when any critical party crashes (the
//     homo server, the hetero guest, arbiter or NN host), the loop waits
//     out the downtime on the SimClock, restores the last checkpoint,
//     purges in-flight messages (restart semantics) and re-runs from the
//     next epoch.
//
// Every hook is a no-op when no fault injector is attached, so the healthy
// path keeps byte-for-byte the legacy accounting.

#ifndef FLB_FL_ROBUST_H_
#define FLB_FL_ROBUST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/fl/fl_types.h"
#include "src/fl/party_health.h"

namespace flb::fl {

// How a trainer's round ended.
enum class RoundEnd {
  kDone,     // finished, possibly degraded around the parties it lost
  kAborted,  // a critical party went down mid-round: roll the epoch back
};

// The trainer-specific steps RunEpochs drives.
struct EpochSteps {
  // Names the run-deadline check in its error ("HomoLrTrainer::Train").
  const char* name = "";
  size_t rounds = 1;  // rounds (mini-batches) per epoch
  std::function<Result<RoundEnd>(size_t round)> round;
  // The model state an epoch-boundary checkpoint holds.
  std::function<std::vector<double>()> snapshot;
  // Loads a checkpointed state before epoch `resume_epoch` re-runs, and
  // resets whatever the checkpoint does not hold.
  std::function<void(std::vector<double> state, int resume_epoch)> restore;
  // Loss over the training data; writes the accuracy.
  std::function<double(double* accuracy)> evaluate;
};

class RobustCoordinator {
 public:
  RobustCoordinator(const FlSession& session, const TrainConfig& config,
                    std::string trainer);

  // True when a fault plan is active; every other method is a cheap no-op
  // otherwise.
  bool active() const { return session_.faults != nullptr; }

  // The parties whose loss aborts the round outright (homo: the
  // aggregation server; hetero LR: guest + arbiter; hetero NN: all three;
  // SBT: the guest). Checkpoint/resume and CriticalDown key off this set,
  // and its first party is the Coordinator(). Non-empty; default:
  // {kServerName}.
  void set_critical_parties(std::vector<std::string> parties);

  // Runs up to config.max_epochs epochs of steps.rounds rounds each.
  Result<TrainResult> RunEpochs(const EpochSteps& steps);

  // One party's straggler-gated encrypted upload: admits `party`
  // (AdmitParty), encrypts `local()` (the party's compute, charged inside
  // it), applies the straggler gates, and sends the vector to `to` under
  // `tag`. Returns whether it was sent; a party that sat out or dropped
  // out is counted.
  Result<bool> Upload(const std::string& party, const std::string& to,
                      const char* tag,
                      const std::function<std::vector<double>()>& local);

  // The AddCipher sum of the vectors FoldUploads received.
  struct Fold {
    core::EncVec sum;
    size_t count = 0;      // vectors folded into sum
    bool aborted = false;  // a critical party went down mid-fold
  };
  // Receives up to `expected` encrypted vectors at `at` under `tag` and
  // folds them. A recoverable receive failure drops that vector (a
  // transport dropout at `at`), or aborts the fold when a critical party
  // is down.
  Result<Fold> FoldUploads(const std::string& at, const char* tag,
                           size_t expected);

  // The homo trainers' secure-aggregation round over `parties` clients:
  // each uploads its encrypted local(party) to the server under `tag`, the
  // server folds what arrives and broadcasts the sum, and each live client
  // decrypts it. `apply` gets the sum divided by the number of vectors
  // folded; it is not called when nothing was folded or no client got the
  // sum back.
  Result<RoundEnd> SecureAggregationRound(
      int parties, const char* tag,
      const std::function<std::vector<double>(int party)>& local,
      const std::function<Status(const std::vector<double>& mean)>& apply);

  // Liveness at the current simulated time, without dropout accounting
  // (broadcast/decrypt phases re-check parties already counted at upload).
  bool IsUp(const std::string& party) const;
  // Round-start gate: liveness (a down party counts as one crash dropout)
  // plus the PartyHealth quarantine. A quarantined party is skipped for the
  // round (quarantine_skip).
  bool AdmitParty(const std::string& party);
  // Outcome of one exchange with a party, feeding its failure EWMA.
  void RecordPartyOutcome(const std::string& party, bool ok);
  // Any critical party down at the current simulated time.
  bool CriticalDown() const;

  // Transport errors the trainers absorb as a dropout instead of aborting.
  static bool Recoverable(const Status& status);
  void CountTransportDropout(const std::string& party, const Status& status);
  void CountSkippedRound();
  void CountPartialRound();

 private:
  // The run-wide deadline gate (session.deadline; OK when unbounded).
  // Expiry is counted, recorded, and surfaced as typed kDeadlineExceeded.
  // Works with or without a fault plan — a deadline alone is enough to
  // bound a healthy run.
  Status CheckDeadline(const char* what);

  // Straggler model for one party's upload: charges the extra compute its
  // slow host adds on top of the already-charged healthy `compute_sec`
  // (capped at the relative deadline gate — the receiver stops waiting
  // there), then applies both deadline gates to the slowed compute plus
  // the slowed `send_sec` transfer estimate. Returns false when the party
  // missed the round deadline.
  bool AdmitUpload(const std::string& party, double compute_sec,
                   double send_sec);

  // Snapshots the model at an epoch boundary (epoch = -1 for the initial
  // state). No-op when inactive.
  void Checkpoint(int epoch, const EpochSteps& steps);

  // Critical-party crash recovery: waits out remaining downtime of every
  // crashed critical party on the SimClock (kUnavailable if any never
  // recovers), restores the last checkpoint into `state`, purges in-flight
  // messages, and returns the first epoch to re-run.
  Result<int> Resume(std::vector<double>* state);

  // The party that coordinates the run, and the label of its events
  // (checkpoint, resume, skipped/partial rounds, deadline): the first
  // critical party, so the server for the homo trainers and the guest for
  // the hetero ones.
  const std::string& Coordinator() const { return critical_parties_.front(); }

  void RecordEvent(const char* kind, const std::string& party);
  // Mirrors the quarantine/deadline counters into obs::RunStatus.
  void PublishStatus();

  FlSession session_;
  TrainConfig config_;
  std::string trainer_;
  std::vector<uint8_t> last_checkpoint_;
  std::vector<std::string> critical_parties_;
  PartyHealth health_;
  RobustnessCounters counters_;
};

}  // namespace flb::fl

#endif  // FLB_FL_ROBUST_H_

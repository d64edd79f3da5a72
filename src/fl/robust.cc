#include "src/fl/robust.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/core/transport.h"
#include "src/fl/metrics.h"
#include "src/fl/model_io.h"
#include "src/fl/trainer_util.h"
#include "src/net/fault.h"
#include "src/net/reliable_channel.h"
#include "src/obs/metrics.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::fl {

namespace {
PartyHealthOptions HealthOptions(const TrainConfig& config) {
  PartyHealthOptions options;
  options.ewma_alpha = config.health_ewma_alpha;
  options.failure_threshold = config.health_failure_threshold;
  options.quarantine_sec = config.health_quarantine_sec;
  options.backoff = config.health_quarantine_backoff;
  options.max_quarantine_sec = config.health_max_quarantine_sec;
  return options;
}

// Snapshot of the simulated clock + network counters, used to attribute
// per-epoch component times (Table VI's decomposition).
struct ClockSnapshot {
  double total = 0, he = 0, comm = 0;
  uint64_t bytes = 0;

  static ClockSnapshot Take(const SimClock* clock, const net::Network* net) {
    ClockSnapshot s;
    if (clock != nullptr) {
      s.total = clock->Now();
      s.he = clock->HeSeconds();
      s.comm = clock->CommSeconds();
    }
    if (net != nullptr) s.bytes = net->stats().bytes;
    return s;
  }
};

// Fills the timing fields of an EpochRecord from two snapshots.
void FillEpochTiming(const ClockSnapshot& before, const ClockSnapshot& after,
                     EpochRecord* record) {
  record->sim_seconds_cum = after.total;
  record->epoch_seconds = after.total - before.total;
  record->he_seconds = after.he - before.he;
  record->comm_seconds = after.comm - before.comm;
  record->other_seconds =
      record->epoch_seconds - record->he_seconds - record->comm_seconds;
  record->comm_bytes = after.bytes - before.bytes;
}

// Records the finished epoch on the trainer's trace track (span args carry
// the Table VI component breakdown), in the metrics registry, and in the
// live RunStatus served by /status. Call right after FillEpochTiming.
//
// The status snapshot is taken here, between batches, where HeService's op
// counters (relaxed atomics, each exact) also agree with each other;
// RunStatus gets values, never pointers, so a concurrent scrape can't race
// the trainer (see run_status.h).
void TraceEpoch(const std::string& trainer, const EpochRecord& record,
                const FlSession& session, int max_epochs) {
  auto& metrics = obs::MetricsRegistry::Global();
  const std::string labels = "model=" + trainer;
  metrics.Count("flb.fl.epochs", 1, labels);
  metrics.Observe("flb.fl.epoch_seconds", record.epoch_seconds, labels);

  obs::EpochStatus epoch_status;
  epoch_status.epoch = record.epoch;
  epoch_status.max_epochs = max_epochs;
  epoch_status.loss = record.loss;
  epoch_status.accuracy = record.accuracy;
  epoch_status.sim_seconds = record.sim_seconds_cum;
  epoch_status.comm_bytes = record.comm_bytes;
  obs::HeOpsStatus he_status;
  if (session.he != nullptr) {
    const core::HeOpCounts ops = session.he->op_counts();
    he_status.encrypts = ops.encrypts;
    he_status.decrypts = ops.decrypts;
    he_status.hom_adds = ops.hom_adds;
    he_status.scalar_muls = ops.scalar_muls;
    he_status.values_encrypted = ops.values_encrypted;
    he_status.values_decrypted = ops.values_decrypted;
  }
  obs::RunStatus::Global().UpdateEpoch(epoch_status, he_status);

  if (session.faults != nullptr) {
    const net::FaultStats fs = session.faults->stats();
    obs::FaultStatus fault_status;
    fault_status.injected = fs.TotalInjected();
    fault_status.drops = fs.drops + fs.partition_drops + fs.crash_drops;
    fault_status.duplicates = fs.duplicates;
    fault_status.reorders = fs.reorders;
    fault_status.corruptions = fs.corruptions;
    fault_status.delays = fs.delays;
    obs::ChannelStatus channel_status;
    if (session.network != nullptr &&
        session.network->reliable_channel() != nullptr) {
      const net::ChannelStats cs =
          session.network->reliable_channel()->stats();
      channel_status.retransmits = cs.retransmits;
      channel_status.timeouts = cs.timeouts;
      channel_status.crc_failures = cs.crc_failures;
    }
    obs::RunStatus::Global().UpdateFaults(fault_status, channel_status);
  }

  auto& rec = obs::TraceRecorder::Global();
  if (!rec.enabled()) return;
  rec.Span(rec.RegisterTrack("trainer", trainer),
           "epoch " + std::to_string(record.epoch), "epoch",
           record.sim_seconds_cum - record.epoch_seconds,
           record.sim_seconds_cum,
           {obs::Arg("he_seconds", record.he_seconds),
            obs::Arg("comm_seconds", record.comm_seconds),
            obs::Arg("other_seconds", record.other_seconds),
            obs::Arg("comm_bytes", record.comm_bytes),
            obs::Arg("loss", record.loss),
            obs::Arg("accuracy", record.accuracy)});
}

}  // namespace

RobustCoordinator::RobustCoordinator(const FlSession& session,
                                     const TrainConfig& config,
                                     std::string trainer)
    : session_(session),
      config_(config),
      trainer_(std::move(trainer)),
      critical_parties_({kServerName}),
      health_(HealthOptions(config), session.clock) {}

void RobustCoordinator::set_critical_parties(
    std::vector<std::string> parties) {
  FLB_CHECK(!parties.empty(), "a run needs a coordinating party");
  critical_parties_ = std::move(parties);
}

bool RobustCoordinator::IsUp(const std::string& party) const {
  return session_.faults == nullptr || !session_.faults->IsCrashed(party);
}

bool RobustCoordinator::AdmitParty(const std::string& party) {
  if (!IsUp(party)) {
    counters_.crash_dropouts += 1;
    RecordEvent("crash_dropout", party);
    return false;
  }
  if (!active() || !health_.enabled()) return true;
  if (health_.Quarantined(party)) {
    counters_.quarantine_skips += 1;
    RecordEvent("quarantine_skip", party);
    return false;
  }
  // Quarantined() may have just readmitted the party on probation; fold
  // the transition into the run counters either way.
  if (health_.readmits() > counters_.readmits) {
    counters_.readmits = health_.readmits();
    RecordEvent("readmit", party);
  }
  return true;
}

void RobustCoordinator::RecordPartyOutcome(const std::string& party,
                                           bool ok) {
  if (!active() || !health_.enabled()) return;
  if (ok) {
    health_.RecordSuccess(party);
    return;
  }
  if (health_.RecordFailure(party)) {
    counters_.quarantines = health_.quarantines();
    RecordEvent("quarantine", party);
  }
}

Status RobustCoordinator::CheckDeadline(const char* what) {
  if (session_.deadline == nullptr) return Status::OK();
  Status status = session_.deadline->Check(what);
  if (status.ok()) return status;
  counters_.deadline_exceeded += 1;
  RecordEvent("deadline_exceeded", Coordinator());
  return status;
}

bool RobustCoordinator::CriticalDown() const {
  for (const std::string& party : critical_parties_) {
    if (!IsUp(party)) return true;
  }
  return false;
}

bool RobustCoordinator::AdmitUpload(const std::string& party,
                                    double compute_sec, double send_sec) {
  if (!active()) return true;
  const double scale = session_.faults->StragglerFactor(party);
  const double gate = config_.straggler_deadline_factor;
  const bool past_gate = gate > 0 && scale > gate;
  // The server waits for the straggler only up to the gate, so the extra
  // compute charged to the shared timeline is capped at factor `gate`.
  const double eff = past_gate ? gate : scale;
  if (session_.clock != nullptr && compute_sec > 0 && eff > 1.0) {
    session_.clock->Charge(CostKind::kModelCompute,
                           (eff - 1.0) * compute_sec);
  }
  if (past_gate) {
    counters_.straggler_dropouts += 1;
    RecordEvent("straggler_dropout", party);
    return false;
  }
  if (config_.straggler_deadline_sec > 0 &&
      eff * compute_sec + scale * send_sec > config_.straggler_deadline_sec) {
    counters_.straggler_dropouts += 1;
    RecordEvent("straggler_dropout", party);
    return false;
  }
  return true;
}

bool RobustCoordinator::Recoverable(const Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded() ||
         status.IsDataLoss();
}

void RobustCoordinator::CountTransportDropout(const std::string& party,
                                              const Status& status) {
  counters_.transport_dropouts += 1;
  RecordEvent(status.IsDataLoss() ? "data_loss_dropout" : "transport_dropout",
              party);
}

void RobustCoordinator::CountSkippedRound() {
  counters_.skipped_rounds += 1;
  RecordEvent("skipped_round", Coordinator());
}

void RobustCoordinator::CountPartialRound() {
  counters_.partial_rounds += 1;
  RecordEvent("partial_round", Coordinator());
}

void RobustCoordinator::Checkpoint(int epoch, const EpochSteps& steps) {
  if (!active()) return;
  last_checkpoint_ = SerializeCheckpoint(epoch, steps.snapshot());
  counters_.checkpoints += 1;
  RecordEvent("checkpoint", Coordinator());
}

Result<int> RobustCoordinator::Resume(std::vector<double>* state) {
  if (!active()) {
    return Status::InvalidArgument("Resume: no fault plan active");
  }
  for (const std::string& party : critical_parties_) {
    if (!session_.faults->IsCrashed(party)) continue;
    const double recover = session_.faults->CrashRecoverTime(party);
    if (recover < 0) {
      return Status::Unavailable("RobustCoordinator: critical party '" +
                                 party +
                                 "' crashed permanently; cannot resume");
    }
    SimClock* clock = session_.clock;
    if (clock != nullptr && recover > clock->Now()) {
      // Training stalls until the critical party restarts.
      clock->Charge(CostKind::kOther, recover - clock->Now());
    }
  }
  if (last_checkpoint_.empty()) {
    return Status::NotFound("RobustCoordinator: no checkpoint to resume from");
  }
  FLB_ASSIGN_OR_RETURN(TrainCheckpoint ckpt,
                       DeserializeCheckpoint(last_checkpoint_));
  *state = ckpt.weights;
  // The restarted party lost all in-flight round state.
  if (session_.network != nullptr) session_.network->PurgeInboxes();
  counters_.resumes += 1;
  RecordEvent("resume", Coordinator());
  return ckpt.epoch + 1;
}

Result<TrainResult> RobustCoordinator::RunEpochs(const EpochSteps& steps) {
  Checkpoint(-1, steps);
  TrainResult result;
  double prev_loss = std::numeric_limits<double>::infinity();
  int epoch = 0;
  while (epoch < config_.max_epochs) {
    const ClockSnapshot before =
        ClockSnapshot::Take(session_.clock, session_.network);
    bool aborted = false;
    for (size_t r = 0; r < steps.rounds && !aborted; ++r) {
      // A critical party down at the round boundary aborts the epoch.
      if (active() && CriticalDown()) {
        aborted = true;
        break;
      }
      FLB_RETURN_IF_ERROR(CheckDeadline(steps.name));
      FLB_ASSIGN_OR_RETURN(const RoundEnd end, steps.round(r));
      aborted = end == RoundEnd::kAborted;
    }

    if (aborted) {
      // Restart: wait out the downtime, restore the last epoch checkpoint,
      // and re-run from there.
      std::vector<double> state;
      FLB_ASSIGN_OR_RETURN(epoch, Resume(&state));
      if (static_cast<size_t>(epoch) < result.epochs.size()) {
        result.epochs.resize(epoch);
      }
      steps.restore(std::move(state), epoch);
      prev_loss = result.epochs.empty()
                      ? std::numeric_limits<double>::infinity()
                      : result.epochs.back().loss;
      continue;
    }

    EpochRecord record;
    record.epoch = epoch;
    record.loss = steps.evaluate(&record.accuracy);
    FillEpochTiming(
        before, ClockSnapshot::Take(session_.clock, session_.network), &record);
    TraceEpoch(trainer_, record, session_, config_.max_epochs);
    result.epochs.push_back(record);
    Checkpoint(epoch, steps);
    if (std::fabs(prev_loss - record.loss) < config_.tolerance) {
      result.converged = true;
      break;
    }
    prev_loss = record.loss;
    epoch += 1;
  }
  if (!result.epochs.empty()) {
    result.final_loss = result.epochs.back().loss;
    result.final_accuracy = result.epochs.back().accuracy;
  }
  result.robustness = counters_;
  return result;
}

Result<bool> RobustCoordinator::Upload(
    const std::string& party, const std::string& to, const char* tag,
    const std::function<std::vector<double>()>& local) {
  if (!AdmitParty(party)) return false;
  core::HeService& he = *session_.he;
  SimClock* clock = session_.clock;
  const double t0 = clock != nullptr ? clock->Now() : 0.0;
  FLB_ASSIGN_OR_RETURN(core::EncVec enc, he.EncryptValues(local()));
  if (active()) {
    const double compute = clock != nullptr ? clock->Now() - t0 : 0.0;
    const double send = session_.network->TransferSeconds(
        he.WireBytes(enc), enc.data.size());
    if (!AdmitUpload(party, compute, send)) {
      RecordPartyOutcome(party, false);
      return false;
    }
  }
  Status sent = core::SendEncVec(session_.network, he, party, to, tag, enc);
  if (!sent.ok()) {
    if (!active() || !Recoverable(sent)) return sent;
    RecordPartyOutcome(party, false);
    CountTransportDropout(party, sent);
    return false;
  }
  RecordPartyOutcome(party, true);
  return true;
}

Result<RobustCoordinator::Fold> RobustCoordinator::FoldUploads(
    const std::string& at, const char* tag, size_t expected) {
  Fold fold;
  for (size_t i = 0; i < expected; ++i) {
    Result<core::EncVec> next = core::RecvEncVec(session_.network, at, tag);
    if (!next.ok()) {
      if (!active() || !Recoverable(next.status())) return next.status();
      if (CriticalDown()) {
        fold.aborted = true;
        return fold;
      }
      CountTransportDropout(at, next.status());
      continue;
    }
    if (fold.count == 0) {
      fold.sum = std::move(next).value();
    } else {
      FLB_ASSIGN_OR_RETURN(fold.sum,
                           session_.he->AddCipher(fold.sum, next.value()));
    }
    fold.count += 1;
  }
  return fold;
}

Result<RoundEnd> RobustCoordinator::SecureAggregationRound(
    int parties, const char* tag,
    const std::function<std::vector<double>(int party)>& local,
    const std::function<Status(const std::vector<double>& mean)>& apply) {
  core::HeService& he = *session_.he;
  net::Network* net = session_.network;
  // --- clients: local vector -> encrypt -> upload ---------------------------
  size_t participants = 0;
  for (int party = 0; party < parties; ++party) {
    FLB_ASSIGN_OR_RETURN(const bool sent,
                         Upload(PartyName(party), kServerName, tag,
                                [&] { return local(party); }));
    if (sent) participants += 1;
  }
  // --- server: homomorphic aggregation, broadcast ---------------------------
  const size_t expected =
      active() ? participants : static_cast<size_t>(parties);
  FLB_ASSIGN_OR_RETURN(Fold agg, FoldUploads(kServerName, tag, expected));
  if (agg.aborted) return RoundEnd::kAborted;
  if (agg.count == 0) {
    CountSkippedRound();
    return RoundEnd::kDone;
  }
  if (agg.count < static_cast<size_t>(parties)) CountPartialRound();
  for (int party = 0; party < parties; ++party) {
    const std::string name = PartyName(party);
    if (active() && !IsUp(name)) continue;
    Status sent = core::SendEncVec(net, he, kServerName, name, "agg", agg.sum);
    if (!sent.ok()) {
      if (!active() || !Recoverable(sent)) return sent;
      CountTransportDropout(name, sent);
    }
  }
  // --- clients: decrypt, average, apply --------------------------------------
  // All live parties perform the identical decrypt + update; the HE and
  // compute cost is charged once per party.
  std::vector<double> mean;
  size_t decrypted = 0;
  for (int party = 0; party < parties; ++party) {
    const std::string name = PartyName(party);
    if (active() && !IsUp(name)) continue;
    Result<core::EncVec> got = core::RecvEncVec(net, name, "agg");
    if (!got.ok()) {
      if (!active() || !Recoverable(got.status())) return got.status();
      CountTransportDropout(name, got.status());
      continue;
    }
    FLB_ASSIGN_OR_RETURN(mean, he.DecryptValues(got.value()));
    decrypted += 1;
  }
  if (decrypted == 0) return RoundEnd::kDone;  // no live party got the sum
  // FedAvg renormalization: the sum carries agg.count vectors (== parties
  // on the healthy path).
  for (double& v : mean) v /= static_cast<double>(agg.count);
  ChargeModelCompute(session_.clock, 2.0 * mean.size() * decrypted);
  FLB_RETURN_IF_ERROR(apply(mean));
  return RoundEnd::kDone;
}

void RobustCoordinator::RecordEvent(const char* kind,
                                    const std::string& party) {
  PublishStatus();
  const std::string labels =
      "kind=" + std::string(kind) + ",party=" + party + ",model=" + trainer_;
  obs::MetricsRegistry::Global().Count("flb.fl.robust.events", 1, labels);
  // The unified resilience namespace: one counter stream across the robust
  // coordinator, party health, and the circuit breaker (which emits its
  // own flb.resilience.breaker.* transitions).
  obs::MetricsRegistry::Global().Count("flb.resilience.events", 1, labels);
  auto& rec = obs::TraceRecorder::Global();
  if (!rec.enabled()) return;
  const double now = session_.clock != nullptr ? session_.clock->Now() : 0.0;
  rec.Instant(rec.RegisterTrack("robust", trainer_), kind, "robust", now,
              {obs::Arg("party", party)});
}

void RobustCoordinator::PublishStatus() {
  obs::RunStatus::Global().UpdateQuarantine(
      health_.QuarantinedCount(), counters_.quarantines, counters_.readmits,
      counters_.deadline_exceeded);
}

}  // namespace flb::fl

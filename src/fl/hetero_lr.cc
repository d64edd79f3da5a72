#include "src/fl/hetero_lr.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/transport.h"
#include "src/fl/metrics.h"
#include "src/fl/robust.h"
#include "src/fl/trainer_util.h"

namespace flb::fl {

namespace {

// Checkpoint layout for the per-party weight vectors: concatenation in
// party order (the per-party sizes are fixed by the partition shape).
std::vector<double> FlattenWeights(
    const std::vector<std::vector<double>>& weights) {
  std::vector<double> flat;
  for (const auto& w : weights) flat.insert(flat.end(), w.begin(), w.end());
  return flat;
}

void UnflattenWeights(const std::vector<double>& flat,
                      std::vector<std::vector<double>>* weights) {
  size_t offset = 0;
  for (auto& w : *weights) {
    for (double& v : w) v = offset < flat.size() ? flat[offset++] : 0.0;
  }
}

}  // namespace

HeteroLrTrainer::HeteroLrTrainer(VerticalPartition partition,
                                 FlSession session, TrainConfig config)
    : partition_(std::move(partition)),
      session_(session),
      config_(config) {
  FLB_CHECK(!partition_.shards.empty());
  weights_.resize(partition_.shards.size());
  for (size_t p = 0; p < partition_.shards.size(); ++p) {
    // Guest (party 0) owns the intercept.
    weights_[p].assign(partition_.shards[p].x.cols() + (p == 0 ? 1 : 0), 0.0);
  }
}

std::vector<double> HeteroLrTrainer::PartialScores(int party, size_t begin,
                                                   size_t end) const {
  const DataMatrix& x = partition_.shards[party].x;
  const std::vector<double>& w = weights_[party];
  std::vector<double> u;
  u.reserve(end - begin);
  double flops = 0;
  for (size_t r = begin; r < end; ++r) {
    double z = x.Dot(r, w);
    if (party == 0) z += w.back();  // intercept
    u.push_back(z);
    flops += 2.0 * x.RowNnz(r);
  }
  ChargeModelCompute(session_.clock, flops);
  return u;
}

double HeteroLrTrainer::GlobalLoss(double* accuracy) const {
  // Evaluation-only: scores are assembled in-process without charging
  // communication (the paper likewise evaluates loss out of band).
  const size_t rows = partition_.shards[0].x.rows();
  double loss = 0.0;
  size_t correct = 0;
  double flops = 0;
  for (size_t r = 0; r < rows; ++r) {
    double z = weights_[0].back();
    for (size_t p = 0; p < partition_.shards.size(); ++p) {
      z += partition_.shards[p].x.Dot(r, weights_[p]);
      flops += 2.0 * partition_.shards[p].x.RowNnz(r);
    }
    const double prob = Sigmoid(z);
    loss += LogLoss(prob, partition_.labels[r]);
    correct += ((prob >= 0.5) == (partition_.labels[r] >= 0.5f)) ? 1 : 0;
  }
  ChargeModelCompute(session_.clock, flops);
  if (accuracy != nullptr) *accuracy = static_cast<double>(correct) / rows;
  return loss / rows;
}

Result<TrainResult> HeteroLrTrainer::Train() {
  const int parties = static_cast<int>(partition_.shards.size());
  core::HeService& he = *session_.he;
  net::Network& net = *session_.network;
  SimClock* clock = session_.clock;
  RobustCoordinator robust(session_, config_, "hetero_lr");
  // The protocol cannot proceed without the label owner or the key holder;
  // hosts only contribute score shares and can be absorbed partially.
  robust.set_critical_parties({kGuestName, kArbiterName});

  std::vector<std::unique_ptr<Optimizer>> optimizers;
  for (int p = 0; p < parties; ++p) {
    optimizers.push_back(
        MakeOptimizer(config_.optimizer, config_.learning_rate));
  }

  const size_t rows = partition_.shards[0].x.rows();
  // A lost residual ends the batch without an update, or aborts the epoch
  // when a critical party is down.
  auto lose_residual = [&](const char* at,
                           const Status& status) -> Result<RoundEnd> {
    if (!robust.active() || !RobustCoordinator::Recoverable(status)) {
      return status;
    }
    if (robust.CriticalDown()) return RoundEnd::kAborted;
    robust.CountTransportDropout(at, status);
    robust.CountSkippedRound();
    return RoundEnd::kDone;
  };

  EpochSteps steps;
  steps.name = "HeteroLrTrainer::Train";
  steps.rounds =
      std::max<size_t>(1, (rows + config_.batch_size - 1) / config_.batch_size);
  steps.round = [&](size_t b) -> Result<RoundEnd> {
    const size_t begin = b * config_.batch_size;
    const size_t end = std::min(rows, begin + config_.batch_size);
    const size_t m = end - begin;

    // --- hosts: encrypted scaled partial scores -> guest --------------------
    // A host that is down, quarantined, straggling past the gate, or whose
    // upload exhausts the transport retries drops out of this batch; the
    // guest folds only the shares that actually arrived (partial Taylor
    // residual — the hetero analogue of FedAvg renormalization).
    size_t fwd_sent = 0;
    for (int h = 1; h < parties; ++h) {
      FLB_ASSIGN_OR_RETURN(const bool sent,
                           robust.Upload(HostName(h), kGuestName, "fwd", [&] {
                             std::vector<double> u =
                                 PartialScores(h, begin, end);
                             for (double& v : u) v *= 0.25;
                             return u;
                           }));
      if (sent) fwd_sent += 1;
    }

    // --- guest: fold + own share + label term -> arbiter ---------------------
    // Taylor residual for {0,1} labels: d = sigmoid(z) - y ~= 0.25 z +
    // (0.5 - y); the guest owns the label term and its score share.
    std::vector<double> guest_term = PartialScores(0, begin, end);
    for (size_t i = 0; i < m; ++i) {
      guest_term[i] =
          0.25 * guest_term[i] + 0.5 - partition_.labels[begin + i];
    }
    const size_t expected_fwd =
        robust.active() ? fwd_sent : static_cast<size_t>(parties - 1);
    FLB_ASSIGN_OR_RETURN(RobustCoordinator::Fold fwd,
                         robust.FoldUploads(kGuestName, "fwd", expected_fwd));
    if (fwd.aborted) return RoundEnd::kAborted;
    core::EncVec residual;
    if (fwd.count > 0) {
      FLB_ASSIGN_OR_RETURN(residual, he.AddPlainValues(fwd.sum, guest_term));
    } else {
      // Every host share is missing this batch: train on the guest's own
      // term alone rather than stalling the round.
      FLB_ASSIGN_OR_RETURN(residual, he.EncryptValues(guest_term));
    }
    if (robust.active() && fwd.count < static_cast<size_t>(parties - 1)) {
      robust.CountPartialRound();
    }
    Status to_arbiter = core::SendEncVec(&net, he, kGuestName, kArbiterName,
                                         "residual", residual);
    if (!to_arbiter.ok()) return lose_residual(kGuestName, to_arbiter);

    // --- arbiter: decrypt, broadcast d ---------------------------------------
    Result<core::EncVec> enc_d =
        core::RecvEncVec(&net, kArbiterName, "residual");
    if (!enc_d.ok()) return lose_residual(kArbiterName, enc_d.status());
    FLB_ASSIGN_OR_RETURN(std::vector<double> d,
                         he.DecryptValues(enc_d.value()));
    std::vector<bool> got_d(parties, false);
    for (int p = 0; p < parties; ++p) {
      const std::string name = p == 0 ? kGuestName : HostName(p);
      if (robust.active() && !robust.IsUp(name)) continue;
      Status sent = core::SendDoubles(&net, kArbiterName, name, "d", d);
      if (!sent.ok()) {
        if (robust.active() && RobustCoordinator::Recoverable(sent)) {
          robust.CountTransportDropout(name, sent);
          continue;
        }
        return sent;
      }
      got_d[p] = true;
    }

    // --- all parties: plaintext local gradient + update ----------------------
    // A party that missed the broadcast keeps last round's weights; the
    // others advance (per-party models drift is bounded by the next
    // successful broadcast, exactly like a homo partial round).
    for (int p = 0; p < parties; ++p) {
      if (!got_d[p]) continue;
      const std::string name = p == 0 ? kGuestName : HostName(p);
      Result<std::vector<double>> received_d =
          core::RecvDoubles(&net, name, "d");
      if (!received_d.ok()) {
        if (robust.active() &&
            RobustCoordinator::Recoverable(received_d.status())) {
          robust.CountTransportDropout(name, received_d.status());
          continue;
        }
        return received_d.status();
      }
      const DataMatrix& x = partition_.shards[p].x;
      std::vector<double> grad(weights_[p].size(), 0.0);
      double flops = 0;
      for (size_t i = 0; i < m; ++i) {
        x.AddScaledRowTo(begin + i, received_d.value()[i], &grad);
        if (p == 0) grad.back() += received_d.value()[i];
        flops += 2.0 * x.RowNnz(begin + i);
      }
      const double inv = 1.0 / static_cast<double>(m);
      for (size_t j = 0; j < grad.size(); ++j) {
        grad[j] = grad[j] * inv + config_.l2 * weights_[p][j];
      }
      ChargeModelCompute(clock, flops + 3.0 * grad.size());
      FLB_RETURN_IF_ERROR(optimizers[p]->Step(&weights_[p], grad));
    }
    return RoundEnd::kDone;
  };
  steps.snapshot = [&] { return FlattenWeights(weights_); };
  // Optimizer moments are not checkpointed: they restart cold, like the
  // server's in the homo trainers.
  steps.restore = [&](std::vector<double> state, int) {
    UnflattenWeights(state, &weights_);
    for (auto& optimizer : optimizers) optimizer->Reset();
  };
  steps.evaluate = [&](double* accuracy) { return GlobalLoss(accuracy); };
  return robust.RunEpochs(steps);
}

}  // namespace flb::fl

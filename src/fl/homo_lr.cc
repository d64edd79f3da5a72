#include "src/fl/homo_lr.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/fl/metrics.h"
#include "src/fl/robust.h"

namespace flb::fl {

HomoLrTrainer::HomoLrTrainer(std::vector<Dataset> shards, FlSession session,
                             TrainConfig config)
    : shards_(std::move(shards)),
      session_(session),
      config_(config) {
  FLB_CHECK(!shards_.empty());
  weights_.assign(shards_[0].cols() + 1, 0.0);
}

std::vector<double> HomoLrTrainer::LocalGradient(const Dataset& shard,
                                                 size_t begin,
                                                 size_t end) const {
  const size_t dim = weights_.size();
  std::vector<double> grad(dim, 0.0);
  double flops = 0;
  for (size_t r = begin; r < end; ++r) {
    const double z = shard.x.Dot(r, weights_) + weights_.back();
    const double residual = Sigmoid(z) - shard.y[r];
    shard.x.AddScaledRowTo(r, residual, &grad);
    grad[dim - 1] += residual;
    flops += 4.0 * shard.x.RowNnz(r) + 10.0;
  }
  const double inv = end > begin ? 1.0 / static_cast<double>(end - begin) : 0;
  for (size_t j = 0; j < dim; ++j) {
    grad[j] = grad[j] * inv + config_.l2 * weights_[j];
  }
  flops += 3.0 * dim;
  ChargeModelCompute(session_.clock, flops);
  return grad;
}

double HomoLrTrainer::GlobalLoss(double* accuracy) const {
  double loss = 0.0;
  size_t total = 0, correct = 0;
  double flops = 0;
  for (const Dataset& shard : shards_) {
    for (size_t r = 0; r < shard.rows(); ++r) {
      const double p =
          Sigmoid(shard.x.Dot(r, weights_) + weights_.back());
      loss += LogLoss(p, shard.y[r]);
      correct += ((p >= 0.5) == (shard.y[r] >= 0.5f)) ? 1 : 0;
      flops += 2.0 * shard.x.RowNnz(r) + 20.0;
    }
    total += shard.rows();
  }
  ChargeModelCompute(session_.clock, flops);
  if (accuracy != nullptr) {
    *accuracy = static_cast<double>(correct) / total;
  }
  return loss / total;
}

Result<TrainResult> HomoLrTrainer::Train() {
  auto optimizer = MakeOptimizer(config_.optimizer, config_.learning_rate);
  RobustCoordinator robust(session_, config_, "homo_lr");

  size_t min_rows = shards_[0].rows();
  for (const auto& s : shards_) min_rows = std::min(min_rows, s.rows());
  EpochSteps steps;
  steps.name = "HomoLrTrainer::Train";
  steps.rounds = std::max<size_t>(
      1, (min_rows + config_.batch_size - 1) / config_.batch_size);
  steps.round = [&](size_t b) {
    return robust.SecureAggregationRound(
        static_cast<int>(shards_.size()), "grad",
        [&](int party) {
          const Dataset& shard = shards_[party];
          const size_t begin =
              std::min<size_t>(b * config_.batch_size, shard.rows());
          const size_t end =
              std::min<size_t>(begin + config_.batch_size, shard.rows());
          return begin < end ? LocalGradient(shard, begin, end)
                             : std::vector<double>(weights_.size(), 0.0);
        },
        [&](const std::vector<double>& mean) {
          return optimizer->Step(&weights_, mean);
        });
  };
  steps.snapshot = [&] { return weights_; };
  // The restarted server also lost the optimizer moments (they are not
  // checkpointed).
  steps.restore = [&](std::vector<double> state, int) {
    weights_ = std::move(state);
    optimizer->Reset();
  };
  steps.evaluate = [&](double* accuracy) { return GlobalLoss(accuracy); };
  return robust.RunEpochs(steps);
}

}  // namespace flb::fl

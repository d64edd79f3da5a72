#include "src/fl/homo_nn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/fl/metrics.h"
#include "src/fl/robust.h"

namespace flb::fl {

namespace {

// Parameter-vector layout helpers for the 1-hidden-layer MLP.
struct Layout {
  size_t d, h;
  size_t W1(size_t j, size_t c) const { return j * d + c; }
  size_t b1(size_t j) const { return h * d + j; }
  size_t w2(size_t j) const { return h * d + h + j; }
  size_t b2() const { return h * d + 2 * h; }
  size_t total() const { return h * d + 2 * h + 1; }
};

}  // namespace

HomoNnTrainer::HomoNnTrainer(std::vector<Dataset> shards, FlSession session,
                             TrainConfig config, HomoNnParams params)
    : shards_(std::move(shards)),
      session_(session),
      config_(config),
      nn_(params) {
  FLB_CHECK(!shards_.empty() && nn_.hidden_dim >= 1);
  const Layout layout{shards_[0].cols(), static_cast<size_t>(nn_.hidden_dim)};
  Rng rng(nn_.init_seed);
  params_vec_.resize(layout.total());
  const double scale = 1.0 / std::sqrt(static_cast<double>(layout.d));
  for (size_t j = 0; j < layout.h * layout.d; ++j) {
    params_vec_[j] = rng.NextGaussian() * scale;
  }
  const double scale2 = 1.0 / std::sqrt(static_cast<double>(layout.h));
  for (size_t j = 0; j < layout.h; ++j) {
    params_vec_[layout.b1(j)] = 0.0;
    params_vec_[layout.w2(j)] = rng.NextGaussian() * scale2;
  }
  params_vec_[layout.b2()] = 0.0;
}

std::vector<double> HomoNnTrainer::Predict(const Dataset& data) const {
  const Layout layout{data.cols(), static_cast<size_t>(nn_.hidden_dim)};
  const std::vector<double>& p = params_vec_;
  std::vector<double> probs(data.rows());
  std::vector<double> hidden(layout.h);
  for (size_t r = 0; r < data.rows(); ++r) {
    for (size_t j = 0; j < layout.h; ++j) {
      double acc = p[layout.b1(j)];
      for (size_t e = data.x.RowBegin(r); e < data.x.RowEnd(r); ++e) {
        acc += p[layout.W1(j, data.x.EntryCol(e))] *
               static_cast<double>(data.x.EntryValue(e));
      }
      hidden[j] = std::tanh(acc);
    }
    double score = p[layout.b2()];
    for (size_t j = 0; j < layout.h; ++j) {
      score += p[layout.w2(j)] * hidden[j];
    }
    probs[r] = Sigmoid(score);
  }
  return probs;
}

std::vector<double> HomoNnTrainer::LocalDelta(
    const Dataset& shard, size_t begin, size_t end,
    const std::vector<double>& start) const {
  const Layout layout{shard.cols(), static_cast<size_t>(nn_.hidden_dim)};
  std::vector<double> p = start;
  const size_t m = end - begin;
  std::vector<double> hidden(layout.h), pre(layout.h);
  double flops = 0;
  for (int step = 0; step < nn_.local_steps; ++step) {
    std::vector<double> grad(p.size(), 0.0);
    for (size_t r = begin; r < end; ++r) {
      // Forward.
      for (size_t j = 0; j < layout.h; ++j) {
        double acc = p[layout.b1(j)];
        for (size_t e = shard.x.RowBegin(r); e < shard.x.RowEnd(r); ++e) {
          acc += p[layout.W1(j, shard.x.EntryCol(e))] *
                 static_cast<double>(shard.x.EntryValue(e));
        }
        pre[j] = acc;
        hidden[j] = std::tanh(acc);
      }
      double score = p[layout.b2()];
      for (size_t j = 0; j < layout.h; ++j) {
        score += p[layout.w2(j)] * hidden[j];
      }
      // Backward (logistic loss).
      const double err = Sigmoid(score) - shard.y[r];
      grad[layout.b2()] += err;
      for (size_t j = 0; j < layout.h; ++j) {
        grad[layout.w2(j)] += err * hidden[j];
        const double dh = err * p[layout.w2(j)] *
                          (1.0 - hidden[j] * hidden[j]);
        grad[layout.b1(j)] += dh;
        for (size_t e = shard.x.RowBegin(r); e < shard.x.RowEnd(r); ++e) {
          grad[layout.W1(j, shard.x.EntryCol(e))] +=
              dh * static_cast<double>(shard.x.EntryValue(e));
        }
      }
      flops += 6.0 * layout.h * (shard.x.RowNnz(r) + 2);
    }
    const double lr = config_.learning_rate / static_cast<double>(m);
    for (size_t j = 0; j < p.size(); ++j) {
      p[j] -= lr * (grad[j] + config_.l2 * p[j] * m);
    }
    flops += 3.0 * p.size();
  }
  ChargeModelCompute(session_.clock, flops);
  std::vector<double> delta(p.size());
  for (size_t j = 0; j < p.size(); ++j) delta[j] = p[j] - start[j];
  return delta;
}

double HomoNnTrainer::ForwardLoss(const Dataset& data,
                                  const std::vector<double>& /*p*/,
                                  double* accuracy) const {
  std::vector<double> probs = Predict(data);
  ChargeModelCompute(session_.clock,
                     2.0 * data.x.nnz() * nn_.hidden_dim);
  if (accuracy != nullptr) *accuracy = Accuracy(probs, data.y);
  return MeanLogLoss(probs, data.y);
}

Result<TrainResult> HomoNnTrainer::Train() {
  RobustCoordinator robust(session_, config_, "homo_nn");

  size_t min_rows = shards_[0].rows();
  for (const auto& s : shards_) min_rows = std::min(min_rows, s.rows());
  EpochSteps steps;
  steps.name = "HomoNnTrainer::Train";
  steps.rounds = std::max<size_t>(
      1, (min_rows + config_.batch_size - 1) / config_.batch_size);
  steps.round = [&](size_t b) {
    return robust.SecureAggregationRound(
        static_cast<int>(shards_.size()), "delta",
        [&](int party) {
          const Dataset& shard = shards_[party];
          const size_t begin =
              std::min<size_t>(b * config_.batch_size, shard.rows());
          const size_t end =
              std::min<size_t>(begin + config_.batch_size, shard.rows());
          return begin < end ? LocalDelta(shard, begin, end, params_vec_)
                             : std::vector<double>(params_vec_.size(), 0.0);
        },
        [&](const std::vector<double>& mean) {
          for (size_t j = 0; j < params_vec_.size(); ++j) {
            params_vec_[j] += mean[j];
          }
          return Status::OK();
        });
  };
  steps.snapshot = [&] { return params_vec_; };
  steps.restore = [&](std::vector<double> state, int) {
    params_vec_ = std::move(state);
  };
  steps.evaluate = [&](double* accuracy) {
    double loss = 0, acc = 0;
    size_t total = 0;
    for (const auto& shard : shards_) {
      double a;
      loss += ForwardLoss(shard, params_vec_, &a) * shard.rows();
      acc += a * shard.rows();
      total += shard.rows();
    }
    *accuracy = acc / total;
    return loss / total;
  };
  return robust.RunEpochs(steps);
}

}  // namespace flb::fl

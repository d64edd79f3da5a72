#include "src/fl/hetero_nn.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/core/transport.h"
#include "src/fl/metrics.h"
#include "src/fl/robust.h"
#include "src/fl/trainer_util.h"

namespace flb::fl {

namespace {

void InitWeights(std::vector<double>* w, size_t n, double scale, Rng* rng) {
  w->resize(n);
  for (auto& v : *w) v = rng->NextGaussian() * scale;
}

}  // namespace

HeteroNnTrainer::HeteroNnTrainer(VerticalPartition partition,
                                 FlSession session, TrainConfig config,
                                 NnParams params)
    : partition_(std::move(partition)),
      session_(session),
      config_(config),
      params_(params) {
  FLB_CHECK(partition_.shards.size() == 2,
            "HeteroNnTrainer expects guest + one host");
  Rng rng(params_.init_seed);
  const size_t guest_cols = partition_.shards[0].x.cols();
  const size_t host_cols = partition_.shards[1].x.cols();
  const int k = params_.bottom_dim;
  const int k2 = params_.interactive_dim;
  InitWeights(&w_guest_bottom_, k * guest_cols,
              1.0 / std::sqrt(static_cast<double>(guest_cols)), &rng);
  InitWeights(&w_host_bottom_, k * host_cols,
              1.0 / std::sqrt(static_cast<double>(host_cols)), &rng);
  InitWeights(&w_ih_, k2 * k, 1.0 / std::sqrt(static_cast<double>(k)), &rng);
  InitWeights(&w_ig_, k2 * k, 1.0 / std::sqrt(static_cast<double>(k)), &rng);
  b_i_.assign(k2, 0.0);
  InitWeights(&w_top_, k2, 1.0 / std::sqrt(static_cast<double>(k2)), &rng);
}

void HeteroNnTrainer::MatVec(const std::vector<double>& w, int out_dim,
                             int in_dim, const double* x, double* out) {
  for (int o = 0; o < out_dim; ++o) {
    double acc = 0;
    for (int j = 0; j < in_dim; ++j) acc += w[o * in_dim + j] * x[j];
    out[o] = acc;
  }
}

std::vector<double> HeteroNnTrainer::BottomForward(int party, size_t begin,
                                                   size_t end) const {
  const DataMatrix& x = partition_.shards[party].x;
  const std::vector<double>& w =
      party == 0 ? w_guest_bottom_ : w_host_bottom_;
  const int k = params_.bottom_dim;
  const size_t cols = x.cols();
  std::vector<double> acts((end - begin) * k);
  double flops = 0;
  for (size_t r = begin; r < end; ++r) {
    double* out = &acts[(r - begin) * k];
    for (int o = 0; o < k; ++o) {
      double acc = 0;
      for (size_t e = x.RowBegin(r); e < x.RowEnd(r); ++e) {
        acc += w[o * cols + x.EntryCol(e)] *
               static_cast<double>(x.EntryValue(e));
      }
      out[o] = std::tanh(acc);
    }
    flops += 2.0 * x.RowNnz(r) * k + 8.0 * k;
  }
  ChargeModelCompute(session_.clock, flops);
  return acts;
}

std::vector<double> HeteroNnTrainer::Predict() const {
  const size_t rows = partition_.shards[0].x.rows();
  const int k = params_.bottom_dim, k2 = params_.interactive_dim;
  std::vector<double> probs(rows);
  std::vector<double> a_g = BottomForward(0, 0, rows);
  std::vector<double> a_h = BottomForward(1, 0, rows);
  std::vector<double> z(k2), zh(k2), zg(k2);
  for (size_t i = 0; i < rows; ++i) {
    MatVec(w_ih_, k2, k, &a_h[i * k], zh.data());
    MatVec(w_ig_, k2, k, &a_g[i * k], zg.data());
    double score = b_top_;
    for (int o = 0; o < k2; ++o) {
      z[o] = std::tanh(zh[o] + zg[o] + b_i_[o]);
      score += w_top_[o] * z[o];
    }
    probs[i] = Sigmoid(score);
  }
  return probs;
}

double HeteroNnTrainer::EvaluateLoss(double* accuracy) const {
  std::vector<double> probs = Predict();
  ChargeModelCompute(session_.clock, 20.0 * probs.size());
  if (accuracy != nullptr) *accuracy = Accuracy(probs, partition_.labels);
  return MeanLogLoss(probs, partition_.labels);
}

std::vector<double> HeteroNnTrainer::SnapshotWeights() const {
  std::vector<double> flat;
  for (const auto* w : {&w_guest_bottom_, &w_host_bottom_, &w_ih_, &w_ig_,
                        &b_i_, &w_top_}) {
    flat.insert(flat.end(), w->begin(), w->end());
  }
  flat.push_back(b_top_);
  return flat;
}

void HeteroNnTrainer::RestoreWeights(const std::vector<double>& flat) {
  size_t offset = 0;
  for (auto* w : {&w_guest_bottom_, &w_host_bottom_, &w_ih_, &w_ig_, &b_i_,
                  &w_top_}) {
    for (double& v : *w) v = offset < flat.size() ? flat[offset++] : 0.0;
  }
  b_top_ = offset < flat.size() ? flat[offset] : 0.0;
}

Status HeteroNnTrainer::TrainBatch(size_t begin, size_t end) {
  core::HeService& he = *session_.he;
  net::Network& net = *session_.network;
  const int k = params_.bottom_dim, k2 = params_.interactive_dim;
  const size_t m = end - begin;
  const double lr = config_.learning_rate;
  {
      // --- guest: ship the encrypted interactive weights ----------------------
      // (k2 x k per-value ciphertexts — small, and the host can scalar-
      // multiply them by its own plaintext activations.)
      FLB_ASSIGN_OR_RETURN(core::EncVec enc_w, he.EncryptFixedPoint(w_ih_));
      FLB_RETURN_IF_ERROR(
          core::SendEncVec(&net, he, kGuestName, HostName(1), "enc_w", enc_w));

      // --- host: bottom forward + encrypted interactive forward ---------------
      std::vector<double> a_h = BottomForward(1, begin, end);  // m x k
      FLB_ASSIGN_OR_RETURN(core::EncVec host_enc_w,
                           core::RecvEncVec(&net, HostName(1), "enc_w"));
      std::vector<double> a_g = BottomForward(0, begin, end);
      // E(z_h[i][o]) = sum_j E(W[o][j]) * a_h[i][j]: one group per
      // (instance, interactive unit), weights are the host's activations.
      std::vector<std::vector<core::HeService::WeightedTerm>> fwd_groups;
      fwd_groups.reserve(m * k2);
      for (size_t i = 0; i < m; ++i) {
        for (int o = 0; o < k2; ++o) {
          std::vector<core::HeService::WeightedTerm> terms;
          terms.reserve(k);
          for (int j = 0; j < k; ++j) {
            terms.push_back(
                {static_cast<uint32_t>(o * k + j), a_h[i * k + j]});
          }
          fwd_groups.push_back(std::move(terms));
        }
      }
      FLB_ASSIGN_OR_RETURN(core::EncVec enc_zh,
                           he.WeightedSums(host_enc_w, fwd_groups));
      FLB_ASSIGN_OR_RETURN(enc_zh, he.CompressForTransmission(enc_zh));
      FLB_RETURN_IF_ERROR(
          core::SendEncVec(&net, he, HostName(1), kArbiterName, "zh", enc_zh));
      FLB_ASSIGN_OR_RETURN(core::EncVec arb_zh,
                           core::RecvEncVec(&net, kArbiterName, "zh"));
      FLB_ASSIGN_OR_RETURN(std::vector<double> zh, he.DecryptFixedPoint(arb_zh));
      FLB_RETURN_IF_ERROR(
          core::SendDoubles(&net, kArbiterName, kGuestName, "zh_plain", zh));
      FLB_ASSIGN_OR_RETURN(zh, core::RecvDoubles(&net, kGuestName, "zh_plain"));

      // --- guest: plaintext forward + backward through the top ---------------
      std::vector<double> z(m * k2), t(m * k2), delta_z(m * k2);
      std::vector<double> grad_w_top(k2, 0.0);
      double grad_b_top = 0.0;
      std::vector<double> grad_w_ig(k2 * k, 0.0), grad_b_i(k2, 0.0);
      std::vector<double> zg(k2);
      for (size_t i = 0; i < m; ++i) {
        MatVec(w_ig_, k2, k, &a_g[i * k], zg.data());
        double score = b_top_;
        for (int o = 0; o < k2; ++o) {
          z[i * k2 + o] = zh[i * k2 + o] + zg[o] + b_i_[o];
          t[i * k2 + o] = std::tanh(z[i * k2 + o]);
          score += w_top_[o] * t[i * k2 + o];
        }
        const double err =
            Sigmoid(score) - partition_.labels[begin + i];  // dL/dscore
        grad_b_top += err;
        for (int o = 0; o < k2; ++o) {
          grad_w_top[o] += err * t[i * k2 + o];
          const double dz =
              err * w_top_[o] * (1.0 - t[i * k2 + o] * t[i * k2 + o]);
          delta_z[i * k2 + o] = dz;
          grad_b_i[o] += dz;
          for (int j = 0; j < k; ++j) {
            grad_w_ig[o * k + j] += dz * a_g[i * k + j];
          }
        }
      }
      ChargeModelCompute(session_.clock, 10.0 * m * k2 * (k + 2));

      // --- interactive weight gradient via the host ---------------------------
      // The guest packs-and-encrypts the interactive deltas (BC packing: the
      // arbiter only decrypts them); the arbiter releases delta to the host,
      // which computes grad W_ih = delta^T a_h against its own activations.
      FLB_ASSIGN_OR_RETURN(core::EncVec enc_delta, he.EncryptValues(delta_z));
      FLB_RETURN_IF_ERROR(core::SendEncVec(&net, he, kGuestName, kArbiterName,
                                           "delta", enc_delta));
      FLB_ASSIGN_OR_RETURN(core::EncVec arb_delta,
                           core::RecvEncVec(&net, kArbiterName, "delta"));
      FLB_ASSIGN_OR_RETURN(std::vector<double> delta_plain,
                           he.DecryptValues(arb_delta));
      FLB_RETURN_IF_ERROR(core::SendDoubles(&net, kArbiterName, HostName(1),
                                            "delta_plain", delta_plain));
      FLB_ASSIGN_OR_RETURN(std::vector<double> host_delta,
                           core::RecvDoubles(&net, HostName(1), "delta_plain"));
      std::vector<double> host_wgrad(k2 * k, 0.0);
      for (size_t i = 0; i < m; ++i) {
        for (int o = 0; o < k2; ++o) {
          for (int j = 0; j < k; ++j) {
            host_wgrad[o * k + j] += host_delta[i * k2 + o] * a_h[i * k + j];
          }
        }
      }
      ChargeModelCompute(session_.clock, 2.0 * m * k2 * k);
      FLB_RETURN_IF_ERROR(core::SendDoubles(&net, HostName(1), kGuestName,
                                            "wgrad_plain", host_wgrad));
      FLB_ASSIGN_OR_RETURN(std::vector<double> grad_w_ih,
                           core::RecvDoubles(&net, kGuestName, "wgrad_plain"));

      // --- host backward ------------------------------------------------------
      // grad a_h[i][j] = sum_o delta_z[i][o] * W_ih[o][j] (plaintext at the
      // guest; see header privacy note), then the host backprops its bottom.
      std::vector<double> grad_ah(m * k, 0.0);
      for (size_t i = 0; i < m; ++i) {
        for (int o = 0; o < k2; ++o) {
          for (int j = 0; j < k; ++j) {
            grad_ah[i * k + j] += delta_z[i * k2 + o] * w_ih_[o * k + j];
          }
        }
      }
      ChargeModelCompute(session_.clock, 2.0 * m * k2 * k);
      FLB_RETURN_IF_ERROR(
          core::SendDoubles(&net, kGuestName, HostName(1), "grad_ah", grad_ah));
      FLB_ASSIGN_OR_RETURN(std::vector<double> host_grad_ah,
                           core::RecvDoubles(&net, HostName(1), "grad_ah"));
      {
        const DataMatrix& xh = partition_.shards[1].x;
        const size_t cols = xh.cols();
        std::vector<double> grad_w_hb(w_host_bottom_.size(), 0.0);
        double flops = 0;
        for (size_t i = 0; i < m; ++i) {
          for (int j = 0; j < k; ++j) {
            const double da =
                host_grad_ah[i * k + j] *
                (1.0 - a_h[i * k + j] * a_h[i * k + j]);  // tanh'
            for (size_t e = xh.RowBegin(begin + i); e < xh.RowEnd(begin + i);
                 ++e) {
              grad_w_hb[j * cols + xh.EntryCol(e)] +=
                  da * static_cast<double>(xh.EntryValue(e));
            }
            flops += 2.0 * xh.RowNnz(begin + i);
          }
        }
        const double scale = lr / static_cast<double>(m);
        for (size_t idx = 0; idx < w_host_bottom_.size(); ++idx) {
          w_host_bottom_[idx] -= scale * grad_w_hb[idx];
        }
        ChargeModelCompute(session_.clock, flops + w_host_bottom_.size());
      }

      // --- guest updates -------------------------------------------------------
      {
        // Guest bottom gradient via the interactive layer.
        const DataMatrix& xg = partition_.shards[0].x;
        const size_t cols = xg.cols();
        std::vector<double> grad_w_gb(w_guest_bottom_.size(), 0.0);
        double flops = 0;
        for (size_t i = 0; i < m; ++i) {
          for (int j = 0; j < k; ++j) {
            double grad_ag = 0;
            for (int o = 0; o < k2; ++o) {
              grad_ag += delta_z[i * k2 + o] * w_ig_[o * k + j];
            }
            const double da =
                grad_ag * (1.0 - a_g[i * k + j] * a_g[i * k + j]);
            for (size_t e = xg.RowBegin(begin + i); e < xg.RowEnd(begin + i);
                 ++e) {
              grad_w_gb[j * cols + xg.EntryCol(e)] +=
                  da * static_cast<double>(xg.EntryValue(e));
            }
            flops += 2.0 * (k2 + xg.RowNnz(begin + i));
          }
        }
        const double scale = lr / static_cast<double>(m);
        for (size_t idx = 0; idx < w_guest_bottom_.size(); ++idx) {
          w_guest_bottom_[idx] -= scale * grad_w_gb[idx];
        }
        for (int o = 0; o < k2; ++o) {
          for (int j = 0; j < k; ++j) {
            w_ih_[o * k + j] -= scale * grad_w_ih[o * k + j];
            w_ig_[o * k + j] -= scale * grad_w_ig[o * k + j];
          }
          b_i_[o] -= scale * grad_b_i[o];
          w_top_[o] -= scale * grad_w_top[o];
        }
        b_top_ -= scale * grad_b_top;
        ChargeModelCompute(session_.clock, flops + 4.0 * k2 * k);
      }
  }
  return Status::OK();
}

Result<TrainResult> HeteroNnTrainer::Train() {
  const size_t rows = partition_.shards[0].x.rows();
  RobustCoordinator robust(session_, config_, "hetero_nn");
  // Every message in this protocol crosses a link between guest, host, and
  // arbiter, and each round mutates weights mid-protocol; no party is
  // droppable. Any recoverable transport failure therefore aborts the
  // epoch and restores the last checkpoint (split-NN fast abort).
  robust.set_critical_parties({kGuestName, HostName(1), kArbiterName});

  EpochSteps steps;
  steps.name = "HeteroNnTrainer::Train";
  steps.rounds =
      std::max<size_t>(1, (rows + config_.batch_size - 1) / config_.batch_size);
  steps.round = [&](size_t b) -> Result<RoundEnd> {
    const size_t begin = b * config_.batch_size;
    const size_t end = std::min(rows, begin + config_.batch_size);
    Status batch = TrainBatch(begin, end);
    if (batch.ok()) return RoundEnd::kDone;
    if (!robust.active() || !RobustCoordinator::Recoverable(batch)) {
      return batch;
    }
    // The round died mid-protocol: weights may be half-updated and peers
    // hold stale in-flight messages. Roll the epoch back.
    robust.CountTransportDropout("protocol", batch);
    return RoundEnd::kAborted;
  };
  steps.snapshot = [&] { return SnapshotWeights(); };
  steps.restore = [&](std::vector<double> state, int) {
    RestoreWeights(state);
  };
  steps.evaluate = [&](double* accuracy) { return EvaluateLoss(accuracy); };
  return robust.RunEpochs(steps);
}

}  // namespace flb::fl

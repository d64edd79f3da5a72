#include "src/fl/hetero_sbt.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/transport.h"
#include "src/fl/metrics.h"
#include "src/fl/robust.h"
#include "src/fl/trainer_util.h"
#include "src/net/serializer.h"

namespace flb::fl {

HeteroSbtTrainer::HeteroSbtTrainer(VerticalPartition partition,
                                   FlSession session, TrainConfig config,
                                   SbtParams params)
    : partition_(std::move(partition)),
      session_(session),
      config_(config),
      params_(params) {
  FLB_CHECK(!partition_.shards.empty());
  FLB_CHECK(params_.num_bins >= 2 && params_.num_bins <= 255);
  margins_.assign(partition_.shards[0].x.rows(), 0.0);
  BuildBins();
}

void HeteroSbtTrainer::BuildBins() {
  const size_t parties = partition_.shards.size();
  bin_lo_.resize(parties);
  bin_step_.resize(parties);
  bin_index_.resize(parties);
  for (size_t p = 0; p < parties; ++p) {
    const DataMatrix& x = partition_.shards[p].x;
    const size_t cols = x.cols();
    std::vector<float> lo(cols, 0.0f), hi(cols, 0.0f);
    std::vector<bool> seen(cols, false);
    for (size_t r = 0; r < x.rows(); ++r) {
      for (size_t k = x.RowBegin(r); k < x.RowEnd(r); ++k) {
        const uint32_t c = x.EntryCol(k);
        const float v = x.EntryValue(k);
        if (!seen[c]) {
          lo[c] = hi[c] = v;
          seen[c] = true;
        } else {
          lo[c] = std::min(lo[c], v);
          hi[c] = std::max(hi[c], v);
        }
      }
    }
    bin_lo_[p].resize(cols);
    bin_step_[p].resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      // Sparse zeros participate in the range.
      const float c_lo = seen[c] ? std::min(lo[c], 0.0f) : 0.0f;
      const float c_hi = seen[c] ? std::max(hi[c], 0.0f) : 0.0f;
      bin_lo_[p][c] = c_lo;
      const float span = c_hi - c_lo;
      bin_step_[p][c] = span > 0 ? span / params_.num_bins : 1.0f;
    }
    // Dense bin cache (rows x cols); zero entries land in the zero bin.
    bin_index_[p].assign(x.rows() * cols, 0);
    for (size_t c = 0; c < cols; ++c) {
      const int zero_bin = std::clamp(
          static_cast<int>((0.0f - bin_lo_[p][c]) / bin_step_[p][c]), 0,
          params_.num_bins - 1);
      if (zero_bin != 0) {
        for (size_t r = 0; r < x.rows(); ++r) {
          bin_index_[p][r * cols + c] = static_cast<uint8_t>(zero_bin);
        }
      }
    }
    for (size_t r = 0; r < x.rows(); ++r) {
      for (size_t k = x.RowBegin(r); k < x.RowEnd(r); ++k) {
        const uint32_t c = x.EntryCol(k);
        const int bin = std::clamp(
            static_cast<int>((x.EntryValue(k) - bin_lo_[p][c]) /
                             bin_step_[p][c]),
            0, params_.num_bins - 1);
        bin_index_[p][r * cols + c] = static_cast<uint8_t>(bin);
      }
    }
  }
}

int HeteroSbtTrainer::BinOf(int party, size_t row, uint32_t feature) const {
  return bin_index_[party][row * partition_.shards[party].x.cols() + feature];
}

HeteroSbtTrainer::Histogram HeteroSbtTrainer::PlainHistogram(
    int party, const std::vector<uint32_t>& instances,
    const std::vector<double>& g, const std::vector<double>& h) const {
  const size_t cols = partition_.shards[party].x.cols();
  Histogram hist;
  hist.g.assign(cols * params_.num_bins, 0.0);
  hist.h.assign(cols * params_.num_bins, 0.0);
  for (uint32_t i : instances) {
    for (size_t c = 0; c < cols; ++c) {
      const int bin = BinOf(party, i, static_cast<uint32_t>(c));
      hist.g[c * params_.num_bins + bin] += g[i];
      hist.h[c * params_.num_bins + bin] += h[i];
    }
  }
  ChargeModelCompute(session_.clock,
                     4.0 * instances.size() * cols);
  return hist;
}

Result<SbtTree> HeteroSbtTrainer::BuildTree(const std::vector<double>& g,
                                            const std::vector<double>& h,
                                            RobustCoordinator* robust) {
  const int parties = static_cast<int>(partition_.shards.size());
  core::HeService& he = *session_.he;
  net::Network& net = *session_.network;
  const size_t rows = margins_.size();
  const int bins = params_.num_bins;

  // Hosts admitted to this tree. A host lost mid-tree (crash, exhausted
  // retries, CRC loss) is excluded from the rest of the tree: its features
  // stop producing split candidates, which is the SBT analogue of partial
  // aggregation. A guest outage instead escalates out of BuildTree — the
  // tree is unusable without the label holder.
  std::vector<bool> live(parties, true);
  bool partial = false;
  for (int host = 1; host < parties; ++host) {
    live[host] = robust->AdmitParty(HostName(host));
    if (!live[host]) partial = true;
  }
  // Absorbs a recoverable per-host transport failure by dropping the host
  // for the rest of the tree; escalates everything else (including any
  // failure while the guest itself is down).
  auto drop_host = [&](int host, const Status& status) -> Status {
    if (!robust->active() || !RobustCoordinator::Recoverable(status)) {
      return status;
    }
    if (robust->CriticalDown()) return status;
    robust->RecordPartyOutcome(HostName(host), false);
    robust->CountTransportDropout(HostName(host), status);
    live[host] = false;
    partial = true;
    return Status::OK();
  };

  // --- guest: encrypt per-instance gradients, broadcast to hosts ------------
  core::EncVec enc_g, enc_h;
  std::vector<bool> sent_g(parties, false), sent_h(parties, false);
  bool any_host = false;
  for (int host = 1; host < parties; ++host) any_host |= live[host];
  if (any_host) {
    FLB_ASSIGN_OR_RETURN(enc_g, he.EncryptFixedPoint(g));
    FLB_ASSIGN_OR_RETURN(enc_h, he.EncryptFixedPoint(h));
    for (int host = 1; host < parties; ++host) {
      if (!live[host]) continue;
      Status sg = core::SendEncVec(&net, he, kGuestName, HostName(host),
                                   "enc_g", enc_g);
      if (!sg.ok()) {
        FLB_RETURN_IF_ERROR(drop_host(host, sg));
        continue;
      }
      sent_g[host] = true;
      Status sh = core::SendEncVec(&net, he, kGuestName, HostName(host),
                                   "enc_h", enc_h);
      if (!sh.ok()) {
        FLB_RETURN_IF_ERROR(drop_host(host, sh));
        continue;
      }
      sent_h[host] = true;
    }
  }
  // Hosts receive once per tree; the delivered half of a broken pair is
  // drained anyway so no stale ciphertext lingers in an inbox.
  std::vector<core::EncVec> host_g(parties), host_h(parties);
  for (int host = 1; host < parties; ++host) {
    if (sent_g[host]) {
      Result<core::EncVec> rg =
          core::RecvEncVec(&net, HostName(host), "enc_g");
      if (!rg.ok()) {
        FLB_RETURN_IF_ERROR(drop_host(host, rg.status()));
      } else {
        host_g[host] = std::move(rg).value();
      }
    }
    if (sent_h[host]) {
      Result<core::EncVec> rh =
          core::RecvEncVec(&net, HostName(host), "enc_h");
      if (!rh.ok()) {
        FLB_RETURN_IF_ERROR(drop_host(host, rh.status()));
      } else {
        host_h[host] = std::move(rh).value();
      }
    }
    if (live[host] && sent_g[host] && sent_h[host]) {
      robust->RecordPartyOutcome(HostName(host), true);
    }
  }

  SbtTree tree;
  tree.nodes.emplace_back();
  // Level-wise growth: (node id, instance set).
  std::vector<std::pair<int, std::vector<uint32_t>>> frontier;
  {
    std::vector<uint32_t> all(rows);
    for (size_t i = 0; i < rows; ++i) all[i] = static_cast<uint32_t>(i);
    frontier.emplace_back(0, std::move(all));
  }

  for (int depth = 0; depth < params_.max_depth && !frontier.empty();
       ++depth) {
    std::vector<std::pair<int, std::vector<uint32_t>>> next_frontier;
    for (auto& [node_id, instances] : frontier) {
      double g_total = 0, h_total = 0;
      for (uint32_t i : instances) {
        g_total += g[i];
        h_total += h[i];
      }

      // --- histograms: guest plaintext + hosts encrypted --------------------
      struct Candidate {
        double gain = -1;
        int party = -1;
        uint32_t feature = 0;
        int bin = 0;
      } best;
      auto scan = [&](int party, const std::vector<double>& hist_g,
                      const std::vector<double>& hist_h, size_t cols) {
        for (size_t c = 0; c < cols; ++c) {
          double gl = 0, hl = 0;
          for (int b = 0; b < bins - 1; ++b) {
            gl += hist_g[c * bins + b];
            hl += hist_h[c * bins + b];
            const double gr = g_total - gl, hr = h_total - hl;
            if (hl < params_.min_child_weight ||
                hr < params_.min_child_weight) {
              continue;
            }
            const double gain =
                0.5 * (gl * gl / (hl + params_.reg_lambda) +
                       gr * gr / (hr + params_.reg_lambda) -
                       g_total * g_total / (h_total + params_.reg_lambda));
            if (gain > best.gain) {
              best = {gain, party, static_cast<uint32_t>(c), b};
            }
          }
        }
        ChargeModelCompute(session_.clock, 8.0 * cols * bins);
      };

      Histogram guest_hist = PlainHistogram(0, instances, g, h);
      scan(0, guest_hist.g, guest_hist.h, partition_.shards[0].x.cols());

      for (int host = 1; host < parties; ++host) {
        if (!live[host]) continue;
        const size_t cols = partition_.shards[host].x.cols();
        // Host builds per-(feature, bin) index groups over the node's
        // instances and sums the encrypted gradients.
        std::vector<std::vector<uint32_t>> groups(cols * bins);
        for (uint32_t i : instances) {
          for (size_t c = 0; c < cols; ++c) {
            groups[c * bins + BinOf(host, i, static_cast<uint32_t>(c))]
                .push_back(i);
          }
        }
        ChargeModelCompute(session_.clock, 2.0 * instances.size() * cols);
        FLB_ASSIGN_OR_RETURN(core::EncVec hg,
                             he.SelectiveSums(host_g[host], groups));
        FLB_ASSIGN_OR_RETURN(core::EncVec hh,
                             he.SelectiveSums(host_h[host], groups));
        // BC: cipher-space compression before the wire.
        FLB_ASSIGN_OR_RETURN(hg, he.CompressForTransmission(hg));
        FLB_ASSIGN_OR_RETURN(hh, he.CompressForTransmission(hh));
        bool ok_g = false, ok_h = false;
        Status sg = core::SendEncVec(&net, he, HostName(host), kGuestName,
                                     "hist_g", hg);
        if (sg.ok()) {
          ok_g = true;
          Status sh = core::SendEncVec(&net, he, HostName(host), kGuestName,
                                       "hist_h", hh);
          if (sh.ok()) {
            ok_h = true;
          } else {
            FLB_RETURN_IF_ERROR(drop_host(host, sh));
          }
        } else {
          FLB_RETURN_IF_ERROR(drop_host(host, sg));
        }
        // Guest drains whatever arrived (a half-delivered pair must not
        // linger in the inbox and poison a later node), decrypts and scans
        // only complete pairs.
        core::EncVec rg, rh;
        bool have = false;
        if (ok_g) {
          Result<core::EncVec> got_g =
              core::RecvEncVec(&net, kGuestName, "hist_g");
          if (!got_g.ok()) {
            FLB_RETURN_IF_ERROR(drop_host(host, got_g.status()));
          } else if (ok_h) {
            Result<core::EncVec> got_h =
                core::RecvEncVec(&net, kGuestName, "hist_h");
            if (!got_h.ok()) {
              FLB_RETURN_IF_ERROR(drop_host(host, got_h.status()));
            } else {
              rg = std::move(got_g).value();
              rh = std::move(got_h).value();
              have = true;
            }
          }
        }
        if (!have) continue;
        FLB_ASSIGN_OR_RETURN(std::vector<double> dg, he.DecryptFixedPoint(rg));
        FLB_ASSIGN_OR_RETURN(std::vector<double> dh, he.DecryptFixedPoint(rh));
        scan(host, dg, dh, cols);
      }

      // --- split or leaf -----------------------------------------------------
      if (best.gain <= 0 || depth + 1 >= params_.max_depth ||
          instances.size() < 2) {
        tree.nodes[node_id].is_leaf = true;
        tree.nodes[node_id].leaf_weight =
            -g_total / (h_total + params_.reg_lambda);
        continue;
      }
      // Ask the owner for the left/right partition of this node's
      // instances. For guest splits this is local; for host splits the
      // guest sends instance ids and receives a boolean vector (the split
      // threshold never leaves the owner).
      std::vector<uint8_t> go_left(instances.size());
      bool split_ok = true;
      if (best.party != 0) {
        const std::string owner = HostName(best.party);
        net::Serializer req;
        req.PutU32(static_cast<uint32_t>(instances.size()));
        for (uint32_t i : instances) req.PutU32(i);
        Status qs = net.Send(kGuestName, owner, "split_req", req.TakeBytes());
        if (!qs.ok()) {
          FLB_RETURN_IF_ERROR(drop_host(best.party, qs));
          split_ok = false;
        }
        if (split_ok) {
          Result<net::Message> msg = net.Receive(owner, "split_req");
          if (!msg.ok()) {
            FLB_RETURN_IF_ERROR(drop_host(best.party, msg.status()));
            split_ok = false;
          }
          // The host uses its own copy of `instances` below.
        }
        if (split_ok) {
          net::Serializer resp;
          for (size_t k = 0; k < instances.size(); ++k) {
            const bool left =
                BinOf(best.party, instances[k], best.feature) <= best.bin;
            go_left[k] = left ? 1 : 0;
            resp.PutU32(go_left[k]);
          }
          Status rs =
              net.Send(owner, kGuestName, "split_resp", resp.TakeBytes());
          if (!rs.ok()) {
            FLB_RETURN_IF_ERROR(drop_host(best.party, rs));
            split_ok = false;
          }
        }
        if (split_ok) {
          Result<net::Message> resp_msg = net.Receive(kGuestName, "split_resp");
          if (!resp_msg.ok()) {
            FLB_RETURN_IF_ERROR(drop_host(best.party, resp_msg.status()));
            split_ok = false;
          }
        }
      } else {
        for (size_t k = 0; k < instances.size(); ++k) {
          go_left[k] = BinOf(0, instances[k], best.feature) <= best.bin ? 1 : 0;
        }
      }
      if (!split_ok) {
        // The split owner vanished mid-negotiation: close the node as a
        // leaf rather than guessing its partition.
        tree.nodes[node_id].is_leaf = true;
        tree.nodes[node_id].leaf_weight =
            -g_total / (h_total + params_.reg_lambda);
        continue;
      }

      std::vector<uint32_t> left_set, right_set;
      for (size_t k = 0; k < instances.size(); ++k) {
        (go_left[k] ? left_set : right_set).push_back(instances[k]);
      }
      if (left_set.empty() || right_set.empty()) {
        tree.nodes[node_id].is_leaf = true;
        tree.nodes[node_id].leaf_weight =
            -g_total / (h_total + params_.reg_lambda);
        continue;
      }

      // Note: emplace_back may reallocate, so never hold a reference to
      // tree.nodes[node_id] across it.
      const int left_id = static_cast<int>(tree.nodes.size());
      tree.nodes.emplace_back();
      const int right_id = static_cast<int>(tree.nodes.size());
      tree.nodes.emplace_back();
      SbtNode& node = tree.nodes[node_id];
      node.is_leaf = false;
      node.split_party = best.party;
      node.split_feature = best.feature;
      node.split_bin = best.bin;
      node.left = left_id;
      node.right = right_id;
      next_frontier.emplace_back(tree.nodes[node_id].left,
                                 std::move(left_set));
      next_frontier.emplace_back(tree.nodes[node_id].right,
                                 std::move(right_set));
    }
    frontier = std::move(next_frontier);
  }
  // Any frontier nodes left when depth ran out become leaves.
  for (auto& [node_id, instances] : frontier) {
    double g_total = 0, h_total = 0;
    for (uint32_t i : instances) {
      g_total += g[i];
      h_total += h[i];
    }
    tree.nodes[node_id].is_leaf = true;
    tree.nodes[node_id].leaf_weight =
        -g_total / (h_total + params_.reg_lambda);
  }
  if (partial) robust->CountPartialRound();
  return tree;
}

Result<TrainResult> HeteroSbtTrainer::Train() {
  const size_t rows = margins_.size();
  RobustCoordinator robust(session_, config_, "hetero_sbt");
  // Only the guest (labels, margins, decryption requests) is
  // irreplaceable; hosts degrade to excluded feature shards.
  robust.set_critical_parties({kGuestName});

  EpochSteps steps;  // one boosting round per epoch
  steps.name = "HeteroSbtTrainer::Train";
  steps.round = [&](size_t) -> Result<RoundEnd> {
    // Gradients from current margins.
    std::vector<double> g(rows), h(rows);
    for (size_t i = 0; i < rows; ++i) {
      const double p = Sigmoid(margins_[i]);
      g[i] = p - partition_.labels[i];
      h[i] = std::max(p * (1.0 - p), 1e-6);
    }
    ChargeModelCompute(session_.clock, 6.0 * rows);

    Result<SbtTree> tree = BuildTree(g, h, &robust);
    if (!tree.ok()) {
      if (!robust.active() || !RobustCoordinator::Recoverable(tree.status())) {
        return tree.status();
      }
      // The guest died mid-tree: discard the partial tree and roll the
      // round back to the margin checkpoint.
      robust.CountTransportDropout(kGuestName, tree.status());
      return RoundEnd::kAborted;
    }
    // Advance margins: route every instance down the tree.
    for (size_t i = 0; i < rows; ++i) {
      int node = 0;
      while (!tree.value().nodes[node].is_leaf) {
        const SbtNode& n = tree.value().nodes[node];
        node = BinOf(n.split_party, i, n.split_feature) <= n.split_bin
                   ? n.left
                   : n.right;
      }
      margins_[i] +=
          config_.learning_rate * tree.value().nodes[node].leaf_weight;
    }
    ChargeModelCompute(session_.clock, 4.0 * rows * params_.max_depth);
    trees_.push_back(std::move(tree).value());
    return RoundEnd::kDone;
  };
  steps.snapshot = [&] { return margins_; };
  // Guest restart: the margin checkpoint comes back and the trees built
  // after it go.
  steps.restore = [&](std::vector<double> state, int resume_round) {
    margins_ = std::move(state);
    if (static_cast<size_t>(resume_round) < trees_.size()) {
      trees_.resize(resume_round);
    }
  };
  steps.evaluate = [&](double* accuracy) {
    std::vector<double> probs(rows);
    for (size_t i = 0; i < rows; ++i) probs[i] = Sigmoid(margins_[i]);
    *accuracy = Accuracy(probs, partition_.labels);
    return MeanLogLoss(probs, partition_.labels);
  };
  return robust.RunEpochs(steps);
}

}  // namespace flb::fl

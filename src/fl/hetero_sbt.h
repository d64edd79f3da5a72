// Heterogeneous SecureBoost (Cheng et al., as shipped in FATE and
// accelerated by the paper).
//
// Vertical gradient-boosted trees over a guest (labels + feature shard) and
// hosts (feature shards). Per boosting round (= one epoch here):
//
//   1. guest computes first/second-order gradients g_i = p_i - y_i,
//      h_i = p_i (1 - p_i) and sends per-instance E(g), E(h) to every host
//      (fixed-point ciphertexts — hosts must sum arbitrary subsets);
//   2. growing the tree level by level, each host answers every node with
//      encrypted histograms: for each of its features and bins,
//      E(G_fb) = sum of E(g_i) over the node's instances falling in that
//      bin (pure homomorphic additions), likewise E(H_fb); under BC the
//      histogram ciphertext vectors are cipher-space compressed
//      (SecureBoost+-style shift-and-add) before transmission;
//   3. the guest decrypts the histograms, adds its own plaintext
//      histograms, scans cumulative sums for the best XGBoost gain
//      split, and asks the winning feature's owner for the left/right
//      instance partition (a boolean vector — thresholds stay private);
//   4. leaves get weight -G/(H + lambda); predictions advance by
//      lr * leaf weight.
//
// Binning is equal-width per feature (FATE's quantile sketch is replaced by
// a simpler deterministic binner; the HE-visible work per bin is the same).

#ifndef FLB_FL_HETERO_SBT_H_
#define FLB_FL_HETERO_SBT_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/fl/dataset.h"
#include "src/fl/fl_types.h"
#include "src/fl/partition.h"

namespace flb::fl {

class RobustCoordinator;

struct SbtParams {
  int max_depth = 3;
  int num_bins = 16;
  double reg_lambda = 1.0;
  double min_child_weight = 1e-3;  // minimum sum of h in a child
};

struct SbtNode {
  bool is_leaf = true;
  int split_party = -1;     // -1 until split; 0 = guest
  uint32_t split_feature = 0;  // feature index within the owner's shard
  int split_bin = 0;           // go left when bin(x) <= split_bin
  int left = -1, right = -1;   // child node ids
  double leaf_weight = 0.0;
};

struct SbtTree {
  std::vector<SbtNode> nodes;  // node 0 is the root
};

class HeteroSbtTrainer {
 public:
  HeteroSbtTrainer(VerticalPartition partition, FlSession session,
                   TrainConfig config, SbtParams params = {});

  // One boosting round per "epoch" (config.max_epochs trees).
  Result<TrainResult> Train();

  const std::vector<SbtTree>& trees() const { return trees_; }
  // Raw margin scores for the training instances.
  const std::vector<double>& margins() const { return margins_; }

 private:
  struct Histogram {
    std::vector<double> g;  // per (feature, bin), feature-major
    std::vector<double> h;
  };

  // Precomputes per-feature bin edges and per-(row, feature) bin indices
  // for one shard.
  void BuildBins();
  int BinOf(int party, size_t row, uint32_t feature) const;

  // Plaintext histogram over `instances` for one party's shard.
  Histogram PlainHistogram(int party, const std::vector<uint32_t>& instances,
                           const std::vector<double>& g,
                           const std::vector<double>& h) const;

  // Builds one boosting tree. `robust` (never null) supplies the
  // degradation policy: hosts that are down, quarantined, or whose
  // histogram exchange dies mid-tree are excluded from the rest of the
  // tree (their features simply yield no split candidates); a guest
  // outage surfaces as a recoverable status for the round-level
  // checkpoint-resume path in Train().
  Result<SbtTree> BuildTree(const std::vector<double>& g,
                            const std::vector<double>& h,
                            RobustCoordinator* robust);

  VerticalPartition partition_;
  FlSession session_;
  TrainConfig config_;
  SbtParams params_;

  // bins_[party][feature * (num_bins+1) .. ]: bin edges; bin index is the
  // largest edge <= value.
  std::vector<std::vector<float>> bin_lo_;   // per party, per feature
  std::vector<std::vector<float>> bin_step_; // per party, per feature
  // Dense bin index cache: per party, row-major rows x features.
  std::vector<std::vector<uint8_t>> bin_index_;

  std::vector<SbtTree> trees_;
  std::vector<double> margins_;  // additive scores (pre-sigmoid)
};

}  // namespace flb::fl

#endif  // FLB_FL_HETERO_SBT_H_

// Homogeneous (horizontal) neural network — FedAvg with encrypted model
// updates (McMahan et al., the paper's [44], under the Fig. 2 HE template).
//
// Every party holds a row shard and trains a local one-hidden-layer MLP for
// E local steps; parties then upload their *weight deltas* quantized,
// packed (under BC) and encrypted; the server aggregates homomorphically
// and broadcasts; everyone applies the averaged delta, keeping the global
// model in sync. This is the fourth horizontal workload class the paper's
// "all standard FL models" phrase covers (FATE's Homo NN), and the one IBM
// FL / TrustFL-style GPU systems accelerate.
//
// HE volume per round: one packed encrypt + p-1 adds + one decrypt over the
// full parameter vector — structurally the Homo LR pattern scaled to NN
// parameter counts.

#ifndef FLB_FL_HOMO_NN_H_
#define FLB_FL_HOMO_NN_H_

#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/fl/dataset.h"
#include "src/fl/fl_types.h"

namespace flb::fl {

struct HomoNnParams {
  int hidden_dim = 16;
  int local_steps = 1;  // local mini-batch steps between aggregations
  uint64_t init_seed = 23;
};

class HomoNnTrainer {
 public:
  HomoNnTrainer(std::vector<Dataset> shards, FlSession session,
                TrainConfig config, HomoNnParams params = {});

  Result<TrainResult> Train();

  // Flattened global parameters: [W1 (h x d), b1 (h), w2 (h), b2 (1)].
  const std::vector<double>& parameters() const { return params_vec_; }

  // Predicted probabilities over a dataset with the current global model.
  std::vector<double> Predict(const Dataset& data) const;

 private:
  // One local training pass over shard rows [begin, end); returns the
  // parameter delta (new - old) starting from `start` parameters.
  std::vector<double> LocalDelta(const Dataset& shard, size_t begin,
                                 size_t end,
                                 const std::vector<double>& start) const;
  double ForwardLoss(const Dataset& data, const std::vector<double>& p,
                     double* accuracy) const;

  std::vector<Dataset> shards_;
  FlSession session_;
  TrainConfig config_;
  HomoNnParams nn_;
  std::vector<double> params_vec_;
};

}  // namespace flb::fl

#endif  // FLB_FL_HOMO_NN_H_

// Shared math for the FL models: sigmoid (+ the Taylor form used under HE),
// logistic loss, accuracy, and the model-compute time accounting.

#ifndef FLB_FL_METRICS_H_
#define FLB_FL_METRICS_H_

#include <cmath>
#include <vector>

#include "src/common/sim_clock.h"

namespace flb::fl {

inline double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

// Numerically-safe binary cross entropy for y in {0, 1}.
inline double LogLoss(double prob, double y) {
  constexpr double kEps = 1e-12;
  const double p = prob < kEps ? kEps : (prob > 1 - kEps ? 1 - kEps : prob);
  return -(y * std::log(p) + (1.0 - y) * std::log1p(-p));
}

double MeanLogLoss(const std::vector<double>& probs,
                   const std::vector<float>& labels);
double Accuracy(const std::vector<double>& probs,
                const std::vector<float>& labels);

// Charges plain model math (gradients, tree building, dense layers) to the
// clock: `flops` floating-point operations at a scalar-CPU rate. This is the
// "Others" component of Table VI.
void ChargeModelCompute(SimClock* clock, double flops);

}  // namespace flb::fl

#endif  // FLB_FL_METRICS_H_

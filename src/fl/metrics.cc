#include "src/fl/metrics.h"

#include "src/common/check.h"

namespace flb::fl {

double MeanLogLoss(const std::vector<double>& probs,
                   const std::vector<float>& labels) {
  FLB_CHECK(probs.size() == labels.size() && !probs.empty());
  double total = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    total += LogLoss(probs[i], labels[i]);
  }
  return total / probs.size();
}

double Accuracy(const std::vector<double>& probs,
                const std::vector<float>& labels) {
  FLB_CHECK(probs.size() == labels.size() && !probs.empty());
  size_t correct = 0;
  for (size_t i = 0; i < probs.size(); ++i) {
    if ((probs[i] >= 0.5) == (labels[i] >= 0.5f)) ++correct;
  }
  return static_cast<double>(correct) / probs.size();
}

void ChargeModelCompute(SimClock* clock, double flops) {
  // Scalar CPU throughput for the plain ML math (the paper's servers run
  // this part in NumPy-grade code).
  constexpr double kFlopsPerSec = 5.0e9;
  if (clock != nullptr && flops > 0) {
    clock->Charge(CostKind::kModelCompute, flops / kFlopsPerSec);
  }
}

}  // namespace flb::fl

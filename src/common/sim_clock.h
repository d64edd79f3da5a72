// SimClock: the simulated-time backbone of the reproduction.
//
// The paper's measurements (Tables III–VI, Figs. 1, 6, 8) are wall-clock
// times on a 4-server GPU testbed. This container has one CPU core and no
// GPU, so FLBooster accounts elapsed time on a simulated clock instead:
// every component (CPU HE op, GPU kernel, PCIe copy, network transfer,
// plain model math) charges its modeled duration to a labelled category.
// Benches then report per-category and total simulated seconds, which is
// exactly the decomposition the paper reports.
//
// The clock is purely additive — FLBooster's in-process "parties" execute
// sequentially. Copy/compute phases that the real system overlaps are
// modeled by the device's stream window (gpusim::Device), which charges a
// chunked batch its makespan rather than the sum of its stages.

#ifndef FLB_COMMON_SIM_CLOCK_H_
#define FLB_COMMON_SIM_CLOCK_H_

#include <map>
#include <string>

namespace flb {

// Time-cost categories mirroring the paper's component breakdown (Table VI).
enum class CostKind : int {
  kCpuHe = 0,       // HE ops executed on the CPU (FATE path)
  kGpuKernel = 1,   // HE ops executed by simulated GPU kernels
  kPcieTransfer = 2,  // host<->device copies
  kNetwork = 3,     // client<->server communication
  kEncoding = 4,    // encoding/quantization/packing (BC module)
  kModelCompute = 5,  // plain ML math (gradients, tree building, ...)
  kOther = 6,
};

std::string CostKindName(CostKind kind);

class SimClock {
 public:
  // Advances the clock by `seconds` attributed to `kind`. Negative charges
  // are a programming error.
  void Charge(CostKind kind, double seconds);

  // Total simulated seconds since construction.
  double Now() const { return total_; }
  // Simulated seconds attributed to one category.
  double Elapsed(CostKind kind) const;
  // "HE operations" in the paper's sense: CPU HE + GPU kernels + PCIe.
  double HeSeconds() const;
  // Communication seconds.
  double CommSeconds() const { return Elapsed(CostKind::kNetwork); }
  // Everything that is neither HE nor communication.
  double OtherSeconds() const;

  // Per-category map (for reports).
  const std::map<CostKind, double>& breakdown() const { return by_kind_; }

 private:
  double total_ = 0.0;
  std::map<CostKind, double> by_kind_;
};

}  // namespace flb

#endif  // FLB_COMMON_SIM_CLOCK_H_

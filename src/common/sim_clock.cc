#include "src/common/sim_clock.h"

#include "src/common/check.h"

namespace flb {

std::string CostKindName(CostKind kind) {
  switch (kind) {
    case CostKind::kCpuHe:
      return "cpu_he";
    case CostKind::kGpuKernel:
      return "gpu_kernel";
    case CostKind::kPcieTransfer:
      return "pcie_transfer";
    case CostKind::kNetwork:
      return "network";
    case CostKind::kEncoding:
      return "encoding";
    case CostKind::kModelCompute:
      return "model_compute";
    case CostKind::kOther:
      return "other";
  }
  return "unknown";
}

void SimClock::Charge(CostKind kind, double seconds) {
  FLB_CHECK(seconds >= 0.0, "negative simulated-time charge");
  total_ += seconds;
  by_kind_[kind] += seconds;
}

double SimClock::Elapsed(CostKind kind) const {
  auto it = by_kind_.find(kind);
  return it == by_kind_.end() ? 0.0 : it->second;
}

double SimClock::HeSeconds() const {
  return Elapsed(CostKind::kCpuHe) + Elapsed(CostKind::kGpuKernel) +
         Elapsed(CostKind::kPcieTransfer);
}

double SimClock::OtherSeconds() const {
  return total_ - HeSeconds() - CommSeconds();
}

}  // namespace flb

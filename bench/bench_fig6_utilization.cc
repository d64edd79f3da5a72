// Figure 6: SM utilization in HE operations — HAFLO vs FLBooster across the
// four models and three key sizes.
//
// Utilization is measured on saturated HE-operation batches (the "in HE
// operations" sense of the figure) with each model's characteristic op mix:
// LR models are encrypt/decrypt-bound, SBT is homomorphic-add-bound, NN is
// scalar-multiplication-bound.
//
// Shape targets: FLBooster's resource manager (block-size table + branch
// combining + fine thread split) achieves higher utilization than HAFLO at
// every point, and utilization degrades as the key size grows (per-thread
// register demand rises, occupancy falls).

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/ghe/ghe_engine.h"

namespace {

using flb::bench::EngineKind;
using flb::bench::FlModelKind;
using flb::ghe::HeOp;

// Work-weighted mean SM utilization for one engine configuration running a
// model's HE-op mix at a saturated batch size.
double MeasureUtilization(EngineKind engine, FlModelKind model, int key_bits) {
  const auto traits = flb::core::TraitsFor(engine);
  auto device = std::make_shared<flb::gpusim::Device>(
      flb::gpusim::DeviceSpec::Rtx3090(), nullptr, traits.branch_combining);
  flb::ghe::GheConfig cfg;
  cfg.words_per_thread = traits.words_per_thread;
  flb::ghe::GheEngine ghe(device, cfg);

  const int64_t batch = 1 << 17;
  switch (model) {
    case FlModelKind::kHomoLr:
    case FlModelKind::kHomoNn:
      ghe.ModelOp(HeOp::kEncrypt, key_bits, batch).value();
      ghe.ModelOp(HeOp::kAdd, key_bits, batch).value();
      ghe.ModelOp(HeOp::kDecrypt, key_bits, batch).value();
      break;
    case FlModelKind::kHeteroLr:
      ghe.ModelOp(HeOp::kEncrypt, key_bits, batch).value();
      ghe.ModelOp(HeOp::kAddPlain, key_bits, batch).value();
      ghe.ModelOp(HeOp::kDecrypt, key_bits, batch / 4).value();
      break;
    case FlModelKind::kHeteroSbt:
      ghe.ModelOp(HeOp::kEncrypt, key_bits, batch / 8).value();
      ghe.ModelOp(HeOp::kAdd, key_bits, batch * 4).value();
      ghe.ModelOp(HeOp::kDecrypt, key_bits, batch / 8).value();
      break;
    case FlModelKind::kHeteroNn:
      ghe.ModelOp(HeOp::kScalarMul, key_bits, batch,
                  flb::ghe::FixedPointScalarBits(
                      flb::core::PlatformConfig{}.frac_bits)).value();
      ghe.ModelOp(HeOp::kAdd, key_bits, batch).value();
      ghe.ModelOp(HeOp::kDecrypt, key_bits, batch / 8).value();
      break;
  }
  return device->stats().MeanSmUtilization();
}

}  // namespace

int main() {
  using namespace flb::bench;
  PrintHeader("Fig. 6 — SM utilization in HE operations (%)");
  std::printf("%-12s %5s %10s %12s\n", "Model", "key", "HAFLO", "FLBooster");
  for (auto model : kAllModels) {
    for (int key : kKeySizes) {
      const double haflo = MeasureUtilization(EngineKind::kHaflo, model, key);
      const double booster =
          MeasureUtilization(EngineKind::kFlBooster, model, key);
      std::printf("%-12s %5d %9.1f%% %11.1f%%\n", Short(model).c_str(), key,
                  100.0 * haflo, 100.0 * booster);
    }
  }
  std::printf(
      "\nShape: FLBooster > HAFLO at every point; utilization decreases "
      "with key size (paper Fig. 6).\n");
  return 0;
}

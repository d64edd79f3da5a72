// Modeled-vs-real parity: every trainer x {FATE, HAFLO, FLBooster} x BC
// off/on runs once with plaintext-shadow HE and once with real Paillier, and
// the two RunReports must agree exactly on every accounted quantity. Both
// modes charge each HE op once from the HE cost table (ghe/he_cost.h), so
// they agree by construction; this matrix is the end-to-end check of it.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/platform.h"

namespace flb::core {
namespace {

using ParityCell = std::tuple<FlModelKind, EngineKind, int>;

RunReport RunCell(const ParityCell& cell, bool modeled) {
  PlatformConfig cfg;
  cfg.model = std::get<0>(cell);
  cfg.engine = std::get<1>(cell);
  cfg.use_bc = std::get<2>(cell);
  cfg.modeled = modeled;
  cfg.key_bits = 256;
  cfg.dataset = fl::DatasetSpec{fl::DatasetKind::kSynthetic, 64, 8, 8, 5};
  cfg.num_parties = 3;
  cfg.host_threads = 2;
  cfg.train.max_epochs = 1;
  cfg.train.batch_size = 32;
  cfg.sbt.num_bins = 4;
  cfg.sbt.max_depth = 2;
  cfg.nn.bottom_dim = 3;
  cfg.nn.interactive_dim = 3;
  auto report = Platform::Run(cfg);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : RunReport{};
}

class PlatformParityTest : public ::testing::TestWithParam<ParityCell> {};

TEST_P(PlatformParityTest, RealRunEqualsItsModeledTwin) {
  const RunReport modeled = RunCell(GetParam(), /*modeled=*/true);
  const RunReport real = RunCell(GetParam(), /*modeled=*/false);
  EXPECT_EQ(real.total_seconds, modeled.total_seconds);
  EXPECT_EQ(real.he_seconds, modeled.he_seconds);
  EXPECT_EQ(real.comm_seconds, modeled.comm_seconds);
  EXPECT_EQ(real.other_seconds, modeled.other_seconds);
  EXPECT_EQ(real.comm_bytes, modeled.comm_bytes);
  EXPECT_EQ(real.comm_messages, modeled.comm_messages);
  EXPECT_EQ(real.he_ops.encrypts, modeled.he_ops.encrypts);
  EXPECT_EQ(real.he_ops.decrypts, modeled.he_ops.decrypts);
  EXPECT_EQ(real.he_ops.hom_adds, modeled.he_ops.hom_adds);
  EXPECT_EQ(real.he_ops.scalar_muls, modeled.he_ops.scalar_muls);
  EXPECT_EQ(real.he_ops.values_encrypted, modeled.he_ops.values_encrypted);
  EXPECT_EQ(real.he_ops.values_decrypted, modeled.he_ops.values_decrypted);
  EXPECT_EQ(real.pack_ratio, modeled.pack_ratio);
  EXPECT_EQ(real.sm_utilization, modeled.sm_utilization);
  EXPECT_GT(modeled.he_ops.encrypts, 0u);
}

std::string CellName(const ::testing::TestParamInfo<ParityCell>& info) {
  std::string name = ModelName(std::get<0>(info.param)) + "_" +
                     EngineName(std::get<1>(info.param)) + "_bc" +
                     std::to_string(std::get<2>(info.param));
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PlatformParityTest,
    ::testing::Combine(
        ::testing::Values(FlModelKind::kHomoLr, FlModelKind::kHeteroLr,
                          FlModelKind::kHeteroSbt, FlModelKind::kHeteroNn,
                          FlModelKind::kHomoNn),
        ::testing::Values(EngineKind::kFate, EngineKind::kHaflo,
                          EngineKind::kFlBooster),
        ::testing::Values(0, 1)),
    CellName);

}  // namespace
}  // namespace flb::core

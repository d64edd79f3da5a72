// Tests for model persistence (LR weights, SecureBoost forests) and the
// AUC metric.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/he_service.h"
#include "src/fl/hetero_sbt.h"
#include "src/fl/metrics.h"
#include "src/fl/model_io.h"
#include "src/fl/partition.h"

namespace flb::fl {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// Each format's full bytes (magic, version, FNV-1a checksum of the payload,
// then the payload): files written earlier must keep loading.
TEST(ModelIoTest, EnvelopeBytesAreStable) {
  EXPECT_EQ(Hex(SerializeLrModel({1.5, -0.25})),
            "52424c46" "01000000" "290b75062a662668"
            "02000000" "000000000000f83f" "000000000000d0bf");

  SbtTree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {false, 1, 7, 2, 1, 2, 0.0};
  tree.nodes[1].leaf_weight = -0.5;
  tree.nodes[2].leaf_weight = 0.75;
  EXPECT_EQ(Hex(SerializeSbtModel({tree}, 0.3)),
            "53424c46" "01000000" "b344adf2c37d7fa6"
            "333333333333d33f" "01000000" "03000000"
            "00000000" "02000000" "07000000" "02000000" "02000000" "03000000"
            "0000000000000000"
            "01000000" "00000000" "00000000" "00000000" "00000000" "00000000"
            "000000000000e0bf"
            "01000000" "00000000" "00000000" "00000000" "00000000" "00000000"
            "000000000000e83f");

  const std::vector<uint8_t> ckpt = SerializeCheckpoint(2, {0.5, -1.0});
  EXPECT_EQ(Hex(ckpt), "43424c46" "01000000" "52de3c59692704ce"
                       "03000000" "02000000" "000000000000e03f"
                       "000000000000f0bf");
  EXPECT_EQ(Hex(SerializeCheckpoint(-1, {})),
            "43424c46" "01000000" "e3518eaf7e0dfe47" "00000000" "00000000");

  auto bad = ckpt;
  bad[0] ^= 0xFF;
  Status s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "checkpoint: bad magic");
  bad = ckpt;
  bad[4] = 2;
  s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsNotSupported());
  EXPECT_EQ(s.message(), "checkpoint: unsupported version");
  bad = ckpt;
  bad.back() ^= 0x01;
  s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.message(), "checkpoint: checksum mismatch (corrupt file)");
}

TEST(ModelIoTest, LrRoundTrip) {
  std::vector<double> weights{0.5, -1.25, 3.0e-7, 0.0, 123.456};
  auto bytes = SerializeLrModel(weights);
  auto back = DeserializeLrModel(bytes).value();
  EXPECT_EQ(back, weights);
}

TEST(ModelIoTest, LrRejectsCorruption) {
  auto bytes = SerializeLrModel({1.0, 2.0});
  // Flip a payload byte: checksum must catch it.
  auto corrupt = bytes;
  corrupt.back() ^= 0xFF;
  EXPECT_TRUE(DeserializeLrModel(corrupt).status().IsIoError());
  // Truncation.
  corrupt = bytes;
  corrupt.resize(corrupt.size() - 4);
  EXPECT_FALSE(DeserializeLrModel(corrupt).ok());
  // Wrong magic.
  corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_TRUE(DeserializeLrModel(corrupt).status().IsInvalidArgument());
  // SBT magic into LR loader.
  auto sbt_bytes = SerializeSbtModel({}, 0.1);
  EXPECT_FALSE(DeserializeLrModel(sbt_bytes).ok());
}

TEST(ModelIoTest, SbtForestRoundTripFromTraining) {
  // Train a real (modeled-HE) forest, serialize, reload, and check the
  // reloaded trees predict identically.
  SimClock clock;
  auto device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  net::Network network(net::LinkSpec::GigabitEthernet(), &clock);
  core::HeServiceOptions opts;
  opts.engine = core::EngineKind::kFlBooster;
  opts.key_bits = 256;
  opts.frac_bits = 16;
  opts.participants = 2;
  opts.modeled = true;
  auto he = core::HeService::Create(opts, &clock, device).value();

  auto ds = GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 60, 8, 8, 4})
                .value();
  auto part = VerticalSplit(ds, 2).value();
  TrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.learning_rate = 0.5;
  cfg.tolerance = 0;
  SbtParams params;
  params.max_depth = 3;
  params.num_bins = 4;
  HeteroSbtTrainer trainer(part, FlSession{he.get(), &network, &clock}, cfg,
                           params);
  trainer.Train().value();

  auto bytes = SerializeSbtModel(trainer.trees(), cfg.learning_rate);
  auto model = DeserializeSbtModel(bytes).value();
  EXPECT_DOUBLE_EQ(model.learning_rate, cfg.learning_rate);
  ASSERT_EQ(model.trees.size(), trainer.trees().size());
  for (size_t t = 0; t < model.trees.size(); ++t) {
    ASSERT_EQ(model.trees[t].nodes.size(), trainer.trees()[t].nodes.size());
    for (size_t n = 0; n < model.trees[t].nodes.size(); ++n) {
      const auto& a = model.trees[t].nodes[n];
      const auto& b = trainer.trees()[t].nodes[n];
      EXPECT_EQ(a.is_leaf, b.is_leaf);
      EXPECT_EQ(a.split_party, b.split_party);
      EXPECT_EQ(a.split_feature, b.split_feature);
      EXPECT_EQ(a.split_bin, b.split_bin);
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
      EXPECT_DOUBLE_EQ(a.leaf_weight, b.leaf_weight);
    }
  }
}

TEST(ModelIoTest, SbtRejectsBadChildIndices) {
  SbtTree tree;
  tree.nodes.emplace_back();
  tree.nodes[0].is_leaf = false;
  tree.nodes[0].left = 5;  // out of range
  tree.nodes[0].right = 6;
  auto bytes = SerializeSbtModel({tree}, 0.1);
  EXPECT_TRUE(DeserializeSbtModel(bytes).status().IsInvalidArgument());
}

TEST(MetricsAucTest, PerfectAndInverted) {
  std::vector<double> probs{0.1, 0.2, 0.8, 0.9};
  std::vector<float> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(Auc(probs, labels), 1.0);
  std::vector<float> inverted{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Auc(probs, inverted), 0.0);
}

TEST(MetricsAucTest, RandomScoresNearHalf) {
  Rng rng(9);
  std::vector<double> probs;
  std::vector<float> labels;
  for (int i = 0; i < 4000; ++i) {
    probs.push_back(rng.NextDouble());
    labels.push_back(rng.NextBernoulli(0.5) ? 1.0f : 0.0f);
  }
  EXPECT_NEAR(Auc(probs, labels), 0.5, 0.05);
}

TEST(MetricsAucTest, TiesShareCredit) {
  // All predictions identical -> AUC is exactly 0.5 regardless of labels.
  std::vector<double> probs(10, 0.7);
  std::vector<float> labels{1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(Auc(probs, labels), 0.5);
}

TEST(MetricsAucTest, SingleClassReturnsHalf) {
  std::vector<double> probs{0.1, 0.9};
  std::vector<float> labels{1, 1};
  EXPECT_DOUBLE_EQ(Auc(probs, labels), 0.5);
}

TEST(MetricsAucTest, KnownSmallCase) {
  // probs: pos {0.8, 0.4}, neg {0.6, 0.2}. Pairs: (0.8>0.6)+(0.8>0.2)+
  // (0.4<0.6=0)+(0.4>0.2) = 3 of 4 -> 0.75.
  std::vector<double> probs{0.8, 0.4, 0.6, 0.2};
  std::vector<float> labels{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Auc(probs, labels), 0.75);
}

}  // namespace
}  // namespace flb::fl

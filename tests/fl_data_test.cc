// Tests for datasets, partitioning, optimizers, and metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/fl/dataset.h"
#include "src/fl/metrics.h"
#include "src/fl/optimizer.h"
#include "src/fl/partition.h"

namespace flb::fl {
namespace {

TEST(DataMatrixTest, BuilderAndAccessors) {
  DataMatrixBuilder builder(4);
  builder.AddRow({{0, 1.0f}, {2, 2.0f}});
  builder.AddRow({});
  builder.AddRow({{3, -1.0f}});
  DataMatrix m = builder.Build();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
  std::vector<double> w{1, 10, 100, 1000};
  EXPECT_DOUBLE_EQ(m.Dot(0, w), 1.0 + 200.0);
  EXPECT_DOUBLE_EQ(m.Dot(1, w), 0.0);
  EXPECT_DOUBLE_EQ(m.Dot(2, w), -1000.0);
  std::vector<double> acc(4, 0.0);
  m.AddScaledRowTo(0, 2.0, &acc);
  EXPECT_DOUBLE_EQ(acc[0], 2.0);
  EXPECT_DOUBLE_EQ(acc[2], 4.0);
}

TEST(DataMatrixTest, SliceColumnsRenumbers) {
  DataMatrixBuilder builder(6);
  builder.AddRow({{0, 1.0f}, {3, 2.0f}, {5, 3.0f}});
  DataMatrix m = builder.Build();
  DataMatrix s = m.SliceColumns(3, 6);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_EQ(s.RowNnz(0), 2u);
  EXPECT_EQ(s.EntryCol(s.RowBegin(0)), 0u);      // was column 3
  EXPECT_EQ(s.EntryCol(s.RowBegin(0) + 1), 2u);  // was column 5
}

TEST(DataMatrixTest, SliceRows) {
  DataMatrixBuilder builder(2);
  for (int r = 0; r < 5; ++r) {
    builder.AddRow({{0, static_cast<float>(r)}});
  }
  DataMatrix m = builder.Build();
  DataMatrix s = m.SliceRows(2, 4);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_FLOAT_EQ(s.EntryValue(s.RowBegin(0)), 2.0f);
  EXPECT_FLOAT_EQ(s.EntryValue(s.RowBegin(1)), 3.0f);
}

class DatasetGenTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(DatasetGenTest, ShapeSparsityAndDeterminism) {
  DatasetSpec spec = DefaultScaleSpec(GetParam());
  spec.rows = 500;
  spec.cols = 128;
  spec.nnz_per_row = std::min<size_t>(spec.nnz_per_row, 64);
  Dataset ds = GenerateDataset(spec).value();
  EXPECT_EQ(ds.rows(), 500u);
  EXPECT_EQ(ds.cols(), 128u);
  EXPECT_EQ(ds.y.size(), 500u);
  // Labels are binary and both classes occur.
  size_t positives = 0;
  for (float y : ds.y) {
    EXPECT_TRUE(y == 0.0f || y == 1.0f);
    positives += y > 0.5f;
  }
  EXPECT_GT(positives, 10u);
  EXPECT_LT(positives, 490u);
  // Deterministic regeneration.
  Dataset ds2 = GenerateDataset(spec).value();
  EXPECT_EQ(ds2.x.nnz(), ds.x.nnz());
  EXPECT_EQ(ds2.y, ds.y);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DatasetGenTest,
                         ::testing::Values(DatasetKind::kRcv1,
                                           DatasetKind::kAvazu,
                                           DatasetKind::kSynthetic));

TEST(DatasetGenTest, CharacterMatchesSource) {
  // RCV1-like and Avazu-like are sparse; Synthetic-like is dense. Avazu has
  // a low positive rate (CTR ~17%).
  auto rcv1 = GenerateDataset(DatasetSpec{DatasetKind::kRcv1, 400, 256, 30, 1})
                  .value();
  auto avazu =
      GenerateDataset(DatasetSpec{DatasetKind::kAvazu, 2000, 256, 10, 1})
          .value();
  auto synth =
      GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 200, 64, 64, 1})
          .value();
  EXPECT_LT(rcv1.x.density(), 0.25);
  EXPECT_LT(avazu.x.density(), 0.08);
  EXPECT_DOUBLE_EQ(synth.x.density(), 1.0);
  const double ctr =
      std::accumulate(avazu.y.begin(), avazu.y.end(), 0.0) / avazu.y.size();
  EXPECT_GT(ctr, 0.05);
  EXPECT_LT(ctr, 0.35);
  // Avazu features are one-hot (all values 1).
  for (size_t k = 0; k < avazu.x.nnz(); ++k) {
    ASSERT_FLOAT_EQ(avazu.x.EntryValue(k), 1.0f);
  }
}

TEST(DatasetGenTest, InvalidSpecs) {
  EXPECT_FALSE(GenerateDataset(DatasetSpec{DatasetKind::kRcv1, 0, 10}).ok());
  EXPECT_FALSE(
      GenerateDataset(DatasetSpec{DatasetKind::kRcv1, 10, 10, 100}).ok());
}

TEST(PartitionTest, HorizontalSplitCoversAllRows) {
  Dataset ds =
      GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 103, 16, 16, 3})
          .value();
  auto shards = HorizontalSplit(ds, 4).value();
  ASSERT_EQ(shards.size(), 4u);
  size_t total = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.cols(), ds.cols());
    EXPECT_EQ(s.y.size(), s.rows());
    total += s.rows();
  }
  EXPECT_EQ(total, ds.rows());
  // Uneven split: 103 = 26+26+26+25 (first shards take the remainder).
  EXPECT_EQ(shards[0].rows(), 26u);
  EXPECT_EQ(shards[3].rows(), 25u);
  EXPECT_FALSE(HorizontalSplit(ds, 0).ok());
  EXPECT_FALSE(HorizontalSplit(ds, 1000).ok());
}

TEST(PartitionTest, VerticalSplitCoversAllCols) {
  Dataset ds =
      GenerateDataset(DatasetSpec{DatasetKind::kRcv1, 50, 37, 10, 3}).value();
  auto part = VerticalSplit(ds, 3).value();
  ASSERT_EQ(part.shards.size(), 3u);
  EXPECT_EQ(part.labels.size(), ds.rows());
  size_t total_cols = 0, total_nnz = 0;
  for (const auto& s : part.shards) {
    EXPECT_EQ(s.x.rows(), ds.rows());
    EXPECT_EQ(s.x.cols(), s.col_end - s.col_begin);
    total_cols += s.x.cols();
    total_nnz += s.x.nnz();
  }
  EXPECT_EQ(total_cols, ds.cols());
  EXPECT_EQ(total_nnz, ds.x.nnz());
}

TEST(OptimizerTest, SgdStep) {
  SgdOptimizer sgd(0.5);
  std::vector<double> w{1.0, 2.0};
  ASSERT_TRUE(sgd.Step(&w, {2.0, -2.0}).ok());
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
  EXPECT_FALSE(sgd.Step(&w, {1.0}).ok());
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize (w - 3)^2: gradient 2(w - 3).
  AdamOptimizer adam(0.1);
  std::vector<double> w{0.0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(adam.Step(&w, {2.0 * (w[0] - 3.0)}).ok());
  }
  EXPECT_NEAR(w[0], 3.0, 0.05);
  adam.Reset();
  EXPECT_FALSE(adam.Step(&w, {1.0, 2.0}).ok());
}

TEST(OptimizerTest, AdamFasterThanSgdOnIllConditioned) {
  // f(w) = 0.5*(100 w0^2 + w1^2): Adam's per-coordinate scaling wins.
  auto run = [](Optimizer& opt) {
    std::vector<double> w{1.0, 1.0};
    for (int i = 0; i < 100; ++i) {
      std::vector<double> g{100.0 * w[0], w[1]};
      EXPECT_TRUE(opt.Step(&w, g).ok());
    }
    return 50.0 * w[0] * w[0] + 0.5 * w[1] * w[1];
  };
  SgdOptimizer sgd(0.009);  // near the stability limit for curvature 100
  AdamOptimizer adam(0.05);
  EXPECT_LT(run(adam), run(sgd));
}

TEST(MetricsTest, SigmoidAndTaylor) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(10.0), 1.0, 1e-4);
  // The first-order Taylor form hetero LR's residual uses, 0.5 + 0.25 z,
  // is close near zero.
  EXPECT_NEAR(0.5 + 0.25 * 0.2, Sigmoid(0.2), 0.01);
}

TEST(MetricsTest, LogLossAndAccuracy) {
  EXPECT_NEAR(LogLoss(0.9, 1.0), -std::log(0.9), 1e-12);
  EXPECT_NEAR(LogLoss(0.9, 0.0), -std::log(0.1), 1e-9);
  // Extreme probabilities do not produce inf.
  EXPECT_TRUE(std::isfinite(LogLoss(0.0, 1.0)));
  EXPECT_TRUE(std::isfinite(LogLoss(1.0, 0.0)));
  std::vector<double> probs{0.9, 0.2, 0.6};
  std::vector<float> labels{1.0f, 0.0f, 0.0f};
  EXPECT_NEAR(Accuracy(probs, labels), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, ChargeModelComputeAccumulates) {
  SimClock clock;
  ChargeModelCompute(&clock, 5e9);
  EXPECT_NEAR(clock.Elapsed(CostKind::kModelCompute), 1.0, 1e-9);
  ChargeModelCompute(nullptr, 1e9);  // null clock is a no-op
}

}  // namespace
}  // namespace flb::fl

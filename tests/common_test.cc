// Tests for the common runtime: Status/Result, SimClock, Rng, cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/common/timer.h"
#include "src/core/cost_model.h"

namespace flb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, FactoryCodesAndMessages) {
  auto s = Status::InvalidArgument("bad key size");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad key size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad key size");
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::ArithmeticError("x").IsArithmeticError());
  EXPECT_TRUE(Status::CryptoError("x").IsCryptoError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCryptoError), "CryptoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoubleIt(int v) {
  FLB_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto good = DoubleIt(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = DoubleIt(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(SimClockTest, ChargesAccumulatePerKind) {
  SimClock clock;
  clock.Charge(CostKind::kCpuHe, 1.0);
  clock.Charge(CostKind::kGpuKernel, 2.0);
  clock.Charge(CostKind::kPcieTransfer, 0.5);
  clock.Charge(CostKind::kNetwork, 3.0);
  clock.Charge(CostKind::kModelCompute, 0.25);
  EXPECT_DOUBLE_EQ(clock.Now(), 6.75);
  EXPECT_DOUBLE_EQ(clock.HeSeconds(), 3.5);  // cpu + gpu + pcie
  EXPECT_DOUBLE_EQ(clock.CommSeconds(), 3.0);
  EXPECT_DOUBLE_EQ(clock.OtherSeconds(), 0.25);
}

TEST(SimClockTest, KindNames) {
  EXPECT_EQ(CostKindName(CostKind::kCpuHe), "cpu_he");
  EXPECT_EQ(CostKindName(CostKind::kNetwork), "network");
  EXPECT_EQ(CostKindName(CostKind::kEncoding), "encoding");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  double min = 1, max = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    min = std::min(min, d);
    max = std::max(max, d);
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, WordsCoverBothHalves) {
  Rng rng(5);
  auto words = rng.NextWords(101);
  EXPECT_EQ(words.size(), 101u);
  std::set<uint32_t> unique(words.begin(), words.end());
  EXPECT_GT(unique.size(), 95u);  // collisions vanishingly unlikely
}

TEST(CpuCostModelTest, OverheadDominatesCheapOps) {
  core::CpuCostModel model;
  // A homomorphic add is ~26k limb ops: the per-op dispatch overhead is the
  // larger term (the FATE-is-python effect).
  const double add = model.SecondsFor(1, 26000);
  EXPECT_GT(add, model.per_op_overhead_sec);
  EXPECT_LT(add, 2 * model.per_op_overhead_sec);
  // An encryption is ~10M limb ops: arithmetic dominates.
  const double enc = model.SecondsFor(1, 10700000);
  EXPECT_GT(enc, 10 * model.per_op_overhead_sec);
}

TEST(CpuCostModelTest, ChargeTargetsCpuHe) {
  SimClock clock;
  core::CpuCostModel model;
  model.Charge(&clock, 10, 1000000);
  EXPECT_DOUBLE_EQ(clock.Elapsed(CostKind::kCpuHe), clock.Now());
  EXPECT_GT(clock.Now(), 0.0);
  model.Charge(nullptr, 10, 1000);  // null clock is a no-op
  model.Charge(&clock, 0, 1000);    // zero ops is a no-op
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  const WallTimer fresh;
  const double fresh_s = fresh.ElapsedSeconds();
  EXPECT_LT(fresh_s, 1.0);
  EXPECT_LE(fresh_s, timer.ElapsedSeconds());
}

}  // namespace
}  // namespace flb

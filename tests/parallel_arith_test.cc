// Tests for the §IV-A1 limb-parallel basic arithmetic: bit-exact agreement
// with the BigInt reference across thread decompositions, and the
// communication accounting.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/parallel_arith.h"

namespace flb::ghe {
namespace {

struct ArithCase {
  int bits;
  int threads;
};

class ParallelArithTest : public ::testing::TestWithParam<ArithCase> {
 protected:
  size_t s() const { return static_cast<size_t>(GetParam().bits) / 32; }
  int threads() const { return GetParam().threads; }
};

TEST_P(ParallelArithTest, AddMatchesReference) {
  Rng rng(100 + GetParam().bits + threads());
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt::Random(rng, GetParam().bits);
    const BigInt b = BigInt::Random(rng, GetParam().bits);
    ParallelMontStats stats;
    auto sum = ParallelAdd(a, b, s(), threads(), &stats);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(sum.value(), BigInt::Add(a, b));
    EXPECT_GT(stats.limb_ops, 0u);
  }
}

TEST_P(ParallelArithTest, SubMatchesReference) {
  Rng rng(200 + GetParam().bits + threads());
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, GetParam().bits);
    BigInt b = BigInt::Random(rng, GetParam().bits);
    if (a < b) std::swap(a, b);
    auto diff = ParallelSub(a, b, s(), threads(), nullptr);
    ASSERT_TRUE(diff.ok());
    EXPECT_EQ(diff.value(), BigInt::Sub(a, b));
  }
}

TEST_P(ParallelArithTest, MulMatchesReference) {
  Rng rng(300 + GetParam().bits + threads());
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::Random(rng, GetParam().bits);
    const BigInt b = BigInt::Random(rng, GetParam().bits);
    ParallelMontStats stats;
    auto prod = ParallelMul(a, b, s(), threads(), &stats);
    ASSERT_TRUE(prod.ok());
    EXPECT_EQ(prod.value(), BigInt::Mul(a, b));
    if (threads() > 1 && !a.IsZero() && !b.IsZero()) {
      // Cross-slice partial products are communications.
      EXPECT_GT(stats.inter_thread_comms, 0u);
    }
  }
}

TEST_P(ParallelArithTest, DivModMatchesReference) {
  Rng rng(400 + GetParam().bits + threads());
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::Random(rng, GetParam().bits);
    BigInt b = BigInt::Random(rng, GetParam().bits / 2);
    if (b.IsZero()) b = BigInt(7);
    auto qr = ParallelDivMod(a, b, s(), threads(), nullptr);
    ASSERT_TRUE(qr.ok());
    auto expected = BigInt::DivMod(a, b).value();
    EXPECT_EQ(qr->first, expected.first);
    EXPECT_EQ(qr->second, expected.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelArithTest,
                         ::testing::Values(ArithCase{128, 1},
                                           ArithCase{128, 4},
                                           ArithCase{512, 2},
                                           ArithCase{512, 16},
                                           ArithCase{1024, 8},
                                           ArithCase{2048, 32}));

TEST(ParallelArith, CarryCrossesSliceBoundary) {
  // a = 2^64 - 1 (fills thread 0's slice at x=2), b = 1: the carry must be
  // handed to thread 1.
  const BigInt a = BigInt::Sub(BigInt::PowerOfTwo(64), BigInt(1));
  const BigInt b(1);
  ParallelMontStats stats;
  auto sum = ParallelAdd(a, b, /*s=*/4, /*threads=*/2, &stats).value();
  EXPECT_EQ(sum, BigInt::PowerOfTwo(64));
  EXPECT_EQ(stats.inter_thread_comms, 1u);
}

TEST(ParallelArith, BorrowCrossesSliceBoundary) {
  const BigInt a = BigInt::PowerOfTwo(64);
  const BigInt b(1);
  ParallelMontStats stats;
  auto diff = ParallelSub(a, b, 4, 2, &stats).value();
  EXPECT_EQ(diff, BigInt::Sub(BigInt::PowerOfTwo(64), BigInt(1)));
  EXPECT_EQ(stats.inter_thread_comms, 1u);
}

TEST(ParallelArith, Validation) {
  const BigInt a(10), b(3);
  EXPECT_FALSE(ParallelAdd(a, b, 4, 3, nullptr).ok());  // 3 does not divide 4
  EXPECT_FALSE(ParallelAdd(a, b, 0, 1, nullptr).ok());
  EXPECT_TRUE(ParallelSub(b, a, 4, 2, nullptr).status().IsOutOfRange());
  EXPECT_TRUE(
      ParallelDivMod(a, BigInt(), 4, 2, nullptr).status().IsArithmeticError());
  // Operand wider than s limbs.
  EXPECT_FALSE(
      ParallelAdd(BigInt::PowerOfTwo(200), b, 4, 2, nullptr).ok());
}

TEST(ParallelArith, DivModEdgeCases) {
  // a < b, a == b, b == 1, power-of-two divisor.
  EXPECT_EQ(ParallelDivMod(BigInt(3), BigInt(7), 4, 2, nullptr)->first,
            BigInt());
  EXPECT_EQ(ParallelDivMod(BigInt(7), BigInt(7), 4, 2, nullptr)->first,
            BigInt(1));
  auto qr = ParallelDivMod(BigInt(123456789), BigInt(1), 4, 2, nullptr).value();
  EXPECT_EQ(qr.first, BigInt(123456789));
  EXPECT_TRUE(qr.second.IsZero());
  Rng rng(5);
  const BigInt a = BigInt::Random(rng, 120);
  auto qr2 = ParallelDivMod(a, BigInt::PowerOfTwo(40), 4, 4, nullptr).value();
  EXPECT_EQ(qr2.first, BigInt::ShiftRight(a, 40));
  EXPECT_EQ(qr2.second, BigInt::TruncateBits(a, 40));
}

}  // namespace
}  // namespace flb::ghe

// Unit and property tests for the multi-precision integer substrate.

#include "src/mpint/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/rng.h"

namespace flb::mpint {
namespace {

TEST(BigIntPlacement, HotStaticFunctionsAreCacheLineAligned) {
  // The modeled HE path's hot functions are pinned to 64 bytes so code
  // added elsewhere in the link cannot move them. AddModInPlace, AddInPlace
  // (the modeled fold's add) and operator% are pinned too but have no
  // portable function address.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(&BigInt::Mul) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(&BigInt::DivMod) % 64, 0u);
}

TEST(BigIntBasics, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsOne());
  EXPECT_TRUE(z.IsEven());
  EXPECT_EQ(z.BitLength(), 0);
  EXPECT_EQ(z.WordCount(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_EQ(z.LowU64(), 0u);
}

TEST(BigIntBasics, FromU64) {
  BigInt v(0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(v.WordCount(), 2u);
  EXPECT_EQ(v.LowU64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(v.ToHex(), "deadbeefcafebabe");
  EXPECT_TRUE(v.IsEven());
  EXPECT_EQ(v.BitLength(), 64);
}

TEST(BigIntBasics, FromWordsNormalizes) {
  BigInt v = BigInt::FromWords({5, 0, 0});
  EXPECT_EQ(v.WordCount(), 1u);
  EXPECT_EQ(v, BigInt(5));
  EXPECT_TRUE(BigInt::FromWords({0, 0}).IsZero());
}

TEST(BigIntBasics, PowerOfTwo) {
  EXPECT_EQ(BigInt::PowerOfTwo(0), BigInt(1));
  EXPECT_EQ(BigInt::PowerOfTwo(31), BigInt(0x80000000ULL));
  EXPECT_EQ(BigInt::PowerOfTwo(32), BigInt(0x100000000ULL));
  EXPECT_EQ(BigInt::PowerOfTwo(100).BitLength(), 101);
  EXPECT_TRUE(BigInt::PowerOfTwo(100).GetBit(100));
  EXPECT_FALSE(BigInt::PowerOfTwo(100).GetBit(99));
}

TEST(BigIntBasics, CompareOrdering) {
  BigInt a(100), b(200);
  BigInt big = BigInt::PowerOfTwo(80);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, BigInt(100));
  EXPECT_LT(b, big);
  EXPECT_EQ(a.Compare(b), -1);
  EXPECT_EQ(b.Compare(a), 1);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(BigIntHex, RoundTrip) {
  auto v = BigInt::FromHex("0x1fffFFFFabcdef0123456789");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToHex(), "1fffffffabcdef0123456789");
}

TEST(BigIntHex, Invalid) {
  EXPECT_FALSE(BigInt::FromHex("").ok());
  EXPECT_FALSE(BigInt::FromHex("0x").ok());
  EXPECT_FALSE(BigInt::FromHex("12g4").ok());
}

TEST(BigIntArith, AddWithCarryChain) {
  // (2^96 - 1) + 1 = 2^96: carry must ripple through three limbs.
  BigInt max3 = BigInt::Sub(BigInt::PowerOfTwo(96), BigInt(1));
  EXPECT_EQ(BigInt::Add(max3, BigInt(1)), BigInt::PowerOfTwo(96));
}

TEST(BigIntArith, SubWithBorrowChain) {
  BigInt v = BigInt::PowerOfTwo(96);
  BigInt r = BigInt::Sub(v, BigInt(1));
  EXPECT_EQ(r.BitLength(), 96);
  EXPECT_EQ(BigInt::Add(r, BigInt(1)), v);
}

TEST(BigIntArith, MulKnownValue) {
  // 123456789123456789 * 987654321987654321
  //   = 121932631356500531347203169112635269.
  auto a = BigInt::FromHex("1b69b4bacd05f15").value();
  auto b = BigInt::FromHex("db4da5f7ef412b1").value();
  EXPECT_EQ(BigInt::Mul(a, b).ToHex(), "177bbe2cd7ac30c76b21ab18c53785");
}

TEST(BigIntArith, MulByZeroAndOne) {
  BigInt v = BigInt::PowerOfTwo(100);
  EXPECT_TRUE(BigInt::Mul(v, BigInt()).IsZero());
  EXPECT_EQ(BigInt::Mul(v, BigInt(1)), v);
}

TEST(BigIntArith, DivModByZeroIsError) {
  auto r = BigInt::DivMod(BigInt(10), BigInt());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsArithmeticError());
}

TEST(BigIntArith, DivModSmallCases) {
  auto qr = BigInt::DivMod(BigInt(17), BigInt(5)).value();
  EXPECT_EQ(qr.first, BigInt(3));
  EXPECT_EQ(qr.second, BigInt(2));

  // a < b -> q=0, r=a
  qr = BigInt::DivMod(BigInt(3), BigInt(7)).value();
  EXPECT_TRUE(qr.first.IsZero());
  EXPECT_EQ(qr.second, BigInt(3));

  // a == b
  qr = BigInt::DivMod(BigInt(7), BigInt(7)).value();
  EXPECT_EQ(qr.first, BigInt(1));
  EXPECT_TRUE(qr.second.IsZero());
}

TEST(BigIntArith, ShiftRoundTrip) {
  BigInt v = BigInt::FromHex("deadbeefcafebabe0123456789abcdef").value();
  for (int s : {1, 31, 32, 33, 64, 95}) {
    EXPECT_EQ(BigInt::ShiftRight(BigInt::ShiftLeft(v, s), s), v)
        << "shift " << s;
  }
  EXPECT_TRUE(BigInt::ShiftRight(v, 1000).IsZero());
}

TEST(BigIntArith, TruncateBits) {
  BigInt v = BigInt::FromHex("ffffffffffffffffffffffff").value();  // 96 bits
  EXPECT_EQ(BigInt::TruncateBits(v, 4), BigInt(0xF));
  EXPECT_EQ(BigInt::TruncateBits(v, 33).BitLength(), 33);
  EXPECT_EQ(BigInt::TruncateBits(v, 200), v);
  EXPECT_TRUE(BigInt::TruncateBits(v, 0).IsZero());
}

TEST(BigIntArith, GcdLcm) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt(), BigInt(5)), BigInt(5));
  EXPECT_TRUE(BigInt::Gcd(BigInt(), BigInt()).IsZero());
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_TRUE(BigInt::Lcm(BigInt(), BigInt(5)).IsZero());
}

TEST(BigIntArith, ModInverseKnown) {
  // 3 * 4 = 12 ≡ 1 (mod 11)
  EXPECT_EQ(BigInt::ModInverse(BigInt(3), BigInt(11)).value(), BigInt(4));
  // Not coprime -> error
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(BigInt::ModInverse(BigInt(5), BigInt(1)).ok());
}

TEST(BigIntArith, ModPowKnown) {
  // 2^10 mod 1000 = 24
  EXPECT_EQ(BigInt::ModPow(BigInt(2), BigInt(10), BigInt(1000)).value(),
            BigInt(24));
  // Fermat: a^(p-1) ≡ 1 mod p for prime p
  EXPECT_EQ(BigInt::ModPow(BigInt(7), BigInt(12), BigInt(13)).value(),
            BigInt(1));
  // e = 0 -> 1
  EXPECT_EQ(BigInt::ModPow(BigInt(7), BigInt(), BigInt(13)).value(),
            BigInt(1));
  // mod 1 -> 0
  EXPECT_TRUE(BigInt::ModPow(BigInt(7), BigInt(5), BigInt(1))->IsZero());
}

TEST(BigIntArith, ToFixedWordsPadsAndTruncates) {
  BigInt v(0x1122334455667788ULL);
  auto w4 = v.ToFixedWords(4);
  ASSERT_EQ(w4.size(), 4u);
  EXPECT_EQ(w4[0], 0x55667788u);
  EXPECT_EQ(w4[1], 0x11223344u);
  EXPECT_EQ(w4[2], 0u);
  auto w1 = v.ToFixedWords(1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0], 0x55667788u);
}

TEST(BigIntArith, ToU64Range) {
  EXPECT_EQ(BigInt(42).ToU64().value(), 42u);
  EXPECT_FALSE(BigInt::PowerOfTwo(64).ToU64().ok());
}

// ---------------------------------------------------------------------------
// Randomized property tests: algebraic identities over many operand widths.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  // Parameter is the operand bit width.
  int bits() const { return GetParam(); }
};

TEST_P(BigIntPropertyTest, AddSubRoundTrip) {
  Rng rng(101 + bits());
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Random(rng, bits());
    BigInt b = BigInt::Random(rng, bits());
    EXPECT_EQ(BigInt::Sub(BigInt::Add(a, b), b), a);
    EXPECT_EQ(BigInt::Sub(BigInt::Add(a, b), a), b);
  }
}

TEST_P(BigIntPropertyTest, AddCommutativeAssociative) {
  Rng rng(202 + bits());
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(rng, bits());
    BigInt b = BigInt::Random(rng, bits());
    BigInt c = BigInt::Random(rng, bits());
    EXPECT_EQ(BigInt::Add(a, b), BigInt::Add(b, a));
    EXPECT_EQ(BigInt::Add(BigInt::Add(a, b), c),
              BigInt::Add(a, BigInt::Add(b, c)));
  }
}

TEST_P(BigIntPropertyTest, MulCommutativeDistributive) {
  Rng rng(303 + bits());
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, bits());
    BigInt b = BigInt::Random(rng, bits());
    BigInt c = BigInt::Random(rng, bits());
    EXPECT_EQ(BigInt::Mul(a, b), BigInt::Mul(b, a));
    EXPECT_EQ(BigInt::Mul(a, BigInt::Add(b, c)),
              BigInt::Add(BigInt::Mul(a, b), BigInt::Mul(a, c)));
  }
}

TEST_P(BigIntPropertyTest, DivModReconstruction) {
  Rng rng(404 + bits());
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::Random(rng, 2 * bits());
    BigInt b = BigInt::Random(rng, bits());
    if (b.IsZero()) continue;
    auto qr = BigInt::DivMod(a, b).value();
    EXPECT_LT(qr.second, b);
    EXPECT_EQ(BigInt::Add(BigInt::Mul(qr.first, b), qr.second), a);
  }
}

TEST_P(BigIntPropertyTest, HexRoundTrip) {
  Rng rng(505 + bits());
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, bits());
    EXPECT_EQ(BigInt::FromHex(a.ToHex()).value(), a);
  }
}

TEST_P(BigIntPropertyTest, ModInverseIsInverse) {
  Rng rng(606 + bits());
  // An odd modulus and random values; skip non-coprime draws.
  for (int i = 0; i < 20; ++i) {
    BigInt n = BigInt::Random(rng, bits());
    if (n < BigInt(3)) continue;
    if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
    BigInt a = BigInt::RandomBelow(rng, n);
    if (!BigInt::Gcd(a, n).IsOne()) continue;
    BigInt inv = BigInt::ModInverse(a, n).value();
    EXPECT_EQ(BigInt::ModMul(a, inv, n).value(), BigInt(1));
    EXPECT_LT(inv, n);
  }
}

TEST_P(BigIntPropertyTest, ModPowMatchesRepeatedMul) {
  Rng rng(707 + bits());
  for (int i = 0; i < 10; ++i) {
    BigInt n = BigInt::Random(rng, std::min(bits(), 128));
    if (n < BigInt(2)) continue;
    BigInt a = BigInt::RandomBelow(rng, n);
    const uint64_t e = rng.NextBelow(20);
    BigInt expected(1);
    expected = expected % n;
    for (uint64_t k = 0; k < e; ++k) {
      expected = BigInt::ModMul(expected, a, n).value();
    }
    EXPECT_EQ(BigInt::ModPow(a, BigInt(e), n).value(), expected);
  }
}

TEST_P(BigIntPropertyTest, RandomBelowIsBelow) {
  Rng rng(808 + bits());
  BigInt bound = BigInt::Random(rng, bits());
  if (bound.IsZero()) bound = BigInt(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(BigInt::RandomBelow(rng, bound), bound);
  }
}

// Widths straddle the Karatsuba threshold (40 limbs = 1280 bits) so both
// multiplication paths are exercised.
INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(16, 32, 64, 128, 256, 512, 1024,
                                           1500, 2048, 4096));

TEST(BigIntKaratsuba, MatchesSchoolbookAcrossThreshold) {
  Rng rng(42);
  // Verify the identity (a+b)^2 = a^2 + 2ab + b^2 at sizes that force
  // Karatsuba recursion, including unbalanced operands.
  for (int bits_a : {1200, 1500, 2600, 5000}) {
    for (int bits_b : {700, 1500, 3000}) {
      BigInt a = BigInt::Random(rng, bits_a);
      BigInt b = BigInt::Random(rng, bits_b);
      BigInt lhs = BigInt::Mul(BigInt::Add(a, b), BigInt::Add(a, b));
      BigInt rhs = BigInt::Add(
          BigInt::Add(BigInt::Mul(a, a), BigInt::Mul(b, b)),
          BigInt::ShiftLeft(BigInt::Mul(a, b), 1));
      EXPECT_EQ(lhs, rhs) << bits_a << "x" << bits_b;
    }
  }
}

}  // namespace
}  // namespace flb::mpint

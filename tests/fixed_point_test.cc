// Tests for the signed fixed-point codec used by per-value hetero legs.

#include <gtest/gtest.h>

#include <cmath>

#include "src/codec/fixed_point.h"
#include "src/common/rng.h"

namespace flb::codec {
namespace {

using mpint::BigInt;

BigInt Modulus(int bits) {
  Rng rng(7);
  BigInt n = BigInt::Random(rng, bits);
  auto w = n.ToFixedWords(bits / 32);
  w[0] |= 1u;
  w.back() |= 0x80000000u;
  return BigInt::FromWords(std::move(w));
}

TEST(FixedPointTest, CreateValidation) {
  const BigInt n = Modulus(256);
  EXPECT_FALSE(FixedPointCodec::Create(n, 4).ok());
  EXPECT_FALSE(FixedPointCodec::Create(n, 61).ok());
  EXPECT_FALSE(FixedPointCodec::Create(BigInt(12345), 24).ok());  // too small
  EXPECT_TRUE(FixedPointCodec::Create(n, 24).ok());
}

TEST(FixedPointTest, RoundTripSignedValues) {
  auto codec = FixedPointCodec::Create(Modulus(512), 24).value();
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 123.456, -123.456, 1e-6,
                   -1e-6, 1e5, -1e5}) {
    const BigInt enc = codec.Encode(v).value();
    EXPECT_NEAR(codec.Decode(enc).value(), v, std::fabs(v) * 1e-6 + 1e-7)
        << v;
  }
}

TEST(FixedPointTest, NegativeValuesWrapAboveHalfModulus) {
  auto codec = FixedPointCodec::Create(Modulus(256), 16).value();
  const BigInt enc = codec.Encode(-2.5).value();
  EXPECT_GT(enc, codec.half_modulus());
  EXPECT_LT(codec.Encode(2.5).value(), codec.half_modulus());
}

TEST(FixedPointTest, AdditionOfResiduesMatchesPlainSum) {
  const BigInt n = Modulus(512);
  auto codec = FixedPointCodec::Create(n, 24).value();
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const double a = (rng.NextDouble() - 0.5) * 100;
    const double b = (rng.NextDouble() - 0.5) * 100;
    const BigInt sum =
        BigInt::Add(codec.Encode(a).value(), codec.Encode(b).value()) % n;
    EXPECT_NEAR(codec.Decode(sum).value(), a + b, 1e-4);
  }
}

TEST(FixedPointTest, MultiplicationTracksScale) {
  const BigInt n = Modulus(512);
  auto codec = FixedPointCodec::Create(n, 20).value();
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const double a = (rng.NextDouble() - 0.5) * 8;
    const double w = (rng.NextDouble() - 0.5) * 8;
    const BigInt prod = BigInt::Mul(codec.Encode(a).value(),
                                    codec.EncodeScalar(w).value()) %
                        n;
    EXPECT_NEAR(codec.Decode(prod, /*scale_muls=*/1).value(), a * w, 1e-3);
  }
}

TEST(FixedPointTest, EncodeRejectsBadInputs) {
  auto codec = FixedPointCodec::Create(Modulus(256), 24).value();
  EXPECT_FALSE(codec.Encode(std::nan("")).ok());
  EXPECT_FALSE(codec.Encode(std::numeric_limits<double>::infinity()).ok());
  // Magnitude at/near n/2 is ambiguous.
  EXPECT_FALSE(codec.Encode(1e60).ok());
}

TEST(FixedPointTest, DecodeRejectsOutOfRange) {
  const BigInt n = Modulus(256);
  auto codec = FixedPointCodec::Create(n, 24).value();
  EXPECT_FALSE(codec.Decode(n).ok());
}

TEST(FixedPointTest, PrecisionImprovesWithFracBits) {
  const BigInt n = Modulus(512);
  auto coarse = FixedPointCodec::Create(n, 10).value();
  auto fine = FixedPointCodec::Create(n, 40).value();
  const double v = 0.123456789;
  const double coarse_err =
      std::fabs(coarse.Decode(coarse.Encode(v).value()).value() - v);
  const double fine_err =
      std::fabs(fine.Decode(fine.Encode(v).value()).value() - v);
  EXPECT_LT(fine_err, coarse_err / 1000);
}

}  // namespace
}  // namespace flb::codec

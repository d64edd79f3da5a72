// Tests for Encoding-Quantization (Eqs. 6-8) and Batch Compression
// (Eqs. 9, 11-13), including the end-to-end packed-aggregation property
// through real Paillier.

#include <gtest/gtest.h>

#include <cmath>

#include "src/codec/batch_compressor.h"
#include "src/codec/quantizer.h"
#include "src/common/rng.h"
#include "src/crypto/paillier.h"

namespace flb::codec {
namespace {

using mpint::BigInt;

Quantizer MakeQuantizer(double alpha = 1.0, int r = 30, int p = 4) {
  QuantizerConfig cfg;
  cfg.alpha = alpha;
  cfg.r_bits = r;
  cfg.participants = p;
  return Quantizer::Create(cfg).value();
}

// ---------------------------------------------------------------------------
// Quantizer
// ---------------------------------------------------------------------------

TEST(QuantizerTest, ConfigValidation) {
  QuantizerConfig cfg;
  cfg.alpha = 0.0;
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
  cfg.alpha = -1.0;
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
  cfg.alpha = 1.0;
  cfg.r_bits = 1;
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
  cfg.r_bits = 53;
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
  cfg.r_bits = 30;
  cfg.participants = 0;
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
  cfg.participants = 1 << 30;
  cfg.r_bits = 52;  // slot would be 52 + 30 = 82 bits
  EXPECT_FALSE(Quantizer::Create(cfg).ok());
}

TEST(QuantizerTest, OverflowBitsMatchParticipants) {
  // The headroom above the value: slot width minus r.
  const auto overflow_bits = [](int participants) {
    const Quantizer q = MakeQuantizer(1.0, 30, participants);
    return q.slot_bits() - q.r_bits();
  };
  EXPECT_EQ(overflow_bits(1), 0);
  EXPECT_EQ(overflow_bits(2), 1);
  EXPECT_EQ(overflow_bits(4), 2);
  EXPECT_EQ(overflow_bits(5), 3);
  EXPECT_EQ(overflow_bits(64), 6);
  // The paper's default: r + b = 32.
  EXPECT_EQ(MakeQuantizer(1.0, 30, 4).slot_bits(), 32);
}

TEST(QuantizerTest, EndpointsAndZero) {
  const Quantizer q = MakeQuantizer(0.5, 16, 2);
  EXPECT_EQ(q.Encode(-0.5).value(), 0u);
  EXPECT_EQ(q.Encode(0.5).value(), (uint64_t{1} << 16) - 1);
  // Zero maps to the midpoint.
  const uint64_t mid = q.Encode(0.0).value();
  EXPECT_NEAR(static_cast<double>(mid), ((uint64_t{1} << 16) - 1) / 2.0, 1.0);
}

TEST(QuantizerTest, RoundTripErrorWithinBound) {
  const Quantizer q = MakeQuantizer(1.0, 30, 4);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double m = rng.NextDouble() * 2.0 - 1.0;
    const double back = q.DecodeAggregate(q.Encode(m).value(), 1).value();
    EXPECT_LE(std::fabs(back - m), q.MaxAbsoluteError()) << m;
  }
}

TEST(QuantizerTest, ErrorShrinksWithMoreBits) {
  EXPECT_LT(MakeQuantizer(1.0, 30).MaxAbsoluteError(),
            MakeQuantizer(1.0, 16).MaxAbsoluteError());
  EXPECT_LT(MakeQuantizer(1.0, 16).MaxAbsoluteError(),
            MakeQuantizer(1.0, 8, 4).MaxAbsoluteError());
}

TEST(QuantizerTest, ClampVsError) {
  QuantizerConfig cfg;
  cfg.alpha = 1.0;
  cfg.clamp = true;
  auto clamping = Quantizer::Create(cfg).value();
  EXPECT_EQ(clamping.Encode(5.0).value(), clamping.Encode(1.0).value());
  EXPECT_EQ(clamping.Encode(-5.0).value(), clamping.Encode(-1.0).value());
  cfg.clamp = false;
  auto strict = Quantizer::Create(cfg).value();
  EXPECT_TRUE(strict.Encode(5.0).status().IsOutOfRange());
  EXPECT_FALSE(strict.Encode(std::nan("")).ok());
}

TEST(QuantizerTest, AggregateDecodeRecoversSum) {
  const Quantizer q = MakeQuantizer(1.0, 30, 8);
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextBelow(8));
    double true_sum = 0.0;
    uint64_t slot = 0;
    for (int i = 0; i < k; ++i) {
      const double m = rng.NextDouble() * 2.0 - 1.0;
      true_sum += m;
      slot += q.Encode(m).value();  // slot-wise addition, as under HE
    }
    const double decoded = q.DecodeAggregate(slot, k).value();
    EXPECT_NEAR(decoded, true_sum, k * q.MaxAbsoluteError());
  }
}

TEST(QuantizerTest, AggregateDecodeErrors) {
  const Quantizer q = MakeQuantizer(1.0, 16, 4);
  EXPECT_TRUE(q.DecodeAggregate(0, 0).status().IsOutOfRange());
  EXPECT_TRUE(q.DecodeAggregate(0, 5).status().IsOutOfRange());
  // A slot larger than k * q_max signals overflow.
  EXPECT_TRUE(q.DecodeAggregate(uint64_t{5} << 16, 2)
                  .status()
                  .IsArithmeticError());
}

// Parameterized sweep across quantization widths (property-style).
class QuantizerWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerWidthTest, RoundTripAtWidth) {
  const int r = GetParam();
  const Quantizer q = MakeQuantizer(0.25, r, 4);
  Rng rng(100 + r);
  for (int i = 0; i < 200; ++i) {
    const double m = (rng.NextDouble() - 0.5) * 0.5;
    const double back = q.DecodeAggregate(q.Encode(m).value(), 1).value();
    EXPECT_LE(std::fabs(back - m), q.MaxAbsoluteError());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizerWidthTest,
                         ::testing::Values(8, 12, 16, 20, 24, 30, 40, 52));

// ---------------------------------------------------------------------------
// BatchCompressor
// ---------------------------------------------------------------------------

TEST(BatchCompressorTest, SlotCountsMatchPaper) {
  // Paper: r + b = 32 -> 32 plaintexts at k=1024, 64 at 2048, 128 at 4096.
  // One bit is reserved to keep the packed value below n, so the usable
  // counts are 31 / 63 / 127.
  auto q = MakeQuantizer(1.0, 30, 4);  // slot = 32 bits
  EXPECT_EQ(BatchCompressor::Create(q, 1024)->slots_per_plaintext(), 31);
  EXPECT_EQ(BatchCompressor::Create(q, 2048)->slots_per_plaintext(), 63);
  EXPECT_EQ(BatchCompressor::Create(q, 4096)->slots_per_plaintext(), 127);
  EXPECT_DOUBLE_EQ(BatchCompressor::Create(q, 1024)->TheoreticalCompressionRatio(),
                   32.0);
}

TEST(BatchCompressorTest, CreateValidation) {
  auto q = MakeQuantizer();
  EXPECT_FALSE(BatchCompressor::Create(q, 32).ok());
}

TEST(BatchCompressorTest, PackUnpackRoundTrip) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 1024).value();
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextDouble() * 2 - 1);

  auto packed = bc.Pack(values).value();
  EXPECT_EQ(packed.size(), bc.PlaintextsFor(values.size()));
  auto back = bc.Unpack(packed, values.size(), /*num_contributors=*/1).value();
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(back[i], values[i], bc.quantizer().MaxAbsoluteError()) << i;
  }
}

TEST(BatchCompressorTest, PartialLastPlaintext) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 1024).value();
  std::vector<double> values(40, 0.125);  // 31 + 9: two plaintexts
  auto packed = bc.Pack(values).value();
  EXPECT_EQ(packed.size(), 2u);
  auto back = bc.Unpack(packed, 40, 1).value();
  for (double v : back) EXPECT_NEAR(v, 0.125, bc.quantizer().MaxAbsoluteError());
}

TEST(BatchCompressorTest, PackedValueFitsUnderKeyBits) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 1024).value();
  std::vector<double> values(31, 1.0);  // all-max slots
  auto packed = bc.Pack(values).value();
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_LT(packed[0].BitLength(), 1024);
}

TEST(BatchCompressorTest, SlotIsolationUnderAggregation) {
  // Adding p packed plaintexts must not leak carries across slots.
  const int p = 4;
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, p), 1024).value();
  Rng rng(4);
  const size_t count = 62;
  std::vector<std::vector<double>> parties(p);
  std::vector<double> sums(count, 0.0);
  for (auto& vals : parties) {
    for (size_t i = 0; i < count; ++i) {
      const double m = rng.NextDouble() * 2 - 1;
      vals.push_back(m);
      sums[i] += m;
    }
  }
  // Integer-add the packed plaintexts (what Paillier aggregation computes).
  std::vector<BigInt> agg = bc.Pack(parties[0]).value();
  for (int j = 1; j < p; ++j) {
    auto packed = bc.Pack(parties[j]).value();
    for (size_t i = 0; i < agg.size(); ++i) {
      agg[i] = BigInt::Add(agg[i], packed[i]);
    }
  }
  auto decoded = bc.Unpack(agg, count, p).value();
  for (size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(decoded[i], sums[i], p * bc.quantizer().MaxAbsoluteError());
  }
}

TEST(BatchCompressorTest, CompressionRatioFormulae) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 2048).value();
  // 63 slots per plaintext: 630 values -> 10 plaintexts.
  EXPECT_DOUBLE_EQ(bc.CompressionRatio(630), 63.0);
  EXPECT_LE(bc.CompressionRatio(630), bc.TheoreticalCompressionRatio());
  // PSU <= 1 always (Eq. 12).
  EXPECT_LE(bc.PlaintextSpaceUtilization(630), 1.0);
  EXPECT_GT(bc.PlaintextSpaceUtilization(630), 0.9);
  // Partial fill lowers both.
  EXPECT_LT(bc.CompressionRatio(64), bc.CompressionRatio(630));
  EXPECT_DOUBLE_EQ(bc.CompressionRatio(0), 1.0);
  EXPECT_DOUBLE_EQ(bc.PlaintextSpaceUtilization(0), 0.0);
}

TEST(BatchCompressorTest, UnpackBoundsChecked) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 1024).value();
  auto packed = bc.Pack({0.5, -0.5}).value();
  EXPECT_FALSE(bc.UnpackSlots(packed, 100).ok());
  EXPECT_TRUE(bc.Unpack(packed, 2, 1).ok());
}

TEST(BatchCompressorTest, PackSlotsRejectsOverwideValues) {
  auto bc = BatchCompressor::Create(MakeQuantizer(1.0, 30, 4), 1024).value();
  // Slot width is 32; 2^33 does not fit.
  EXPECT_TRUE(bc.PackSlots({uint64_t{1} << 33}).status().IsOutOfRange());
}

// ---------------------------------------------------------------------------
// End-to-end: packed aggregation through real Paillier (the BC module's
// correctness claim: no erroneous decryptions, exact slot sums).
// ---------------------------------------------------------------------------

TEST(BatchCompressorE2E, PackedPaillierAggregation) {
  Rng rng(5);
  const int key_bits = 256;
  const int p = 3;
  auto keys = crypto::PaillierKeyGen(key_bits, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();

  QuantizerConfig qcfg;
  qcfg.alpha = 1.0;
  qcfg.r_bits = 14;
  qcfg.participants = p;  // slot = 16 bits -> 15 slots per 256-bit key
  auto bc = BatchCompressor::Create(Quantizer::Create(qcfg).value(), key_bits)
                .value();

  const size_t count = 40;
  std::vector<double> sums(count, 0.0);
  std::vector<BigInt> agg_cipher;
  for (int party = 0; party < p; ++party) {
    std::vector<double> grads;
    for (size_t i = 0; i < count; ++i) {
      const double g = rng.NextDouble() * 2 - 1;
      grads.push_back(g);
      sums[i] += g;
    }
    auto packed = bc.Pack(grads).value();
    if (party == 0) {
      agg_cipher.resize(packed.size());
      for (size_t i = 0; i < packed.size(); ++i) {
        agg_cipher[i] = ctx.Encrypt(packed[i], rng).value();
      }
    } else {
      for (size_t i = 0; i < packed.size(); ++i) {
        BigInt c = ctx.Encrypt(packed[i], rng).value();
        agg_cipher[i] = ctx.Add(agg_cipher[i], c).value();
      }
    }
  }
  std::vector<BigInt> agg_plain;
  for (const auto& c : agg_cipher) {
    agg_plain.push_back(ctx.Decrypt(c).value());
  }
  auto decoded = bc.Unpack(agg_plain, count, p).value();
  for (size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(decoded[i], sums[i], p * bc.quantizer().MaxAbsoluteError());
  }
}

}  // namespace
}  // namespace flb::codec

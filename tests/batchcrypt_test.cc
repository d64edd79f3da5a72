// Tests for the BatchCrypt-style codec — including the experimental
// reproduction of the paper's §II claim that fixed-headroom batch encoding
// "suffers from the overflow problem in some cases", which FLBooster's
// ceil(log2 p) headroom avoids by construction.

#include <gtest/gtest.h>

#include <cmath>

#include "bench/batchcrypt_codec.h"
#include "src/codec/batch_compressor.h"
#include "src/codec/quantizer.h"
#include "src/common/rng.h"

namespace flb::codec {
namespace {

using mpint::BigInt;

BatchCryptConfig Config(int key_bits = 1024) {
  BatchCryptConfig cfg;
  cfg.alpha = 1.0;
  cfg.value_bits = 14;
  cfg.headroom_bits = 2;
  cfg.key_bits = key_bits;
  return cfg;
}

TEST(BatchCryptTest, CreateValidation) {
  auto cfg = Config();
  cfg.value_bits = 2;
  EXPECT_FALSE(BatchCryptCodec::Create(cfg).ok());
  cfg = Config();
  cfg.headroom_bits = 9;
  EXPECT_FALSE(BatchCryptCodec::Create(cfg).ok());
  cfg = Config();
  cfg.alpha = -1;
  EXPECT_FALSE(BatchCryptCodec::Create(cfg).ok());
  EXPECT_TRUE(BatchCryptCodec::Create(Config()).ok());
}

TEST(BatchCryptTest, SingleContributorRoundTrip) {
  auto codec = BatchCryptCodec::Create(Config()).value();
  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble() * 2 - 1);
  auto packed = codec.Pack(values).value();
  auto back = codec.Unpack(packed, values.size(), 1).value();
  const double tol = 2.0 / ((1 << 14) - 1);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(back[i], values[i], tol) << i;
  }
}

TEST(BatchCryptTest, ZeroCenteredAggregationWorks) {
  // BatchCrypt's happy path: contributions that cancel stay within the
  // fixed headroom even for many participants.
  auto codec = BatchCryptCodec::Create(Config()).value();
  const int p = 16;  // > 2^headroom, but values alternate sign
  const size_t count = 50;
  std::vector<BigInt> agg;
  std::vector<double> sums(count, 0.0);
  for (int party = 0; party < p; ++party) {
    std::vector<double> vals(count, party % 2 == 0 ? 0.25 : -0.25);
    for (size_t i = 0; i < count; ++i) sums[i] += vals[i];
    auto packed = codec.Pack(vals).value();
    if (agg.empty()) {
      agg = std::move(packed);
    } else {
      for (size_t i = 0; i < agg.size(); ++i) {
        agg[i] = BigInt::Add(agg[i], packed[i]);
      }
    }
  }
  auto decoded = codec.Unpack(agg, count, p).value();
  for (size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(decoded[i], sums[i], 0.01);
  }
}

TEST(BatchCryptTest, SameSignAggregationOverflowsSilently) {
  // The §II failure mode: 8 participants all pushing the same direction
  // (e.g. a consistently positive bias gradient) exceed the 2-bit headroom.
  auto codec = BatchCryptCodec::Create(Config()).value();
  const int p = 8;
  EXPECT_FALSE(codec.GuaranteesNoOverflow(p));
  const size_t count = 20;
  std::vector<BigInt> agg;
  for (int party = 0; party < p; ++party) {
    std::vector<double> vals(count, 0.9);  // strongly same-sign
    auto packed = codec.Pack(vals).value();
    if (agg.empty()) {
      agg = std::move(packed);
    } else {
      for (size_t i = 0; i < agg.size(); ++i) {
        agg[i] = BigInt::Add(agg[i], packed[i]);
      }
    }
  }
  auto decoded = codec.Unpack(agg, count, p).value();
  // True sum is 7.2 per slot; the overflow corrupts the decoding and no
  // error is reported — values come back silently wrong.
  double worst = 0;
  for (double v : decoded) worst = std::max(worst, std::fabs(v - 7.2));
  EXPECT_GT(worst, 1.0);
}

TEST(BatchCryptTest, FlBoosterHeadroomSurvivesTheSameWorkload) {
  // The identical same-sign workload through FLBooster's Quantizer +
  // BatchCompressor (b = ceil(log2 p) = 3) decodes exactly.
  const int p = 8;
  QuantizerConfig qcfg;
  qcfg.alpha = 1.0;
  qcfg.r_bits = 14;
  qcfg.participants = p;
  auto quantizer = Quantizer::Create(qcfg).value();
  auto bc = BatchCompressor::Create(quantizer, 1024).value();

  const size_t count = 20;
  std::vector<BigInt> agg;
  for (int party = 0; party < p; ++party) {
    std::vector<double> vals(count, 0.9);
    auto packed = bc.Pack(vals).value();
    if (agg.empty()) {
      agg = std::move(packed);
    } else {
      for (size_t i = 0; i < agg.size(); ++i) {
        agg[i] = BigInt::Add(agg[i], packed[i]);
      }
    }
  }
  auto decoded = bc.Unpack(agg, count, p).value();
  for (double v : decoded) {
    EXPECT_NEAR(v, 7.2, p * quantizer.MaxAbsoluteError());
  }
}

TEST(BatchCryptTest, GuaranteeMatchesHeadroom) {
  auto codec = BatchCryptCodec::Create(Config()).value();
  EXPECT_TRUE(codec.GuaranteesNoOverflow(1));
  EXPECT_TRUE(codec.GuaranteesNoOverflow(4));
  EXPECT_FALSE(codec.GuaranteesNoOverflow(5));
  // Denser packing than FLBooster on paper (fixed 2-bit headroom packs a
  // couple more slots)...
  QuantizerConfig qcfg;
  qcfg.r_bits = 14;
  qcfg.participants = 64;  // FLBooster must reserve 6 bits
  auto quantizer = Quantizer::Create(qcfg).value();
  auto bc = BatchCompressor::Create(quantizer, 1024).value();
  EXPECT_GE(codec.slots_per_plaintext(), bc.slots_per_plaintext());
  // ...but no safety at that participant count.
  EXPECT_FALSE(codec.GuaranteesNoOverflow(64));
}

}  // namespace
}  // namespace flb::codec

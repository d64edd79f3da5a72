// Tests for the HeService facade: packed-sum and fixed-point paths, real vs
// modeled execution agreement, engine traits, and cipher-space compression.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "src/core/he_service.h"
#include "src/core/transport.h"
#include "src/gpusim/device.h"

namespace flb::core {
namespace {

std::shared_ptr<gpusim::Device> MakeDevice(SimClock* clock,
                                           bool branch_combining = true) {
  return std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), clock,
                                          branch_combining);
}

HeServiceOptions SmallRealOptions(EngineKind engine) {
  HeServiceOptions opts;
  opts.engine = engine;
  opts.key_bits = 256;  // small keys: tests run real crypto
  opts.r_bits = 14;     // slot = 16 bits at 4 participants
  opts.participants = 4;
  opts.modeled = false;
  opts.frac_bits = 16;
  return opts;
}

// E(x)^k the way PaillierContext::ScalarMul computes it, on BigInt's
// reference arithmetic: a (short) negative fixed-point scalar n - m runs as
// (E(x)^{-1})^m.
BigInt RefScalarMul(const BigInt& c, const BigInt& k, const BigInt& n) {
  const BigInt n2 = BigInt::Mul(n, n);
  if (k > BigInt::ShiftRight(n, 1)) {
    return BigInt::ModPow(BigInt::ModInverse(c, n2).value(), BigInt::Sub(n, k),
                          n2)
        .value();
  }
  return BigInt::ModPow(c, k, n2).value();
}

class HeServiceEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    device_ = MakeDevice(&clock_, TraitsFor(GetParam()).branch_combining);
    auto service =
        HeService::Create(SmallRealOptions(GetParam()), &clock_, device_);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    he_ = std::move(service).value();
  }

  SimClock clock_;
  std::shared_ptr<gpusim::Device> device_;
  std::unique_ptr<HeService> he_;
};

TEST_P(HeServiceEngineTest, PackedSumRoundTrip) {
  std::vector<double> values{0.5, -0.25, 0.125, -1.0, 1.0, 0.0, 0.75};
  auto enc = he_->EncryptValues(values).value();
  EXPECT_EQ(enc.count, values.size());
  auto dec = he_->DecryptValues(enc).value();
  ASSERT_EQ(dec.size(), values.size());
  const double tol = he_->quantizer().MaxAbsoluteError();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], tol);
  }
}

TEST_P(HeServiceEngineTest, PackedAggregationAcrossParties) {
  std::vector<double> a{0.1, -0.2, 0.3}, b{0.4, 0.5, -0.6}, c{-0.7, 0.1, 0.2};
  auto ea = he_->EncryptValues(a).value();
  auto eb = he_->EncryptValues(b).value();
  auto sum = he_->AddCipher(ea, eb).value();
  EXPECT_EQ(sum.contributors, 2);
  sum = he_->AddPlainValues(sum, c).value();
  EXPECT_EQ(sum.contributors, 3);
  auto dec = he_->DecryptValues(sum).value();
  const double tol = 3 * he_->quantizer().MaxAbsoluteError();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(dec[i], a[i] + b[i] + c[i], tol);
  }
}

TEST_P(HeServiceEngineTest, ContributorHeadroomEnforced) {
  std::vector<double> v{0.1};
  auto e1 = he_->EncryptValues(v).value();
  auto e2 = he_->EncryptValues(v).value();
  auto s2 = he_->AddCipher(e1, e2).value();
  auto s4 = he_->AddCipher(s2, s2).value();  // 4 contributors: at the limit
  EXPECT_EQ(s4.contributors, 4);
  EXPECT_TRUE(he_->AddCipher(s4, e1).status().IsOutOfRange());
  EXPECT_TRUE(he_->AddPlainValues(s4, v).status().IsOutOfRange());
}

TEST_P(HeServiceEngineTest, FixedPointScalarMulAndAdd) {
  std::vector<double> values{0.5, -0.75, 1.5};
  auto enc = he_->EncryptFixedPoint(values).value();
  auto scaled = he_->ScalarMulFixedPoint(enc, {2.0, -1.0, 0.5}).value();
  EXPECT_EQ(scaled.scale_muls, 1);
  auto dec = he_->DecryptFixedPoint(scaled).value();
  EXPECT_NEAR(dec[0], 1.0, 1e-3);
  EXPECT_NEAR(dec[1], 0.75, 1e-3);
  EXPECT_NEAR(dec[2], 0.75, 1e-3);

  // Fixed-point ciphertexts add inside WeightedSums: 2*0.5 + 2*0.5 = 2.
  auto summed = he_->WeightedSums(enc, {{{0, 2.0}, {0, 2.0}}}).value();
  EXPECT_NEAR(he_->DecryptFixedPoint(summed).value()[0], 2.0, 1e-3);
}

TEST_P(HeServiceEngineTest, WeightedAndSelectiveSums) {
  std::vector<double> values{1.0, -0.5, 0.25, 2.0};
  auto enc = he_->EncryptFixedPoint(values).value();

  std::vector<std::vector<HeService::WeightedTerm>> groups{
      {{0, 2.0}, {1, 4.0}},          // 2*1 + 4*(-0.5) = 0
      {{2, 1.0}, {3, 0.5}, {0, 1.0}},  // 0.25 + 1 + 1 = 2.25
      {}};                           // empty -> 0
  auto sums = he_->WeightedSums(enc, groups).value();
  auto dec = he_->DecryptFixedPoint(sums).value();
  ASSERT_EQ(dec.size(), 3u);
  EXPECT_NEAR(dec[0], 0.0, 1e-3);
  EXPECT_NEAR(dec[1], 2.25, 1e-3);
  EXPECT_NEAR(dec[2], 0.0, 1e-3);

  std::vector<std::vector<uint32_t>> sel{{0, 3}, {1, 2}};
  auto ssums = he_->SelectiveSums(enc, sel).value();
  auto sdec = he_->DecryptFixedPoint(ssums).value();
  EXPECT_NEAR(sdec[0], 3.0, 1e-3);
  EXPECT_NEAR(sdec[1], -0.25, 1e-3);
}

TEST_P(HeServiceEngineTest, ErrorPaths) {
  std::vector<double> v{0.5};
  EXPECT_TRUE(he_->EncryptValues({}).status().IsInvalidArgument());
  auto packed = he_->EncryptValues(v).value();
  auto fixed = he_->EncryptFixedPoint(v).value();
  // Layout confusion rejected.
  EXPECT_FALSE(he_->AddCipher(packed, fixed).ok());
  EXPECT_FALSE(he_->DecryptValues(fixed).ok());
  EXPECT_FALSE(he_->DecryptFixedPoint(packed).ok());
  EXPECT_FALSE(he_->ScalarMulFixedPoint(fixed, {1.0, 2.0}).ok());
  std::vector<std::vector<HeService::WeightedTerm>> bad{{{5, 1.0}}};
  EXPECT_TRUE(he_->WeightedSums(fixed, bad).status().IsOutOfRange());
}

INSTANTIATE_TEST_SUITE_P(Engines, HeServiceEngineTest,
                         ::testing::Values(EngineKind::kFate,
                                           EngineKind::kHaflo,
                                           EngineKind::kFlBooster,
                                           EngineKind::kFlBoosterNoGhe,
                                           EngineKind::kFlBoosterNoBc));

TEST(HeServiceTest, PackSlotsReflectBcTrait) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto bc = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  auto no_bc = HeService::Create(SmallRealOptions(EngineKind::kHaflo), &clock,
                                 device)
                   .value();
  EXPECT_GT(bc->pack_slots(), 1);
  EXPECT_EQ(no_bc->pack_slots(), 1);
  // Same logical vector, fewer ciphertexts and fewer wire bytes under BC.
  std::vector<double> values(40, 0.25);
  auto enc_bc = bc->EncryptValues(values).value();
  auto enc_plain = no_bc->EncryptValues(values).value();
  EXPECT_LT(enc_bc.num_ciphertexts(), enc_plain.num_ciphertexts());
  EXPECT_LT(bc->WireBytes(enc_bc), no_bc->WireBytes(enc_plain));
}

TEST(HeServiceTest, CipherCompressionRoundTrip) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  opts.fp_compress_slot_bits = 40;  // 256-bit key -> 6 slots
  auto he = HeService::Create(opts, &clock, device).value();

  std::vector<double> values{0.5, -1.25, 2.0, -0.125, 0.75, 3.5, -2.25, 0.0};
  auto enc = he->EncryptFixedPoint(values).value();
  auto packed = he->CompressForTransmission(enc).value();
  EXPECT_LT(packed.num_ciphertexts(), enc.num_ciphertexts());
  EXPECT_GT(packed.slots_per_cipher, 1);
  auto dec = he->DecryptFixedPoint(packed).value();
  ASSERT_EQ(dec.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], 1e-3) << i;
  }
  // A vector whose count disagrees with its ciphertexts is refused.
  enc.data.pop_back();
  EXPECT_TRUE(he->CompressForTransmission(enc).status().IsInvalidArgument());
}

TEST(HeServiceTest, CipherCompressionBytesMatchDirectFormula) {
  // Horner packing must produce the bytes of the direct formula
  // prod_j (c_j * g^(2^(sb-1)))^(2^(j*sb)) mod n^2, at any thread count.
  const std::vector<double> values{0.5, -1.25, 2.0, -0.125,
                                   0.75, 3.5, -2.25, 0.0};
  std::vector<BigInt> first;
  double first_sim = 0;
  for (int threads : {1, 4}) {
    SimClock clock;
    auto device = MakeDevice(&clock);
    HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
    opts.fp_compress_slot_bits = 40;  // 256-bit key -> 6 slots
    opts.host_threads = threads;
    auto he = HeService::Create(opts, &clock, device).value();
    const EncVec enc = he->EncryptFixedPoint(values).value();
    const EncVec packed = he->CompressForTransmission(enc).value();

    const BigInt& n = he->modulus();
    const BigInt n2 = BigInt::Mul(n, n);
    const int sb = packed.fp_slot_bits;
    const auto slots = static_cast<size_t>(packed.slots_per_cipher);
    const BigInt g_offset =
        BigInt::ModPow(BigInt::Add(n, BigInt(1)), BigInt::PowerOfTwo(sb - 1),
                       n2)
            .value();
    std::vector<BigInt> want;
    for (size_t base = 0; base < enc.data.size(); base += slots) {
      BigInt acc(1);
      for (size_t j = 0; j < slots && base + j < enc.data.size(); ++j) {
        const BigInt c = BigInt::ModMul(enc.data[base + j], g_offset, n2).value();
        const BigInt shift = BigInt::PowerOfTwo(static_cast<int>(j) * sb);
        acc = BigInt::ModMul(acc, BigInt::ModPow(c, shift, n2).value(), n2)
                  .value();
      }
      want.push_back(acc);
    }
    ASSERT_EQ(want.size(), 2u);  // a full group of 6 and a partial one of 2
    EXPECT_EQ(packed.data, want) << "threads=" << threads;
    if (first.empty()) {
      first = packed.data;
      first_sim = clock.Now();
    } else {
      EXPECT_EQ(packed.data, first) << "threads=" << threads;
      EXPECT_EQ(clock.Now(), first_sim) << "threads=" << threads;
    }
  }
}

TEST(HeServiceTest, ModeledBytesMatchDirectFormula) {
  // Modeled HE computes on residues mod a synthetic n: each add must give
  // the bytes of (a + b) % n and each scalar mul those of (c * k) % n,
  // also for residues on both sides of n/2 that the codec never produces.
  const std::vector<double> values{0.5, -1.25, 2.0, -0.125, 0.0, 3.5, -2.25};
  const std::vector<double> weights{-1.5, 2.0, -0.25, 0.0, -3.0, 1.0, 1024.5};
  for (int key_bits : {256, 2048}) {
    SCOPED_TRACE(key_bits);
    SimClock clock;
    HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
    opts.key_bits = key_bits;
    opts.modeled = true;
    opts.fp_compress_slot_bits = 40;
    auto he = HeService::Create(opts, &clock, MakeDevice(&clock)).value();
    const BigInt& n = he->modulus();
    const BigInt one(1);
    const BigInt half = BigInt::ShiftRight(n, 1);
    auto add_mod = [&](const BigInt& a, const BigInt& b) {
      return BigInt::Add(a, b) % n;
    };
    auto make = [](EncLayout layout, std::vector<BigInt> data) {
      EncVec v;
      v.layout = layout;
      v.modeled = true;
      v.count = data.size();
      v.data = std::move(data);
      return v;
    };

    // Codec encodings of mixed-sign values, then residues it cannot reach.
    const std::vector<BigInt> edges{
        BigInt(),   one,  n - one,    n - BigInt(2),
        half - one, half, half + one, half + BigInt(2)};
    std::vector<BigInt> residues = he->EncryptFixedPoint(values).value().data;
    const auto edge0 = static_cast<uint32_t>(residues.size());
    residues.insert(residues.end(), edges.begin(), edges.end());
    std::vector<BigInt> lhs, rhs;
    for (const BigInt& a : residues) {
      for (const BigInt& b : residues) {
        lhs.push_back(a);
        rhs.push_back(b);
      }
    }

    const EncVec sum = he->AddCipher(make(EncLayout::kPackedSum, lhs),
                                     make(EncLayout::kPackedSum, rhs))
                           .value();
    ASSERT_EQ(sum.data.size(), lhs.size());
    for (size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(sum.data[i], add_mod(lhs[i], rhs[i])) << i;
    }

    // A party's own values folded into each edge residue in turn. Modeled
    // encryption keeps the packed plaintexts as they are.
    const std::vector<double> shares{0.5, -0.25, 0.125, -1.0, 1.0, 0.0};
    const std::vector<BigInt> plains = he->EncryptValues(shares).value().data;
    for (const BigInt& edge : edges) {
      EncVec c = he->EncryptValues(shares).value();
      c.data.assign(c.data.size(), edge);
      const EncVec folded = he->AddPlainValues(c, shares).value();
      for (size_t i = 0; i < plains.size(); ++i) {
        EXPECT_EQ(folded.data[i], add_mod(edge, plains[i])) << i;
      }
    }

    // Every residue times every weight, and unreduced data (>= n), which
    // only arrives from outside the codec.
    std::vector<BigInt> multiplicands = residues;
    multiplicands.push_back(n);
    multiplicands.push_back(n + one);
    std::vector<BigInt> cs, ks;
    std::vector<double> ws;
    for (const BigInt& c : multiplicands) {
      for (double w : weights) {
        cs.push_back(c);
        ws.push_back(w);
        ks.push_back(he->fixed_point().EncodeScalar(w).value());
      }
    }
    const EncVec prod =
        he->ScalarMulFixedPoint(make(EncLayout::kFixedPoint, cs), ws).value();
    ASSERT_EQ(prod.data.size(), cs.size());
    for (size_t i = 0; i < cs.size(); ++i) {
      EXPECT_EQ(prod.data[i], BigInt::Mul(cs[i], ks[i]) % n) << i;
    }

    // Folds, each with an empty group (residue 0). A fold sums a group's
    // terms and reduces once; a one-term group is copied as it is.
    const EncVec vec = make(EncLayout::kFixedPoint, residues);
    const std::vector<std::vector<HeService::WeightedTerm>> wgroups{
        {{0, -1.5}, {edge0 + 2, 2.0}, {edge0 + 6, -0.25}},
        {},
        {{edge0 + 1, 0.0}},
        {{edge0 + 5, -3.0}, {edge0 + 5, -3.0}, {3, 1024.5}, {1, 1.0}},
        {{0, 1.0}, {0, -1.0}}};  // c + (n - c): cancels to 0
    const EncVec ws_out = he->WeightedSums(vec, wgroups).value();
    ASSERT_EQ(ws_out.data.size(), wgroups.size());
    for (size_t g = 0; g < wgroups.size(); ++g) {
      BigInt want;
      for (const auto& t : wgroups[g]) {
        const BigInt k = he->fixed_point().EncodeScalar(t.weight).value();
        want = add_mod(want, BigInt::Mul(residues[t.index], k) % n);
      }
      EXPECT_EQ(ws_out.data[g], want) << "weighted group " << g;
    }
    EXPECT_TRUE(ws_out.data.back().IsZero());
    // Selective sums also take terms at or above n, which only arrive from
    // outside the codec, up to the widest a modeled wire value holds
    // (2 * key_bits bits, RecvEncVec's fixed-width words).
    std::vector<BigInt> terms = residues;
    const auto over0 = static_cast<uint32_t>(terms.size());
    terms.push_back(n);
    terms.push_back(n + one);
    terms.push_back(BigInt::PowerOfTwo(2 * key_bits) - one);
    const std::vector<std::vector<uint32_t>> sgroups{
        {edge0 + 2, edge0 + 2, edge0 + 3},
        {},
        {edge0 + 6},
        {0, 1, 2, 3, 4, 5, 6, edge0, edge0 + 4, edge0 + 5, edge0 + 7},
        {over0 + 1},  // one term, n + 1: stays unreduced
        // Codec values mixed with half - 1, half + 1 and n - 1.
        {0, edge0 + 4, 1, edge0 + 6, 2, edge0 + 2, 3, 6},
        // 1 + (n - 1) + half + (half + 1) = 2n: cancels to 0.
        {edge0 + 1, edge0 + 2, edge0 + 5, edge0 + 6},
        // Magnitudes 3 half + (half - 1), about 2n, against one small
        // positive: the negatives outweigh it by more than n.
        {edge0 + 6, edge0 + 6, 0, edge0 + 6, edge0 + 7},
        // Terms >= n among residues on both sides of n/2.
        {over0, over0 + 1, edge0 + 6, over0 + 2, 1, edge0 + 2}};
    const EncVec ss_out =
        he->SelectiveSums(make(EncLayout::kFixedPoint, terms), sgroups)
            .value();
    ASSERT_EQ(ss_out.data.size(), sgroups.size());
    for (size_t g = 0; g < sgroups.size(); ++g) {
      BigInt sum;
      for (uint32_t i : sgroups[g]) sum = sum + terms[i];
      const BigInt want = sgroups[g].size() == 1 ? sum : sum % n;
      EXPECT_EQ(ss_out.data[g], want) << "selective group " << g;
    }
    EXPECT_EQ(ss_out.data[4], n + one);
    EXPECT_TRUE(ss_out.data[6].IsZero());

    // Cipher-space packing: group residue sum_j (c_j + 2^(sb-1)) 2^(j*sb)
    // mod n, taken as one sum and one reduction.
    const EncVec packed = he->CompressForTransmission(vec).value();
    const int sb = packed.fp_slot_bits;
    const auto slots = static_cast<size_t>(packed.slots_per_cipher);
    ASSERT_GT(slots, 1u);
    const BigInt offset = BigInt::PowerOfTwo(sb - 1);
    std::vector<BigInt> want;
    for (size_t base = 0; base < residues.size(); base += slots) {
      BigInt total;
      for (size_t j = 0; j < slots && base + j < residues.size(); ++j) {
        total = total + BigInt::ShiftLeft(residues[base + j] + offset,
                                          static_cast<int>(j) * sb);
      }
      want.push_back(total % n);
    }
    EXPECT_EQ(packed.data, want);
    // The codec-reachable part still decodes through the packing.
    const EncVec enc = he->EncryptFixedPoint(values).value();
    const std::vector<double> dec =
        he->DecryptFixedPoint(he->CompressForTransmission(enc).value()).value();
    ASSERT_EQ(dec.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_NEAR(dec[i], values[i], 1e-6) << i;
    }
  }
}

TEST(HeServiceTest, FoldsWithEmptyGroupsMatchReferenceAtAnyThreadCount) {
  const std::vector<double> values{1.0, -0.5, 0.25, 2.0, -1.5};
  std::vector<std::vector<HeService::WeightedTerm>> wgroups{
      {{0, 2.0}, {1, -4.0}, {3, 0.5}}, {}, {{2, -1.0}}, {{4, 1.5}, {0, -0.25}}};
  std::vector<std::vector<uint32_t>> sgroups{
      {0, 3, 4}, {}, {2}, {1, 2}, {}, {3, 3}};
  // Longer Montgomery chains: groups of 8, 9 and 33 terms cycling through
  // the values (so indices repeat), weighted ones of 8 and 9.
  for (uint32_t k : {8u, 9u, 33u}) {
    std::vector<uint32_t> group;
    std::vector<HeService::WeightedTerm> wgroup;
    for (uint32_t t = 0; t < k; ++t) {
      group.push_back((3 * t + k) % values.size());
      wgroup.push_back({group.back(), 0.5 * t - 2.0});
    }
    sgroups.push_back(group);
    if (k < 33) wgroups.push_back(wgroup);
  }
  struct Run {
    std::vector<BigInt> weighted, selective;
    double sim_seconds;
    HeOpCounts ops;
  };
  auto run = [&](int threads) {
    SimClock clock;
    auto device = MakeDevice(&clock);
    HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
    opts.host_threads = threads;
    auto he = HeService::Create(opts, &clock, device).value();
    const EncVec enc = he->EncryptFixedPoint(values).value();
    const EncVec ws = he->WeightedSums(enc, wgroups).value();
    const EncVec ss = he->SelectiveSums(enc, sgroups).value();

    // Non-empty groups: the product of the single-op results.
    const BigInt& n = he->modulus();
    const BigInt n2 = BigInt::Mul(n, n);
    for (size_t g = 0; g < wgroups.size(); ++g) {
      if (wgroups[g].empty()) continue;
      BigInt want(1);
      for (const auto& t : wgroups[g]) {
        const BigInt k = he->fixed_point().EncodeScalar(t.weight).value();
        want = BigInt::ModMul(want, RefScalarMul(enc.data[t.index], k, n), n2)
                   .value();
      }
      EXPECT_EQ(ws.data[g], want) << "threads=" << threads << " group " << g;
    }
    for (size_t g = 0; g < sgroups.size(); ++g) {
      if (sgroups[g].empty()) continue;
      BigInt want(1);
      for (uint32_t i : sgroups[g]) {
        want = BigInt::ModMul(want, enc.data[i], n2).value();
      }
      EXPECT_EQ(ss.data[g], want) << "threads=" << threads << " group " << g;
    }
    // Empty groups: E(0)s drawn from the ordered ObfuscationPool in group
    // order, the draws a same-key service makes for three empty groups.
    SimClock ref_clock;
    auto ref = HeService::Create(opts, &ref_clock, MakeDevice(&ref_clock))
                   .value();
    const EncVec zeros = ref->SelectiveSums(enc, {{}, {}, {}}).value();
    EXPECT_EQ(ws.data[1], zeros.data[0]) << "threads=" << threads;
    EXPECT_EQ(ss.data[1], zeros.data[1]) << "threads=" << threads;
    EXPECT_EQ(ss.data[4], zeros.data[2]) << "threads=" << threads;
    EXPECT_EQ(he->DecryptFixedPoint(ws).value()[1], 0.0);
    return Run{ws.data, ss.data, clock.Now(), he->op_counts()};
  };
  const Run base = run(1);
  const Run four = run(4);
  EXPECT_EQ(four.weighted, base.weighted);
  EXPECT_EQ(four.selective, base.selective);
  EXPECT_EQ(four.sim_seconds, base.sim_seconds);
  EXPECT_EQ(four.ops.encrypts, base.ops.encrypts);
  EXPECT_EQ(four.ops.hom_adds, base.ops.hom_adds);
  EXPECT_EQ(four.ops.scalar_muls, base.ops.scalar_muls);
}

TEST(HeServiceTest, FailedRealOpIsNotCharged) {
  // A real op whose compute fails charges nothing on any engine: the GPU
  // engines run the compute before the device launch, FATE before its CPU
  // charge.
  for (const EngineKind engine :
       {EngineKind::kFate, EngineKind::kHaflo, EngineKind::kFlBooster}) {
    SimClock clock;
    auto device = MakeDevice(&clock, TraitsFor(engine).branch_combining);
    auto he = HeService::Create(SmallRealOptions(engine), &clock, device)
                  .value();
    EncVec enc = he->EncryptFixedPoint({1.0, -0.5, 0.25}).value();
    // Out of Z*_{n^2} for the 256-bit key.
    enc.data[0] = BigInt::PowerOfTwo(513);
    const double before = clock.Now();
    const Status status = he->SelectiveSums(enc, {{0, 1}, {2}}).status();
    EXPECT_TRUE(status.IsOutOfRange())
        << EngineName(engine) << ": " << status.ToString();
    EXPECT_EQ(clock.Now(), before) << EngineName(engine);
  }
}

TEST(HeServiceTest, ScalarMulPricesTheDeclaredWidthNotTheScalars) {
  // A price that read the scalars would leak them into the simulated clock:
  // a few-bit scalar (1e-3 at 16 fractional bits) and a residue near n
  // (-1e3) charge the same at the one declared width, on every engine.
  for (const EngineKind engine :
       {EngineKind::kFate, EngineKind::kHaflo, EngineKind::kFlBooster}) {
    const auto he_seconds = [&](double weight) {
      SimClock clock;
      auto device = MakeDevice(&clock, TraitsFor(engine).branch_combining);
      auto he = HeService::Create(SmallRealOptions(engine), &clock, device)
                    .value();
      const EncVec c = he->EncryptFixedPoint({0.5, -0.25, 1.0, 2.0}).value();
      const EncVec p =
          he->ScalarMulFixedPoint(c, std::vector<double>(4, weight)).value();
      const double seconds = clock.HeSeconds();
      const auto dec = he->DecryptFixedPoint(p).value();
      EXPECT_NEAR(dec[3], 2.0 * weight, 1e-3) << EngineName(engine);
      return seconds;
    };
    const double small = he_seconds(1e-3);
    EXPECT_GT(small, 0.0) << EngineName(engine);
    EXPECT_EQ(he_seconds(-1e3), small) << EngineName(engine);
  }
}

TEST(HeServiceTest, CipherCompressionIsNoOpWithoutBc) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBoosterNoBc),
                              &clock, device)
                .value();
  std::vector<double> values{0.5, -1.25, 2.0};
  auto enc = he->EncryptFixedPoint(values).value();
  auto same = he->CompressForTransmission(enc).value();
  EXPECT_EQ(same.num_ciphertexts(), enc.num_ciphertexts());
  EXPECT_EQ(same.slots_per_cipher, 1);
}

TEST(HeServiceTest, ModeledMatchesRealValues) {
  // The modeled path must produce numerically identical decode results to
  // the real path (quantization is the only loss in both).
  SimClock real_clock, model_clock;
  auto real_dev = MakeDevice(&real_clock);
  auto model_dev = MakeDevice(&model_clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  auto real = HeService::Create(opts, &real_clock, real_dev).value();
  opts.modeled = true;
  auto modeled = HeService::Create(opts, &model_clock, model_dev).value();

  std::vector<double> a{0.5, -0.25, 0.75}, b{-0.5, 0.5, 0.125};
  auto ra = real->EncryptValues(a).value();
  auto rb = real->EncryptValues(b).value();
  auto rsum = real->DecryptValues(real->AddCipher(ra, rb).value()).value();
  auto ma = modeled->EncryptValues(a).value();
  auto mb = modeled->EncryptValues(b).value();
  auto msum =
      modeled->DecryptValues(modeled->AddCipher(ma, mb).value()).value();
  ASSERT_EQ(rsum.size(), msum.size());
  for (size_t i = 0; i < rsum.size(); ++i) {
    EXPECT_DOUBLE_EQ(rsum[i], msum[i]) << i;
  }
  // And the modeled run charges comparable HE time (same op counts and the
  // same kernel model — identical, in fact, for the GPU engine).
  EXPECT_NEAR(model_clock.HeSeconds(), real_clock.HeSeconds(),
              0.2 * real_clock.HeSeconds() + 1e-9);
}

TEST(HeServiceTest, ModeledFixedPointMatchesReal) {
  SimClock c1, c2;
  auto d1 = MakeDevice(&c1);
  auto d2 = MakeDevice(&c2);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  auto real = HeService::Create(opts, &c1, d1).value();
  opts.modeled = true;
  auto modeled = HeService::Create(opts, &c2, d2).value();

  std::vector<double> v{0.5, -0.75, 1.25, 2.0};
  std::vector<std::vector<HeService::WeightedTerm>> groups{
      {{0, 1.5}, {2, -2.0}}, {{1, 3.0}, {3, 0.25}}};
  auto rdec =
      real->DecryptFixedPoint(
              real->WeightedSums(real->EncryptFixedPoint(v).value(), groups)
                  .value())
          .value();
  auto mdec = modeled
                  ->DecryptFixedPoint(modeled
                                          ->WeightedSums(
                                              modeled->EncryptFixedPoint(v)
                                                  .value(),
                                              groups)
                                          .value())
                  .value();
  ASSERT_EQ(rdec.size(), mdec.size());
  for (size_t i = 0; i < rdec.size(); ++i) {
    EXPECT_NEAR(rdec[i], mdec[i], 1e-9) << i;
  }
}

TEST(HeServiceTest, OpCountsAndThroughputInputs) {
  SimClock clock;
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  std::vector<double> values(30, 0.5);
  auto enc = he->EncryptValues(values).value();
  he->DecryptValues(enc).value();
  EXPECT_EQ(he->op_counts().values_encrypted, 30u);
  EXPECT_EQ(he->op_counts().values_decrypted, 30u);
  EXPECT_EQ(he->op_counts().encrypts, enc.num_ciphertexts());
  EXPECT_GT(clock.HeSeconds(), 0.0);
}

TEST(HeServiceTest, CreateValidation) {
  SimClock clock;
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  // GPU engine without a device.
  EXPECT_FALSE(HeService::Create(opts, &clock, nullptr).ok());
  // Bad key size.
  opts.key_bits = 100;
  EXPECT_FALSE(HeService::Create(opts, &clock, MakeDevice(&clock)).ok());
  // Cipher-space slot width outside [0, 63]; 0 derives it, and 63 is the
  // widest slot DecryptFixedPoint can read as a signed 64-bit value.
  opts.key_bits = 256;
  for (int slot_bits : {-1, 64}) {
    opts.fp_compress_slot_bits = slot_bits;
    EXPECT_TRUE(HeService::Create(opts, &clock, MakeDevice(&clock))
                    .status()
                    .IsInvalidArgument())
        << slot_bits;
  }
  for (int slot_bits : {0, 63}) {
    opts.fp_compress_slot_bits = slot_bits;
    EXPECT_TRUE(HeService::Create(opts, &clock, MakeDevice(&clock)).ok())
        << slot_bits;
  }
}

TEST(HeServiceStreams, TraitsCarryStreamCounts) {
  EXPECT_EQ(TraitsFor(EngineKind::kFlBooster).gpu_streams, 4);
  EXPECT_EQ(TraitsFor(EngineKind::kFlBoosterNoBc).gpu_streams, 4);
  EXPECT_EQ(TraitsFor(EngineKind::kFate).gpu_streams, 1);
  EXPECT_EQ(TraitsFor(EngineKind::kHaflo).gpu_streams, 1);
  EXPECT_EQ(TraitsFor(EngineKind::kFlBoosterNoGhe).gpu_streams, 1);
}

TEST(HeServiceStreams, OptionsOverrideEngineDefault) {
  // A transfer-bound batch, a 1024-bit hom-add over 2^14 ciphertexts, runs
  // as four kernels in one synchronized window under FLBooster's 4 streams
  // and as one launch with gpu_streams = 1. A CPU engine never touches the
  // device it gets.
  using Launches = std::pair<uint64_t, uint64_t>;  // kernels, windows
  const auto launches = [](EngineKind engine, int gpu_streams) {
    SimClock clock;
    auto device = MakeDevice(&clock);
    HeServiceOptions opts;
    opts.engine = engine;
    opts.key_bits = 1024;
    opts.modeled = true;
    opts.use_bc = 0;
    opts.gpu_streams = gpu_streams;
    auto he = HeService::Create(opts, &clock, device).value();
    const EncVec enc =
        he->EncryptValues(std::vector<double>(1 << 14, 0.25)).value();
    const gpusim::DeviceStats before = device->stats();
    he->AddCipher(enc, enc).value();
    const gpusim::DeviceStats after = device->stats();
    return Launches{after.kernels_launched - before.kernels_launched,
                    after.synchronizations - before.synchronizations};
  };
  EXPECT_EQ(launches(EngineKind::kFlBooster, 0), Launches(4, 1));
  EXPECT_EQ(launches(EngineKind::kFlBooster, 1), Launches(1, 0));
  EXPECT_EQ(launches(EngineKind::kFate, 0), Launches(0, 0));
}

TEST(HeServiceStreams, MultiStreamNeverChargesMoreAndStaysBitExact) {
  // The adaptive engine only chunks when the modeled timeline is strictly
  // faster, so the 4-stream service can never charge more HE time than the
  // forced-serial one — and the ciphertext math is identical either way.
  SimClock serial_clock, async_clock;
  auto serial_dev = MakeDevice(&serial_clock);
  auto async_dev = MakeDevice(&async_clock);
  HeServiceOptions opts = SmallRealOptions(EngineKind::kFlBooster);
  opts.gpu_streams = 1;
  auto serial = HeService::Create(opts, &serial_clock, serial_dev).value();
  opts.gpu_streams = 4;
  auto async = HeService::Create(opts, &async_clock, async_dev).value();

  std::vector<double> a(512), b(512);
  for (int i = 0; i < 512; ++i) {
    a[i] = 0.001 * i - 0.2;
    b[i] = 0.25 - 0.0005 * i;
  }
  auto sdec =
      serial
          ->DecryptValues(serial
                              ->AddCipher(serial->EncryptValues(a).value(),
                                          serial->EncryptValues(b).value())
                              .value())
          .value();
  auto adec =
      async
          ->DecryptValues(async
                              ->AddCipher(async->EncryptValues(a).value(),
                                          async->EncryptValues(b).value())
                              .value())
          .value();
  ASSERT_EQ(sdec.size(), adec.size());
  for (size_t i = 0; i < sdec.size(); ++i) {
    EXPECT_DOUBLE_EQ(sdec[i], adec[i]) << i;
  }
  EXPECT_LE(async_clock.HeSeconds(), serial_clock.HeSeconds() + 1e-12);
}

TEST(HeServiceTest, TransportRoundTrip) {
  SimClock clock;
  net::Network network(net::LinkSpec::GigabitEthernet(), &clock);
  auto device = MakeDevice(&clock);
  auto he = HeService::Create(SmallRealOptions(EngineKind::kFlBooster), &clock,
                              device)
                .value();
  std::vector<double> values{0.5, -0.25, 0.75, 0.125};
  auto enc = he->EncryptValues(values).value();
  ASSERT_TRUE(SendEncVec(&network, *he, "alice", "bob", "grad", enc).ok());
  // Wire bytes reflect the real ciphertext footprint.
  EXPECT_GE(network.stats().bytes, he->WireBytes(enc));
  auto received = RecvEncVec(&network, "bob", "grad").value();
  EXPECT_EQ(received.count, enc.count);
  EXPECT_EQ(received.contributors, enc.contributors);
  auto dec = he->DecryptValues(received).value();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], he->quantizer().MaxAbsoluteError());
  }
}

}  // namespace
}  // namespace flb::core

// Tests for the GPU-HE layer: Algorithm 2 (parallel Montgomery) fidelity
// and the batched Table I API surface.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
#include "src/crypto/rsa.h"
#include "src/ghe/ghe_engine.h"
#include "src/ghe/parallel_montgomery.h"
#include "src/gpusim/device.h"

namespace flb::ghe {
namespace {

using crypto::MontgomeryContext;
using mpint::BigInt;

std::shared_ptr<gpusim::Device> MakeDevice(SimClock* clock = nullptr) {
  return std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), clock);
}

// ---------------------------------------------------------------------------
// Algorithm 2: parallel Montgomery multiplication
// ---------------------------------------------------------------------------

struct ParallelMontCase {
  int bits;
  int threads;
};

class ParallelMontTest : public ::testing::TestWithParam<ParallelMontCase> {};

TEST_P(ParallelMontTest, BitExactWithSequentialCios) {
  const auto [bits, threads] = GetParam();
  Rng rng(9000 + bits + threads);
  BigInt n = BigInt::Random(rng, bits);
  n = BigInt::FromWords([&] {
    auto w = n.ToFixedWords(bits / 32);
    w[0] |= 1;                      // odd
    w.back() |= 0x80000000u;        // full width -> exactly bits/32 limbs
    return w;
  }());
  auto ctx = MontgomeryContext::Create(n).value();
  const size_t s = ctx.num_limbs();
  ASSERT_EQ(s, static_cast<size_t>(bits / 32));

  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(rng, n);
    BigInt b = BigInt::RandomBelow(rng, n);
    const auto aw = a.ToFixedWords(s);
    const auto bw = b.ToFixedWords(s);
    std::vector<uint32_t> out(s);
    auto stats = ParallelMontMul(aw.data(), bw.data(), n.words().data(),
                                 ctx.n0_inv(), s, threads, out.data());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(BigInt::FromWords(out), ctx.MontMul(a, b))
        << "bits=" << bits << " threads=" << threads;
    EXPECT_GT(stats->limb_ops, 0u);
    if (threads > 1) {
      EXPECT_GT(stats->inter_thread_comms, 0u);
    } else {
      EXPECT_EQ(stats->inter_thread_comms, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelMontTest,
    ::testing::Values(ParallelMontCase{128, 1}, ParallelMontCase{128, 2},
                      ParallelMontCase{128, 4}, ParallelMontCase{256, 8},
                      ParallelMontCase{512, 4}, ParallelMontCase{512, 16},
                      ParallelMontCase{1024, 8}, ParallelMontCase{1024, 32},
                      ParallelMontCase{2048, 16}, ParallelMontCase{2048, 64}));

TEST(ParallelMont, RejectsNonDividingThreadCount) {
  std::vector<uint32_t> a(4, 1), b(4, 1), n(4, 1), out(4);
  n[0] = 0xFFFFFFFD;
  EXPECT_FALSE(
      ParallelMontMul(a.data(), b.data(), n.data(), 0, 4, 3, out.data()).ok());
  EXPECT_FALSE(
      ParallelMontMul(a.data(), b.data(), n.data(), 0, 0, 1, out.data()).ok());
}

TEST(ParallelMont, LargestValidThreadCount) {
  EXPECT_EQ(LargestValidThreadCount(64, 16), 16);
  EXPECT_EQ(LargestValidThreadCount(64, 15), 8);   // 15,14,... first divisor
  EXPECT_EQ(LargestValidThreadCount(7, 4), 1);     // prime limb count
  EXPECT_EQ(LargestValidThreadCount(12, 100), 12);
}

TEST(ParallelMont, MoreThreadsMoreCommunication) {
  Rng rng(1);
  BigInt n = BigInt::Random(rng, 1024);
  n = BigInt::FromWords([&] {
    auto w = n.ToFixedWords(32);
    w[0] |= 1;
    w.back() |= 0x80000000u;
    return w;
  }());
  auto ctx = MontgomeryContext::Create(n).value();
  BigInt a = BigInt::RandomBelow(rng, n);
  BigInt b = BigInt::RandomBelow(rng, n);
  const auto aw = a.ToFixedWords(32);
  const auto bw = b.ToFixedWords(32);
  std::vector<uint32_t> out(32);
  const auto s2 = ParallelMontMul(aw.data(), bw.data(), n.words().data(),
                                  ctx.n0_inv(), 32, 2, out.data())
                      .value();
  const auto s16 = ParallelMontMul(aw.data(), bw.data(), n.words().data(),
                                   ctx.n0_inv(), 32, 16, out.data())
                       .value();
  EXPECT_GT(s16.inter_thread_comms, s2.inter_thread_comms);
  EXPECT_EQ(s16.limb_ops, s2.limb_ops);  // same arithmetic, different split
}

// ---------------------------------------------------------------------------
// GheEngine: vector API
// ---------------------------------------------------------------------------

class GheEngineTest : public ::testing::Test {
 protected:
  GheEngineTest() : engine_(MakeDevice(&clock_)) {}

  std::vector<BigInt> RandomBatch(size_t count, int bits, Rng& rng) {
    std::vector<BigInt> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) out.push_back(BigInt::Random(rng, bits));
    return out;
  }

  SimClock clock_;
  GheEngine engine_;
};

TEST_F(GheEngineTest, VectorAddSubRoundTrip) {
  Rng rng(10);
  auto a = RandomBatch(64, 256, rng);
  auto b = RandomBatch(64, 256, rng);
  auto sum = engine_.Add(a, b).value();
  auto diff = engine_.Sub(sum, b).value();
  ASSERT_EQ(diff.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(diff[i], a[i]);
  EXPECT_GT(clock_.Elapsed(CostKind::kGpuKernel), 0.0);
  EXPECT_GT(clock_.Elapsed(CostKind::kPcieTransfer), 0.0);
}

TEST_F(GheEngineTest, VectorSubUnderflowIsError) {
  std::vector<BigInt> a{BigInt(1)}, b{BigInt(2)};
  EXPECT_TRUE(engine_.Sub(a, b).status().IsOutOfRange());
}

TEST_F(GheEngineTest, VectorMulDivMod) {
  Rng rng(11);
  auto a = RandomBatch(32, 192, rng);
  auto b = RandomBatch(32, 64, rng);
  for (auto& v : b) {
    if (v.IsZero()) v = BigInt(3);
  }
  auto prod = engine_.Mul(a, b).value();
  auto quot = engine_.Div(prod, b).value();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(quot[i], a[i]);

  const BigInt n = BigInt::Random(rng, 100);
  auto rem = engine_.Mod(prod, n).value();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(rem[i], prod[i] % n);
}

TEST_F(GheEngineTest, VectorDivByZeroError) {
  std::vector<BigInt> a{BigInt(6)}, b{BigInt()};
  EXPECT_TRUE(engine_.Div(a, b).status().IsArithmeticError());
  EXPECT_TRUE(engine_.Mod(a, BigInt()).status().IsArithmeticError());
}

TEST_F(GheEngineTest, MismatchedBatchSizesError) {
  std::vector<BigInt> a{BigInt(1), BigInt(2)}, b{BigInt(1)};
  EXPECT_TRUE(engine_.Add(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(engine_.Mul(a, b).status().IsInvalidArgument());
  EXPECT_TRUE(engine_.ModMul(a, b, BigInt(17)).status().IsInvalidArgument());
}

TEST_F(GheEngineTest, EmptyBatchesAreNoOps) {
  std::vector<BigInt> empty;
  EXPECT_TRUE(engine_.Add(empty, empty)->empty());
  EXPECT_TRUE(engine_.ModPow(empty, empty, BigInt(17))->empty());
}

TEST_F(GheEngineTest, ModInvModMulModPowAgainstReference) {
  Rng rng(12);
  BigInt n = BigInt::Random(rng, 256);
  if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
  auto a = RandomBatch(16, 200, rng);
  auto b = RandomBatch(16, 200, rng);
  auto e = RandomBatch(16, 32, rng);

  auto mm = engine_.ModMul(a, b, n).value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(mm[i], BigInt::ModMul(a[i] % n, b[i] % n, n).value());
  }
  auto mp = engine_.ModPow(a, e, n).value();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(mp[i], BigInt::ModPow(a[i], e[i], n).value());
  }
  // ModInv over values coprime with an odd prime-ish modulus.
  const BigInt prime(1000003);
  std::vector<BigInt> units;
  for (int i = 2; i < 18; ++i) units.push_back(BigInt(i));
  auto inv = engine_.ModInv(units, prime).value();
  for (size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(BigInt::ModMul(units[i], inv[i], prime).value(), BigInt(1));
  }
}

// ---------------------------------------------------------------------------
// GheEngine: batched Paillier / RSA
// ---------------------------------------------------------------------------

TEST_F(GheEngineTest, PaillierBatchRoundTripAndAggregate) {
  Rng rng(13);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();

  std::vector<BigInt> ms;
  for (uint64_t i = 1; i <= 32; ++i) ms.push_back(BigInt(i * 1000));
  auto cs = engine_.PaillierEncrypt(ctx, ms, rng).value();
  ASSERT_EQ(cs.size(), ms.size());
  auto decrypted = engine_.PaillierDecrypt(ctx, cs).value();
  for (size_t i = 0; i < ms.size(); ++i) EXPECT_EQ(decrypted[i], ms[i]);

  // Pairwise homomorphic add: D(c[i] (*) c[i]) = 2*m[i].
  auto doubled = engine_.PaillierAdd(ctx, cs, cs).value();
  auto dec2 = engine_.PaillierDecrypt(ctx, doubled).value();
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(dec2[i], BigInt::Add(ms[i], ms[i]));
  }
}

TEST_F(GheEngineTest, PaillierBatchPropagatesElementErrors) {
  Rng rng(14);
  auto keys = crypto::PaillierKeyGen(128, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms{BigInt(1), keys.pub.n};  // second is out of range
  EXPECT_TRUE(engine_.PaillierEncrypt(ctx, ms, rng).status().IsOutOfRange());
}

TEST_F(GheEngineTest, RsaBatchRoundTripAndMul) {
  Rng rng(15);
  auto keys = crypto::RsaKeyGen(256, rng).value();
  auto ctx = crypto::RsaContext::Create(keys).value();
  std::vector<BigInt> ms;
  for (uint64_t i = 2; i <= 17; ++i) ms.push_back(BigInt(i));
  auto cs = engine_.RsaEncrypt(ctx, ms).value();
  auto dec = engine_.RsaDecrypt(ctx, cs).value();
  for (size_t i = 0; i < ms.size(); ++i) EXPECT_EQ(dec[i], ms[i]);
  auto prod = engine_.RsaMul(ctx, cs, cs).value();
  auto dec2 = engine_.RsaDecrypt(ctx, prod).value();
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(dec2[i], BigInt::Mul(ms[i], ms[i]) % keys.pub.n);
  }
}

// ---------------------------------------------------------------------------
// Timing model consistency
// ---------------------------------------------------------------------------

TEST_F(GheEngineTest, ModelMatchesRealLaunchGeometry) {
  Rng rng(16);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms(8, BigInt(42));

  engine_.PaillierEncrypt(ctx, ms, rng).value();
  const auto real = engine_.last_launch();
  const auto modeled = engine_.ModelOp(HeOp::kEncrypt, 256, 8).value();
  EXPECT_EQ(modeled.block_threads, real.block_threads);
  EXPECT_EQ(modeled.waves, real.waves);
  EXPECT_DOUBLE_EQ(modeled.occupancy, real.occupancy);
  EXPECT_DOUBLE_EQ(modeled.sim_seconds, real.sim_seconds);
}

TEST(HeCostTable, RowsEqualTheDirectFormulas) {
  // Every row of the table against the formulas each charging path spelled
  // out on its own before the table existed.
  const int64_t n = 1000;
  for (int key_bits : {1024, 2048, 4096}) {
    SCOPED_TRACE(key_bits);
    const size_t s2 = static_cast<size_t>(key_bits) * 2 / 32;
    const uint64_t mont = MontMulLimbOps(s2);
    const size_t cipher = n * s2 * 4;
    const auto row = [&](HeOp op, int width) {
      return HeCost(op, key_bits, n, width);
    };
    HeOpCost c = row(HeOp::kEncrypt, 0);
    EXPECT_EQ(c.limbs, s2);
    EXPECT_EQ(c.limb_ops, (EstimateModPowMontMuls(key_bits) + 3) * mont);
    EXPECT_EQ(c.bytes_in, n * s2 * 2);
    EXPECT_EQ(c.bytes_out, cipher);
    c = row(HeOp::kDecrypt, 0);
    EXPECT_EQ(c.limbs, s2);
    EXPECT_EQ(c.limb_ops, 2 * EstimateModPowMontMuls(key_bits / 2) *
                              MontMulLimbOps(s2 / 2));
    EXPECT_EQ(c.bytes_in, cipher);
    EXPECT_EQ(c.bytes_out, n * s2 * 2);
    c = row(HeOp::kAdd, 0);
    EXPECT_EQ(c.limb_ops, 3 * mont);
    EXPECT_EQ(c.bytes_in, 2 * cipher);
    EXPECT_EQ(c.bytes_out, cipher);
    c = row(HeOp::kAddPlain, 0);
    EXPECT_EQ(c.limb_ops, 4 * mont);
    EXPECT_EQ(c.bytes_in, n * s2 * 6);
    EXPECT_EQ(c.bytes_out, cipher);
    c = row(HeOp::kScalarMul, FixedPointScalarBits(24));
    EXPECT_EQ(c.limb_ops, EstimateModPowMontMuls(34) * mont);
    EXPECT_EQ(c.bytes_in, 2 * cipher);
    EXPECT_EQ(c.bytes_out, cipher);
    c = row(HeOp::kPack, 62);
    const auto slots = static_cast<size_t>((key_bits - 2) / 62);
    EXPECT_EQ(CipherPackSlots(key_bits, 62), static_cast<int>(slots));
    EXPECT_EQ(c.limb_ops, (62 + 6) * mont);
    EXPECT_EQ(c.bytes_in, 2 * cipher);
    EXPECT_EQ(c.bytes_out, (n + slots - 1) / slots * s2 * 4);
  }
  // The primitives themselves, at 1024 bits.
  EXPECT_EQ(MontMulLimbOps(64), 8640u);
  EXPECT_EQ(EstimateModPowMontMuls(1024), 1206u);
  EXPECT_EQ(HeCost(HeOp::kEncrypt, 1024, 1).limb_ops, 10445760u);
  EXPECT_EQ(HeCost(HeOp::kDecrypt, 1024, 1).limb_ops, 2803648u);
  EXPECT_EQ(HeCost(HeOp::kScalarMul, 1024, 1, 34).limb_ops, 432000u);
  EXPECT_EQ(FixedPointScalarBits(24), 34);
}

TEST_F(GheEngineTest, ScalarMulPricesTheDeclaredWidthNotTheScalars) {
  // A price that read the scalars would leak them into the simulated clock:
  // short and full-width scalars must cost the same at one declared width.
  Rng rng(17);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  const std::vector<BigInt> cs =
      engine_.PaillierEncrypt(ctx, std::vector<BigInt>(4, BigInt(3)), rng)
          .value();
  const std::vector<BigInt> small(4, BigInt(5));
  const std::vector<BigInt> wide(4, BigInt::Sub(keys.pub.n, BigInt(5)) >> 1);
  engine_.PaillierScalarMul(ctx, cs, small, 34).value();
  const double small_seconds = engine_.last_launch().sim_seconds;
  engine_.PaillierScalarMul(ctx, cs, wide, 34).value();
  EXPECT_EQ(engine_.last_launch().sim_seconds, small_seconds);
  EXPECT_EQ(engine_.ModelOp(HeOp::kScalarMul, 256, 4, 34)->sim_seconds,
            small_seconds);
}

TEST_F(GheEngineTest, LargerKeysCostMore) {
  const auto seconds = [&](int key_bits) {
    return engine_.ModelOp(HeOp::kEncrypt, key_bits, 1024)->sim_seconds;
  };
  const double t1024 = seconds(1024);
  const double t2048 = seconds(2048);
  const double t4096 = seconds(4096);
  // Cost grows superlinearly in key size (more mont-muls x bigger mont-muls).
  EXPECT_GT(t2048, 3 * t1024);
  EXPECT_GT(t4096, 3 * t2048);
}

TEST_F(GheEngineTest, BatchingAmortizesLaunchCost) {
  // Per-element cost should drop as the batch grows (launch latency and
  // partial-wave waste amortize out).
  const double t1 = engine_.ModelOp(HeOp::kAdd, 1024, 1)->sim_seconds;
  const double t4096 = engine_.ModelOp(HeOp::kAdd, 1024, 4096)->sim_seconds;
  EXPECT_LT(t4096 / 4096.0, t1);
}

TEST(GheEngineUtilization, FlboosterBeatsHafloStyleConfig) {
  // HAFLO-style engine: no branch combining, coarser thread split. The
  // FLBooster resource manager should achieve >= SM utilization and lower
  // kernel time on an identical workload (Fig. 6's claim).
  auto fl_device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), nullptr, /*branch_combining=*/true);
  auto haflo_device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), nullptr, /*branch_combining=*/false);
  GheConfig haflo_cfg;
  haflo_cfg.words_per_thread = 16;  // coarse split: fewer, heavier threads
  GheEngine fl(fl_device), haflo(haflo_device, haflo_cfg);

  const auto r_fl = fl.ModelOp(HeOp::kEncrypt, 2048, 100000).value();
  const auto r_haflo = haflo.ModelOp(HeOp::kEncrypt, 2048, 100000).value();
  EXPECT_GE(r_fl.sm_utilization, r_haflo.sm_utilization);
  EXPECT_LT(r_fl.sim_seconds, r_haflo.sim_seconds);
}


// ---------------------------------------------------------------------------
// Key generation on the device
// ---------------------------------------------------------------------------

TEST(GheKeyGen, PaillierKeysWorkAndChargeDeviceTime) {
  SimClock clock;
  auto device =
      std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), &clock);
  GheEngine engine(device);
  Rng rng(77);
  auto keys = engine.PaillierKeyGen(256, rng).value();
  EXPECT_EQ(keys.pub.key_bits, 256);
  EXPECT_GT(clock.Elapsed(CostKind::kGpuKernel), 0.0);
  // The generated keys are functional.
  auto ctx = crypto::PaillierContext::Create(keys).value();
  BigInt c = ctx.Encrypt(BigInt(31337), rng).value();
  EXPECT_EQ(ctx.Decrypt(c).value(), BigInt(31337));
}

TEST(GheKeyGen, RsaKeysWork) {
  auto device =
      std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), nullptr);
  GheEngine engine(device);
  Rng rng(78);
  auto keys = engine.RsaKeyGen(256, rng).value();
  auto ctx = crypto::RsaContext::Create(keys).value();
  EXPECT_EQ(ctx.Decrypt(ctx.Encrypt(BigInt(99)).value()).value(), BigInt(99));
  EXPECT_FALSE(engine.RsaKeyGen(63, rng).ok());
}

// ---------------------------------------------------------------------------
// Multi-stream chunked batches (copy/compute overlap)
// ---------------------------------------------------------------------------

TEST(GheStreams, SingleStreamConfigMatchesLegacyPathExactly) {
  // streams=1 must reproduce the original serialized H2D -> kernel -> D2H
  // accounting bit-for-bit: identical clock charges and launch telemetry.
  SimClock legacy_clock, streams_clock;
  GheConfig one_stream;
  one_stream.streams = 1;
  GheEngine legacy(MakeDevice(&legacy_clock));
  GheEngine configured(MakeDevice(&streams_clock), one_stream);

  legacy.ModelOp(HeOp::kAdd, 2048, 1 << 14).value();
  configured.ModelOp(HeOp::kAdd, 2048, 1 << 14).value();
  EXPECT_DOUBLE_EQ(streams_clock.Elapsed(CostKind::kGpuKernel),
                   legacy_clock.Elapsed(CostKind::kGpuKernel));
  EXPECT_DOUBLE_EQ(streams_clock.Elapsed(CostKind::kPcieTransfer),
                   legacy_clock.Elapsed(CostKind::kPcieTransfer));
  EXPECT_DOUBLE_EQ(configured.last_launch().sim_seconds,
                   legacy.last_launch().sim_seconds);
  EXPECT_FALSE(configured.last_batch().async);
  EXPECT_EQ(configured.last_batch().chunks, 1);
}

TEST(GheStreams, ChunkedBatchIsBitExactWithSynchronousPath) {
  // Real Paillier arithmetic through a 4-way chunked schedule must produce
  // ciphertexts identical to the synchronous path: the modeled timeline
  // never touches the math. At 2^14 elements a 256-bit key's encrypt, add
  // and decrypt batches all price faster chunked, so each one chunks.
  Rng rng(21);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms;
  for (uint64_t i = 1; i <= (1 << 14); ++i) ms.push_back(BigInt(i * 31));

  GheConfig chunked_cfg;
  chunked_cfg.streams = 4;
  GheEngine sync_engine(MakeDevice());
  GheEngine chunked(MakeDevice(), chunked_cfg);
  auto expect_chunked = [&] {
    EXPECT_TRUE(chunked.last_batch().async);
    EXPECT_EQ(chunked.last_batch().chunks, 4);
  };

  // Same RNG seed on both engines so encryption randomness matches.
  Rng r_sync(22), r_chunked(22);
  const auto cs_sync = sync_engine.PaillierEncrypt(ctx, ms, r_sync).value();
  const auto cs_chunked = chunked.PaillierEncrypt(ctx, ms, r_chunked).value();
  expect_chunked();
  EXPECT_TRUE(cs_sync == cs_chunked);

  const auto sum_sync = sync_engine.PaillierAdd(ctx, cs_sync, cs_sync).value();
  const auto sum_chunked =
      chunked.PaillierAdd(ctx, cs_chunked, cs_chunked).value();
  expect_chunked();
  EXPECT_TRUE(sum_sync == sum_chunked);
  // And the results decrypt correctly.
  const auto dec = chunked.PaillierDecrypt(ctx, sum_chunked).value();
  expect_chunked();
  for (size_t i = 0; i < ms.size(); ++i) {
    ASSERT_EQ(dec[i], BigInt::Add(ms[i], ms[i]));
  }
}

TEST(GheStreams, OverlapBeatsSerialOnTransferBoundBatches) {
  // Large hom-add batches are PCIe-bound: chunking across 4 streams hides
  // most of one transfer direction behind the kernel + the other direction.
  SimClock serial_clock, overlap_clock;
  GheConfig four;
  four.streams = 4;
  GheEngine serial(MakeDevice(&serial_clock));
  GheEngine overlapped(MakeDevice(&overlap_clock), four);

  serial.ModelOp(HeOp::kAdd, 2048, 1 << 16).value();
  overlapped.ModelOp(HeOp::kAdd, 2048, 1 << 16).value();

  EXPECT_TRUE(overlapped.last_batch().async);
  EXPECT_EQ(overlapped.last_batch().streams, 4);
  EXPECT_LT(overlap_clock.Now(), serial_clock.Now());
  EXPECT_GT(overlapped.last_batch().overlap_saved_seconds, 0.0);
  // The makespan can never beat the kernel busy time nor the sum of all
  // engine busy time.
  const auto& stats = overlapped.last_batch();
  EXPECT_GE(stats.makespan_seconds, stats.kernel_busy_seconds);
  EXPECT_LE(stats.makespan_seconds,
            stats.kernel_busy_seconds + stats.transfer_busy_seconds);
}

TEST(GheStreams, AdaptiveChunkingKeepsSmallBatchesSerial) {
  // Per-chunk PCIe latency and kernel launch latency make chunking a loss
  // for small batches; the adaptive engine must keep them on the serial
  // path — and therefore never price worse than a 1-stream engine.
  SimClock one_clock, four_clock;
  GheConfig four;
  four.streams = 4;
  GheEngine one(MakeDevice(&one_clock));
  GheEngine adaptive(MakeDevice(&four_clock), four);

  one.ModelOp(HeOp::kEncrypt, 1024, 64).value();
  adaptive.ModelOp(HeOp::kEncrypt, 1024, 64).value();
  EXPECT_FALSE(adaptive.last_batch().async);
  EXPECT_DOUBLE_EQ(four_clock.Now(), one_clock.Now());
}

// §V pipelined staging through the engine's chunk plan.
GheBatchStats Staged(HeOp op, int key_bits, int64_t count, int streams) {
  GheConfig cfg;
  cfg.streams = streams;
  GheEngine engine(MakeDevice(), cfg);
  engine.ModelOp(op, key_bits, count).value();
  return engine.last_batch();
}

TEST(PipelinedModelTest, OverlapNeverSlower) {
  for (int streams : {1, 2, 8, 32}) {
    const auto enc = Staged(HeOp::kEncrypt, 1024, 1 << 14, streams);
    EXPECT_LE(enc.makespan_seconds, enc.serial_seconds);
    const auto add = Staged(HeOp::kAdd, 1024, 1 << 16, streams);
    EXPECT_LE(add.makespan_seconds, add.serial_seconds);
  }
}

TEST(PipelinedModelTest, TransferBoundOpGainsFromChunking) {
  const auto add = Staged(HeOp::kAdd, 2048, 1 << 18, 16);
  EXPECT_TRUE(add.async);
  EXPECT_GT(add.serial_seconds / add.makespan_seconds, 1.3);
  // The bottleneck of a homomorphic-add batch is the PCIe link.
  EXPECT_GT(add.transfer_busy_seconds, add.kernel_busy_seconds);
}

TEST(PipelinedModelTest, KernelBoundOpBarelyChanges) {
  const auto enc = Staged(HeOp::kEncrypt, 4096, 1 << 14, 8);
  EXPECT_LT(enc.serial_seconds / enc.makespan_seconds, 1.2);
  EXPECT_GT(enc.kernel_busy_seconds, enc.transfer_busy_seconds);
}

TEST(PipelinedModelTest, ChunksClampedToBatch) {
  // A batch with fewer elements than streams cannot fill them: one launch.
  const auto tiny = Staged(HeOp::kAdd, 1024, 3, 100);
  EXPECT_FALSE(tiny.async);
  EXPECT_EQ(tiny.chunks, 1);
  GheConfig cfg;
  cfg.streams = 100;
  GheEngine engine(MakeDevice(), cfg);
  EXPECT_FALSE(engine.ModelOp(HeOp::kAdd, 1024, 0).ok());
}

TEST(PipelinedModelTest, KernelBoundOpStaysSerialOnDevice) {
  // Encryption is kernel-bound: the engine declines to chunk, so the
  // device-timeline numbers coincide with one stream's.
  const auto four = Staged(HeOp::kEncrypt, 2048, 1 << 10, 4);
  EXPECT_FALSE(four.async);
  EXPECT_DOUBLE_EQ(four.makespan_seconds,
                   Staged(HeOp::kEncrypt, 2048, 1 << 10, 1).makespan_seconds);
}

TEST(GheKeyGen, LargerKeysChargeMoreSearchTime) {
  SimClock c1, c2;
  auto d1 =
      std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), &c1);
  auto d2 =
      std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(), &c2);
  GheEngine e1(d1), e2(d2);
  Rng r1(79), r2(79);
  e1.PaillierKeyGen(128, r1).value();
  e2.PaillierKeyGen(512, r2).value();
  EXPECT_GT(c2.Elapsed(CostKind::kGpuKernel),
            c1.Elapsed(CostKind::kGpuKernel));
}

}  // namespace
}  // namespace flb::ghe

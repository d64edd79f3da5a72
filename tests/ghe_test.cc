// Tests for the GPU-HE layer: Algorithm 2 (parallel Montgomery) fidelity
// and GheEngine's batch launch (pricing, host bodies, chunked schedule).

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
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
// GheEngine: launches with and without a host body
// ---------------------------------------------------------------------------

class GheEngineTest : public ::testing::Test {
 protected:
  GheEngineTest() : engine_(MakeDevice(&clock_)) {}

  SimClock clock_;
  GheEngine engine_;
};

TEST_F(GheEngineTest, PaillierBatchPropagatesElementErrors) {
  // A body that fails returns its Status, and the batch is charged nothing.
  Rng rng(14);
  auto keys = crypto::PaillierKeyGen(128, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms{BigInt(1), keys.pub.n};  // second is out of range
  const Status status =
      engine_
          .ModelOp(HeOp::kEncrypt, 128, static_cast<int64_t>(ms.size()), 0,
                   [&] { return ctx.EncryptBatch(ms, rng).status(); })
          .status();
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_EQ(clock_.Now(), 0.0);
}

TEST_F(GheEngineTest, ModelMatchesRealLaunchGeometry) {
  // A launch with a body (the real batch) prices exactly like the same
  // launch without one (the modeled batch).
  Rng rng(16);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  const std::vector<BigInt> ms(8, BigInt(42));
  std::vector<BigInt> cs;
  const auto real = engine_
                        .ModelOp(HeOp::kEncrypt, 256, 8, 0,
                                 [&]() -> Status {
                                   FLB_ASSIGN_OR_RETURN(
                                       cs, ctx.EncryptBatch(ms, rng));
                                   return Status::OK();
                                 })
                        .value();
  ASSERT_EQ(cs.size(), ms.size());
  SimClock model_clock;
  GheEngine model_engine(MakeDevice(&model_clock));
  const auto modeled = model_engine.ModelOp(HeOp::kEncrypt, 256, 8).value();
  EXPECT_EQ(modeled.block_threads, real.block_threads);
  EXPECT_EQ(modeled.waves, real.waves);
  EXPECT_EQ(modeled.occupancy, real.occupancy);
  EXPECT_EQ(modeled.sim_seconds, real.sim_seconds);
  EXPECT_EQ(model_clock.Now(), clock_.Now());
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

  const auto legacy_launch = legacy.ModelOp(HeOp::kAdd, 2048, 1 << 14).value();
  const auto configured_launch =
      configured.ModelOp(HeOp::kAdd, 2048, 1 << 14).value();
  EXPECT_DOUBLE_EQ(streams_clock.Elapsed(CostKind::kGpuKernel),
                   legacy_clock.Elapsed(CostKind::kGpuKernel));
  EXPECT_DOUBLE_EQ(streams_clock.Elapsed(CostKind::kPcieTransfer),
                   legacy_clock.Elapsed(CostKind::kPcieTransfer));
  EXPECT_DOUBLE_EQ(configured_launch.sim_seconds, legacy_launch.sim_seconds);
  EXPECT_FALSE(configured.last_batch().async);
  EXPECT_EQ(configured.last_batch().chunks, 1);
}

TEST(GheStreams, ChunkedBatchIsBitExactWithSynchronousPath) {
  // The body runs once, before the device is touched, whether the batch
  // chunks or not, so a real Paillier batch through a 4-way chunked
  // schedule produces the synchronous path's ciphertexts: the modeled
  // timeline never touches the math. At 2^14 elements a 256-bit key's
  // encrypt batch prices faster chunked, so it chunks.
  Rng rng(21);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  std::vector<BigInt> ms;
  for (uint64_t i = 1; i <= (1 << 14); ++i) ms.push_back(BigInt(i * 31));

  GheConfig chunked_cfg;
  chunked_cfg.streams = 4;
  GheEngine sync_engine(MakeDevice());
  GheEngine chunked(MakeDevice(), chunked_cfg);
  // Same RNG seed on both engines so encryption randomness matches.
  const auto encrypt = [&](GheEngine& engine, std::vector<BigInt>* cs) {
    Rng r(22);
    int runs = 0;
    EXPECT_TRUE(engine
                    .ModelOp(HeOp::kEncrypt, 256,
                             static_cast<int64_t>(ms.size()), 0,
                             [&]() -> Status {
                               ++runs;
                               FLB_ASSIGN_OR_RETURN(*cs,
                                                    ctx.EncryptBatch(ms, r));
                               return Status::OK();
                             })
                    .ok());
    return runs;
  };
  std::vector<BigInt> cs_sync, cs_chunked;
  EXPECT_EQ(encrypt(sync_engine, &cs_sync), 1);
  EXPECT_FALSE(sync_engine.last_batch().async);
  EXPECT_EQ(encrypt(chunked, &cs_chunked), 1);
  EXPECT_TRUE(chunked.last_batch().async);
  EXPECT_EQ(chunked.last_batch().chunks, 4);
  EXPECT_TRUE(cs_sync == cs_chunked);
  // And the results decrypt correctly.
  EXPECT_TRUE(ctx.DecryptBatch(cs_chunked).value() == ms);
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

}  // namespace
}  // namespace flb::ghe

// Differential fuzz tests for the fixed-width Montgomery kernels
// (src/mpint/fixed_kernels.h) against the generic radix-2^32 oracle:
//
//   * mont_mul/mont_sqr of both kernel tables (portable and BMI2/ADX) vs
//     MontgomeryContext::MontMulWordsGeneric — the exact recurrence the
//     GPU simulator parallelizes — at every supported width, with edge
//     operands (zero, one, single bits, all-ones limb runs, modulus - 1),
//     in-place aliasing, and moduli whose top word is all-ones (the REDC
//     carry-out branch);
//   * dispatch: FindKernel picks the BMI2/ADX table iff the CPU has both
//     features, and every dispatched kernel is cache-line aligned;
//   * ModPow through each table vs a generic-forced context, including
//     MontMul-count parity (the cost model depends on it);
//   * bit-identity of a real PaillierEval batch with kernels on vs off,
//     and at thread counts 1/2/8 (the determinism contract).
//
// All randomness is seeded (FLB002): equal binaries produce equal streams.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
#include "src/mpint/bigint.h"
#include "src/mpint/fixed_kernels.h"
#include "src/mpint/limb_matrix.h"

namespace flb {
namespace {

using crypto::MontgomeryContext;
using crypto::PaillierContext;
using crypto::PaillierKeyGen;
using crypto::PaillierOptions;
using mpint::BigInt;
using mpint::LimbMatrix;
using mpint::fixed::CpuHasBmi2Adx;
using mpint::fixed::FindKernel;
using mpint::fixed::KernelIsa;
using mpint::fixed::KernelOps;
using mpint::fixed::NegInverseMod2p64;
using mpint::fixed::SupportedWidths;

constexpr uint64_t kSeed = 0xF1B00057'20260808ULL;

// Operand generator biased toward carry/borrow-chain edges: all-ones limb
// runs, single set bits, tiny values, and bound-adjacent values alongside
// uniform draws.
BigInt EdgeValue(Rng& rng, size_t width, const BigInt& bound) {
  switch (rng.NextBelow(8)) {
    case 0:
      return BigInt(0);
    case 1:
      return BigInt(1);
    case 2: {  // single set bit
      const uint64_t bit = rng.NextBelow(static_cast<uint64_t>(width) * 32);
      BigInt v = BigInt::ShiftLeft(BigInt(1), static_cast<int>(bit));
      return bound.IsZero() ? v : v % bound;
    }
    case 3: {  // run of all-ones limbs starting at limb 0
      const size_t run = 1 + rng.NextBelow(static_cast<uint64_t>(width));
      std::vector<uint32_t> w(width, 0);
      for (size_t i = 0; i < run; ++i) w[i] = 0xFFFFFFFFu;
      BigInt v = BigInt::FromWords(std::move(w));
      return bound.IsZero() ? v : v % bound;
    }
    case 4:  // bound - 1 (modulus - 1 when a bound is given)
      if (!bound.IsZero()) return BigInt::Sub(bound, BigInt(1));
      [[fallthrough]];
    default: {
      if (!bound.IsZero()) return BigInt::RandomBelow(rng, bound);
      return BigInt::Random(rng, static_cast<int>(width) * 32);
    }
  }
}

// A random odd width-limb modulus with the top limb significant.
BigInt RandomModulus(Rng& rng, size_t width) {
  auto w = BigInt::Random(rng, static_cast<int>(width) * 32)
               .ToFixedWords(width);
  w[0] |= 1u;
  w[width - 1] |= 0x80000000u;
  return BigInt::FromWords(std::move(w));
}

// The all-ones modulus 2^(32N) - 1: every reduction step carries maximally.
BigInt AllOnesModulus(size_t width) {
  return BigInt::FromWords(std::vector<uint32_t>(width, 0xFFFFFFFFu));
}

// A random odd modulus whose top 64-bit word is all-ones: n is within
// 2^(32N-64) of R, so REDC results in [R, 2n) carry out of the top word.
BigInt TopWordAllOnesModulus(Rng& rng, size_t width) {
  auto w = BigInt::Random(rng, static_cast<int>(width) * 32)
               .ToFixedWords(width);
  w[0] |= 1u;
  w[width - 1] = 0xFFFFFFFFu;
  w[width - 2] = 0xFFFFFFFFu;
  return BigInt::FromWords(std::move(w));
}

// A random odd modulus whose top limb is 1: the final comparison against n
// decides on the low words.
BigInt SmallTopLimbModulus(Rng& rng, size_t width) {
  auto w = BigInt::Random(rng, static_cast<int>(width) * 32)
               .ToFixedWords(width);
  w[0] |= 1u;
  w[width - 1] = 1u;
  return BigInt::FromWords(std::move(w));
}

TEST(FixedWidthKernelTest, TableCoversPaillierWidthsAndRejectsOddOnes) {
  const std::vector<size_t> widths = SupportedWidths();
  ASSERT_FALSE(widths.empty());
  for (size_t i = 1; i < widths.size(); ++i) {
    EXPECT_LT(widths[i - 1], widths[i]);
  }
  for (size_t w : widths) {
    const KernelOps* k = FindKernel(w);
    ASSERT_NE(k, nullptr) << "width " << w;
    EXPECT_EQ(k->limbs, w);
    EXPECT_NE(k->mont_mul, nullptr);
    EXPECT_NE(k->mont_sqr, nullptr);
    ASSERT_NE(FindKernel(w, KernelIsa::kPortable), nullptr) << "width " << w;
    if (const KernelOps* adx = FindKernel(w, KernelIsa::kBmi2Adx)) {
      EXPECT_EQ(adx->limbs, w);
    }
  }
  // The limb counts backing 1024/2048/4096-bit keys: n = bits/32,
  // n^2 = bits/16, p^2/q^2 = bits/32.
  for (size_t w : {32u, 64u, 128u, 256u}) {
    EXPECT_NE(FindKernel(w), nullptr) << "width " << w;
  }
  // Odd / unsupported widths fall back to the generic path.
  for (size_t w : {0u, 3u, 5u, 1024u}) {
    EXPECT_EQ(FindKernel(w), nullptr) << "width " << w;
    EXPECT_EQ(FindKernel(w, KernelIsa::kPortable), nullptr) << "width " << w;
    EXPECT_EQ(FindKernel(w, KernelIsa::kBmi2Adx), nullptr) << "width " << w;
  }
}

// Whether the OS reports both BMI2 and ADX in the /proc/cpuinfo flags — an
// oracle independent of the library's CPUID read; nullopt without a flags
// line (non-Linux or non-x86).
std::optional<bool> OsReportsBmi2Adx() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line);
    bool bmi2 = false, adx = false;
    for (std::string w; words >> w;) {
      bmi2 = bmi2 || w == "bmi2";
      adx = adx || w == "adx";
    }
    return bmi2 && adx;
  }
  return std::nullopt;
}

TEST(FixedWidthKernelTest, FindKernelPicksBmi2AdxIffCpuHasBoth) {
  const std::optional<bool> reported = OsReportsBmi2Adx();
  if (!reported.has_value()) GTEST_SKIP() << "no /proc/cpuinfo flags";
  const bool has = *reported;
  EXPECT_EQ(CpuHasBmi2Adx(), has);
  for (size_t w : SupportedWidths()) {
    const KernelOps* portable = FindKernel(w, KernelIsa::kPortable);
    const KernelOps* adx = FindKernel(w, KernelIsa::kBmi2Adx);
    ASSERT_NE(portable, nullptr) << "width " << w;
    if (has) {
      ASSERT_NE(adx, nullptr) << "width " << w;
      EXPECT_NE(adx, portable) << "width " << w;
      EXPECT_EQ(FindKernel(w), adx) << "width " << w;
    } else {
      EXPECT_EQ(adx, nullptr) << "width " << w;
      EXPECT_EQ(FindKernel(w), portable) << "width " << w;
    }
  }
}

TEST(FixedWidthKernelTest, DispatchedKernelsAreCacheLineAligned) {
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kBmi2Adx}) {
    for (size_t w : SupportedWidths()) {
      const KernelOps* ops = FindKernel(w, isa);
      if (ops == nullptr) continue;  // BMI2/ADX table on a CPU without it
      EXPECT_EQ(reinterpret_cast<uintptr_t>(ops->mont_mul) % 64, 0u)
          << "mont_mul width " << w << " isa " << static_cast<int>(isa);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(ops->mont_sqr) % 64, 0u)
          << "mont_sqr width " << w << " isa " << static_cast<int>(isa);
    }
  }
}

TEST(FixedWidthKernelTest, NegInverseMod2p64IsTheMontgomeryFactor) {
  Rng rng(kSeed + 1);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t n0 = rng.NextU64() | 1u;  // any odd word
    const uint64_t ninv = NegInverseMod2p64(n0);
    // n0 * (-n0^{-1}) == -1 (mod 2^64)  <=>  n0 * ninv + 1 == 0.
    EXPECT_EQ(n0 * ninv + 1u, 0u) << "n0=" << n0;
  }
  EXPECT_EQ(uint64_t{1} * NegInverseMod2p64(1) + 1u, 0u);
  EXPECT_EQ(~uint64_t{0} * NegInverseMod2p64(~uint64_t{0}) + 1u, 0u);
}

// Fuzzes one table's mont_mul/mont_sqr against the generic oracle at every
// width, over random, all-ones, top-word-all-ones and small-top moduli,
// including every in-place aliasing pattern ModPow and the batch paths use.
void ExpectMontMulMatchesOracle(KernelIsa isa, uint64_t seed) {
  Rng rng(seed);
  for (size_t w : SupportedWidths()) {
    const KernelOps* k = FindKernel(w, isa);
    ASSERT_NE(k, nullptr) << "width " << w;
    for (const BigInt& mod :
         {RandomModulus(rng, w), AllOnesModulus(w),
          TopWordAllOnesModulus(rng, w), SmallTopLimbModulus(rng, w)}) {
      const auto oracle = MontgomeryContext::Create(mod, false).value();
      ASSERT_EQ(oracle.fixed_kernel_width(), 0u);
      const auto mw = mod.ToFixedWords(w);
      const uint64_t n0_inv64 = NegInverseMod2p64(
          static_cast<uint64_t>(mw[0]) | (static_cast<uint64_t>(mw[1]) << 32));
      for (int iter = 0; iter < 40; ++iter) {
        const BigInt a = EdgeValue(rng, w, mod);
        const BigInt b = EdgeValue(rng, w, mod);
        const auto aw = a.ToFixedWords(w);
        const auto bw = b.ToFixedWords(w);
        std::vector<uint32_t> z(w), ref(w), sq(w);
        k->mont_mul(z.data(), aw.data(), bw.data(), mw.data(), n0_inv64);
        oracle.MontMulWordsGeneric(aw.data(), bw.data(), ref.data());
        EXPECT_EQ(z, ref) << "width " << w << " iter " << iter;

        k->mont_sqr(z.data(), aw.data(), mw.data(), n0_inv64);
        oracle.MontMulWordsGeneric(aw.data(), aw.data(), sq.data());
        EXPECT_EQ(z, sq) << "sqr width " << w << " iter " << iter;

        // x == y: a multiply of a value by itself is the square.
        k->mont_mul(z.data(), aw.data(), aw.data(), mw.data(), n0_inv64);
        EXPECT_EQ(z, sq) << "x==y width " << w << " iter " << iter;

        // z == x and z == y.
        auto zx = aw;
        k->mont_mul(zx.data(), zx.data(), bw.data(), mw.data(), n0_inv64);
        EXPECT_EQ(zx, ref) << "z==x width " << w << " iter " << iter;
        auto zy = bw;
        k->mont_mul(zy.data(), aw.data(), zy.data(), mw.data(), n0_inv64);
        EXPECT_EQ(zy, ref) << "z==y width " << w << " iter " << iter;

        // z == x == y, for both kernels.
        auto zz = aw;
        k->mont_mul(zz.data(), zz.data(), zz.data(), mw.data(), n0_inv64);
        EXPECT_EQ(zz, sq) << "z==x==y width " << w << " iter " << iter;
        zz = aw;
        k->mont_sqr(zz.data(), zz.data(), mw.data(), n0_inv64);
        EXPECT_EQ(zz, sq) << "aliased sqr width " << w << " iter " << iter;
      }
    }
  }
}

TEST(FixedWidthKernelTest, MontMulMatchesGenericOracle) {
  ExpectMontMulMatchesOracle(KernelIsa::kPortable, kSeed + 4);
}

TEST(FixedWidthKernelTest, Bmi2AdxMontMulMatchesGenericOracle) {
  if (!CpuHasBmi2Adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  ExpectMontMulMatchesOracle(KernelIsa::kBmi2Adx, kSeed + 4);
}

TEST(FixedWidthKernelTest, ContextDispatchAndWordsOpsMatchOracle) {
  Rng rng(kSeed + 5);
  for (size_t w : SupportedWidths()) {
    const BigInt mod = RandomModulus(rng, w);
    const auto fixed = MontgomeryContext::Create(mod, true).value();
    const auto generic = MontgomeryContext::Create(mod, false).value();
    if (mpint::fixed::KernelsEnabled()) {
      EXPECT_EQ(fixed.fixed_kernel_width(), w);
    }
    EXPECT_EQ(generic.fixed_kernel_width(), 0u);
    for (int iter = 0; iter < 20; ++iter) {
      const BigInt a = EdgeValue(rng, w, mod);
      const BigInt b = EdgeValue(rng, w, mod);
      const auto aw = a.ToFixedWords(w);
      const auto bw = b.ToFixedWords(w);
      std::vector<uint32_t> zf(w), zg(w);
      fixed.MontMulWords(aw.data(), bw.data(), zf.data());
      generic.MontMulWords(aw.data(), bw.data(), zg.data());
      EXPECT_EQ(zf, zg);
      fixed.ModMulWords(aw.data(), bw.data(), zf.data());
      generic.ModMulWords(aw.data(), bw.data(), zg.data());
      EXPECT_EQ(zf, zg);
      EXPECT_EQ(BigInt::FromWords(zf),
                BigInt::Mul(a, b) % mod);  // and both match the plain form
      fixed.MontSqrWords(aw.data(), zf.data());
      generic.MontSqrWords(aw.data(), zg.data());
      EXPECT_EQ(zf, zg);
      EXPECT_EQ(fixed.MontMul(a, b), generic.MontMul(a, b));
    }
  }
}

TEST(FixedWidthKernelTest, CreateWithKernelRejectsAWidthMismatch) {
  Rng rng(kSeed + 16);
  const BigInt mod = RandomModulus(rng, 8);
  const auto bad = MontgomeryContext::CreateWithKernel(
      mod, FindKernel(16, KernelIsa::kPortable));
  EXPECT_FALSE(bad.ok());
  const auto good = MontgomeryContext::CreateWithKernel(
      mod, FindKernel(8, KernelIsa::kPortable));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().fixed_kernel_width(), 8u);
}

// ModPow through one table's kernels vs a generic-forced context: equal
// results and equal MontMul counts, for the automatic and explicit windows.
void ExpectModPowMatchesGeneric(KernelIsa isa, uint64_t seed) {
  Rng rng(seed);
  // Full sweep on the small widths; spot-check the large ones with one
  // short exponent per modulus so the test stays fast.
  for (size_t w : SupportedWidths()) {
    const KernelOps* k = FindKernel(w, isa);
    ASSERT_NE(k, nullptr) << "width " << w;
    for (const BigInt& mod :
         {RandomModulus(rng, w), TopWordAllOnesModulus(rng, w)}) {
      const auto fixed = MontgomeryContext::CreateWithKernel(mod, k).value();
      const auto generic = MontgomeryContext::Create(mod, false).value();
      ASSERT_EQ(fixed.fixed_kernel_width(), w);
      const int exp_iters = w <= 16 ? 10 : 1;
      const int exp_bits = w <= 16 ? static_cast<int>(w) * 32 : 96;
      for (int iter = 0; iter < exp_iters; ++iter) {
        const BigInt base = EdgeValue(rng, w, mod);
        const BigInt exp = BigInt::Random(rng, exp_bits);
        fixed.ResetCounters();
        generic.ResetCounters();
        const BigInt rf = fixed.ModPow(base, exp);
        const BigInt rg = generic.ModPow(base, exp);
        EXPECT_EQ(rf, rg) << "width " << w << " iter " << iter;
        // The cost model charges per MontMul: the fixed path must count
        // MontMul-for-MontMul with the generic loop.
        EXPECT_EQ(fixed.mont_mul_count(), generic.mont_mul_count())
            << "width " << w << " iter " << iter;
        // Explicit window widths exercise both exponentiation shapes.
        for (int wb : {1, 4}) {
          EXPECT_EQ(fixed.ModPow(base, exp, wb),
                    generic.ModPow(base, exp, wb));
        }
      }
    }
  }
}

TEST(FixedWidthKernelTest, ModPowMatchesGenericWithCountParity) {
  ExpectModPowMatchesGeneric(KernelIsa::kPortable, kSeed + 6);
}

TEST(FixedWidthKernelTest, Bmi2AdxModPowMatchesGenericWithCountParity) {
  if (!CpuHasBmi2Adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  ExpectModPowMatchesGeneric(KernelIsa::kBmi2Adx, kSeed + 6);
}

TEST(FixedWidthKernelTest, OddWidthFallsBackToGeneric) {
  Rng rng(kSeed + 7);
  // 3 limbs: no kernel instantiation exists, so the context must bind the
  // generic path and still be correct.
  const BigInt mod = RandomModulus(rng, 3);
  const auto ctx = MontgomeryContext::Create(mod, true).value();
  EXPECT_EQ(ctx.fixed_kernel_width(), 0u);
  for (int iter = 0; iter < 20; ++iter) {
    const BigInt a = BigInt::RandomBelow(rng, mod);
    const BigInt b = BigInt::RandomBelow(rng, mod);
    EXPECT_EQ(ctx.ModMul(a, b), BigInt::Mul(a, b) % mod);
  }
}

TEST(LimbMatrixTest, PackUnpackRoundTrip) {
  Rng rng(kSeed + 8);
  const size_t w = 8;
  std::vector<BigInt> values;
  values.push_back(BigInt(0));
  values.push_back(BigInt(1));
  values.push_back(AllOnesModulus(w));
  for (int i = 0; i < 13; ++i) {
    values.push_back(BigInt::Random(rng, static_cast<int>(w) * 32));
  }
  const LimbMatrix m = LimbMatrix::Pack(values, w);
  EXPECT_EQ(m.rows(), values.size());
  EXPECT_EQ(m.width(), w);
  EXPECT_EQ(m.limbs().size(), values.size() * w);
  const std::vector<BigInt> back = m.Unpack();
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], values[i]) << i;
    EXPECT_EQ(m.ToBigInt(i), values[i]) << i;
  }
  // Rows are adjacent fixed-width strides of the one buffer.
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_EQ(m.row(i) + w, m.row(i + 1));
  }
  // SetRow pads narrow values and truncates wide ones to the fixed width.
  LimbMatrix t(1, 2);
  t.SetRow(0, BigInt::FromWords({1u, 2u, 3u, 4u}));
  EXPECT_EQ(t.ToBigInt(0), BigInt::FromWords({1u, 2u}));
  t.SetRow(0, BigInt(7));
  EXPECT_EQ(t.ToBigInt(0), BigInt(7));
}

// ---- End-to-end Paillier bit-identity ---------------------------------------

std::vector<BigInt> TestPlaintexts(Rng& rng, const BigInt& n, size_t count) {
  std::vector<BigInt> ms;
  ms.reserve(count);
  ms.push_back(BigInt(0));
  ms.push_back(BigInt(1));
  ms.push_back(BigInt::Sub(n, BigInt(1)));
  while (ms.size() < count) ms.push_back(BigInt::RandomBelow(rng, n));
  return ms;
}

class FixedWidthPaillierTest : public ::testing::TestWithParam<int> {};

TEST_P(FixedWidthPaillierTest, BatchesBitIdenticalWithKernelsOnAndOff) {
  const int key_bits = GetParam();
  Rng key_rng(kSeed + 9);
  const auto keys = PaillierKeyGen(key_bits, key_rng).value();

  PaillierOptions on, off;
  on.use_fixed_width_kernels = true;
  off.use_fixed_width_kernels = false;
  const auto ctx_on = PaillierContext::Create(keys, on).value();
  const auto ctx_off = PaillierContext::Create(keys, off).value();
  if (mpint::fixed::KernelsEnabled()) {
    EXPECT_NE(ctx_on.eval().n2_ctx().fixed_kernel_width(), 0u);
  }
  EXPECT_EQ(ctx_off.eval().n2_ctx().fixed_kernel_width(), 0u);

  Rng data_rng(kSeed + 10);
  const auto ms = TestPlaintexts(data_rng, keys.pub.n, 17);
  const auto ks = TestPlaintexts(data_rng, keys.pub.n, 17);

  // Identical seeds => the encryption streams must be byte-identical.
  Rng ra(kSeed + 11), rb(kSeed + 11);
  const auto ca = ctx_on.EncryptBatch(ms, ra).value();
  const auto cb = ctx_off.EncryptBatch(ms, rb).value();
  EXPECT_EQ(ca, cb);

  EXPECT_EQ(ctx_on.AddBatch(ca, cb).value(), ctx_off.AddBatch(ca, cb).value());
  EXPECT_EQ(ctx_on.AddPlainBatch(ca, ks).value(),
            ctx_off.AddPlainBatch(ca, ks).value());
  EXPECT_EQ(ctx_on.ScalarMulBatch(ca, ks).value(),
            ctx_off.ScalarMulBatch(ca, ks).value());
  const auto pa = ctx_on.DecryptBatch(ca).value();
  EXPECT_EQ(pa, ctx_off.DecryptBatch(ca).value());
  EXPECT_EQ(pa, ms);  // and the crypto still round-trips

  // The kernels must also preserve the modeled-cost accounting.
  EXPECT_EQ(ctx_on.eval().n2_ctx().mont_mul_count(),
            ctx_off.eval().n2_ctx().mont_mul_count());

  // Single-op paths agree too (pool draws advance both contexts equally).
  Rng r1(kSeed + 12), r2(kSeed + 12);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctx_on.Encrypt(ms[static_cast<size_t>(i)], r1).value(),
              ctx_off.Encrypt(ms[static_cast<size_t>(i)], r2).value());
  }
}

TEST_P(FixedWidthPaillierTest, BatchesInvariantAcrossThreadCounts) {
  const int key_bits = GetParam();
  Rng key_rng(kSeed + 13);
  const auto keys = PaillierKeyGen(key_bits, key_rng).value();
  const auto ctx = PaillierContext::Create(keys).value();

  Rng data_rng(kSeed + 14);
  const auto ms = TestPlaintexts(data_rng, keys.pub.n, 23);
  const auto ks = TestPlaintexts(data_rng, keys.pub.n, 23);

  std::vector<BigInt> first_cipher, first_sum, first_plain;
  for (int threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    Rng er(kSeed + 15);  // same seed at every thread count
    const auto cs = ctx.EncryptBatch(ms, er, &pool).value();
    const auto sum = ctx.AddBatch(cs, cs, &pool).value();
    const auto sm = ctx.ScalarMulBatch(cs, ks, &pool).value();
    const auto ps = ctx.DecryptBatch(cs, &pool).value();
    EXPECT_EQ(ps, ms) << threads << " threads";
    if (first_cipher.empty()) {
      first_cipher = cs;
      first_sum = ctx.AddPlainBatch(sum, ks, &pool).value();
      first_plain = sm;
    } else {
      EXPECT_EQ(cs, first_cipher) << threads << " threads";
      EXPECT_EQ(ctx.AddPlainBatch(sum, ks, &pool).value(), first_sum)
          << threads << " threads";
      EXPECT_EQ(sm, first_plain) << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, FixedWidthPaillierTest,
                         ::testing::Values(128, 256));

}  // namespace
}  // namespace flb

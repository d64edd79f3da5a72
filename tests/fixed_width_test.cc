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
//   * the 8-lane AVX-512 IFMA table: its almost-Montgomery bound and
//     congruence, dispatch iff the CPU has AVX-512F and AVX512_IFMA,
//     ModPowRows (one exponent, or one per row) vs per-row ModPow (bytes
//     and MontMul counts) over edge bases, moduli and exponents and over
//     row/thread counts, HornerRows vs the direct product, and the tasks
//     ForEachLaneTask cuts a batch into;
//   * bit-identity of a real PaillierEval batch with kernels on vs off,
//     and at thread counts 1/2/8 (the determinism contract).
//
// All randomness is seeded (FLB002): equal binaries produce equal streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
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
using mpint::fixed::CpuHasAvx512Ifma;
using mpint::fixed::CpuHasBmi2Adx;
using mpint::fixed::FindKernel;
using mpint::fixed::FindLaneKernel;
using mpint::fixed::KernelIsa;
using mpint::fixed::KernelOps;
using mpint::fixed::kLanes;
using mpint::fixed::LaneDigit;
using mpint::fixed::LaneOps;
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

// Whether the OS reports both flags in the /proc/cpuinfo flags line — an
// oracle independent of the library's CPUID read; nullopt without a flags
// line (non-Linux or non-x86).
std::optional<bool> OsReportsBoth(const std::string& a, const std::string& b) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line);
    bool has_a = false, has_b = false;
    for (std::string w; words >> w;) {
      has_a = has_a || w == a;
      has_b = has_b || w == b;
    }
    return has_a && has_b;
  }
  return std::nullopt;
}

TEST(FixedWidthKernelTest, FindKernelPicksBmi2AdxIffCpuHasBoth) {
  const std::optional<bool> reported = OsReportsBoth("bmi2", "adx");
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
  for (size_t w : SupportedWidths()) {
    const LaneOps* lanes = FindLaneKernel(w);
    if (lanes == nullptr) continue;  // no lane width, or no IFMA
    EXPECT_EQ(reinterpret_cast<uintptr_t>(lanes->amm_mul) % 64, 0u)
        << "amm_mul width " << w;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(lanes->amm_sqr) % 64, 0u)
        << "amm_sqr width " << w;
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

// ---- 8-lane IFMA table ------------------------------------------------------

constexpr size_t kLaneWidths[] = {32, 64, 128};

// An odd modulus shaped like a CRT leg's p^2: the square of a random odd
// half-width value with its top bit set (primality does not matter here).
BigInt SquareModulus(Rng& rng, size_t width) {
  auto w = BigInt::Random(rng, static_cast<int>(width) * 16)
               .ToFixedWords(width / 2);
  w[0] |= 1u;
  w[width / 2 - 1] |= 0x80000000u;
  const BigInt p = BigInt::FromWords(std::move(w));
  return BigInt::Mul(p, p);
}

TEST(FixedWidthKernelTest, FindLaneKernelIffCpuHasAvx512Ifma) {
  const std::optional<bool> reported = OsReportsBoth("avx512f", "avx512ifma");
  if (!reported.has_value()) GTEST_SKIP() << "no /proc/cpuinfo flags";
  const bool has = *reported;
  EXPECT_EQ(CpuHasAvx512Ifma(), has);
  Rng rng(kSeed + 20);
  for (size_t w : SupportedWidths()) {
    const bool lane_width = w == 32 || w == 64 || w == 128;
    const LaneOps* lanes = FindLaneKernel(w);
    EXPECT_EQ(lanes != nullptr, has && lane_width) << "width " << w;
    if (lanes != nullptr) {
      EXPECT_EQ(lanes->limbs, w);
      EXPECT_EQ(lanes->digits, (32 * w + 2 + 51) / 52);
    }
    // Create binds the lane table exactly when it binds a fixed kernel and
    // the CPU has one for the width.
    const BigInt mod = RandomModulus(rng, w);
    const auto ctx = MontgomeryContext::Create(mod).value();
    const bool bound = has && lane_width && mpint::fixed::KernelsEnabled();
    EXPECT_EQ(ctx.lane_kernel_width(), bound ? w : 0u) << "width " << w;
    EXPECT_EQ(MontgomeryContext::Create(mod, false).value().lane_kernel_width(),
              0u);
  }
  for (size_t w : {0u, 3u, 31u, 1024u}) {
    EXPECT_EQ(FindLaneKernel(w), nullptr) << "width " << w;
  }
}

TEST(FixedWidthKernelTest, CreateWithKernelRejectsMismatchedLanes) {
  if (FindLaneKernel(32) == nullptr) GTEST_SKIP() << "CPU lacks AVX512_IFMA";
  Rng rng(kSeed + 21);
  const BigInt mod = RandomModulus(rng, 32);
  const KernelOps* k = FindKernel(32, KernelIsa::kPortable);
  EXPECT_FALSE(
      MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(64)).ok());
  EXPECT_FALSE(
      MontgomeryContext::CreateWithKernel(mod, nullptr, FindLaneKernel(32))
          .ok());
  const auto ctx =
      MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(32)).value();
  EXPECT_EQ(ctx.lane_kernel_width(), 32u);
}

TEST(FixedWidthKernelTest, RowLaneConversionRoundTrips) {
  Rng rng(kSeed + 22);
  for (size_t w : kLaneWidths) {
    const size_t d = (32 * w + 2 + 51) / 52;
    std::vector<LaneDigit> v(d);
    std::vector<std::vector<uint32_t>> rows;
    for (size_t l = 0; l < kLanes; ++l) {
      rows.push_back(EdgeValue(rng, w, BigInt()).ToFixedWords(w));
      mpint::fixed::RowToLane(rows[l].data(), w, v.data(), d, l);
    }
    for (size_t l = 0; l < kLanes; ++l) {
      // Digit j holds bits [52j, 52j + 52) of the row.
      const BigInt value = BigInt::FromWords(rows[l]);
      for (size_t j = 0; j < d; ++j) {
        const BigInt digit = BigInt::TruncateBits(
            BigInt::ShiftRight(value, static_cast<int>(52 * j)), 52);
        ASSERT_EQ(BigInt(v[j].lane[l]), digit)
            << "width " << w << " lane " << l << " digit " << j;
      }
      std::vector<uint32_t> back(w);
      mpint::fixed::LaneToRow(v.data(), d, l, back.data(), w);
      EXPECT_EQ(back, rows[l]) << "width " << w << " lane " << l;
    }
  }
}

// The lane kernels against BigInt arithmetic: with R' = 2^(52D), z < 2m
// and z*R' = x*y (mod m) for inputs < 2m, including m itself, 2m - 1 and
// all-ones runs, and with z aliasing an input.
TEST(FixedWidthKernelTest, LaneKernelsAreAlmostMontgomery) {
  if (!CpuHasAvx512Ifma()) GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  Rng rng(kSeed + 23);
  for (size_t w : kLaneWidths) {
    const LaneOps* lanes = FindLaneKernel(w);
    ASSERT_NE(lanes, nullptr) << "width " << w;
    const size_t d = lanes->digits;
    for (const BigInt& mod : {RandomModulus(rng, w),
                              TopWordAllOnesModulus(rng, w),
                              SquareModulus(rng, w), AllOnesModulus(w)}) {
      const BigInt two_m = BigInt::Add(mod, mod);
      std::vector<LaneDigit> mdig(d);
      mpint::fixed::RowToLane(mod.ToFixedWords(w).data(), w, mdig.data(), d,
                              0);
      std::vector<uint64_t> m(d);
      for (size_t j = 0; j < d; ++j) m[j] = mdig[j].lane[0];
      const uint64_t k0 =
          NegInverseMod2p64(mod.LowU64()) & ((uint64_t{1} << 52) - 1);
      const int r_bits = static_cast<int>(52 * d);
      for (int iter = 0; iter < 3; ++iter) {
        // Lane operands: values < 2m spread over d digits (the rows are
        // w + 1 limbs wide, so 2m fits).
        std::vector<BigInt> xs, ys;
        std::vector<LaneDigit> x(d), y(d), z(d), sq(d);
        for (size_t l = 0; l < kLanes; ++l) {
          BigInt a = EdgeValue(rng, w + 1, two_m);
          BigInt b = EdgeValue(rng, w + 1, two_m);
          if (l == 0) a = mod;
          if (l == 1) b = BigInt::Sub(two_m, BigInt(1));
          xs.push_back(a);
          ys.push_back(b);
          mpint::fixed::RowToLane(a.ToFixedWords(w + 1).data(), w + 1,
                                  x.data(), d, l);
          mpint::fixed::RowToLane(b.ToFixedWords(w + 1).data(), w + 1,
                                  y.data(), d, l);
        }
        lanes->amm_mul(z.data(), x.data(), y.data(), m.data(), k0);
        lanes->amm_sqr(sq.data(), x.data(), m.data(), k0);
        std::vector<LaneDigit> zx = x, sx = x;
        lanes->amm_mul(zx.data(), zx.data(), y.data(), m.data(), k0);
        lanes->amm_sqr(sx.data(), sx.data(), m.data(), k0);
        for (size_t l = 0; l < kLanes; ++l) {
          std::vector<uint32_t> row(w + 1);
          const auto lane_value = [&](const std::vector<LaneDigit>& v) {
            mpint::fixed::LaneToRow(v.data(), d, l, row.data(), w + 1);
            return BigInt::FromWords(row);
          };
          const BigInt zl = lane_value(z);
          const BigInt sl = lane_value(sq);
          EXPECT_LT(zl, two_m) << "width " << w << " lane " << l;
          EXPECT_LT(sl, two_m) << "width " << w << " lane " << l;
          EXPECT_EQ(BigInt::ShiftLeft(zl, r_bits) % mod,
                    BigInt::Mul(xs[l], ys[l]) % mod)
              << "mul width " << w << " lane " << l;
          EXPECT_EQ(BigInt::ShiftLeft(sl, r_bits) % mod,
                    BigInt::Mul(xs[l], xs[l]) % mod)
              << "sqr width " << w << " lane " << l;
          EXPECT_EQ(lane_value(zx), zl) << "z==x width " << w;
          EXPECT_EQ(lane_value(sx), sl) << "aliased sqr width " << w;
        }
      }
    }
  }
}

// A context with the lane table and its twin on the same scalar kernel
// without it: ModPowRows on 8 rows against per-row ModPow, bytes and
// MontMul counts, with each of `exps` for every row and then with each set
// of `row_exps` (eight exponents, one per row) on both contexts.
void ExpectLanesMatchPerRow(
    const BigInt& mod, const std::vector<BigInt>& bases,
    const std::vector<BigInt>& exps,
    const std::vector<std::vector<BigInt>>& row_exps = {}) {
  const size_t w = mod.WordCount();
  const KernelOps* k = FindKernel(w);
  const auto lanes =
      MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(w)).value();
  const auto per_row = MontgomeryContext::CreateWithKernel(mod, k).value();
  ASSERT_EQ(lanes.lane_kernel_width(), w);
  ASSERT_EQ(bases.size(), kLanes);
  for (const BigInt& exp : exps) {
    LimbMatrix rows = LimbMatrix::Pack(bases, w);
    lanes.ResetCounters();
    per_row.ResetCounters();
    lanes.ModPowRows(rows.row(0), kLanes, exp);
    for (size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(rows.ToBigInt(l), per_row.ModPow(bases[l], exp))
          << "width " << w << " exp bits " << exp.BitLength() << " row " << l;
    }
    EXPECT_EQ(lanes.mont_mul_count(), per_row.mont_mul_count())
        << "width " << w << " exp bits " << exp.BitLength();
  }
  for (size_t set = 0; set < row_exps.size(); ++set) {
    const std::vector<BigInt>& e = row_exps[set];
    ASSERT_EQ(e.size(), kLanes);
    std::vector<BigInt> want;
    per_row.ResetCounters();
    for (size_t l = 0; l < kLanes; ++l) {
      want.push_back(per_row.ModPow(bases[l], e[l]));
    }
    const uint64_t want_muls = per_row.mont_mul_count();
    for (const MontgomeryContext* ctx : {&lanes, &per_row}) {
      LimbMatrix rows = LimbMatrix::Pack(bases, w);
      ctx->ResetCounters();
      ctx->ModPowRows(rows.row(0), kLanes, e.data());
      EXPECT_EQ(rows.Unpack(), want)
          << "width " << w << " exponent set " << set << " lanes "
          << ctx->lane_kernel_width();
      EXPECT_EQ(ctx->mont_mul_count(), want_muls)
          << "width " << w << " exponent set " << set << " lanes "
          << ctx->lane_kernel_width();
    }
  }
}

// A random exponent of exactly `bits` bits.
BigInt ExponentOfBits(Rng& rng, int bits) {
  return BigInt::Add(BigInt::Random(rng, bits - 1),
                     BigInt::PowerOfTwo(bits - 1));
}

std::vector<BigInt> LaneEdgeBases(Rng& rng, const BigInt& mod) {
  const size_t w = mod.WordCount();
  std::vector<uint32_t> ones(w, 0);
  for (size_t i = 0; i < w / 2; ++i) ones[i] = 0xFFFFFFFFu;
  return {BigInt(0),
          BigInt(1),
          BigInt::Sub(mod, BigInt(1)),
          BigInt::FromWords(ones) % mod,
          BigInt::Sub(mod, BigInt::FromWords(ones) % mod),
          BigInt(2),
          BigInt::RandomBelow(rng, mod),
          BigInt::RandomBelow(rng, mod)};
}

TEST(FixedWidthKernelTest, LaneModPowMatchesPerRowWithCountParity) {
  if (!CpuHasAvx512Ifma()) GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  Rng rng(kSeed + 24);
  for (size_t w : kLaneWidths) {
    // Exponents 1 and 2, then lengths on both sides of every
    // ChooseWindowBits boundary (24/80/240/672 bits) that fits the width.
    std::vector<BigInt> exps = {BigInt(1), BigInt(2)};
    for (int bits : {24, 25, 80, 81, 240, 241, 672, 673}) {
      if (w == 128 && bits > 81) continue;  // keep the widest width quick
      exps.push_back(ExponentOfBits(rng, bits));
    }
    // One exponent per row: all zero (every row 1, no MontMul counted);
    // 0, 1, 2, all-ones and the 24/25 and 80/81-bit window boundaries in
    // one group; one long exponent among seven short ones; eight equal;
    // and groups at most 2 and 7 bits long (1- and 2-bit fixed windows).
    const int long_bits = w == 128 ? 81 : 241;
    std::vector<std::vector<BigInt>> row_exps = {
        std::vector<BigInt>(kLanes, BigInt()),
        {BigInt(), BigInt(1), BigInt(2),
         BigInt::Sub(BigInt::PowerOfTwo(23), BigInt(1)),
         ExponentOfBits(rng, 24), ExponentOfBits(rng, 25),
         ExponentOfBits(rng, 80), ExponentOfBits(rng, 81)},
        {},
        std::vector<BigInt>(kLanes, ExponentOfBits(rng, 25)),
        {BigInt(3), BigInt(1), BigInt(2), BigInt(), BigInt(2), BigInt(3),
         BigInt(1), BigInt(3)},
        {BigInt(5), BigInt(127), BigInt(), BigInt(64), BigInt(1), BigInt(33),
         BigInt(100), BigInt(2)}};
    for (size_t l = 0; l < kLanes; ++l) {
      row_exps[2].push_back(l == 5 ? ExponentOfBits(rng, long_bits)
                                   : ExponentOfBits(rng, 15 + 3 * (l % 4)));
    }
    for (const BigInt& mod : {RandomModulus(rng, w),
                              TopWordAllOnesModulus(rng, w),
                              SquareModulus(rng, w)}) {
      ExpectLanesMatchPerRow(mod, LaneEdgeBases(rng, mod), exps, row_exps);
    }
    // Exponent 0 leaves 1 in every row and counts nothing.
    const BigInt mod = RandomModulus(rng, w);
    const auto lanes = MontgomeryContext::CreateWithKernel(
                           mod, FindKernel(w), FindLaneKernel(w))
                           .value();
    LimbMatrix rows = LimbMatrix::Pack(LaneEdgeBases(rng, mod), w);
    lanes.ModPowRows(rows.row(0), kLanes, row_exps[0].data());
    EXPECT_EQ(rows.Unpack(), std::vector<BigInt>(kLanes, BigInt(1)));
    EXPECT_EQ(lanes.mont_mul_count(), 0u);
  }
}

TEST(FixedWidthKernelTest, LaneModPowMatchesPerRowOnRealPaillierExponents) {
  if (!CpuHasAvx512Ifma()) GTEST_SKIP() << "CPU lacks AVX-512 IFMA";
  Rng key_rng(kSeed + 25);
  const auto keys = PaillierKeyGen(1024, key_rng).value();
  Rng rng(kSeed + 26);
  const BigInt& p = keys.priv.p;
  const BigInt& q = keys.priv.q;
  const BigInt p2 = BigInt::Mul(p, p), q2 = BigInt::Mul(q, q);
  // The CRT legs (32 limbs), c^lambda and r^n (64 limbs).
  ExpectLanesMatchPerRow(p2, LaneEdgeBases(rng, p2),
                         {BigInt::Sub(p, BigInt(1))});
  ExpectLanesMatchPerRow(q2, LaneEdgeBases(rng, q2),
                         {BigInt::Sub(q, BigInt(1))});
  ExpectLanesMatchPerRow(keys.pub.n_squared,
                         LaneEdgeBases(rng, keys.pub.n_squared),
                         {keys.pub.n, keys.priv.lambda});
}

// The tasks ForEachLaneTask hands out, at 1, 2 and 4 threads: without a
// lane kernel one row each; with one, full 8-row groups first, then one
// row each. Together they cover every row once, in row order, and the
// status is the first failing task's.
TEST(FixedWidthKernelTest, ForEachLaneTaskCutsFullGroupsThenSingleRows) {
  Rng rng(kSeed + 27);
  const BigInt mod = RandomModulus(rng, 32);
  const KernelOps* k = FindKernel(32);
  const auto off = MontgomeryContext::CreateWithKernel(mod, k).value();
  const auto on =
      MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(32)).value();
  for (int threads : {1, 2, 4}) {
    common::ThreadPool pool(threads);
    for (const MontgomeryContext* ctx : {&off, &on}) {
      const bool lanes = ctx->lane_kernel_width() != 0;
      for (size_t rows : std::vector<size_t>{0, 1, 7, 8, 9, 16, 17, 31, 32}) {
        // Tasks start at distinct rows, so each writes its own slot.
        std::vector<size_t> counts(rows, 0);
        ASSERT_TRUE(ctx->ForEachLaneTask(pool, rows,
                                         [&](size_t first, size_t count) {
                                           counts[first] = count;
                                           return Status::OK();
                                         })
                        .ok());
        size_t next = 0;
        while (next < rows) {
          const size_t want = lanes && next + kLanes <= rows ? kLanes : 1;
          ASSERT_EQ(counts[next], want)
              << rows << " rows, first " << next << ", lanes " << lanes;
          next += want;
        }
        EXPECT_EQ(next, rows);
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), size_t{0}),
                  rows);
      }
      // Rows 3 and 12 fail: the first failing task in row order wins.
      const Status st = ctx->ForEachLaneTask(
          pool, 17, [](size_t first, size_t count) {
            for (size_t i = first; i < first + count; ++i) {
              if (i == 3 || i == 12) {
                return Status::OutOfRange("row " + std::to_string(i));
              }
            }
            return Status::OK();
          });
      EXPECT_EQ(st.message(), "row 3") << threads << " threads";
    }
  }
}

// Row counts 1..17 on a pool of 1, 2 and 4 threads, lanes on and off,
// both as ForEachLaneTask tasks and as one ModPowRows call over all rows,
// with one exponent for every row and with an exponent per row (15-24
// bits as fixed-point scalars have, with a 0 and a 130-bit one among
// them): every run byte-identical to per-row ModPow with equal MontMul
// counts.
TEST(FixedWidthKernelTest, LaneBatchesInvariantToRowsThreadsAndLanes) {
  Rng rng(kSeed + 28);
  const BigInt mod = SquareModulus(rng, 32);
  const KernelOps* k = FindKernel(32);
  const auto on =
      MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(32)).value();
  const auto off = MontgomeryContext::CreateWithKernel(mod, k).value();
  const BigInt exp = BigInt::Random(rng, 130);
  std::vector<BigInt> bases = LaneEdgeBases(rng, mod);
  while (bases.size() < 17) bases.push_back(BigInt::RandomBelow(rng, mod));
  std::vector<BigInt> row_exps;
  for (size_t i = 0; i < bases.size(); ++i) {
    row_exps.push_back(ExponentOfBits(rng, 15 + static_cast<int>(i % 10)));
  }
  row_exps[3] = BigInt();
  row_exps[12] = exp;
  for (const bool per_row_exps : {false, true}) {
    // expected[i] and muls[i], the MontMuls of rows 0..i-1, per row.
    std::vector<BigInt> expected;
    std::vector<uint64_t> muls = {0};
    off.ResetCounters();
    for (size_t i = 0; i < bases.size(); ++i) {
      expected.push_back(off.ModPow(bases[i], per_row_exps ? row_exps[i] : exp));
      muls.push_back(off.mont_mul_count());
    }
    const auto run = [&](const MontgomeryContext* ctx, uint32_t* rows,
                         size_t first, size_t count) {
      if (per_row_exps) {
        ctx->ModPowRows(rows, count, row_exps.data() + first);
      } else {
        ctx->ModPowRows(rows, count, exp);
      }
    };
    for (int threads : {1, 2, 4}) {
      common::ThreadPool pool(threads);
      for (size_t rows = 1; rows <= bases.size(); ++rows) {
        const std::vector<BigInt> in(bases.begin(), bases.begin() + rows);
        const std::vector<BigInt> want(expected.begin(),
                                       expected.begin() + rows);
        for (const MontgomeryContext* ctx : {&on, &off}) {
          LimbMatrix m = LimbMatrix::Pack(in, 32);
          ctx->ResetCounters();
          ASSERT_TRUE(ctx->ForEachLaneTask(pool, rows,
                                           [&](size_t first, size_t count) {
                                             run(ctx, m.row(first), first,
                                                 count);
                                             return Status::OK();
                                           })
                          .ok());
          EXPECT_EQ(m.Unpack(), want)
              << rows << " rows, " << threads << " threads, per-row exps "
              << per_row_exps;
          EXPECT_EQ(ctx->mont_mul_count(), muls[rows])
              << rows << " rows, " << threads << " threads, per-row exps "
              << per_row_exps;
          if (threads > 1) continue;
          LimbMatrix all = LimbMatrix::Pack(in, 32);
          ctx->ResetCounters();
          run(ctx, all.row(0), 0, rows);
          EXPECT_EQ(all.Unpack(), want)
              << rows << " rows in one call, per-row exps " << per_row_exps;
          EXPECT_EQ(ctx->mont_mul_count(), muls[rows])
              << rows << " rows in one call, per-row exps " << per_row_exps;
        }
      }
    }
  }
}

// HornerRows against the direct product prod_j (t_j * f)^(2^(j * b)) mod m
// at every lane width, lanes on and off: 7, 8, 9, 16 and 17 groups of
// three rows, each also with a short last group, in one call. Bytes match
// and so do MontMul counts, 2 + (k - 1) * (b + 2) per group of k rows.
TEST(FixedWidthKernelTest, HornerRowsMatchDirectProductWithCountParity) {
  Rng rng(kSeed + 29);
  constexpr size_t kSlots = 3;
  constexpr int kShift = 5;
  for (size_t w : kLaneWidths) {
    const BigInt mod = TopWordAllOnesModulus(rng, w);
    const KernelOps* k = FindKernel(w);
    const auto on =
        MontgomeryContext::CreateWithKernel(mod, k, FindLaneKernel(w)).value();
    const auto off = MontgomeryContext::CreateWithKernel(mod, k).value();
    const BigInt factor = BigInt::RandomBelow(rng, mod);
    std::vector<BigInt> terms = LaneEdgeBases(rng, mod);
    while (terms.size() < 17 * kSlots) {
      terms.push_back(BigInt::RandomBelow(rng, mod));
    }
    for (size_t groups : {7, 8, 9, 16, 17}) {
      for (size_t count : {groups * kSlots, groups * kSlots - 1}) {
        std::vector<BigInt> want;
        uint64_t want_muls = 0;
        for (size_t base = 0; base < count; base += kSlots) {
          BigInt acc(1);
          const size_t top = std::min(count, base + kSlots);
          for (size_t j = base; j < top; ++j) {
            const BigInt t = BigInt::Mul(terms[j], factor) % mod;
            const BigInt shift =
                BigInt::PowerOfTwo(static_cast<int>(j - base) * kShift);
            acc = BigInt::Mul(acc, BigInt::ModPow(t, shift, mod).value()) % mod;
          }
          want.push_back(acc);
          want_muls += 2 + (top - base - 1) * (kShift + 2);
        }
        const LimbMatrix in = LimbMatrix::Pack(terms, w);
        for (const MontgomeryContext* ctx : {&on, &off}) {
          LimbMatrix out(want.size(), w);
          ctx->ResetCounters();
          ctx->HornerRows(in.row(0), count, kSlots, kShift, factor,
                          out.row(0));
          EXPECT_EQ(out.Unpack(), want) << "width " << w << ", " << count
                                        << " rows, lanes "
                                        << ctx->lane_kernel_width();
          EXPECT_EQ(ctx->mont_mul_count(), want_muls)
              << "width " << w << ", " << count << " rows";
        }
      }
    }
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

// Fold groups over `count` ciphertexts: empty, one term, two, a repeated
// index, 8, 9 and all of them.
std::vector<std::vector<uint32_t>> TestFoldGroups(uint32_t count) {
  std::vector<std::vector<uint32_t>> groups{{}, {count - 1}, {0, 1}, {2, 2}};
  for (uint32_t k : {8u, 9u, count}) {
    std::vector<uint32_t> group;
    for (uint32_t t = 0; t < k; ++t) group.push_back((5 * t + 3) % count);
    groups.push_back(std::move(group));
  }
  return groups;
}

// What FoldBatch must return: each group's product mod n^2, 1 when empty.
std::vector<BigInt> ReferenceFold(
    const std::vector<BigInt>& cs,
    const std::vector<std::vector<uint32_t>>& groups, const BigInt& n_sq) {
  std::vector<BigInt> out;
  for (const auto& group : groups) {
    BigInt acc(1);
    for (uint32_t i : group) acc = BigInt::Mul(acc, cs[i]) % n_sq;
    out.push_back(acc);
  }
  return out;
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
  EXPECT_EQ(ctx_off.eval().n2_ctx().lane_kernel_width(), 0u);

  Rng data_rng(kSeed + 10);
  const auto ms = TestPlaintexts(data_rng, keys.pub.n, 17);
  const auto ks = TestPlaintexts(data_rng, keys.pub.n, 17);
  // On lane-width keys 17 rows are two full lane groups and a tail row.
  common::ThreadPool pool(2);

  // Identical seeds => the encryption streams must be byte-identical.
  Rng ra(kSeed + 11), rb(kSeed + 11);
  const auto ca = ctx_on.EncryptBatch(ms, ra, &pool).value();
  const auto cb = ctx_off.EncryptBatch(ms, rb, &pool).value();
  EXPECT_EQ(ca, cb);

  EXPECT_EQ(ctx_on.AddBatch(ca, cb, &pool).value(),
            ctx_off.AddBatch(ca, cb, &pool).value());
  EXPECT_EQ(ctx_on.AddPlainBatch(ca, ks, &pool).value(),
            ctx_off.AddPlainBatch(ca, ks, &pool).value());
  EXPECT_EQ(ctx_on.ScalarMulBatch(ca, ks, &pool).value(),
            ctx_off.ScalarMulBatch(ca, ks, &pool).value());
  const auto pa = ctx_on.DecryptBatch(ca, &pool).value();
  EXPECT_EQ(pa, ctx_off.DecryptBatch(ca, &pool).value());
  EXPECT_EQ(pa, ms);  // and the crypto still round-trips

  // Folds: a group of k >= 2 terms costs k MontMuls, and the R^k factors
  // one MontMul each, R^2 through the longest group's; a group of k terms
  // counts k - 1 adds.
  const auto groups = TestFoldGroups(static_cast<uint32_t>(ca.size()));
  uint64_t adds = 0, muls = 0;
  size_t longest = 0;
  for (const auto& group : groups) {
    if (!group.empty()) adds += group.size() - 1;
    if (group.size() >= 2) muls += group.size();
    longest = std::max(longest, group.size());
  }
  muls += longest - 1;
  for (const PaillierContext* ctx : {&ctx_on, &ctx_off}) {
    const uint64_t adds_before = ctx->op_counts().adds.load();
    const uint64_t muls_before = ctx->eval().n2_ctx().mont_mul_count();
    EXPECT_EQ(ctx->FoldBatch(ca, groups, &pool).value(),
              ReferenceFold(ca, groups, keys.pub.n_squared));
    EXPECT_EQ(ctx->op_counts().adds.load() - adds_before, adds);
    EXPECT_EQ(ctx->eval().n2_ctx().mont_mul_count() - muls_before, muls);
  }

  // Secure obfuscation (fresh r^n per element) and plain c^lambda
  // decryption take their own same-exponent batches.
  PaillierOptions sec_on = on, sec_off = off;
  sec_on.secure_obfuscation = sec_off.secure_obfuscation = true;
  sec_on.use_crt_decryption = sec_off.use_crt_decryption = false;
  const auto plain_on = PaillierContext::Create(keys, sec_on).value();
  const auto plain_off = PaillierContext::Create(keys, sec_off).value();
  Rng sa(kSeed + 17), sb(kSeed + 17);
  const auto sca = plain_on.EncryptBatch(ms, sa, &pool).value();
  EXPECT_EQ(sca, plain_off.EncryptBatch(ms, sb, &pool).value());
  const auto spa = plain_on.DecryptBatch(sca, &pool).value();
  EXPECT_EQ(spa, plain_off.DecryptBatch(sca, &pool).value());
  EXPECT_EQ(spa, ms);

  // Single-op paths agree too (pool draws advance both contexts equally);
  // the first draw fills each context's ObfuscationPool.
  Rng r1(kSeed + 12), r2(kSeed + 12);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctx_on.Encrypt(ms[static_cast<size_t>(i)], r1).value(),
              ctx_off.Encrypt(ms[static_cast<size_t>(i)], r2).value());
  }

  // The kernels must also preserve the modeled-cost accounting, on every
  // per-key context.
  for (const auto& [a, b] : {std::pair{&ctx_on, &ctx_off},
                             std::pair{&plain_on, &plain_off}}) {
    const auto& ea = a->eval();
    const auto& eb = b->eval();
    EXPECT_EQ(ea.n2_ctx().mont_mul_count(), eb.n2_ctx().mont_mul_count());
    EXPECT_EQ(ea.n_ctx().mont_mul_count(), eb.n_ctx().mont_mul_count());
    if (ea.has_crt()) {
      EXPECT_EQ(ea.p2_ctx().mont_mul_count(), eb.p2_ctx().mont_mul_count());
      EXPECT_EQ(ea.q2_ctx().mont_mul_count(), eb.q2_ctx().mont_mul_count());
    }
    EXPECT_EQ(a->op_counts().encrypts.load(), b->op_counts().encrypts.load());
    EXPECT_EQ(a->op_counts().decrypts.load(), b->op_counts().decrypts.load());
  }
}

TEST_P(FixedWidthPaillierTest, BatchesInvariantAcrossThreadCounts) {
  const int key_bits = GetParam();
  Rng key_rng(kSeed + 13);
  const auto keys = PaillierKeyGen(key_bits, key_rng).value();
  const auto ctx = PaillierContext::Create(keys).value();
  PaillierOptions plain_opts;
  plain_opts.secure_obfuscation = true;
  plain_opts.use_crt_decryption = false;
  const auto plain = PaillierContext::Create(keys, plain_opts).value();

  Rng data_rng(kSeed + 14);
  const auto ms = TestPlaintexts(data_rng, keys.pub.n, 23);
  const auto ks = TestPlaintexts(data_rng, keys.pub.n, 23);

  // On lane-width keys 23 rows are two full lane groups and seven
  // per-row tails at every thread count.
  const auto groups = TestFoldGroups(static_cast<uint32_t>(ms.size()));
  std::vector<BigInt> first_cipher, first_sum, first_plain, first_secure,
      first_fold;
  for (int threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    Rng er(kSeed + 15);  // same seed at every thread count
    const auto cs = ctx.EncryptBatch(ms, er, &pool).value();
    const auto sum = ctx.AddBatch(cs, cs, &pool).value();
    const auto sm = ctx.ScalarMulBatch(cs, ks, &pool).value();
    const auto fold = ctx.FoldBatch(cs, groups, &pool).value();
    const auto ps = ctx.DecryptBatch(cs, &pool).value();
    EXPECT_EQ(ps, ms) << threads << " threads";
    Rng sr(kSeed + 18);
    const auto secure = plain.EncryptBatch(ms, sr, &pool).value();
    EXPECT_EQ(plain.DecryptBatch(secure, &pool).value(), ms)
        << threads << " threads";
    if (first_cipher.empty()) {
      first_cipher = cs;
      first_sum = ctx.AddPlainBatch(sum, ks, &pool).value();
      first_plain = sm;
      first_secure = secure;
      first_fold = fold;
      EXPECT_EQ(fold, ReferenceFold(cs, groups, keys.pub.n_squared));
    } else {
      EXPECT_EQ(cs, first_cipher) << threads << " threads";
      EXPECT_EQ(ctx.AddPlainBatch(sum, ks, &pool).value(), first_sum)
          << threads << " threads";
      EXPECT_EQ(sm, first_plain) << threads << " threads";
      EXPECT_EQ(secure, first_secure) << threads << " threads";
      EXPECT_EQ(fold, first_fold) << threads << " threads";
    }
  }
}

// 1024-bit keys put p^2/q^2 (32 limbs) and n^2 (64 limbs) on lane widths.
INSTANTIATE_TEST_SUITE_P(Keys, FixedWidthPaillierTest,
                         ::testing::Values(128, 256, 1024));

}  // namespace
}  // namespace flb

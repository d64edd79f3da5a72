// Differential tests: BigInt arithmetic checked against native 64/128-bit
// integer arithmetic on randomly drawn small operands, plus cross-checks
// between independent BigInt code paths (Montgomery vs plain, CRT vs plain).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/mpint/bigint.h"

namespace flb::mpint {
namespace {

TEST(BigIntDifferential, AgainstNativeU64) {
  Rng rng(321);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = rng.NextU64() >> (rng.NextBelow(40) + 8);
    const uint64_t b = rng.NextU64() >> (rng.NextBelow(40) + 8);
    const BigInt A(a), B(b);
    // add/sub with explicit ordering
    EXPECT_EQ(BigInt::Add(A, B).LowU64(), a + b);
    if (a >= b) {
      EXPECT_EQ(BigInt::Sub(A, B).LowU64(), a - b);
    }
    // mul through 128-bit
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(a) * b;
    const BigInt P = BigInt::Mul(A, B);
    EXPECT_EQ(P.LowU64(), static_cast<uint64_t>(prod));
    EXPECT_EQ(BigInt::ShiftRight(P, 64).LowU64(),
              static_cast<uint64_t>(prod >> 64));
    // div/mod
    if (b != 0) {
      auto qr = BigInt::DivMod(A, B).value();
      EXPECT_EQ(qr.first.LowU64(), a / b);
      EXPECT_EQ(qr.second.LowU64(), a % b);
    }
    // comparisons
    EXPECT_EQ(A < B, a < b);
    EXPECT_EQ(A == B, a == b);
    // bit ops
    EXPECT_EQ(A.BitLength(), a == 0 ? 0 : 64 - __builtin_clzll(a));
    EXPECT_EQ(BigInt::ShiftLeft(A, 3).LowU64(), a << 3);
    EXPECT_EQ(BigInt::ShiftRight(A, 7).LowU64(), a >> 7);
  }
}

TEST(BigIntDifferential, GcdAgainstNative) {
  Rng rng(322);
  auto native_gcd = [](uint64_t x, uint64_t y) {
    while (y != 0) {
      const uint64_t t = x % y;
      x = y;
      y = t;
    }
    return x;
  };
  for (int i = 0; i < 500; ++i) {
    const uint64_t a = rng.NextU64() >> 16;
    const uint64_t b = rng.NextU64() >> 16;
    EXPECT_EQ(BigInt::Gcd(BigInt(a), BigInt(b)).LowU64(), native_gcd(a, b));
  }
}

TEST(BigIntDifferential, ModPowAgainstNativeSquareAndMultiply) {
  Rng rng(323);
  auto native_modpow = [](uint64_t base, uint64_t exp, uint64_t mod) {
    unsigned __int128 result = 1, b = base % mod;
    while (exp > 0) {
      if (exp & 1) result = result * b % mod;
      b = b * b % mod;
      exp >>= 1;
    }
    return static_cast<uint64_t>(result);
  };
  for (int i = 0; i < 300; ++i) {
    const uint64_t mod = (rng.NextU64() >> 34) | 1;  // odd 30-bit
    if (mod < 3) continue;
    const uint64_t base = rng.NextBelow(mod);
    const uint64_t exp = rng.NextBelow(1 << 20);
    EXPECT_EQ(
        BigInt::ModPow(BigInt(base), BigInt(exp), BigInt(mod))->LowU64(),
        native_modpow(base, exp, mod))
        << base << "^" << exp << " mod " << mod;
  }
}

TEST(BigIntDifferential, MontgomeryAgainstNative) {
  Rng rng(324);
  for (int i = 0; i < 200; ++i) {
    const uint64_t mod = (rng.NextU64() >> 34) | 1;
    if (mod < 3) continue;
    auto ctx = crypto::MontgomeryContext::Create(BigInt(mod)).value();
    const uint64_t a = rng.NextBelow(mod);
    const uint64_t b = rng.NextBelow(mod);
    const uint64_t expected = static_cast<uint64_t>(
        static_cast<unsigned __int128>(a) * b % mod);
    EXPECT_EQ(ctx.ModMul(BigInt(a), BigInt(b)).LowU64(), expected);
  }
}

TEST(BigIntDifferential, AddModInPlaceAgainstAddThenMod) {
  // The in-place modular add against the division-based (a + b) % n at
  // full-width odd moduli. The top two bits of n are set, so residues
  // above n - 2^(bits-2) sum past the top limb.
  Rng rng(326);
  for (int bits : {1024, 2048}) {
    std::vector<uint32_t> w = BigInt::Random(rng, bits).ToFixedWords(bits / 32);
    w[0] |= 1u;
    w.back() |= 0xC0000000u;
    const BigInt n = BigInt::FromWords(std::move(w));
    const BigInt one(1);
    const BigInt half = BigInt::ShiftRight(n, 1);
    std::vector<BigInt> edges{BigInt(), one, n - one, half, half + one};
    // All-ones limbs, so a short addend's carry ripples up through them,
    // and at width - 1 limbs out into a new top limb.
    for (int low_bits : {64, bits / 2, bits - 32}) {
      edges.push_back(BigInt::PowerOfTwo(low_bits) - one);
    }
    for (int i = 0; i < 4; ++i) {
      edges.push_back(n - one - BigInt::Random(rng, bits - 2));  // high
    }
    int carried = 0, exactly_n = 0, fell_back = 0;
    auto check = [&](const BigInt& a, const BigInt& b) {
      const BigInt sum = BigInt::Add(a, b);
      carried += sum.BitLength() > bits;
      exactly_n += sum == n;
      fell_back += a >= n || b >= n;
      BigInt acc = a;
      acc.AddModInPlace(b, n);
      EXPECT_EQ(acc, sum % n) << bits << ": " << a.ToHex() << " + "
                              << b.ToHex();
    };
    for (const BigInt& a : edges) {
      for (const BigInt& b : edges) check(a, b);
    }
    for (int i = 0; i < 300; ++i) {
      const BigInt a = BigInt::RandomBelow(rng, n);
      check(a, BigInt::RandomBelow(rng, n));
      check(a, n - a);  // exactly n (or 0 + n for a = 0: the fallback)
    }
    // Operands at or above n take the full-reduction fallback.
    const BigInt big = BigInt::Mul(n, BigInt(3)) + BigInt::Random(rng, 64);
    for (const BigInt& over : {n, n + one, big}) {
      for (const BigInt& x : {BigInt(), half, n - one, over}) {
        check(over, x);
        check(x, over);
      }
    }
    // b aliasing *this doubles in place.
    for (const BigInt& a : edges) {
      BigInt acc = a;
      acc.AddModInPlace(acc, n);
      EXPECT_EQ(acc, BigInt::Add(a, a) % n) << bits;
    }
    // A long fold reuses the accumulator's limbs from one add to the next.
    BigInt acc, want;
    for (int i = 0; i < 200; ++i) {
      const BigInt& t = i % 3 == 0 ? edges[i % edges.size()]
                                   : BigInt::RandomBelow(rng, n);
      acc.AddModInPlace(t, n);
      want = BigInt::Add(want, t) % n;
      ASSERT_EQ(acc, want) << bits << " at step " << i;
    }
    EXPECT_GT(carried, 0) << bits;
    EXPECT_GT(exactly_n, 0) << bits;
    EXPECT_GT(fell_back, 0) << bits;
  }
}

TEST(BigIntDifferential, AddInPlaceAgainstAdd) {
  // The modulus-free in-place add against the allocating BigInt::Add, at
  // every width from 1 to 130 limbs on either side.
  Rng rng(327);
  const BigInt one(1);
  int new_limb = 0;
  auto check = [&](const BigInt& a, const BigInt& b) {
    const BigInt sum = BigInt::Add(a, b);
    new_limb += sum.WordCount() > std::max(a.WordCount(), b.WordCount());
    BigInt acc = a;
    acc.AddInPlace(b);
    EXPECT_EQ(acc, sum) << a.ToHex() << " + " << b.ToHex();
  };
  for (int limbs = 1; limbs <= 130; ++limbs) {
    const int bits = 32 * limbs;
    const BigInt ones = BigInt::PowerOfTwo(bits) - one;  // all-ones limbs
    const BigInt wide =
        BigInt::Random(rng, bits - 1) + BigInt::PowerOfTwo(bits - 1);
    const BigInt narrow =
        BigInt::Random(rng, 1 + static_cast<int>(rng.NextBelow(bits)));
    for (const BigInt& a : {BigInt(), one, ones, wide, narrow}) {
      for (const BigInt& b : {BigInt(), one, ones, wide, narrow}) check(a, b);
    }
    // b aliasing *this doubles in place.
    BigInt twice = wide;
    twice.AddInPlace(twice);
    EXPECT_EQ(twice, BigInt::Add(wide, wide)) << limbs;
  }
  // Some sums carried out into a new top limb.
  EXPECT_GT(new_limb, 0);
  // A long chain reuses the accumulator's limbs from one add to the next,
  // its terms mixing widths so carries ripple past a short addend.
  BigInt acc, want;
  for (int i = 0; i < 200; ++i) {
    const int bits = 1 + static_cast<int>(rng.NextBelow(130 * 32));
    const BigInt t = i % 5 == 0 ? BigInt::PowerOfTwo(bits) - one
                                : BigInt::Random(rng, bits);
    acc.AddInPlace(t);
    want = BigInt::Add(want, t);
    ASSERT_EQ(acc, want) << "at step " << i;
  }
}

TEST(BigIntDifferential, HexAgainstNativeFormatting) {
  Rng rng(325);
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.NextU64();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%llx",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(BigInt(v).ToHex(), std::string(hex));
  }
}

}  // namespace
}  // namespace flb::mpint

// BigInt's number theory checked against GMP: Gcd, Lcm and ModInverse
// against mpz_gcd, mpz_lcm and mpz_invert on seeded operands of 64 to 4096
// bits, at the edges (0, 1, n - 1, a >= n, powers of two and their
// neighbours, all-ones words, shared factors) and at the shapes a Paillier
// run uses. GMP is the oracle only: it is linked into flb_tests, never into
// the flb library, and this file builds only when CMake finds it.

#include <gmp.h>
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/crypto/paillier.h"
#include "src/mpint/bigint.h"

namespace flb::mpint {
namespace {

class Mpz {
 public:
  Mpz() { mpz_init(z_); }
  explicit Mpz(const BigInt& v) {
    mpz_init(z_);
    const std::vector<uint32_t>& w = v.words();
    mpz_import(z_, w.size(), -1, sizeof(uint32_t), 0, 0, w.data());
  }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  ~Mpz() { mpz_clear(z_); }

  mpz_ptr get() { return z_; }

  BigInt ToBigInt() const {
    std::vector<uint32_t> w((mpz_sizeinbase(z_, 2) + 31) / 32 + 1, 0);
    size_t count = 0;
    mpz_export(w.data(), &count, -1, sizeof(uint32_t), 0, 0, z_);
    w.resize(count);
    return BigInt::FromWords(std::move(w));
  }

 private:
  mpz_t z_;
};

BigInt AllOnes(int bits) {
  return BigInt::Sub(BigInt::PowerOfTwo(bits), BigInt(1));
}

// Operands of about `bits` bits: random, random with the top bit set, the
// all-ones words, 2^(bits-1) and its two neighbours.
std::vector<BigInt> Operands(Rng& rng, int bits) {
  const BigInt top = BigInt::PowerOfTwo(bits - 1);
  return {BigInt::Random(rng, bits),
          BigInt::Random(rng, bits),
          BigInt::Add(BigInt::Random(rng, bits - 1), top),
          BigInt::Add(BigInt::Random(rng, bits - 1), top),
          AllOnes(bits),
          top,
          BigInt::Sub(top, BigInt(1)),
          BigInt::Add(top, BigInt(1))};
}

// 186 and 2046 fill whole radix-2^62 words of the GCD core, 187 and 2047
// spill one bit into the next.
constexpr int kBits[] = {64,   65,   127,  128,  186,  187,  192,  256,
                         511,  512,  513,  1023, 1024, 1500, 2046, 2047,
                         2048, 3000, 4096};

void ExpectGcdLcm(const BigInt& a, const BigInt& b) {
  Mpz za(a), zb(b), g, l;
  mpz_gcd(g.get(), za.get(), zb.get());
  mpz_lcm(l.get(), za.get(), zb.get());
  EXPECT_EQ(BigInt::Gcd(a, b), g.ToBigInt())
      << "gcd(0x" << a.ToHex() << ", 0x" << b.ToHex() << ")";
  EXPECT_EQ(BigInt::Lcm(a, b), l.ToBigInt())
      << "lcm(0x" << a.ToHex() << ", 0x" << b.ToHex() << ")";
}

// ModInverse(a, n) is ok exactly where mpz_invert finds an inverse, and then
// equal to it; otherwise it is an ArithmeticError.
void ExpectInverse(const BigInt& a, const BigInt& n) {
  Mpz za(a), zn(n), inv;
  const bool exists = mpz_invert(inv.get(), za.get(), zn.get()) != 0;
  const Result<BigInt> ours = BigInt::ModInverse(a, n);
  ASSERT_EQ(ours.ok(), exists)
      << "inverse of 0x" << a.ToHex() << " mod 0x" << n.ToHex() << ": "
      << ours.status().ToString();
  if (exists) {
    EXPECT_EQ(*ours, inv.ToBigInt())
        << "inverse of 0x" << a.ToHex() << " mod 0x" << n.ToHex();
  } else {
    EXPECT_TRUE(ours.status().IsArithmeticError()) << ours.status().ToString();
  }
}

TEST(BigIntGmpOracle, GcdAndLcmMatchMpz) {
  Rng rng(2701);
  for (int bits : kBits) {
    const std::vector<BigInt> ops = Operands(rng, bits);
    for (const BigInt& a : ops) {
      ExpectGcdLcm(a, BigInt());
      ExpectGcdLcm(BigInt(), a);
      ExpectGcdLcm(a, BigInt(1));
      ExpectGcdLcm(a, a);
      for (const BigInt& b : ops) ExpectGcdLcm(a, b);
      // A shared factor of a third of the width, with its own powers of
      // two, and operands of very different widths.
      const BigInt f = BigInt::Add(BigInt::Random(rng, bits / 3 + 1),
                                   BigInt(1));
      const BigInt shared =
          BigInt::ShiftLeft(f, static_cast<int>(rng.NextBelow(70)));
      ExpectGcdLcm(BigInt::Mul(a, shared),
                   BigInt::Mul(BigInt::Random(rng, bits), shared));
      ExpectGcdLcm(a, BigInt::Random(rng, 40));
    }
  }
  ExpectGcdLcm(BigInt(), BigInt());
}

TEST(BigIntGmpOracle, ModInverseMatchesMpzInvert) {
  Rng rng(2702);
  for (int bits : kBits) {
    // Odd and even moduli, 2^k and 2^k +- 1, all-ones words.
    std::vector<BigInt> moduli = Operands(rng, bits);
    moduli.push_back(BigInt::PowerOfTwo(bits));
    moduli.push_back(BigInt::Add(BigInt::Random(rng, bits), BigInt(1)));
    for (const BigInt& n : moduli) {
      if (n < BigInt(2)) continue;
      const BigInt n_minus_1 = BigInt::Sub(n, BigInt(1));
      for (const BigInt& a :
           {BigInt(), BigInt(1), BigInt(2), n_minus_1, n,
            BigInt::Add(n, n_minus_1), BigInt::RandomBelow(rng, n),
            BigInt::RandomBelow(rng, n), BigInt::Random(rng, bits + 67),
            AllOnes(bits), BigInt(65537)}) {
        ExpectInverse(a, n);
      }
      // A value that shares a factor with n (when n has one below it).
      const BigInt f = BigInt::Gcd(n, BigInt::Random(rng, bits));
      ExpectInverse(BigInt::Mul(f, BigInt::Random(rng, bits / 2 + 1)), n);
    }
  }
  for (uint64_t n : {2u, 3u, 4u, 5u, 8u, 9u, 15u, 16u, 17u}) {
    for (uint64_t a = 0; a < 2 * n + 1; ++a) {
      ExpectInverse(BigInt(a), BigInt(n));
    }
  }
  EXPECT_TRUE(BigInt::ModInverse(BigInt(1), BigInt()).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BigInt::ModInverse(BigInt(1), BigInt(1)).status()
                  .IsInvalidArgument());
}

// The shapes a run takes: 512-bit p and q, the 1024-bit n with its
// obfuscator draws, the 2048-bit n^2 of a negative scalar, and key set-up.
TEST(BigIntGmpOracle, PaillierShapesMatchMpz) {
  Rng key_rng(2703);
  const crypto::PaillierKeyPair keys =
      crypto::PaillierKeyGen(1024, key_rng).value();
  const BigInt& p = keys.priv.p;
  const BigInt& q = keys.priv.q;
  const BigInt& n = keys.pub.n;
  const BigInt& n2 = keys.pub.n_squared;
  const BigInt p1 = BigInt::Sub(p, BigInt(1));
  const BigInt q1 = BigInt::Sub(q, BigInt(1));
  ExpectGcdLcm(n, BigInt::Mul(p1, q1));
  ExpectGcdLcm(p1, q1);
  ExpectInverse(keys.priv.lambda, n);
  ExpectInverse(p, q);
  ExpectInverse(q, p);
  ExpectInverse(n, n2);
  ExpectInverse(p, n2);
  Rng rng(2704);
  for (int i = 0; i < 16; ++i) {
    ExpectGcdLcm(BigInt::RandomBelow(rng, n), n);
    ExpectInverse(BigInt::RandomBelow(rng, p), p);
    ExpectInverse(BigInt::RandomBelow(rng, n), n);
    ExpectInverse(BigInt::RandomBelow(rng, n2), n);
    ExpectInverse(BigInt::RandomBelow(rng, n2), n2);
  }
}

}  // namespace
}  // namespace flb::mpint

// Tests for Montgomery arithmetic, primality, and Paillier.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
#include "src/crypto/prime.h"

namespace flb::crypto {
namespace {

using mpint::BigInt;

// ---------------------------------------------------------------------------
// Montgomery
// ---------------------------------------------------------------------------

TEST(Montgomery, RejectsBadModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(0)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(2)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(100)).ok());  // even
  EXPECT_TRUE(MontgomeryContext::Create(BigInt(3)).ok());
}

TEST(Montgomery, ToFromMontRoundTrip) {
  Rng rng(1);
  BigInt n = BigInt::Random(rng, 256);
  if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
  auto ctx = MontgomeryContext::Create(n).value();
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(rng, n);
    EXPECT_EQ(ctx.FromMont(ctx.ToMont(a)), a);
  }
}

TEST(Montgomery, ModMulMatchesReference) {
  Rng rng(2);
  for (int bits : {64, 256, 1024, 2048}) {
    BigInt n = BigInt::Random(rng, bits);
    if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
    if (n < BigInt(3)) continue;
    auto ctx = MontgomeryContext::Create(n).value();
    for (int i = 0; i < 10; ++i) {
      BigInt a = BigInt::RandomBelow(rng, n);
      BigInt b = BigInt::RandomBelow(rng, n);
      EXPECT_EQ(ctx.ModMul(a, b), BigInt::ModMul(a, b, n).value())
          << "bits=" << bits;
    }
  }
}

TEST(Montgomery, BasicAlgorithm1MatchesCios) {
  // Algorithm 1 (full-width) and CIOS (word-scanning) compute the same
  // Montgomery product a*b*R^{-1} mod n.
  Rng rng(3);
  for (int bits : {96, 512, 1024}) {
    BigInt n = BigInt::Random(rng, bits);
    if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
    if (n < BigInt(3)) continue;
    auto ctx = MontgomeryContext::Create(n).value();
    for (int i = 0; i < 10; ++i) {
      BigInt a = BigInt::RandomBelow(rng, n);
      BigInt b = BigInt::RandomBelow(rng, n);
      EXPECT_EQ(ctx.MontMul(a, b), ctx.MontMulBasic(a, b)) << "bits=" << bits;
    }
  }
}

TEST(Montgomery, ModPowMatchesReference) {
  Rng rng(4);
  for (int bits : {64, 512, 1024}) {
    BigInt n = BigInt::Random(rng, bits);
    if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
    if (n < BigInt(3)) continue;
    auto ctx = MontgomeryContext::Create(n).value();
    for (int i = 0; i < 5; ++i) {
      BigInt a = BigInt::RandomBelow(rng, n);
      BigInt e = BigInt::Random(rng, 64);
      EXPECT_EQ(ctx.ModPow(a, e), BigInt::ModPow(a, e, n).value())
          << "bits=" << bits;
    }
  }
}

TEST(Montgomery, ModPowEdgeCases) {
  auto ctx = MontgomeryContext::Create(BigInt(13)).value();
  EXPECT_EQ(ctx.ModPow(BigInt(7), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx.ModPow(BigInt(0), BigInt(5)), BigInt(0));
  EXPECT_EQ(ctx.ModPow(BigInt(1), BigInt(100)), BigInt(1));
  // Base >= n gets reduced.
  EXPECT_EQ(ctx.ModPow(BigInt(20), BigInt(2)), BigInt(49 % 13));
}

class MontgomeryWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(MontgomeryWindowTest, AllWindowWidthsAgree) {
  const int window = GetParam();
  Rng rng(50 + window);
  BigInt n = BigInt::Random(rng, 512);
  if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
  auto ctx = MontgomeryContext::Create(n).value();
  for (int i = 0; i < 5; ++i) {
    BigInt a = BigInt::RandomBelow(rng, n);
    BigInt e = BigInt::Random(rng, 512);
    EXPECT_EQ(ctx.ModPow(a, e, window), BigInt::ModPow(a, e, n).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, MontgomeryWindowTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Primality
// ---------------------------------------------------------------------------

TEST(Prime, SmallKnownValues) {
  Rng rng(7);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 97ULL, 65537ULL, 2147483647ULL}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), rng)) << p;
  }
  for (uint64_t c : {0ULL, 1ULL, 4ULL, 9ULL, 91ULL, 561ULL, 65535ULL,
                     2147483646ULL}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests but not Miller–Rabin.
  Rng rng(8);
  for (uint64_t c : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL, 6601ULL}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
}

TEST(Prime, GeneratedPrimesHaveExactBitLength) {
  Rng rng(9);
  for (int bits : {16, 32, 64, 128, 256}) {
    BigInt p = GeneratePrime(bits, rng).value();
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.IsOdd());
    EXPECT_TRUE(IsProbablePrime(p, rng));
  }
}

TEST(Prime, RejectsTinyRequests) {
  Rng rng(10);
  EXPECT_FALSE(GeneratePrime(4, rng).ok());
}

TEST(Prime, DistinctPrimeIsDistinct) {
  Rng rng(11);
  BigInt p = GeneratePrime(32, rng).value();
  BigInt q = GenerateDistinctPrime(32, p, rng).value();
  EXPECT_NE(p, q);
}

// ---------------------------------------------------------------------------
// Paillier
// ---------------------------------------------------------------------------

class PaillierTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kSeed = 1234;
  int key_bits() const { return GetParam(); }
};

TEST_P(PaillierTest, EncryptDecryptRoundTrip) {
  Rng rng(kSeed + key_bits());
  auto keys = PaillierKeyGen(key_bits(), rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::RandomBelow(rng, keys.pub.n);
    BigInt c = ctx.Encrypt(m, rng).value();
    EXPECT_NE(c, m);  // semantic check: ciphertext differs from plaintext
    EXPECT_EQ(ctx.Decrypt(c).value(), m);
  }
}

TEST_P(PaillierTest, AdditiveHomomorphism) {
  Rng rng(kSeed + 1 + key_bits());
  auto keys = PaillierKeyGen(key_bits(), rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  for (int i = 0; i < 5; ++i) {
    BigInt m1 = BigInt::RandomBelow(rng, keys.pub.n);
    BigInt m2 = BigInt::RandomBelow(rng, keys.pub.n);
    BigInt c1 = ctx.Encrypt(m1, rng).value();
    BigInt c2 = ctx.Encrypt(m2, rng).value();
    BigInt sum = ctx.Decrypt(ctx.Add(c1, c2).value()).value();
    EXPECT_EQ(sum, BigInt::Add(m1, m2) % keys.pub.n);
  }
}

TEST_P(PaillierTest, ScalarMultiplication) {
  Rng rng(kSeed + 2 + key_bits());
  auto keys = PaillierKeyGen(key_bits(), rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  BigInt m = BigInt::RandomBelow(rng, keys.pub.n);
  BigInt c = ctx.Encrypt(m, rng).value();
  for (uint64_t k : {0ULL, 1ULL, 2ULL, 17ULL, 1000ULL}) {
    BigInt ck = ctx.ScalarMul(c, BigInt(k)).value();
    EXPECT_EQ(ctx.Decrypt(ck).value(), BigInt::Mul(m, BigInt(k)) % keys.pub.n);
  }
}

TEST_P(PaillierTest, AddPlain) {
  Rng rng(kSeed + 3 + key_bits());
  auto keys = PaillierKeyGen(key_bits(), rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  BigInt m = BigInt::RandomBelow(rng, keys.pub.n);
  BigInt k = BigInt::RandomBelow(rng, keys.pub.n);
  BigInt c = ctx.Encrypt(m, rng).value();
  const std::vector<BigInt> c2 = ctx.AddPlainBatch({c}, {k}).value();
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(ctx.Decrypt(c2[0]).value(), BigInt::Add(m, k) % keys.pub.n);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, PaillierTest,
                         ::testing::Values(128, 256, 512));

TEST(Paillier, RandomGMatchesNPlusOne) {
  // The general random-g form and the g=n+1 fast path must agree on the
  // full encrypt/add/decrypt cycle.
  Rng rng(99);
  PaillierOptions opts;
  opts.use_g_n_plus_1 = false;
  auto keys = PaillierKeyGen(128, rng, opts).value();
  ASSERT_FALSE(keys.pub.g_is_n_plus_1);
  ASSERT_NE(keys.pub.g, BigInt::Add(keys.pub.n, BigInt(1)));
  auto ctx = PaillierContext::Create(keys, opts).value();
  BigInt m1(123456), m2(654321);
  BigInt c1 = ctx.Encrypt(m1, rng).value();
  BigInt c2 = ctx.Encrypt(m2, rng).value();
  EXPECT_EQ(ctx.Decrypt(c1).value(), m1);
  EXPECT_EQ(ctx.Decrypt(ctx.Add(c1, c2).value()).value(),
            BigInt::Add(m1, m2));
}

TEST(Paillier, CrtAndPlainDecryptionAgree) {
  Rng rng(100);
  PaillierOptions crt_opts;
  crt_opts.use_crt_decryption = true;
  PaillierOptions plain_opts;
  plain_opts.use_crt_decryption = false;
  auto keys = PaillierKeyGen(256, rng).value();
  auto crt_ctx = PaillierContext::Create(keys, crt_opts).value();
  auto plain_ctx = PaillierContext::Create(keys, plain_opts).value();
  for (int i = 0; i < 10; ++i) {
    BigInt m = BigInt::RandomBelow(rng, keys.pub.n);
    BigInt c = crt_ctx.Encrypt(m, rng).value();
    EXPECT_EQ(crt_ctx.Decrypt(c).value(), m);
    EXPECT_EQ(plain_ctx.Decrypt(c).value(), m);
  }
}

TEST(Paillier, EncryptionIsProbabilistic) {
  Rng rng(101);
  auto keys = PaillierKeyGen(128, rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  BigInt m(42);
  BigInt c1 = ctx.Encrypt(m, rng).value();
  BigInt c2 = ctx.Encrypt(m, rng).value();
  EXPECT_NE(c1, c2);  // fresh randomness each time
  EXPECT_EQ(ctx.Decrypt(c1).value(), ctx.Decrypt(c2).value());
}

TEST(Paillier, ErrorPaths) {
  Rng rng(102);
  auto keys = PaillierKeyGen(128, rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  // Plaintext >= n rejected.
  EXPECT_FALSE(ctx.Encrypt(keys.pub.n, rng).ok());
  // Ciphertext >= n^2 rejected.
  EXPECT_FALSE(ctx.Decrypt(keys.pub.n_squared).ok());
  EXPECT_FALSE(ctx.Add(keys.pub.n_squared, BigInt(1)).ok());
  // Public-only context cannot decrypt.
  auto pub_ctx = PaillierContext::CreatePublic(keys.pub).value();
  BigInt c = pub_ctx.Encrypt(BigInt(5), rng).value();
  EXPECT_FALSE(pub_ctx.Decrypt(c).ok());
  EXPECT_TRUE(pub_ctx.Decrypt(c).status().IsFailedPrecondition());
  // Full context can decrypt what the public context encrypted.
  EXPECT_EQ(ctx.Decrypt(c).value(), BigInt(5));
  // Bad key sizes.
  EXPECT_FALSE(PaillierKeyGen(63, rng).ok());
  EXPECT_FALSE(PaillierKeyGen(32, rng).ok());
}

TEST(Paillier, OpCountsTrack) {
  Rng rng(103);
  auto keys = PaillierKeyGen(128, rng).value();
  auto ctx = PaillierContext::Create(keys).value();
  BigInt c1 = ctx.Encrypt(BigInt(1), rng).value();
  BigInt c2 = ctx.Encrypt(BigInt(2), rng).value();
  BigInt c3 = ctx.Add(c1, c2).value();
  ctx.Decrypt(c3).value();
  EXPECT_EQ(ctx.op_counts().encrypts, 2u);
  EXPECT_EQ(ctx.op_counts().adds, 1u);
  EXPECT_EQ(ctx.op_counts().decrypts, 1u);
}

}  // namespace
}  // namespace flb::crypto

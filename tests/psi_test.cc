// Tests for the RSA-blind private set intersection (sample alignment) and
// the RSA signing it runs on.

#include <gtest/gtest.h>

#include "examples/psi/psi.h"
#include "examples/psi/rsa.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/crypto/montgomery.h"
#include "src/net/network.h"

namespace flb {
namespace crypto {
namespace {

using mpint::BigInt;

// m^e mod n: the public side of RSA, as PSI's blinding computes it.
BigInt PublicPow(const RsaPublicKey& pub, const BigInt& m) {
  return MontgomeryContext::Create(pub.n).value().ModPow(m, pub.e);
}

class RsaTest : public ::testing::TestWithParam<int> {};

TEST_P(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(2000 + GetParam());
  auto keys = RsaKeyGen(GetParam(), rng).value();
  auto ctx = RsaContext::Create(keys).value();
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::RandomBelow(rng, keys.pub.n);
    EXPECT_EQ(ctx.Decrypt(PublicPow(keys.pub, m)).value(), m);
  }
}

// The blind-signature identity PSI relies on: (h * r^e)^d = h^d * r mod n.
TEST_P(RsaTest, MultiplicativeHomomorphism) {
  Rng rng(3000 + GetParam());
  auto keys = RsaKeyGen(GetParam(), rng).value();
  auto ctx = RsaContext::Create(keys).value();
  const BigInt& n = keys.pub.n;
  BigInt h = BigInt::RandomBelow(rng, n);
  BigInt r = BigInt::RandomBelow(rng, n);
  BigInt blinded = BigInt::Mul(h, PublicPow(keys.pub, r)) % n;
  EXPECT_EQ(ctx.Decrypt(blinded).value(),
            BigInt::Mul(ctx.Decrypt(h).value(), r) % n);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaTest, ::testing::Values(128, 256, 512));

TEST(Rsa, ErrorPaths) {
  Rng rng(4000);
  auto keys = RsaKeyGen(128, rng).value();
  auto ctx = RsaContext::Create(keys).value();
  EXPECT_TRUE(ctx.Decrypt(keys.pub.n).status().IsOutOfRange());
  EXPECT_FALSE(RsaKeyGen(63, rng).ok());
}

}  // namespace
}  // namespace crypto

namespace fl {
namespace {

PsiOptions SmallOptions() {
  PsiOptions opts;
  opts.rsa_key_bits = 256;
  return opts;
}

TEST(PsiTest, FindsExactIntersection) {
  SimClock clock;
  net::Network network(net::LinkSpec::GigabitEthernet(), &clock);
  std::vector<uint64_t> guest = {1, 5, 9, 12, 42, 77, 100};
  std::vector<uint64_t> host = {2, 5, 12, 42, 99, 101};
  PsiStats stats;
  auto shared = RsaPsiIntersect(guest, host, SmallOptions(), &network, &clock,
                                &stats)
                    .value();
  EXPECT_EQ(shared, (std::vector<uint64_t>{5, 12, 42}));
  EXPECT_EQ(stats.guest_ids, 7u);
  EXPECT_EQ(stats.host_ids, 6u);
  EXPECT_EQ(stats.intersection, 3u);
  EXPECT_GT(stats.comm_bytes, 0u);
  EXPECT_GT(clock.Elapsed(CostKind::kCpuHe), 0.0);
  EXPECT_GT(clock.Elapsed(CostKind::kNetwork), 0.0);
}

TEST(PsiTest, DisjointSetsGiveEmptyResult) {
  net::Network network;
  auto shared = RsaPsiIntersect({1, 2, 3}, {4, 5, 6}, SmallOptions(),
                                &network, nullptr)
                    .value();
  EXPECT_TRUE(shared.empty());
}

TEST(PsiTest, IdenticalSetsGiveEverything) {
  net::Network network;
  std::vector<uint64_t> ids = {10, 20, 30, 40};
  auto shared =
      RsaPsiIntersect(ids, ids, SmallOptions(), &network, nullptr).value();
  EXPECT_EQ(shared, ids);
}

TEST(PsiTest, LargerSetsNoFalseMatches) {
  net::Network network;
  std::vector<uint64_t> guest, host;
  for (uint64_t i = 0; i < 200; ++i) guest.push_back(3 * i);       // multiples of 3
  for (uint64_t i = 0; i < 200; ++i) host.push_back(5 * i);        // multiples of 5
  auto shared =
      RsaPsiIntersect(guest, host, SmallOptions(), &network, nullptr).value();
  // Expected: multiples of 15 below min(600, 1000) -> 0,15,...,585.
  std::vector<uint64_t> expected;
  for (uint64_t v = 0; v < 600; v += 15) expected.push_back(v);
  EXPECT_EQ(shared, expected);
}

TEST(PsiTest, RequiresNetwork) {
  EXPECT_FALSE(RsaPsiIntersect({1}, {1}, SmallOptions(), nullptr, nullptr).ok());
}

TEST(PsiTest, NetworkDrainedCompletely) {
  // The protocol must consume every message it produces (no stragglers that
  // would confuse a following training phase on the same network).
  net::Network network;
  RsaPsiIntersect({1, 2}, {2, 3}, SmallOptions(), &network, nullptr).value();
  for (const char* party : {"guest", "host"}) {
    for (const char* topic : {"psi_pub", "psi_blind", "psi_signed",
                              "psi_tags"}) {
      EXPECT_TRUE(network.Receive(party, topic).status().IsNotFound())
          << party << " " << topic;
    }
  }
}

}  // namespace
}  // namespace fl
}  // namespace flb

// Failure-injection and robustness tests: corrupted wire payloads, tampered
// ciphertexts, adversarial deserializer inputs, and protocol misuse must
// produce Status errors (or garbage values), never crashes or hangs.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "src/codec/quantizer.h"
#include "src/common/rng.h"
#include "src/core/transport.h"
#include "src/crypto/paillier.h"
#include "src/gpusim/device.h"
#include "src/net/serializer.h"

namespace flb {
namespace {

TEST(RobustnessTest, DeserializerSurvivesRandomBytes) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.NextBelow(64);
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextU32());
    net::Deserializer d(junk);
    // Whatever sequence of reads we attempt, we get values or errors.
    (void)d.GetU32();
    (void)d.GetBigInt();
    (void)d.GetDoubleVector();
    (void)d.GetBigIntBatchFixed(8);
  }
}

TEST(RobustnessTest, RecvEncVecSurvivesRandomPayloads) {
  Rng rng(2);
  net::Network network;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextU32());
    ASSERT_TRUE(network.Send("x", "y", "t", junk).ok());
    auto result = core::RecvEncVec(&network, "y", "t");
    // Malformed payloads must fail cleanly (a short random blob can parse
    // as an empty vector by chance, which is also fine).
    if (result.ok()) {
      EXPECT_LE(result->data.size(), junk.size());
    }
  }
}

TEST(RobustnessTest, TamperedCiphertextDecryptsToGarbageNotCrash) {
  Rng rng(3);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  const mpint::BigInt m(123456);
  mpint::BigInt c = ctx.Encrypt(m, rng).value();
  // Flip a low bit of the ciphertext.
  mpint::BigInt tampered = c.IsOdd() ? mpint::BigInt::Sub(c, mpint::BigInt(1))
                                     : mpint::BigInt::Add(c, mpint::BigInt(1));
  auto result = ctx.Decrypt(tampered);
  ASSERT_TRUE(result.ok());       // decryption "succeeds"...
  EXPECT_NE(result.value(), m);   // ...but integrity is gone (HE is malleable)
}

TEST(RobustnessTest, DecryptRandomRingElementIsSafe) {
  Rng rng(4);
  auto keys = crypto::PaillierKeyGen(256, rng).value();
  auto ctx = crypto::PaillierContext::Create(keys).value();
  for (int i = 0; i < 10; ++i) {
    mpint::BigInt junk =
        mpint::BigInt::RandomBelow(rng, keys.pub.n_squared);
    auto result = ctx.Decrypt(junk);
    if (result.ok()) {
      EXPECT_LT(result.value(), keys.pub.n);
    }
  }
}

TEST(RobustnessTest, HeServiceRejectsForeignEncVecMode) {
  SimClock clock;
  auto device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  core::HeServiceOptions opts;
  opts.engine = core::EngineKind::kFlBooster;
  opts.key_bits = 256;
  opts.r_bits = 14;
  auto real = core::HeService::Create(opts, &clock, device).value();
  opts.modeled = true;
  auto modeled = core::HeService::Create(opts, &clock, device).value();
  auto enc = modeled->EncryptValues({0.5}).value();
  // A modeled EncVec handed to a real service is a protocol bug -> error.
  EXPECT_TRUE(real->DecryptValues(enc).status().IsInvalidArgument());
  EXPECT_TRUE(real->AddCipher(enc, enc).status().IsInvalidArgument());
}

TEST(RobustnessTest, NetworkIsolatesParties) {
  net::Network network;
  ASSERT_TRUE(network.Send("a", "b", "secret", {1, 2, 3}).ok());
  // A third party cannot receive b's message.
  EXPECT_TRUE(network.Receive("c", "secret").status().IsNotFound());
  EXPECT_TRUE(network.Receive("b", "secret").ok());
}

TEST(RobustnessTest, QuantizerSaturatesGracefullyOnExtremes) {
  codec::QuantizerConfig cfg;
  cfg.alpha = 1.0;
  cfg.r_bits = 16;
  auto q = codec::Quantizer::Create(cfg).value();
  EXPECT_EQ(q.Encode(1e308).value(), q.Encode(1.0).value());
  EXPECT_EQ(q.Encode(-1e308).value(), q.Encode(-1.0).value());
  EXPECT_FALSE(q.Encode(std::numeric_limits<double>::infinity()).ok());
}

}  // namespace
}  // namespace flb

// Tests for serialization and the simulated network.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/net/network.h"
#include "src/net/serializer.h"

namespace flb::net {
namespace {

using mpint::BigInt;

TEST(SerializerTest, PrimitivesRoundTrip) {
  Serializer s;
  s.PutU32(0xDEADBEEF);
  s.PutU64(0x0123456789ABCDEFULL);
  s.PutDouble(-2.5);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(d.GetU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(d.GetDouble().value(), -2.5);
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializerTest, BigIntVariableAndFixed) {
  Rng rng(1);
  Serializer s;
  BigInt a = BigInt::Random(rng, 300);
  BigInt b = BigInt::Random(rng, 64);
  s.PutBigInt(a);
  s.PutBigIntFixed(b, 16);  // padded to 16 words
  Deserializer d(s.bytes());
  EXPECT_EQ(d.GetBigInt().value(), a);
  EXPECT_EQ(d.GetBigIntFixed(16).value(), b);
  EXPECT_TRUE(d.AtEnd());
}

TEST(SerializerTest, BatchesRoundTrip) {
  Rng rng(2);
  std::vector<BigInt> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(BigInt::Random(rng, 128));
  std::vector<double> doubles{1.0, -0.5, 3.25};
  Serializer s;
  s.PutBigIntBatchFixed(batch, 8);
  s.PutDoubleVector(doubles);
  Deserializer d(s.bytes());
  auto batch_back = d.GetBigIntBatchFixed(8).value();
  ASSERT_EQ(batch_back.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch_back[i], batch[i]);
  EXPECT_EQ(d.GetDoubleVector().value(), doubles);
}

TEST(SerializerTest, TruncationDetected) {
  Serializer s;
  s.PutU64(42);
  std::vector<uint8_t> cut(s.bytes().begin(), s.bytes().begin() + 4);
  Deserializer d(cut);
  EXPECT_TRUE(d.GetU64().status().IsOutOfRange());
  // A BigInt whose limb count is longer than the payload.
  Serializer s2;
  s2.PutU32(100);
  Deserializer d2(s2.bytes());
  EXPECT_FALSE(d2.GetBigInt().ok());
}

TEST(NetworkTest, SendReceiveByTopic) {
  Network net;
  ASSERT_TRUE(net.Send("a", "b", "grad", {1, 2, 3}).ok());
  ASSERT_TRUE(net.Send("a", "b", "loss", {9}).ok());
  auto loss = net.Receive("b", "loss").value();
  EXPECT_EQ(loss.payload, std::vector<uint8_t>{9});
  EXPECT_EQ(loss.from, "a");
  auto grad = net.Receive("b", "grad").value();
  EXPECT_EQ(grad.payload.size(), 3u);
  EXPECT_TRUE(net.Receive("b", "grad").status().IsNotFound());
  EXPECT_TRUE(net.Receive("b", "loss").status().IsNotFound());
}

TEST(NetworkTest, FifoWithinTopic) {
  Network net;
  ASSERT_TRUE(net.Send("a", "b", "t", {1}).ok());
  ASSERT_TRUE(net.Send("c", "b", "t", {2}).ok());
  EXPECT_EQ(net.Receive("b", "t")->from, "a");
  EXPECT_EQ(net.Receive("b", "t")->from, "c");
}

TEST(NetworkTest, SelfSendRejected) {
  Network net;
  EXPECT_TRUE(net.Send("a", "a", "t", {}).IsInvalidArgument());
}

TEST(NetworkTest, TimeAndByteAccounting) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  const size_t payload = 1 << 20;
  ASSERT_TRUE(net.Send("a", "b", "t", std::vector<uint8_t>(payload)).ok());
  // ~1 MiB at ~117 MB/s plus latency.
  const double expected =
      net.link().latency_sec + (payload + 64) / net.link().bandwidth_bytes_per_sec;
  EXPECT_NEAR(clock.Elapsed(CostKind::kNetwork), expected, 1e-9);
  EXPECT_EQ(net.stats().messages, 1u);
  EXPECT_EQ(net.stats().bytes, payload + 64);
  EXPECT_EQ(net.stats().bytes_by_topic.at("t"), payload + 64);
}

TEST(NetworkTest, LinkPresetsOrdering) {
  // A WAN link is slower than the GigE preset is slower than 10GigE for the
  // same payload.
  Network wan(LinkSpec{12.5e6, 20e-3, 1.5e-3}),
      gige(LinkSpec::GigabitEthernet()),
      tengig(LinkSpec{1.17e9, 150e-6, 1.5e-3});
  const size_t bytes = 10 << 20;
  EXPECT_GT(wan.TransferSeconds(bytes), gige.TransferSeconds(bytes));
  EXPECT_GT(gige.TransferSeconds(bytes), tengig.TransferSeconds(bytes));
}

}  // namespace
}  // namespace flb::net

// Tests for message framing (CRC32) and the ack/retransmit channel.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"
#include "src/net/serializer.h"

namespace flb::net {
namespace {

constexpr size_t kFrameHeaderBytes = 20;  // magic + crc + seq + len
constexpr size_t kWireFramingBytes = 64;  // Network's per-message overhead

TEST(FrameTest, RoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto bytes = EncodeFrame(42, payload);
  EXPECT_EQ(bytes.size(), payload.size() + kFrameHeaderBytes);
  auto frame = DecodeFrame(bytes).value();
  EXPECT_EQ(frame.seq, 42u);
  EXPECT_EQ(frame.payload, payload);
  // Empty payloads frame fine too.
  auto empty = DecodeFrame(EncodeFrame(0, {})).value();
  EXPECT_EQ(empty.seq, 0u);
  EXPECT_TRUE(empty.payload.empty());
}

TEST(FrameTest, SingleBitFlipIsDataLoss) {
  // The satellite requirement: flipping any one payload bit must surface
  // as kDataLoss via the CRC32 check.
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto clean = EncodeFrame(7, payload);
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    auto tampered = clean;
    tampered[kFrameHeaderBytes + bit / 8] ^=
        static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_TRUE(DecodeFrame(tampered).status().IsDataLoss()) << bit;
  }
  // Flipping header bits (seq/len/crc) is detected as well.
  for (size_t byte = 4; byte < kFrameHeaderBytes; ++byte) {
    auto tampered = clean;
    tampered[byte] ^= 0x01;
    EXPECT_TRUE(DecodeFrame(tampered).status().IsDataLoss()) << byte;
  }
}

TEST(FrameTest, TruncationAndGarbageAreDataLoss) {
  const auto clean = EncodeFrame(1, {1, 2, 3});
  for (size_t len = 0; len < clean.size(); ++len) {
    std::vector<uint8_t> cut(clean.begin(), clean.begin() + len);
    EXPECT_TRUE(DecodeFrame(cut).status().IsDataLoss()) << len;
  }
  EXPECT_TRUE(DecodeFrame(std::vector<uint8_t>(32, 0x5A))
                  .status()
                  .IsDataLoss());
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  const uint8_t a[] = {1, 2, 3}, b[] = {1, 2, 4}, c[] = {3, 2, 1};
  EXPECT_NE(Crc32(a, 3), Crc32(b, 3));
  EXPECT_NE(Crc32(a, 3), Crc32(c, 3));
}

TEST(ReliableChannelTest, CleanDeliveryAndAccountingParity) {
  // Same payload through a raw network and a channel-routed one (no
  // faults): the channel adds exactly the frame header plus one ack.
  const std::vector<uint8_t> payload(1000, 0xAB);
  SimClock raw_clock, ch_clock;
  Network raw(LinkSpec::GigabitEthernet(), &raw_clock);
  Network routed(LinkSpec::GigabitEthernet(), &ch_clock);
  ReliableChannel channel(&routed);
  routed.set_reliable_channel(&channel);

  ASSERT_TRUE(raw.Send("a", "b", "t", payload).ok());
  ASSERT_TRUE(routed.Send("a", "b", "t", payload).ok());

  const uint64_t ack_wire =
      channel.options().ack_bytes + kWireFramingBytes;
  EXPECT_EQ(routed.stats().bytes,
            raw.stats().bytes + kFrameHeaderBytes + ack_wire);
  // Acks are control traffic: byte-counted but not a message.
  EXPECT_EQ(routed.stats().messages, raw.stats().messages);
  EXPECT_EQ(routed.stats().bytes_by_topic.at("__ack"), ack_wire);
  // Time overhead is exactly the extra bytes' transfer time plus the ack's
  // latency charge.
  const double overhead = ch_clock.Elapsed(CostKind::kNetwork) -
                          raw_clock.Elapsed(CostKind::kNetwork);
  const double expected =
      kFrameHeaderBytes / routed.link().bandwidth_bytes_per_sec +
      routed.TransferSeconds(ack_wire);
  EXPECT_NEAR(overhead, expected, 1e-12);

  // The receiver sees the unframed payload with no retransmissions.
  auto msg = routed.Receive("b", "t").value();
  EXPECT_EQ(msg.payload, payload);
  EXPECT_EQ(channel.stats().sends, 1u);
  EXPECT_EQ(channel.stats().attempts, 1u);
  EXPECT_EQ(channel.stats().retransmits, 0u);
  EXPECT_EQ(channel.stats().acks, 1u);
  EXPECT_EQ(channel.stats().crc_failures, 0u);
}

TEST(ReliableChannelTest, RetransmitsUntilDelivered) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  auto plan = FaultPlan::Parse("seed=9;drop=0.5").value();
  FaultInjector inj(plan, &clock);
  ReliableChannel channel(&net);
  net.set_fault_injector(&inj);
  net.set_reliable_channel(&channel);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.Send("a", "b", "t", {static_cast<uint8_t>(i)}).ok());
    auto msg = net.Receive("b", "t").value();
    ASSERT_EQ(msg.payload[0], static_cast<uint8_t>(i));
  }
  // At 50% loss, retransmissions definitely happened, and each backoff
  // charged simulated time.
  EXPECT_GT(channel.stats().retransmits, 0u);
  EXPECT_EQ(channel.stats().sends, 50u);
  EXPECT_EQ(channel.stats().acks, 50u);
  EXPECT_GT(inj.stats().drops, 0u);
  EXPECT_GT(clock.Now(), 0.0);
}

TEST(ReliableChannelTest, TotalLossHitsDeadline) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  auto plan = FaultPlan::Parse("drop=1").value();
  FaultInjector inj(plan, &clock);
  ReliableChannel channel(&net);
  net.set_fault_injector(&inj);
  net.set_reliable_channel(&channel);

  Status status = net.Send("a", "b", "t", {1, 2, 3});
  EXPECT_TRUE(status.IsDeadlineExceeded() || status.IsUnavailable())
      << status.ToString();
  EXPECT_EQ(channel.stats().timeouts, 1u);
  EXPECT_GT(channel.stats().attempts, 1u);
  // The receiver finds nothing and gets a recoverable error, not the raw
  // NotFound.
  EXPECT_TRUE(net.Receive("b", "t").status().IsUnavailable());
}

TEST(ReliableChannelTest, DuplicatesAreSuppressed) {
  Network net;
  auto plan = FaultPlan::Parse("dup=1").value();
  FaultInjector inj(plan);
  ReliableChannel channel(&net);
  net.set_fault_injector(&inj);
  net.set_reliable_channel(&channel);

  ASSERT_TRUE(net.Send("a", "b", "t", {9}).ok());
  EXPECT_EQ(net.Receive("b", "t")->payload, std::vector<uint8_t>{9});
  // The second copy is a replayed sequence number, not a message.
  EXPECT_TRUE(net.Receive("b", "t").status().IsUnavailable());
  EXPECT_EQ(channel.stats().duplicates_suppressed, 1u);
  // Those were the two copies on the wire.
  EXPECT_TRUE(net.ReceiveDirect("b", "t").status().IsNotFound());
}

TEST(ReliableChannelTest, PersistentCorruptionSurfacesAsDataLoss) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  auto plan = FaultPlan::Parse("corrupt=1").value();
  FaultInjector inj(plan, &clock);
  ReliableChannel channel(&net);
  net.set_fault_injector(&inj);
  net.set_reliable_channel(&channel);

  // Every attempt is delivered corrupted, so the sender never sees an ack.
  Status status = net.Send("a", "b", "t", {1, 2, 3, 4});
  EXPECT_TRUE(status.IsDeadlineExceeded() || status.IsUnavailable());
  // The receiver CRC-rejects every pending copy: kDataLoss.
  EXPECT_TRUE(net.Receive("b", "t").status().IsDataLoss());
  EXPECT_GT(channel.stats().crc_failures, 0u);
}

TEST(ReliableChannelTest, SequencesArePerLinkAndTopic) {
  Network net;
  ReliableChannel channel(&net);
  net.set_reliable_channel(&channel);
  ASSERT_TRUE(net.Send("a", "b", "t", {1}).ok());
  ASSERT_TRUE(net.Send("a", "b", "t", {2}).ok());
  ASSERT_TRUE(net.Send("a", "c", "t", {3}).ok());
  EXPECT_EQ(net.Receive("b", "t")->payload, std::vector<uint8_t>{1});
  EXPECT_EQ(net.Receive("b", "t")->payload, std::vector<uint8_t>{2});
  EXPECT_EQ(net.Receive("c", "t")->payload, std::vector<uint8_t>{3});
  EXPECT_EQ(channel.stats().duplicates_suppressed, 0u);
}

}  // namespace
}  // namespace flb::net

// Tests for the deterministic fault injector and its Network integration.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/net/fault.h"
#include "src/net/network.h"

namespace flb::net {
namespace {

TEST(FaultPlanTest, ParseFullSpec) {
  auto plan = FaultPlan::Parse(
                  "seed=7;drop=0.02;dup=0.005;reorder=0.01;corrupt=0.002;"
                  "delay=0.001;jitter=0.0005;straggler=party1:4;"
                  "crash=party2@0.4-0.9;crash=server@2;"
                  "partition=party0|server@0.2-0.3;"
                  "link=party3>server:drop=0.5,delay=0.01")
                  .value();
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.default_link.drop_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.default_link.dup_prob, 0.005);
  EXPECT_DOUBLE_EQ(plan.default_link.reorder_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.default_link.corrupt_prob, 0.002);
  EXPECT_DOUBLE_EQ(plan.default_link.extra_delay_sec, 0.001);
  EXPECT_DOUBLE_EQ(plan.default_link.jitter_sec, 0.0005);
  EXPECT_DOUBLE_EQ(plan.straggler_factor.at("party1"), 4.0);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].party, "party2");
  EXPECT_DOUBLE_EQ(plan.crashes[0].at_sec, 0.4);
  EXPECT_DOUBLE_EQ(plan.crashes[0].recover_sec, 0.9);
  EXPECT_EQ(plan.crashes[1].party, "server");
  EXPECT_LT(plan.crashes[1].recover_sec, 0);  // never recovers
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].a, "party0");
  EXPECT_EQ(plan.partitions[0].b, "server");
  const LinkFaults& link = plan.per_link.at({"party3", "server"});
  EXPECT_DOUBLE_EQ(link.drop_prob, 0.5);
  EXPECT_DOUBLE_EQ(link.extra_delay_sec, 0.01);
  // Per-link overrides fully replace the defaults.
  EXPECT_DOUBLE_EQ(link.dup_prob, 0.0);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_TRUE(FaultPlan::Parse("bogus").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("drop=1.5").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("drop=-0.1").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("drop=abc").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("wibble=0.1").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("straggler=party1")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      FaultPlan::Parse("straggler=party1:0.5").status().IsInvalidArgument());
  EXPECT_TRUE(FaultPlan::Parse("crash=party1").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultPlan::Parse("crash=party1@1-0.5").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultPlan::Parse("partition=a|b@3-2").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultPlan::Parse("link=a>b;drop=0.1").status().IsInvalidArgument());
}

TEST(FaultPlanTest, EmptyAndWhitespaceSpecs) {
  EXPECT_TRUE(FaultPlan::Parse("").value().empty());
  EXPECT_TRUE(FaultPlan::Parse(" ; ;").value().empty());
  // seed alone leaves the plan behaviorally empty.
  EXPECT_TRUE(FaultPlan::Parse("seed=42").value().empty());
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  auto plan = FaultPlan::Parse(
                  "seed=3;drop=0.2;dup=0.1;reorder=0.1;corrupt=0.1;"
                  "jitter=0.001")
                  .value();
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.OnSend("x", "y", "t", 64);
    const auto db = b.OnSend("x", "y", "t", 64);
    ASSERT_EQ(da.deliver, db.deliver) << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << i;
    ASSERT_EQ(da.reorder, db.reorder) << i;
    ASSERT_EQ(da.corrupt, db.corrupt) << i;
    ASSERT_EQ(da.corrupt_bit, db.corrupt_bit) << i;
    ASSERT_DOUBLE_EQ(da.extra_delay_sec, db.extra_delay_sec) << i;
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_GT(a.stats().drops, 0u);
  EXPECT_GT(a.stats().duplicates, 0u);
  EXPECT_EQ(a.stats().decisions, 500u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  auto base = FaultPlan::Parse("seed=1;drop=0.3").value();
  auto other = base;
  other.seed = 2;
  FaultInjector a(base), b(other);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.OnSend("x", "y", "t", 8).deliver !=
        b.OnSend("x", "y", "t", 8).deliver) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, CrashWindowFollowsSimClock) {
  SimClock clock;
  auto plan = FaultPlan::Parse("crash=party2@0.4-0.9").value();
  FaultInjector inj(plan, &clock);
  EXPECT_FALSE(inj.IsCrashed("party2"));
  EXPECT_LT(inj.CrashRecoverTime("party2"), 0);
  clock.Charge(CostKind::kOther, 0.5);  // now = 0.5, inside the window
  EXPECT_TRUE(inj.IsCrashed("party2"));
  EXPECT_DOUBLE_EQ(inj.CrashRecoverTime("party2"), 0.9);
  EXPECT_FALSE(inj.IsCrashed("party1"));
  clock.Charge(CostKind::kOther, 0.5);  // now = 1.0, recovered
  EXPECT_FALSE(inj.IsCrashed("party2"));
  // Messages to (or from) a crashed party are swallowed.
  SimClock inside;
  inside.Charge(CostKind::kOther, 0.5);
  FaultInjector crashed(plan, &inside);
  auto d = crashed.OnSend("party0", "party2", "t", 8);
  EXPECT_FALSE(d.deliver);
  EXPECT_STREQ(d.fault, "crash_drop");
  EXPECT_FALSE(crashed.OnSend("party2", "server", "t", 8).deliver);
}

TEST(FaultInjectorTest, PartitionIsBidirectionalAndWindowed) {
  SimClock clock;
  auto plan = FaultPlan::Parse("partition=party0|server@0.2-0.3").value();
  FaultInjector inj(plan, &clock);
  EXPECT_TRUE(inj.OnSend("party0", "server", "t", 8).deliver);
  clock.Charge(CostKind::kOther, 0.25);
  EXPECT_TRUE(inj.LinkPartitioned("party0", "server"));
  EXPECT_TRUE(inj.LinkPartitioned("server", "party0"));
  EXPECT_FALSE(inj.OnSend("party0", "server", "t", 8).deliver);
  EXPECT_FALSE(inj.OnSend("server", "party0", "t", 8).deliver);
  // Unrelated links are unaffected.
  EXPECT_TRUE(inj.OnSend("party1", "server", "t", 8).deliver);
  clock.Charge(CostKind::kOther, 0.1);  // past the window
  EXPECT_TRUE(inj.OnSend("party0", "server", "t", 8).deliver);
  EXPECT_EQ(inj.stats().partition_drops, 2u);
}

TEST(FaultInjectorTest, StragglerFactorDefaultsToOne) {
  auto plan = FaultPlan::Parse("straggler=party1:4").value();
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.StragglerFactor("party1"), 4.0);
  EXPECT_DOUBLE_EQ(inj.StragglerFactor("party0"), 1.0);
  EXPECT_DOUBLE_EQ(inj.StragglerFactor("server"), 1.0);
}

TEST(FaultNetworkTest, DropChargesTimeButDoesNotEnqueue) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  auto plan = FaultPlan::Parse("drop=1").value();
  FaultInjector inj(plan, &clock);
  net.set_fault_injector(&inj);
  ASSERT_TRUE(net.SendDirect("a", "b", "t", {1, 2, 3}).ok());
  EXPECT_TRUE(net.ReceiveDirect("b", "t").status().IsNotFound());
  // The attempt still consumed wire time and bytes.
  EXPECT_GT(clock.Elapsed(CostKind::kNetwork), 0.0);
  EXPECT_EQ(net.stats().messages, 1u);
  EXPECT_GT(net.stats().bytes, 0u);
}

TEST(FaultNetworkTest, CorruptFlipsExactlyOneBit) {
  Network net;
  auto plan = FaultPlan::Parse("corrupt=1;seed=5").value();
  FaultInjector inj(plan);
  net.set_fault_injector(&inj);
  const std::vector<uint8_t> payload = {0x00, 0xFF, 0x55, 0xAA};
  SendOutcome outcome;
  ASSERT_TRUE(net.SendDirect("a", "b", "t", payload, 0, &outcome).ok());
  EXPECT_TRUE(outcome.delivered);
  EXPECT_TRUE(outcome.corrupted);
  auto msg = net.ReceiveDirect("b", "t").value();
  ASSERT_EQ(msg.payload.size(), payload.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    uint8_t diff = msg.payload[i] ^ payload[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultNetworkTest, DuplicateEnqueuesTwoCopiesAndCountsBytes) {
  Network net;
  auto plan = FaultPlan::Parse("dup=1").value();
  FaultInjector inj(plan);
  net.set_fault_injector(&inj);
  ASSERT_TRUE(net.SendDirect("a", "b", "t", {7, 7}).ok());
  // Both copies crossed the wire.
  EXPECT_EQ(net.stats().bytes, 2u * (2 + 64));
  EXPECT_EQ(net.ReceiveDirect("b", "t")->payload,
            net.ReceiveDirect("b", "t")->payload);
  EXPECT_TRUE(net.ReceiveDirect("b", "t").status().IsNotFound());
}

TEST(FaultNetworkTest, ReorderJumpsTheQueue) {
  Network net;
  FaultPlan plan;  // start fault-free
  FaultInjector inj(plan);
  net.set_fault_injector(&inj);
  ASSERT_TRUE(net.SendDirect("a", "b", "t", {1}).ok());
  net.set_fault_injector(nullptr);
  auto reordering = FaultPlan::Parse("reorder=1").value();
  FaultInjector inj2(reordering);
  net.set_fault_injector(&inj2);
  ASSERT_TRUE(net.SendDirect("c", "b", "t", {2}).ok());
  // The reordered message overtakes the earlier one.
  EXPECT_EQ(net.ReceiveDirect("b", "t")->from, "c");
  EXPECT_EQ(net.ReceiveDirect("b", "t")->from, "a");
}

TEST(FaultNetworkTest, CrashedReceiverGetsUnavailable) {
  SimClock clock;
  Network net(LinkSpec::GigabitEthernet(), &clock);
  auto plan = FaultPlan::Parse("crash=b@0").value();
  FaultInjector inj(plan, &clock);
  ASSERT_TRUE(net.Send("a", "b", "t", {1}).ok());  // enqueued pre-attach
  net.set_fault_injector(&inj);
  EXPECT_TRUE(net.Receive("b", "t").status().IsUnavailable());
  // A healthy party still sees the legacy NotFound.
  EXPECT_TRUE(net.Receive("c", "t").status().IsNotFound());
}

TEST(FaultNetworkTest, StragglerSlowsItsTransfers) {
  SimClock clock_fast, clock_slow;
  Network fast(LinkSpec::GigabitEthernet(), &clock_fast);
  Network slow(LinkSpec::GigabitEthernet(), &clock_slow);
  auto plan = FaultPlan::Parse("straggler=a:4").value();
  FaultInjector inj(plan, &clock_slow);
  slow.set_fault_injector(&inj);
  const std::vector<uint8_t> payload(1 << 16);
  ASSERT_TRUE(fast.SendDirect("a", "b", "t", payload).ok());
  ASSERT_TRUE(slow.SendDirect("a", "b", "t", payload).ok());
  EXPECT_NEAR(clock_slow.Elapsed(CostKind::kNetwork),
              4.0 * clock_fast.Elapsed(CostKind::kNetwork), 1e-12);
}

}  // namespace
}  // namespace flb::net

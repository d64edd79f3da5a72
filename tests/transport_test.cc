// Tests for EncVec transport over the simulated network, including the
// modeled-mode wire-size guarantee and fixed-point/compressed layouts.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/transport.h"
#include "src/gpusim/device.h"
#include "src/net/serializer.h"

namespace flb::core {
namespace {

struct Rig {
  SimClock clock;
  std::shared_ptr<gpusim::Device> device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  net::Network network{net::LinkSpec::GigabitEthernet(), &clock};
  std::unique_ptr<HeService> he;

  explicit Rig(bool modeled, EngineKind engine = EngineKind::kFlBooster) {
    HeServiceOptions opts;
    opts.engine = engine;
    opts.key_bits = 256;
    opts.r_bits = 14;
    opts.participants = 3;
    opts.frac_bits = 16;
    opts.fp_compress_slot_bits = 40;
    opts.modeled = modeled;
    he = HeService::Create(opts, &clock, device).value();
  }
};

TEST(TransportTest, FixedPointRoundTrip) {
  Rig rig(false);
  std::vector<double> values{1.5, -2.25, 0.125};
  auto enc = rig.he->EncryptFixedPoint(values).value();
  ASSERT_TRUE(SendEncVec(&rig.network, *rig.he, "a", "b", "fp", enc).ok());
  auto back = RecvEncVec(&rig.network, "b", "fp").value();
  EXPECT_EQ(back.layout, EncLayout::kFixedPoint);
  EXPECT_EQ(back.scale_muls, 0);
  auto dec = rig.he->DecryptFixedPoint(back).value();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], 1e-3);
  }
}

TEST(TransportTest, CompressedFixedPointSurvivesTheWire) {
  Rig rig(false);
  std::vector<double> values{1.5, -2.25, 0.125, 3.5, -0.5, 2.0};
  auto enc = rig.he->EncryptFixedPoint(values).value();
  auto packed = rig.he->CompressForTransmission(enc).value();
  ASSERT_LT(packed.num_ciphertexts(), enc.num_ciphertexts());
  ASSERT_TRUE(
      SendEncVec(&rig.network, *rig.he, "a", "b", "packed", packed).ok());
  auto back = RecvEncVec(&rig.network, "b", "packed").value();
  EXPECT_EQ(back.slots_per_cipher, packed.slots_per_cipher);
  EXPECT_EQ(back.fp_slot_bits, packed.fp_slot_bits);
  auto dec = rig.he->DecryptFixedPoint(back).value();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(dec[i], values[i], 1e-3);
  }
}

TEST(TransportTest, ModeledModeChargesRealWireSize) {
  // The same logical vector must cost the same bytes on the wire whether
  // execution is real or modeled — the communication accounting is mode-
  // independent by construction.
  std::vector<double> values(64, 0.25);
  uint64_t bytes[2];
  int i = 0;
  for (bool modeled : {false, true}) {
    Rig rig(modeled);
    auto enc = rig.he->EncryptValues(values).value();
    ASSERT_TRUE(SendEncVec(&rig.network, *rig.he, "a", "b", "v", enc).ok());
    bytes[i++] = rig.network.stats().bytes;
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(TransportTest, ObjectOverheadScalesWithCiphertextCount) {
  // A non-BC engine ships one object per value; BC ships ~1/15th. The
  // network charges per object, so the BC transfer is much faster.
  std::vector<double> values(60, 0.25);
  double secs[2];
  int i = 0;
  for (EngineKind engine :
       {EngineKind::kFlBoosterNoBc, EngineKind::kFlBooster}) {
    Rig rig(false, engine);
    auto enc = rig.he->EncryptValues(values).value();
    const double before = rig.clock.CommSeconds();
    ASSERT_TRUE(SendEncVec(&rig.network, *rig.he, "a", "b", "v", enc).ok());
    secs[i++] = rig.clock.CommSeconds() - before;
  }
  EXPECT_GT(secs[0], 5 * secs[1]);
}

TEST(TransportTest, DoublesRoundTrip) {
  Rig rig(false);
  std::vector<double> values{1.0, -2.0, 3.5};
  ASSERT_TRUE(SendDoubles(&rig.network, "a", "b", "d", values).ok());
  EXPECT_EQ(RecvDoubles(&rig.network, "b", "d").value(), values);
  EXPECT_TRUE(RecvDoubles(&rig.network, "b", "d").status().IsNotFound());
}

TEST(TransportTest, CorruptPayloadRejected) {
  Rig rig(false);
  ASSERT_TRUE(rig.network.Send("a", "b", "junk", {1, 2, 3}).ok());
  EXPECT_FALSE(RecvEncVec(&rig.network, "b", "junk").ok());
}

TEST(TransportTest, ShapeLiesAreInvalidArgument) {
  // count, slots_per_cipher, fp_slot_bits, scale_muls and contributors
  // arrive off the wire; each op checks them before using them.
  const std::vector<double> values{1.5, -2.25, 0.125};
  for (bool modeled : {false, true}) {
    SCOPED_TRACE(modeled ? "modeled" : "real");
    Rig rig(modeled);
    const EncVec enc = rig.he->EncryptFixedPoint(values).value();

    EncVec no_slots = enc;  // would divide by zero while decoding
    no_slots.slots_per_cipher = 0;
    no_slots.fp_slot_bits = 32;
    EXPECT_TRUE(
        rig.he->DecryptFixedPoint(no_slots).status().IsInvalidArgument());

    EncVec overcount = enc;  // would read past the decrypted plaintexts
    overcount.count = enc.count + 5;
    EXPECT_TRUE(
        rig.he->DecryptFixedPoint(overcount).status().IsInvalidArgument());

    EncVec wide = enc;  // would shift a 64-bit offset by 199 bits
    wide.fp_slot_bits = 200;
    EXPECT_TRUE(rig.he->DecryptFixedPoint(wide).status().IsInvalidArgument());

    EncVec extra = enc;  // would read past the scalars
    extra.data.push_back(enc.data[0]);
    EXPECT_TRUE(rig.he->ScalarMulFixedPoint(extra, values)
                    .status()
                    .IsInvalidArgument());

    // scale_muls and contributors cross the wire as u32s. Decoding scales by
    // 2^(frac_bits * (1 + scale_muls)) and sums `contributors` slots, and
    // ScalarMulFixedPoint and AddCipher add to them: each would overflow.
    auto relay = [&](const EncVec& v) {
      EXPECT_TRUE(SendEncVec(&rig.network, *rig.he, "a", "b", "lie", v).ok());
      return RecvEncVec(&rig.network, "b", "lie").value();
    };
    for (uint32_t scale_muls : {0x7FFFFFFFu, 0xFFFFFFFFu}) {
      SCOPED_TRACE(scale_muls);
      EncVec lie = enc;
      lie.scale_muls = static_cast<int>(scale_muls);
      const EncVec got = relay(lie);
      EXPECT_TRUE(rig.he->DecryptFixedPoint(got).status().IsInvalidArgument());
      EXPECT_TRUE(rig.he->ScalarMulFixedPoint(got, values)
                      .status()
                      .IsInvalidArgument());
    }
    const EncVec summed = rig.he->EncryptValues(values).value();
    for (uint32_t contributors : {0u, 0x7FFFFFFFu}) {
      SCOPED_TRACE(contributors);
      EncVec lie = summed;
      lie.contributors = static_cast<int>(contributors);
      const EncVec got = relay(lie);
      EXPECT_TRUE(rig.he->DecryptValues(got).status().IsInvalidArgument());
      EXPECT_TRUE(
          rig.he->AddCipher(got, summed).status().IsInvalidArgument());
    }
  }

  Rig rig(false);
  // A 40-byte header claiming 0xFFFFFFF0 ciphertexts of 16 words each.
  net::Serializer s;
  s.PutU32(static_cast<uint32_t>(EncLayout::kFixedPoint));
  s.PutU64(3);
  for (uint32_t field : {1u, 1u, 0u, 0u, 0u, 16u, 0xFFFFFFF0u}) {
    s.PutU32(field);
  }
  ASSERT_EQ(s.size(), 40u);
  ASSERT_TRUE(rig.network.Send("a", "b", "lie", s.TakeBytes()).ok());
  EXPECT_TRUE(RecvEncVec(&rig.network, "b", "lie").status().IsInvalidArgument());
}

}  // namespace
}  // namespace flb::core

// Tests for the training checkpoint format.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fl/model_io.h"

namespace flb::fl {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// The checkpoint's full bytes (magic, version, FNV-1a checksum of the
// payload, then the payload), its round trip and its corruption errors.
TEST(ModelIoTest, EnvelopeBytesAreStable) {
  const std::vector<uint8_t> ckpt = SerializeCheckpoint(2, {0.5, -1.0});
  EXPECT_EQ(Hex(ckpt), "43424c46" "01000000" "52de3c59692704ce"
                       "03000000" "02000000" "000000000000e03f"
                       "000000000000f0bf");
  EXPECT_EQ(Hex(SerializeCheckpoint(-1, {})),
            "43424c46" "01000000" "e3518eaf7e0dfe47" "00000000" "00000000");

  const TrainCheckpoint back = DeserializeCheckpoint(ckpt).value();
  EXPECT_EQ(back.epoch, 2);
  EXPECT_EQ(back.weights, (std::vector<double>{0.5, -1.0}));

  auto bad = ckpt;
  bad[0] ^= 0xFF;
  Status s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "checkpoint: bad magic");
  bad = ckpt;
  bad[4] = 2;
  s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsNotSupported());
  EXPECT_EQ(s.message(), "checkpoint: unsupported version");
  bad = ckpt;
  bad.back() ^= 0x01;
  s = DeserializeCheckpoint(bad).status();
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.message(), "checkpoint: checksum mismatch (corrupt file)");
  bad = ckpt;
  bad.resize(bad.size() - 4);
  EXPECT_FALSE(DeserializeCheckpoint(bad).ok());
}

}  // namespace
}  // namespace flb::fl

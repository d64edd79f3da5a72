#include "bench/batchcrypt_codec.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace flb::codec {

using mpint::BigInt;

BatchCryptCodec::BatchCryptCodec(const BatchCryptConfig& config, int slots)
    : config_(config),
      slots_(slots),
      q_max_((uint64_t{1} << (config.value_bits - 1)) - 1) {}

Result<BatchCryptCodec> BatchCryptCodec::Create(
    const BatchCryptConfig& config) {
  if (!(config.alpha > 0.0) || !std::isfinite(config.alpha)) {
    return Status::InvalidArgument("BatchCryptCodec: bad alpha");
  }
  if (config.value_bits < 3 || config.value_bits > 52) {
    return Status::InvalidArgument(
        "BatchCryptCodec: value_bits must be in [3, 52]");
  }
  if (config.headroom_bits < 0 || config.headroom_bits > 8) {
    return Status::InvalidArgument(
        "BatchCryptCodec: headroom_bits must be in [0, 8]");
  }
  const int slot = config.value_bits + config.headroom_bits;
  if (slot > 62) {
    return Status::InvalidArgument("BatchCryptCodec: slot exceeds 62 bits");
  }
  // The two's-complement accumulation needs a few guard bits at the top of
  // the plaintext so p representations sum below n.
  const int slots = (config.key_bits - 9) / slot;
  if (slots < 1) {
    return Status::InvalidArgument(
        "BatchCryptCodec: slot width exceeds the plaintext space");
  }
  return BatchCryptCodec(config, slots);
}

Result<std::vector<BigInt>> BatchCryptCodec::Pack(
    const std::vector<double>& values) const {
  const int sb = slot_bits();
  const int width = slots_ * sb;  // two's-complement word width W
  std::vector<BigInt> out;
  out.reserve((values.size() + slots_ - 1) / slots_);

  BigInt acc;
  int filled = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    double m = values[i];
    if (!std::isfinite(m)) {
      return Status::InvalidArgument("BatchCryptCodec::Pack: non-finite");
    }
    m = std::clamp(m, -config_.alpha, config_.alpha);
    const int64_t q = std::llround(m / config_.alpha *
                                   static_cast<double>(q_max_));
    // Signed digit at slot `filled`, two's complement over the full W bits:
    // negative digits subtract (borrowing across slots), so big-integer
    // addition of packed words adds the signed values exactly.
    const int shift = filled * sb;
    if (q >= 0) {
      acc = BigInt::Add(acc, BigInt::ShiftLeft(BigInt(q), shift));
    } else {
      const BigInt mag = BigInt::ShiftLeft(BigInt(-q), shift);
      // acc - mag mod 2^W.
      BigInt wrap = BigInt::PowerOfTwo(width);
      acc = BigInt::Sub(BigInt::Add(acc, wrap), mag);
    }
    acc = BigInt::TruncateBits(acc, width);
    if (++filled == slots_ || i + 1 == values.size()) {
      out.push_back(std::move(acc));
      acc = BigInt();
      filled = 0;
    }
  }
  return out;
}

Result<std::vector<double>> BatchCryptCodec::Unpack(
    const std::vector<BigInt>& packed, size_t count, int contributors) const {
  if (count > packed.size() * static_cast<size_t>(slots_)) {
    return Status::InvalidArgument("BatchCryptCodec::Unpack: too few packed");
  }
  if (contributors < 1) {
    return Status::InvalidArgument("BatchCryptCodec::Unpack: contributors");
  }
  const int sb = slot_bits();
  const int width = slots_ * sb;
  const uint64_t slot_mask = (uint64_t{1} << sb) - 1;
  const uint64_t half = uint64_t{1} << (sb - 1);

  std::vector<double> out;
  out.reserve(count);
  for (size_t block = 0; block < packed.size(); ++block) {
    // Signed-digit decomposition from the least significant slot upward:
    // subtract each recovered digit and shift. Exact while every true slot
    // sum fits in sb-1 magnitude bits; a slot overflow propagates garbage
    // upward with no error indication (the studied defect).
    BigInt n = BigInt::TruncateBits(packed[block], width);
    const size_t in_block =
        std::min<size_t>(slots_, count - block * slots_);
    for (size_t j = 0; j < in_block; ++j) {
      const uint64_t u = n.LowU64() & slot_mask;
      int64_t digit;
      if (u < half) {
        digit = static_cast<int64_t>(u);
        n = BigInt::Sub(n, BigInt(u));
      } else {
        digit = static_cast<int64_t>(u) - (int64_t{1} << sb);
        n = BigInt::Add(n, BigInt(static_cast<uint64_t>(-digit)));
      }
      n = BigInt::ShiftRight(n, sb);
      out.push_back(static_cast<double>(digit) /
                    static_cast<double>(q_max_) * config_.alpha);
    }
  }
  return out;
}

}  // namespace flb::codec

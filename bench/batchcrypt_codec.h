// BatchCrypt-style batch encoding (Zhang et al., ATC'20 — the paper's
// [70], discussed in §II). It lives beside bench_paper, whose §II section
// and `sec2.overflow` claim are its one use.
//
// BatchCrypt also packs quantized gradients into one plaintext, but
// reserves a small FIXED headroom (two bits' worth of same-sign
// accumulation) per slot regardless of how many participants aggregate,
// relying on zero-centered gradients mostly cancelling. The paper's
// critique (§II): it "suffers from the overflow problem in some cases
// [64]" — when contributions share a sign (correlated data, bias
// gradients), slot sums exceed the fixed allowance and carry into the
// neighbouring slot, silently corrupting decoded values.
//
// FLBooster's Quantizer instead reserves b = ceil(log2 p) bits for p
// participants (Eq. 8), making same-sign accumulation overflow-free by
// construction. The slot encodings differ too: the Quantizer's slots are
// offset-binary (Eq. 6-7), while this codec writes signed two's-complement
// digits that borrow across slots. A zero-centered aggregate therefore
// stays small here at any p; an offset-binary slot gains p*alpha per
// aggregate and would overflow a 2-bit headroom on benign data too.

#ifndef FLB_BENCH_BATCHCRYPT_CODEC_H_
#define FLB_BENCH_BATCHCRYPT_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/mpint/bigint.h"

namespace flb::codec {

struct BatchCryptConfig {
  double alpha = 1.0;     // gradient bound: inputs clamp to [-alpha, alpha]
  int value_bits = 14;    // quantization precision per slot
  int headroom_bits = 2;  // BatchCrypt's fixed allowance (not log2(p)!)
  int key_bits = 1024;
};

class BatchCryptCodec {
 public:
  static Result<BatchCryptCodec> Create(const BatchCryptConfig& config);

  int slot_bits() const { return config_.value_bits + config_.headroom_bits; }
  int slots_per_plaintext() const { return slots_; }
  const BatchCryptConfig& config() const { return config_; }

  // Quantizes each value to a signed digit in [-q_max, q_max] and packs
  // the digits in two's complement over the slots' full width: a negative
  // digit borrows from the slot above, so integer addition of packed words
  // adds the signed values.
  Result<std::vector<mpint::BigInt>> Pack(
      const std::vector<double>& values) const;
  // Unpacks an aggregate of `contributors` packed plaintexts added
  // slot-wise. NOTE: unlike FLBooster's Quantizer, overflow beyond the
  // fixed headroom is undetectable — decoded values are then silently
  // wrong (the failure mode under study).
  Result<std::vector<double>> Unpack(const std::vector<mpint::BigInt>& packed,
                                     size_t count, int contributors) const;

  // True iff aggregating `contributors` worst-case (same-sign, full-scale)
  // values is guaranteed overflow-free. For BatchCrypt this caps at
  // 2^headroom_bits, independent of the actual participant count.
  bool GuaranteesNoOverflow(int contributors) const {
    return contributors <= (1 << config_.headroom_bits);
  }

 private:
  BatchCryptCodec(const BatchCryptConfig& config, int slots);

  BatchCryptConfig config_;
  int slots_;
  uint64_t q_max_;  // 2^(value_bits - 1) - 1, the largest digit magnitude
};

}  // namespace flb::codec

#endif  // FLB_BENCH_BATCHCRYPT_CODEC_H_

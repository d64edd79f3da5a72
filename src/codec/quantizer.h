// Encoding-Quantization (paper §IV-B).
//
// Paillier only encrypts unsigned integers, so signed float gradients are
// mapped to fixed-point before encryption:
//
//   e = m + alpha                      (Eq. 6: shift [-a, a] to [0, 2a])
//   q = round(e / (2a) * (2^r - 1))    (Eq. 7: amplify to r bits)
//   z = [b zero bits][q]               (Eq. 8: headroom for aggregation)
//
// with b = ceil(log2 p) for p participants, so p slot-wise additions can
// never overflow the b+r-bit slot. (Eq. 7 in the paper omits the 1/(2a)
// normalization because it assumes 2a <= 1; the normalized form here is
// equivalent under that assumption and also correct for larger bounds.)
//
// Crucially — and unlike the (significand, plaintext-exponent) encodings the
// paper criticizes — the whole value is encrypted; nothing about the
// gradient's scale leaks.
//
// Decoding an aggregate of k participants inverts the affine map:
//   m_sum = z * 2a / (2^r - 1) - k*a
// (each contributor added one +alpha shift, so k shifts are subtracted).

#ifndef FLB_CODEC_QUANTIZER_H_
#define FLB_CODEC_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace flb::codec {

struct QuantizerConfig {
  // Gradient bound: inputs must lie in [-alpha, alpha]. Typically < 1 after
  // gradient clipping (paper: "usually smaller than 1").
  double alpha = 1.0;
  // Quantization bits r. The paper uses r + b = 32 with 2 overflow bits.
  int r_bits = 30;
  // Number of participants p; determines b = ceil(log2 p) overflow bits.
  int participants = 4;
  // When true, out-of-bound inputs are clamped to [-alpha, alpha] (standard
  // gradient clipping); when false they are an error.
  bool clamp = true;
};

class Quantizer {
 public:
  // Validates the config: r in [2, 52] (the double mantissa bounds useful
  // precision and slots must fit in 64 bits), alpha > 0, participants >= 1.
  static Result<Quantizer> Create(const QuantizerConfig& config);

  int r_bits() const { return config_.r_bits; }
  // Slot width r + b in bits, where b = ceil(log2 p) is the headroom
  // reserved above the value.
  int slot_bits() const { return config_.r_bits + overflow_bits_; }
  double alpha() const { return config_.alpha; }
  int participants() const { return config_.participants; }

  // Worst-case absolute error of one encode/decode round trip:
  // half a quantization step, 2a / (2^r - 1) / 2.
  double MaxAbsoluteError() const;

  // m in [-alpha, alpha] -> q in [0, 2^r - 1].
  Result<uint64_t> Encode(double m) const;
  // Decodes a slot that accumulated `num_contributors` encoded values,
  // returning their plaintext sum (with 1, the inverse of Encode).
  // num_contributors must be in [1, participants] — beyond that the slot
  // may have overflowed.
  Result<double> DecodeAggregate(uint64_t slot, int num_contributors) const;

  // Batched forms.
  Result<std::vector<uint64_t>> EncodeBatch(
      const std::vector<double>& ms) const;
  Result<std::vector<double>> DecodeAggregateBatch(
      const std::vector<uint64_t>& slots, int num_contributors) const;

 private:
  explicit Quantizer(const QuantizerConfig& config);

  QuantizerConfig config_;
  int overflow_bits_ = 0;
  uint64_t q_max_ = 0;  // 2^r - 1
};

}  // namespace flb::codec

#endif  // FLB_CODEC_QUANTIZER_H_

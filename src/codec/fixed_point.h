// Signed fixed-point encoding over Z_n for per-value homomorphic math.
//
// The packed Quantizer (quantizer.h) is the transport encoding: compact,
// unsigned, slot-aligned. Hetero protocols additionally need per-value
// ciphertexts they can scalar-multiply by signed weights (e.g. the
// SecureBoost histogram or the Hetero-NN interactive layer). For those legs
// FLBooster encodes
//
//   Enc(v)  = round(v * 2^f) mod n      (negatives wrap to n - |.|)
//
// and tracks the accumulated scale 2^(f * (1+muls)) explicitly. Unlike the
// (significand, plaintext-exponent) encoding the paper criticizes (§IV-B),
// the scale here is a *public protocol constant* (f is fixed), so nothing
// value-dependent leaks.
//
// Decoding interprets residues above n/2 as negative. Values must satisfy
// |v| * 2^f * ... << n/2, which the callers guarantee by construction
// (gradients are clipped, key sizes are >= 1024 bits in deployment).

#ifndef FLB_CODEC_FIXED_POINT_H_
#define FLB_CODEC_FIXED_POINT_H_

#include "src/common/result.h"
#include "src/mpint/bigint.h"

namespace flb::codec {

using mpint::BigInt;

class FixedPointCodec {
 public:
  // frac_bits f in [8, 60]; modulus n is the Paillier plaintext modulus.
  static Result<FixedPointCodec> Create(const BigInt& modulus, int frac_bits);

  int frac_bits() const { return frac_bits_; }

  // v -> round(v * 2^f) mod n. Error if the scaled magnitude reaches n/2
  // (sign would become ambiguous).
  Result<BigInt> Encode(double v) const;
  // Inverse; `scale_muls` is how many fixed-point multiplications the value
  // has accumulated (each multiplies the scale by 2^f). InvalidArgument when
  // scale_muls < 0 or f * (1 + scale_muls) reaches the modulus' bit length.
  Result<double> Decode(const BigInt& x, int scale_muls = 0) const;

  // Signed scalar as a Paillier exponent: w -> round(w * 2^f) mod n, so
  // ScalarMul(E(m), EncodeScalar(w)) == E(m * w_fixed mod n).
  Result<BigInt> EncodeScalar(double w) const;

  // Threshold n/2 used for sign interpretation.
  const BigInt& half_modulus() const { return half_n_; }

 private:
  FixedPointCodec(BigInt n, int frac_bits);

  BigInt n_;
  BigInt half_n_;
  int frac_bits_;
  double scale_;  // 2^f
};

}  // namespace flb::codec

#endif  // FLB_CODEC_FIXED_POINT_H_

#include "src/codec/fixed_point.h"

#include <cmath>
#include <cstdint>

namespace flb::codec {

FixedPointCodec::FixedPointCodec(BigInt n, int frac_bits)
    : n_(std::move(n)),
      half_n_(mpint::BigInt::ShiftRight(n_, 1)),
      frac_bits_(frac_bits),
      scale_(std::ldexp(1.0, frac_bits)) {}

Result<FixedPointCodec> FixedPointCodec::Create(const BigInt& modulus,
                                                int frac_bits) {
  if (frac_bits < 8 || frac_bits > 60) {
    return Status::InvalidArgument("FixedPointCodec: frac_bits not in [8,60]");
  }
  if (modulus.BitLength() < 3 * frac_bits) {
    // One multiplication doubles the scale; require room for at least one.
    return Status::InvalidArgument(
        "FixedPointCodec: modulus too small for the fractional precision");
  }
  return FixedPointCodec(modulus, frac_bits);
}

Result<BigInt> FixedPointCodec::Encode(double v) const {
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("FixedPointCodec::Encode: non-finite");
  }
  const double scaled = v * scale_;
  const double magnitude = std::fabs(scaled);
  // Scaled magnitudes must fit llround's range (and, far more restrictively
  // in practice, stay well under n/2). Clipped gradients never get near
  // this bound.
  if (magnitude >= std::ldexp(1.0, 62)) {
    return Status::OutOfRange("FixedPointCodec::Encode: |v|*2^f too large");
  }
  const uint64_t mag = static_cast<uint64_t>(std::llround(magnitude));
  BigInt x(mag);
  if (x >= half_n_) {
    return Status::OutOfRange("FixedPointCodec::Encode: value reaches n/2");
  }
  if (scaled < 0 && mag != 0) x = BigInt::Sub(n_, x);
  return x;
}

Result<double> FixedPointCodec::Decode(const BigInt& x, int scale_muls) const {
  if (x >= n_) {
    return Status::OutOfRange("FixedPointCodec::Decode: residue >= n");
  }
  // The scale 2^(f * (1 + scale_muls)) must fit below the modulus.
  if (scale_muls < 0 ||
      int64_t{frac_bits_} * (1 + int64_t{scale_muls}) >= n_.BitLength()) {
    return Status::InvalidArgument(
        "FixedPointCodec::Decode: scale_muls outside the modulus");
  }
  const double total_scale = std::ldexp(1.0, frac_bits_ * (1 + scale_muls));
  if (x > half_n_) {
    // Negative: -(n - x) / scale.
    const BigInt mag = BigInt::Sub(n_, x);
    if (mag.BitLength() > 63) {
      return Status::OutOfRange("FixedPointCodec::Decode: magnitude overflow");
    }
    return -static_cast<double>(mag.LowU64()) / total_scale;
  }
  if (x.BitLength() > 63) {
    // Large positive magnitudes lose integer precision; approximate via the
    // top bits. Gradients never get here in practice.
    double v = 0.0;
    for (size_t i = x.WordCount(); i-- > 0;) {
      v = v * 4294967296.0 + x.word(i);
    }
    return v / total_scale;
  }
  return static_cast<double>(x.LowU64()) / total_scale;
}

Result<BigInt> FixedPointCodec::EncodeScalar(double w) const {
  return Encode(w);
}

}  // namespace flb::codec

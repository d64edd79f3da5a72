#include "src/ghe/he_cost.h"

#include <algorithm>

#include "src/crypto/montgomery.h"

namespace flb::ghe {

uint64_t MontMulLimbOps(size_t s) {
  // CIOS: per outer word, s mul-adds (multiply step) + s mul-adds (reduce
  // step) + ~6 bookkeeping ops; plus the conditional subtraction.
  return static_cast<uint64_t>(s) * (2 * s + 6) + s;
}

uint64_t EstimateModPowMontMuls(int exp_bits) {
  if (exp_bits <= 0) return 1;
  const int w = crypto::ChooseWindowBits(exp_bits);
  const uint64_t squarings = exp_bits;
  const uint64_t window_muls = exp_bits / (w + 1) + 1;
  const uint64_t table = (uint64_t{1} << (w - 1)) + 1;
  const uint64_t conversions = 2;  // ToMont / FromMont
  return squarings + window_muls + table + conversions;
}

HeOpCost HeCost(HeOp op, int key_bits, int64_t count, int width_bits) {
  const size_t s2 = (static_cast<size_t>(key_bits) * 2 + 31) / 32;
  const size_t cipher = s2 * 4;  // bytes of one ciphertext mod n^2
  const size_t plain = s2 / 2 * 4;
  const auto n = static_cast<size_t>(std::max<int64_t>(count, 0));
  HeOpCost cost;
  cost.limbs = s2;
  cost.bytes_out = n * cipher;
  switch (op) {
    case HeOp::kEncrypt:
      // r^n mod n^2 dominates: an n-bit exponent over 2k-bit operands, plus
      // the (n+1)^m fast-path multiply.
      cost.limb_ops =
          (EstimateModPowMontMuls(key_bits) + 3) * MontMulLimbOps(s2);
      cost.bytes_in = n * plain;
      break;
    case HeOp::kDecrypt:
      cost.limb_ops =
          2 * EstimateModPowMontMuls(key_bits / 2) * MontMulLimbOps(s2 / 2);
      cost.bytes_in = n * cipher;
      cost.bytes_out = n * plain;
      break;
    case HeOp::kAdd:
      cost.limb_ops = 3 * MontMulLimbOps(s2);
      cost.bytes_in = 2 * n * cipher;
      break;
    case HeOp::kAddPlain:
      // g = n+1: one multiply + one ModMul.
      cost.limb_ops = 4 * MontMulLimbOps(s2);
      cost.bytes_in = n * (cipher + plain);
      break;
    case HeOp::kScalarMul:
      cost.limb_ops = EstimateModPowMontMuls(width_bits) * MontMulLimbOps(s2);
      cost.bytes_in = 2 * n * cipher;
      break;
    case HeOp::kPack: {
      // Horner on the device and the host alike: per source ciphertext, sb
      // squarings plus one multiply and one offset add, not a full
      // slots*sb-bit exponentiation.
      const auto slots =
          static_cast<size_t>(CipherPackSlots(key_bits, width_bits));
      cost.limb_ops =
          (static_cast<uint64_t>(width_bits) + 6) * MontMulLimbOps(s2);
      cost.bytes_in = 2 * n * cipher;
      cost.bytes_out = (n + slots - 1) / slots * cipher;
      break;
    }
  }
  return cost;
}

int FixedPointScalarBits(int frac_bits) { return frac_bits + 10; }

int CipherPackSlots(int key_bits, int slot_bits) {
  return slot_bits > 0 ? std::max(1, (key_bits - 2) / slot_bits) : 1;
}

}  // namespace flb::ghe

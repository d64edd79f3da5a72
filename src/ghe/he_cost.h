// The HE cost table: what a batch of Paillier ops costs, in the units the
// paper's Eq. 10 prices (limb operations per element, and the bytes a batch
// stages to and from the device).
//
// It is the one place that decides the price of an HE op. HeService charges
// every op from it (modeled, CPU and GPU engines alike), GheEngine's ModelOp
// reads it, and so does bench_paper's Eq. 10 model. Every row depends only
// on the key size and a declared width, never on the plaintext data: a
// price that read the scalars would leak them into the simulated clock.

#ifndef FLB_GHE_HE_COST_H_
#define FLB_GHE_HE_COST_H_

#include <cstddef>
#include <cstdint>

namespace flb::ghe {

// Limb multiply-accumulates for one s-limb CIOS Montgomery multiplication.
uint64_t MontMulLimbOps(size_t s);
// Montgomery multiplications in one sliding-window exponentiation with an
// exp_bits-bit exponent (squarings + window multiplies + table build).
uint64_t EstimateModPowMontMuls(int exp_bits);

enum class HeOp : int {
  kEncrypt = 0,    // (1 + m n) r^n mod n^2
  kDecrypt = 1,    // CRT: two half-width exponentiations
  kAdd = 2,        // E(a) E(b) mod n^2
  kAddPlain = 3,   // E(a) (1 + k n) mod n^2
  kScalarMul = 4,  // E(a)^k mod n^2; width = declared exponent bits
  kPack = 5,       // cipher-space packing, per source ciphertext;
                   // width = slot bits
};

struct HeOpCost {
  size_t limbs = 0;       // launch limb width: words of a ciphertext mod n^2
  uint64_t limb_ops = 0;  // limb operations per element
  size_t bytes_in = 0;    // staged to the device, whole batch
  size_t bytes_out = 0;   // returned from the device, whole batch
};

// A batch of `count` ops at `key_bits`. `width_bits` is the declared width
// kScalarMul and kPack take; the other ops ignore it. A pack returns one
// ciphertext per CipherPackSlots sources.
HeOpCost HeCost(HeOp op, int key_bits, int64_t count, int width_bits = 0);

// Declared exponent width of a fixed-point scalar multiplication. Weights
// are O(1) after clipping, so |round(w * 2^f)| has about frac_bits + 10
// bits; a negative scalar costs the same through the ciphertext-inverse
// path (crypto::PaillierContext::ScalarMul).
int FixedPointScalarBits(int frac_bits);

// Source ciphertexts one cipher-space pack folds into each result.
int CipherPackSlots(int key_bits, int slot_bits);

}  // namespace flb::ghe

#endif  // FLB_GHE_HE_COST_H_

// BigInt: unsigned arbitrary-precision integers on 32-bit limbs.
//
// This is the paper's "multi-precision integer representation" (§IV-A1): an
// integer is a little-endian vector of radix-2^32 words ("limbs"), and every
// arithmetic operation is defined word-wise so that the GPU-HE layer can
// split the words across simulated device threads. The CPU implementation
// here is the reference semantics; src/ghe re-expresses the hot kernels
// (Montgomery multiplication, modular exponentiation) in the simulated
// device's thread-per-limb form and is tested for bit-exact agreement.
//
// Representation invariant: no trailing zero limbs; the value 0 is the empty
// vector. All operations preserve this (see Normalize()).
//
// Signedness: BigInt is unsigned. Subtraction requires a >= b (checked);
// signed intermediates (the GCD core's signed words) stay inside the
// functions that need them. This matches the paper, which quantizes all
// gradients into unsigned integers before they ever reach the HE layer
// (§IV-B).

#ifndef FLB_MPINT_BIGINT_H_
#define FLB_MPINT_BIGINT_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace flb::mpint {

// Number of bits per limb. The paper discusses w=32 and w=64 systems; we fix
// w=32 so that double-wide intermediates fit in uint64_t on any platform.
inline constexpr int kLimbBits = 32;
inline constexpr uint64_t kLimbBase = 1ULL << kLimbBits;
inline constexpr uint32_t kLimbMask = 0xFFFFFFFFu;

class BigInt {
 public:
  // Zero.
  BigInt() = default;
  // From a machine word.
  explicit BigInt(uint64_t v);

  // From little-endian limbs (normalizes trailing zeros away).
  static BigInt FromWords(std::vector<uint32_t> words);
  // Parses "1a2B3c" or "0x1a2b3c". Empty or malformed input is an error.
  static Result<BigInt> FromHex(std::string_view hex);
  // Uniform over [0, 2^bits) — the top bit is NOT forced.
  static BigInt Random(Rng& rng, int bits);
  // Uniform over [0, bound), bound > 0.
  static BigInt RandomBelow(Rng& rng, const BigInt& bound);
  // 2^k.
  static BigInt PowerOfTwo(int k);

  // ---- Introspection -------------------------------------------------------
  bool IsZero() const { return limbs_.empty(); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool IsEven() const { return !IsOdd(); }
  // Number of significant bits; 0 for the value 0.
  int BitLength() const;
  // Number of significant limbs; 0 for the value 0.
  size_t WordCount() const { return limbs_.size(); }
  // Bit i (0 = least significant); out-of-range bits read as 0.
  bool GetBit(int i) const;
  // Little-endian limbs (no trailing zeros).
  const std::vector<uint32_t>& words() const { return limbs_; }
  // Limb i, 0 beyond the end — convenient for fixed-width kernel code.
  uint32_t word(size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }
  // Low 64 bits of the value (truncating).
  uint64_t LowU64() const;
  // Whole value as u64; error if it does not fit.
  Result<uint64_t> ToU64() const;

  // ---- Comparison ----------------------------------------------------------
  // -1 / 0 / +1.
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& other) const { return limbs_ == other.limbs_; }
  std::strong_ordering operator<=>(const BigInt& other) const {
    const int c = Compare(other);
    return c < 0    ? std::strong_ordering::less
           : c == 0 ? std::strong_ordering::equal
                    : std::strong_ordering::greater;
  }

  // ---- Arithmetic ----------------------------------------------------------
  static BigInt Add(const BigInt& a, const BigInt& b);
  // Requires a >= b (FLB_CHECK).
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  // Quotient and remainder; error if b == 0.
  static Result<std::pair<BigInt, BigInt>> DivMod(const BigInt& a,
                                                  const BigInt& b);
  static Result<BigInt> Div(const BigInt& a, const BigInt& b);
  static Result<BigInt> Mod(const BigInt& a, const BigInt& b);
  static BigInt ShiftLeft(const BigInt& a, int bits);
  static BigInt ShiftRight(const BigInt& a, int bits);
  // a mod 2^bits (keep low `bits` bits).
  static BigInt TruncateBits(const BigInt& a, int bits);

  // Gcd and ModInverse share one binary GCD core: Bernstein–Yang divsteps,
  // 62 per pass over 64-bit words, in variable time. Gcd strips the common
  // power of two first. Gcd(0, b) == b and Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  // Lcm(a,b) = a*b/gcd; Lcm with 0 is 0.
  static BigInt Lcm(const BigInt& a, const BigInt& b);
  // x < n such that a*x ≡ 1 (mod n), for any a (a >= n included):
  // InvalidArgument if n < 2, ArithmeticError if gcd(a, n) != 1. An odd n
  // runs the core on a mod n; an even n needs an odd a, whose inverse comes
  // from n's inverse modulo a.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& n);
  // *this = (*this + b) mod n, in place (b may alias *this). For reduced
  // residues (both < n) this is one limb add and at most one subtract of n,
  // with no allocation once the capacity holds n's width; an operand >= n
  // falls back to a full reduction, so the result always equals
  // Add(*this, b) % n. n must be nonzero (FLB_CHECK).
  void AddModInPlace(const BigInt& b, const BigInt& n);
  // *this += b, in place and without a modulus (b may alias *this). The add
  // runs over b's limbs and then only as far as the carry ripples, so a
  // short addend stays cheap however wide *this is; the result grows by a
  // limb when the carry leaves the top. Equal to Add(*this, b).
  void AddInPlace(const BigInt& b);
  // (a*b) mod n via full multiply + reduce. The fast path for repeated use
  // is crypto::MontgomeryContext.
  static Result<BigInt> ModMul(const BigInt& a, const BigInt& b,
                               const BigInt& n);
  // a^e mod n by square-and-multiply on top of ModMul. Reference
  // implementation; crypto::MontgomeryContext::ModPow is the fast path.
  static Result<BigInt> ModPow(const BigInt& a, const BigInt& e,
                               const BigInt& n);

  // Operator sugar (thin wrappers; division by zero aborts via FLB_CHECK —
  // use DivMod for recoverable handling).
  friend BigInt operator+(const BigInt& a, const BigInt& b) {
    return Add(a, b);
  }
  friend BigInt operator-(const BigInt& a, const BigInt& b) {
    return Sub(a, b);
  }
  friend BigInt operator*(const BigInt& a, const BigInt& b) {
    return Mul(a, b);
  }
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  friend BigInt operator<<(const BigInt& a, int bits) {
    return ShiftLeft(a, bits);
  }
  friend BigInt operator>>(const BigInt& a, int bits) {
    return ShiftRight(a, bits);
  }

  // ---- I/O -----------------------------------------------------------------
  // Lower-case hex without prefix ("0" for zero).
  std::string ToHex() const;

  // Little-endian limbs padded/truncated to exactly `n` words — the fixed
  // layout used by serialized ciphertexts and by the simulated GPU kernels.
  std::vector<uint32_t> ToFixedWords(size_t n) const;

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;
};

}  // namespace flb::mpint

#endif  // FLB_MPINT_BIGINT_H_

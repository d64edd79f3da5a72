// Damgård–Jurik generalized Paillier (the paper's cited [21]).
//
// For a degree s >= 1, plaintexts live in Z_{n^s} and ciphertexts in
// Z_{n^(s+1)}:
//
//   Enc(m) = (1+n)^m * r^(n^s) mod n^(s+1),   r uniform in Z*_n
//   Dec(c) = Log_{1+n}(c^d mod n^(s+1))
//
// where d is chosen by CRT with d ≡ 1 (mod n^s) and d ≡ 0 (mod lambda), so
// c^d = (1+n)^m exactly, and Log is the paper's iterative (1+n)-logarithm
// over Z_{n^s} (division by k! is exact because gcd(k!, n) = 1).
//
// s = 1 recovers Paillier. Why it matters to FLBooster: the plaintext
// space is s*k bits for a (s+1)*k-bit ciphertext, so batch compression
// packs s times more slots per ciphertext and the ciphertext expansion
// factor falls from 2x (Paillier) toward (s+1)/s — an extension the paper
// leaves on the table (see bench_paper's Damgård–Jurik section).

#ifndef FLB_CRYPTO_DAMGARD_JURIK_H_
#define FLB_CRYPTO_DAMGARD_JURIK_H_

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/paillier.h"
#include "src/mpint/bigint.h"

namespace flb::crypto {

class DamgardJurikContext {
 public:
  // Builds a degree-s context from Paillier key material (same n = p*q).
  // s in [1, 8]; key_bits * (s+1) is the ciphertext width.
  static Result<DamgardJurikContext> Create(const PaillierKeyPair& keys,
                                            int s);

  int degree() const { return s_; }
  const BigInt& n() const { return n_; }
  // Plaintext modulus n^s.
  const BigInt& plaintext_modulus() const { return n_pow_[s_ - 1]; }
  // Ciphertext modulus n^(s+1).
  const BigInt& ciphertext_modulus() const { return n_pow_[s_]; }
  // Serialized ciphertext width in 32-bit words.
  size_t CiphertextWords() const;

  // m must be < n^s.
  Result<BigInt> Encrypt(const BigInt& m, Rng& rng) const;
  Result<BigInt> Decrypt(const BigInt& c) const;
  // E(m1) * E(m2) = E(m1 + m2 mod n^s).
  Result<BigInt> Add(const BigInt& c1, const BigInt& c2) const;
  // E(m)^k = E(k*m mod n^s).
  Result<BigInt> ScalarMul(const BigInt& c, const BigInt& k) const;

 private:
  DamgardJurikContext() = default;

  // Log_{1+n}(a) for a ≡ 1 (mod n), a < n^(s+1): returns x with
  // (1+n)^x ≡ a (mod n^(s+1)), x < n^s.
  Result<BigInt> LogBase1PlusN(const BigInt& a) const;

  int s_ = 1;
  BigInt n_;
  std::vector<BigInt> n_pow_;  // n^1 .. n^(s+1)
  BigInt d_;                   // CRT decryption exponent
  std::shared_ptr<const MontgomeryContext> top_ctx_;  // mod n^(s+1)
};

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_DAMGARD_JURIK_H_

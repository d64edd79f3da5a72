// Per-key Paillier precomputation, hoisted out of the per-operation paths.
//
// PaillierEval owns everything that depends only on the key material:
//   * the n^2 / n Montgomery contexts (and p^2 / q^2 for CRT decryption),
//   * the CRT constants (p-1, q-1, hp, hq, p^{-1} mod q) and mu in the
//     n-context Montgomery domain,
//   * n/2 for the negative-scalar fast path,
//   * a fixed-base table g^(2^i) mod n^2 in Montgomery form for the general
//     (random-g) encryption path — g^m becomes ~|m| MontMuls instead of a
//     full sliding-window exponentiation with per-call table build.
//
// ObfuscationPool amortizes r^n mod n^2 — the dominant encryption cost: a
// seeded pool of obfuscators is filled once per key (one full powm each),
// and every draw refreshes its entry by one Montgomery squaring, which is
// again a valid obfuscator because (r^n)^2 = (r^2)^n and squares of units
// are units. Drawing is mutex-serialized, so the draw *order* is the call
// order — deterministic for single-threaded callers; parallel batch paths
// use per-call seeded obfuscators instead (see PaillierContext::EncryptBatch).

#ifndef FLB_CRYPTO_PAILLIER_EVAL_H_
#define FLB_CRYPTO_PAILLIER_EVAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/mpint/bigint.h"

namespace flb::crypto {

struct PaillierPublicKey;
struct PaillierPrivateKey;

class PaillierEval {
 public:
  // Public-key precompute. When `priv` is non-null and `crt` is set the CRT
  // decryption constants are also derived. `use_fixed_width` selects the
  // fixed-width Montgomery kernels (src/mpint/fixed_kernels.h) for every
  // per-key context whose limb width has an instantiation — the dispatch
  // happens exactly once here, at precompute time.
  static Result<std::shared_ptr<const PaillierEval>> Create(
      const PaillierPublicKey& pub, const PaillierPrivateKey* priv, bool crt,
      bool use_fixed_width = true);

  const MontgomeryContext& n2_ctx() const { return *n2_ctx_; }
  const MontgomeryContext& n_ctx() const { return *n_ctx_; }
  const MontgomeryContext& p2_ctx() const { return *p2_ctx_; }
  const MontgomeryContext& q2_ctx() const { return *q2_ctx_; }
  std::shared_ptr<const MontgomeryContext> n2_ctx_ptr() const {
    return n2_ctx_;
  }
  bool has_crt() const { return p2_ctx_ != nullptr; }

  const BigInt& half_n() const { return half_n_; }
  const BigInt& p_minus_1() const { return p_minus_1_; }
  const BigInt& q_minus_1() const { return q_minus_1_; }
  const BigInt& hp() const { return hp_; }
  const BigInt& hq() const { return hq_; }
  const BigInt& p_inv_mod_q() const { return p_inv_mod_q_; }
  // mu in the n-context Montgomery domain (valid iff created with a priv).
  const BigInt& mu_mont() const { return mu_mont_; }

  // g^m mod n^2 via the fixed-base table (random-g keys only; the g = n+1
  // fast path never calls this). Thread-safe, ~|m| MontMuls.
  BigInt FixedBaseGPow(const BigInt& m) const;

 private:
  PaillierEval() = default;

  std::shared_ptr<const MontgomeryContext> n2_ctx_;
  std::shared_ptr<const MontgomeryContext> n_ctx_;
  std::shared_ptr<const MontgomeryContext> p2_ctx_;
  std::shared_ptr<const MontgomeryContext> q2_ctx_;
  BigInt half_n_;
  BigInt p_minus_1_, q_minus_1_;
  BigInt hp_, hq_, p_inv_mod_q_;
  BigInt mu_mont_;
  // g^(2^i) mod n^2 in Montgomery form, i in [0, key_bits).
  std::vector<BigInt> g_pow2_mont_;
};

// Shared pool of precomputed obfuscators r^n mod n^2 (Montgomery domain).
class ObfuscationPool {
 public:
  // The pool is lazily filled on first draw (size full exponentiations);
  // `seed` makes the fill — and therefore every subsequent draw sequence —
  // deterministic.
  ObfuscationPool(std::shared_ptr<const MontgomeryContext> n2_ctx, BigInt n,
                  int size, uint64_t seed);

  // Next obfuscator in the normal domain. Draw k from slot k % size; the
  // slot is refreshed in place by one Montgomery squaring. Thread-safe;
  // the draw order equals the call order.
  BigInt Next();

  int size() const { return size_; }
  uint64_t draws() const { return draws_.load(std::memory_order_relaxed); }
  uint64_t refreshes() const {
    return refreshes_.load(std::memory_order_relaxed);
  }

 private:
  void FillLocked() FLB_REQUIRES(mu_);

  const std::shared_ptr<const MontgomeryContext> n2_ctx_;
  const BigInt n_;
  const int size_;
  const uint64_t seed_;

  common::Mutex mu_;
  bool filled_ FLB_GUARDED_BY(mu_) = false;
  uint64_t cursor_ FLB_GUARDED_BY(mu_) = 0;
  std::vector<BigInt> entries_ FLB_GUARDED_BY(mu_);  // Montgomery domain
  std::atomic<uint64_t> draws_{0};
  std::atomic<uint64_t> refreshes_{0};
};

// Draws r uniform in [1, n) with gcd(r, n) = 1 (shared by key generation,
// encryption, and the obfuscation pool fill).
BigInt DrawUnit(const BigInt& n, Rng& rng);

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_PAILLIER_EVAL_H_

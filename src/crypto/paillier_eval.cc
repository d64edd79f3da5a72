#include "src/crypto/paillier_eval.h"

#include <utility>

#include "src/crypto/paillier.h"
#include "src/mpint/limb_matrix.h"

namespace flb::crypto {

BigInt DrawUnit(const BigInt& n, Rng& rng) {
  for (;;) {
    BigInt r = BigInt::RandomBelow(rng, n);
    if (r.IsZero()) continue;
    if (BigInt::Gcd(r, n).IsOne()) return r;
  }
}

namespace {

// L(x) = (x - 1) / d, defined for x ≡ 1 (mod d).
Result<BigInt> LFunction(const BigInt& x, const BigInt& d) {
  if (x.IsZero()) {
    return Status::CryptoError("L function: x must be >= 1");
  }
  return BigInt::Div(BigInt::Sub(x, BigInt(1)), d);
}

}  // namespace

Result<std::shared_ptr<const PaillierEval>> PaillierEval::Create(
    const PaillierPublicKey& pub, const PaillierPrivateKey* priv, bool crt,
    bool use_fixed_width) {
  auto eval = std::shared_ptr<PaillierEval>(new PaillierEval());
  FLB_ASSIGN_OR_RETURN(auto n2,
                       MontgomeryContext::Create(pub.n_squared, use_fixed_width));
  FLB_ASSIGN_OR_RETURN(auto n_ctx,
                       MontgomeryContext::Create(pub.n, use_fixed_width));
  eval->n2_ctx_ = std::make_shared<MontgomeryContext>(std::move(n2));
  eval->n_ctx_ = std::make_shared<MontgomeryContext>(std::move(n_ctx));
  eval->half_n_ = BigInt::ShiftRight(pub.n, 1);

  if (!pub.g_is_n_plus_1) {
    // Fixed-base table for g^m: g^(2^i) in Montgomery form, one squaring
    // per doubling. Exponents are < n, so key_bits entries suffice.
    const int bits = pub.key_bits;
    eval->g_pow2_mont_.reserve(static_cast<size_t>(bits));
    BigInt cur = eval->n2_ctx_->ToMont(pub.g % pub.n_squared);
    for (int i = 0; i < bits; ++i) {
      eval->g_pow2_mont_.push_back(cur);
      cur = eval->n2_ctx_->MontMul(cur, cur);
    }
  }

  if (priv != nullptr) {
    eval->mu_mont_ = eval->n_ctx_->ToMont(priv->mu % pub.n);
    if (crt) {
      const BigInt p2 = BigInt::Mul(priv->p, priv->p);
      const BigInt q2 = BigInt::Mul(priv->q, priv->q);
      FLB_ASSIGN_OR_RETURN(auto p2_ctx,
                           MontgomeryContext::Create(p2, use_fixed_width));
      FLB_ASSIGN_OR_RETURN(auto q2_ctx,
                           MontgomeryContext::Create(q2, use_fixed_width));
      eval->p2_ctx_ = std::make_shared<MontgomeryContext>(std::move(p2_ctx));
      eval->q2_ctx_ = std::make_shared<MontgomeryContext>(std::move(q2_ctx));

      eval->p_minus_1_ = BigInt::Sub(priv->p, BigInt(1));
      eval->q_minus_1_ = BigInt::Sub(priv->q, BigInt(1));
      const BigInt gp = eval->p2_ctx_->ModPow(pub.g % p2, eval->p_minus_1_);
      const BigInt gq = eval->q2_ctx_->ModPow(pub.g % q2, eval->q_minus_1_);
      FLB_ASSIGN_OR_RETURN(BigInt lp, LFunction(gp, priv->p));
      FLB_ASSIGN_OR_RETURN(BigInt lq, LFunction(gq, priv->q));
      FLB_ASSIGN_OR_RETURN(eval->hp_, BigInt::ModInverse(lp, priv->p));
      FLB_ASSIGN_OR_RETURN(eval->hq_, BigInt::ModInverse(lq, priv->q));
      FLB_ASSIGN_OR_RETURN(eval->p_inv_mod_q_,
                           BigInt::ModInverse(priv->p, priv->q));
    }
  }
  return std::shared_ptr<const PaillierEval>(std::move(eval));
}

BigInt PaillierEval::FixedBaseGPow(const BigInt& m) const {
  BigInt acc = n2_ctx_->MontOne();
  const int bits = m.BitLength();
  const int table = static_cast<int>(g_pow2_mont_.size());
  for (int i = 0; i < bits && i < table; ++i) {
    if (m.GetBit(i)) acc = n2_ctx_->MontMul(acc, g_pow2_mont_[static_cast<size_t>(i)]);
  }
  return n2_ctx_->FromMont(acc);
}

ObfuscationPool::ObfuscationPool(
    std::shared_ptr<const MontgomeryContext> n2_ctx, BigInt n, int size,
    uint64_t seed)
    : n2_ctx_(std::move(n2_ctx)),
      n_(std::move(n)),
      size_(size > 0 ? size : 1),
      seed_(seed) {}

void ObfuscationPool::FillLocked() {
  // Draw every r first, in seed order, then raise them to n as one
  // same-exponent batch on this thread (lane groups where available).
  Rng rng(seed_);
  const auto size = static_cast<size_t>(size_);
  mpint::LimbMatrix rows(size, n2_ctx_->num_limbs());
  for (size_t i = 0; i < size; ++i) rows.SetRow(i, DrawUnit(n_, rng));
  n2_ctx_->ModPowRows(rows.row(0), size, n_);
  entries_.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    entries_.push_back(n2_ctx_->ToMont(rows.ToBigInt(i)));
  }
  filled_ = true;
}

BigInt ObfuscationPool::Next() {
  common::MutexLock lock(mu_);
  if (!filled_) FillLocked();
  BigInt& slot = entries_[static_cast<size_t>(cursor_ % size_)];
  ++cursor_;
  BigInt out = n2_ctx_->FromMont(slot);
  // (r^n)^2 = (r^2)^n: one MontMul refresh yields a fresh obfuscator.
  slot = n2_ctx_->MontMul(slot, slot);
  draws_.fetch_add(1, std::memory_order_relaxed);
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

}  // namespace flb::crypto

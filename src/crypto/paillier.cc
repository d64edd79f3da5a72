#include "src/crypto/paillier.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/crypto/prime.h"
#include "src/mpint/limb_matrix.h"

namespace flb::crypto {

namespace {

// L(x) = (x - 1) / d, defined for x ≡ 1 (mod d).
Result<BigInt> LFunction(const BigInt& x, const BigInt& d) {
  if (x.IsZero()) {
    return Status::CryptoError("L function: x must be >= 1");
  }
  return BigInt::Div(BigInt::Sub(x, BigInt(1)), d);
}

// Montgomery's batch-inversion trick, in place on the rows of `x` (each a
// value < n^2, n2 being the n^2 context). Prefix products p_i = x_0*...*x_i
// need one MontMul each; one inverse of the last, then two MontMuls per row
// walking back, recover every x_i^{-1}. No row enters the Montgomery
// domain: MontMul leaves p_i = (x_0...x_i) R^{-i}, so the running inverse
// carries R^{+i} and the factors cancel at every step. Returns false, with
// `x` unchanged, when the product is not a unit.
bool BatchInvert(const MontgomeryContext& n2, const BigInt& n,
                 mpint::LimbMatrix& x) {
  const size_t rows = x.rows();
  if (rows == 0) return true;
  const size_t w = x.width();
  mpint::LimbMatrix p(rows, w);
  std::copy(x.row(0), x.row(0) + w, p.row(0));
  for (size_t i = 1; i < rows; ++i) {
    n2.MontMulWords(p.row(i - 1), x.row(i), p.row(i));
  }
  // The product's inverse mod n^2 from its inverse y mod n (a half-width
  // inverse, ~3x cheaper) by one Newton step: with p*y = 1 + t*n,
  // p*y*(2 - p*y) = 1 - t^2*n^2.
  const BigInt last = p.ToBigInt(rows - 1);
  auto y = BigInt::ModInverse(last, n);
  if (!y.ok()) return false;
  const BigInt& n_sq = n2.modulus();
  const BigInt two_minus_py =
      BigInt::Sub(BigInt::Add(n_sq, BigInt(2)), n2.ModMul(last, *y)) % n_sq;
  // acc = (x_0...x_i)^{-1} R^i on entry to step i.
  std::vector<uint32_t> acc = n2.ModMul(*y, two_minus_py).ToFixedWords(w);
  for (size_t i = rows - 1; i > 0; --i) {
    n2.MontMulWords(acc.data(), p.row(i - 1), p.row(i));  // x_i^{-1}
    n2.MontMulWords(acc.data(), x.row(i), acc.data());
  }
  std::copy(acc.begin(), acc.end(), p.row(0));
  x = std::move(p);
  return true;
}

}  // namespace

Result<PaillierKeyPair> PaillierKeyGen(int key_bits, Rng& rng,
                                       const PaillierOptions& options) {
  if (key_bits < 64 || key_bits % 2 != 0) {
    return Status::InvalidArgument(
        "Paillier key size must be even and >= 64 bits");
  }
  const int prime_bits = key_bits / 2;

  for (int attempt = 0; attempt < 64; ++attempt) {
    FLB_ASSIGN_OR_RETURN(BigInt p, GeneratePrime(prime_bits, rng));
    FLB_ASSIGN_OR_RETURN(BigInt q, GenerateDistinctPrime(prime_bits, p, rng));
    BigInt n = BigInt::Mul(p, q);
    if (n.BitLength() != key_bits) continue;  // product fell one bit short
    const BigInt p_minus_1 = BigInt::Sub(p, BigInt(1));
    const BigInt q_minus_1 = BigInt::Sub(q, BigInt(1));
    // gcd(n, phi) == 1 is guaranteed when p, q are distinct same-length
    // primes, but verify anyway (paper §III-B requires it).
    if (!BigInt::Gcd(n, BigInt::Mul(p_minus_1, q_minus_1)).IsOne()) continue;

    PaillierKeyPair keys;
    keys.pub.key_bits = key_bits;
    keys.pub.n = n;
    keys.pub.n_squared = BigInt::Mul(n, n);
    keys.pub.g_is_n_plus_1 = options.use_g_n_plus_1;
    keys.priv.p = std::move(p);
    keys.priv.q = std::move(q);
    keys.priv.lambda = BigInt::Lcm(p_minus_1, q_minus_1);

    FLB_ASSIGN_OR_RETURN(auto n2_ctx,
                         MontgomeryContext::Create(keys.pub.n_squared));
    if (options.use_g_n_plus_1) {
      keys.pub.g = BigInt::Add(n, BigInt(1));
    } else {
      // Random g in Z*_{n^2} with L(g^lambda) invertible mod n; retry g on
      // the rare failure.
      bool found = false;
      for (int g_attempt = 0; g_attempt < 32 && !found; ++g_attempt) {
        BigInt g = DrawUnit(keys.pub.n_squared, rng);
        const BigInt g_lambda = n2_ctx.ModPow(g, keys.priv.lambda);
        FLB_ASSIGN_OR_RETURN(BigInt l, LFunction(g_lambda, n));
        auto mu = BigInt::ModInverse(l, n);
        if (!mu.ok()) continue;
        keys.pub.g = std::move(g);
        keys.priv.mu = std::move(mu).value();
        found = true;
      }
      if (!found) continue;
    }
    if (options.use_g_n_plus_1) {
      // g = n+1: g^lambda = 1 + lambda*n (mod n^2), so L = lambda mod n and
      // mu = lambda^{-1} mod n.
      FLB_ASSIGN_OR_RETURN(BigInt lambda_mod_n,
                           BigInt::Mod(keys.priv.lambda, n));
      auto mu = BigInt::ModInverse(lambda_mod_n, n);
      if (!mu.ok()) continue;
      keys.priv.mu = std::move(mu).value();
    }
    return keys;
  }
  return Status::Internal("PaillierKeyGen: exceeded attempt budget");
}

Result<PaillierContext> PaillierContext::CreatePublic(
    PaillierPublicKey pub, const PaillierOptions& options) {
  if (pub.n.IsZero() || pub.n_squared != BigInt::Mul(pub.n, pub.n)) {
    return Status::InvalidArgument("inconsistent Paillier public key");
  }
  PaillierContext ctx;
  ctx.use_fixed_width_ = options.use_fixed_width_kernels;
  FLB_ASSIGN_OR_RETURN(ctx.eval_,
                       PaillierEval::Create(pub, /*priv=*/nullptr,
                                            /*crt=*/false,
                                            ctx.use_fixed_width_));
  ctx.secure_obfuscation_ = options.secure_obfuscation;
  ctx.pool_size_ = std::max(1, options.obfuscation_pool_size);
  ctx.pool_ = std::make_shared<ObfuscationPool>(
      ctx.eval_->n2_ctx_ptr(), pub.n, ctx.pool_size_, options.obfuscation_seed);
  ctx.pub_ = std::move(pub);
  return ctx;
}

Result<PaillierContext> PaillierContext::Create(
    PaillierKeyPair keys, const PaillierOptions& options) {
  FLB_ASSIGN_OR_RETURN(PaillierContext ctx, CreatePublic(keys.pub, options));
  ctx.use_crt_ = options.use_crt_decryption;
  FLB_ASSIGN_OR_RETURN(
      ctx.eval_,
      PaillierEval::Create(ctx.pub_, &keys.priv, ctx.use_crt_,
                           ctx.use_fixed_width_));
  ctx.priv_ = std::move(keys.priv);
  return ctx;
}

BigInt PaillierContext::GPowM(const BigInt& m) const {
  if (pub_.g_is_n_plus_1) {
    // (n+1)^m = 1 + m*n (mod n^2): one multiply instead of an exponentiation.
    return BigInt::Add(BigInt::Mul(m, pub_.n), BigInt(1)) % pub_.n_squared;
  }
  return eval_->FixedBaseGPow(m);
}

Result<BigInt> PaillierContext::Encrypt(const BigInt& m, Rng& rng) const {
  if (m >= pub_.n) {
    return Status::OutOfRange("Paillier plaintext must be < n");
  }
  op_counts_.encrypts.fetch_add(1, std::memory_order_relaxed);
  const BigInt gm = GPowM(m);
  if (secure_obfuscation_) {
    const BigInt r = DrawUnit(pub_.n, rng);
    // r^n mod n^2 — the dominant cost of encryption.
    const BigInt rn = eval_->n2_ctx().ModPow(r, pub_.n);
    return eval_->n2_ctx().ModMul(gm, rn);
  }
  return eval_->n2_ctx().ModMul(gm, pool_->Next());
}

Result<BigInt> PaillierContext::DecryptPlain(const BigInt& c) const {
  return FinishPlain(eval_->n2_ctx().ModPow(c, priv_->lambda));
}

Result<BigInt> PaillierContext::FinishPlain(const BigInt& c_lambda) const {
  const MontgomeryContext& nc = eval_->n_ctx();
  FLB_ASSIGN_OR_RETURN(BigInt l, LFunction(c_lambda, pub_.n));
  // mu is cached in Montgomery form, so L * mu costs 3 MontMuls, not 4.
  return nc.FromMont(nc.MontMul(nc.ToMont(l), eval_->mu_mont()));
}

Result<BigInt> PaillierContext::DecryptCrt(const BigInt& c) const {
  // Decrypt mod p and mod q independently, then CRT-combine. Exponents are
  // p-1 / q-1 (half-width), moduli are p^2 / q^2 (half-width), so the limb
  // work is ~1/4 of the plain path per leg.
  const MontgomeryContext& p2 = eval_->p2_ctx();
  const MontgomeryContext& q2 = eval_->q2_ctx();
  return CombineCrt(p2.ModPow(c % p2.modulus(), eval_->p_minus_1()),
                    q2.ModPow(c % q2.modulus(), eval_->q_minus_1()));
}

Result<BigInt> PaillierContext::CombineCrt(const BigInt& xp,
                                           const BigInt& xq) const {
  const BigInt& p = priv_->p;
  const BigInt& q = priv_->q;
  FLB_ASSIGN_OR_RETURN(BigInt lp, LFunction(xp, p));
  FLB_ASSIGN_OR_RETURN(BigInt lq, LFunction(xq, q));
  const BigInt mp = BigInt::Mul(lp, eval_->hp()) % p;
  const BigInt mq = BigInt::Mul(lq, eval_->hq()) % q;
  // m = mp + p * ((mq - mp) * p^{-1} mod q). The difference is only used
  // mod q, and mp can reach p - 1 > q + mq when p > q, so reduce mp mod q
  // before the guarded subtraction.
  const BigInt mp_mod_q = mp % q;
  BigInt diff;
  if (mq >= mp_mod_q) {
    diff = BigInt::Sub(mq, mp_mod_q);
  } else {
    diff = BigInt::Sub(BigInt::Add(mq, q), mp_mod_q);
  }
  const BigInt t = BigInt::Mul(diff, eval_->p_inv_mod_q()) % q;
  return BigInt::Add(mp, BigInt::Mul(p, t));
}

Result<BigInt> PaillierContext::Decrypt(const BigInt& c) const {
  if (!priv_.has_value()) {
    return Status::FailedPrecondition("Paillier context has no private key");
  }
  if (c >= pub_.n_squared) {
    return Status::OutOfRange("Paillier ciphertext must be < n^2");
  }
  op_counts_.decrypts.fetch_add(1, std::memory_order_relaxed);
  return use_crt_ ? DecryptCrt(c) : DecryptPlain(c);
}

Result<BigInt> PaillierContext::Add(const BigInt& c1, const BigInt& c2) const {
  if (c1 >= pub_.n_squared || c2 >= pub_.n_squared) {
    return Status::OutOfRange("Paillier ciphertext must be < n^2");
  }
  op_counts_.adds.fetch_add(1, std::memory_order_relaxed);
  return eval_->n2_ctx().ModMul(c1, c2);
}

Result<BigInt> PaillierContext::ScalarMul(const BigInt& c,
                                          const BigInt& k) const {
  if (c >= pub_.n_squared) {
    return Status::OutOfRange("Paillier ciphertext must be < n^2");
  }
  op_counts_.scalar_muls.fetch_add(1, std::memory_order_relaxed);
  return ScalarMulUncounted(c, k);
}

std::optional<BigInt> PaillierContext::NegatedScalar(const BigInt& k) const {
  // Fixed-point encodings represent a negative scalar -m as n - m, which
  // would force a full |n|-bit exponentiation. E(x)^(n-m) = E(-m*x) =
  // (E(x)^{-1})^m, and m is small, so invert the ciphertext and keep the
  // short exponent (the python-paillier optimization FATE relies on).
  if (k <= eval_->half_n()) return std::nullopt;
  BigInt m = BigInt::Sub(pub_.n, k);
  if (m.BitLength() * 2 >= k.BitLength()) return std::nullopt;
  return m;
}

BigInt PaillierContext::ScalarMulUncounted(const BigInt& c,
                                           const BigInt& k) const {
  if (const std::optional<BigInt> m = NegatedScalar(k)) {
    auto c_inv = BigInt::ModInverse(c, pub_.n_squared);
    if (c_inv.ok()) {
      return eval_->n2_ctx().ModPow(c_inv.value(), *m);
    }
    // Non-invertible ciphertexts cannot occur for honest inputs; fall
    // through to the direct exponentiation.
  }
  return eval_->n2_ctx().ModPow(c, k);
}

// ---- Batch helpers ----------------------------------------------------------
//
// Determinism contract: element i's output depends only on (inputs, i, one
// seed drawn from rng). Work distribution never feeds back into results, so
// any thread count — including the serial fallback — produces identical
// bytes. Every input is range-checked before any work, and op counters are
// bumped once per batch on success (a failed batch counts nothing), keeping
// counts independent of which elements ran before an error was discovered.
//
// Layout: batch bodies run over mpint::LimbMatrix — one contiguous
// structure-of-arrays limb buffer per operand — so each ThreadPool worker
// streams flat fixed-width rows through the Montgomery kernels instead of
// chasing per-element BigInt heap blocks. Inputs are packed once before the
// fan-out, outputs unpacked once after the join; element values are
// unchanged (the kernels produce the canonical representatives the BigInt
// path produces).
//
// Exponentiations (both CRT legs and c^lambda of decryption, r^n of
// encryption, the per-element exponents of ScalarMulBatch) and PackBatch's
// Horner groups run as MontgomeryContext::ForEachLaneTask tasks: one task
// per full 8-row lane group, one per remaining row, each task running its
// rows from input to output.

namespace {

Status CheckPlaintexts(const std::vector<BigInt>& ms, const BigInt& n) {
  for (const BigInt& m : ms) {
    if (m >= n) return Status::OutOfRange("Paillier plaintext must be < n");
  }
  return Status::OK();
}

Status CheckCiphertexts(const std::vector<BigInt>& cs, const BigInt& n_sq) {
  for (const BigInt& c : cs) {
    if (c >= n_sq) {
      return Status::OutOfRange("Paillier ciphertext must be < n^2");
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<BigInt>> PaillierContext::EncryptBatch(
    const std::vector<BigInt>& ms, Rng& rng, common::ThreadPool* pool) const {
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::Global();
  const uint64_t seed = rng.NextU64();
  FLB_RETURN_IF_ERROR(CheckPlaintexts(ms, pub_.n));
  const size_t count = ms.size();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  const size_t w = n2.num_limbs();
  mpint::LimbMatrix cipher(count, w);

  if (secure_obfuscation_) {
    // Fresh r^n per element; randomness split per element so the partition
    // does not matter. n2.ModMulWords is ModMul's 4-MontMul sequence.
    mpint::LimbMatrix rn(count, w);
    FLB_RETURN_IF_ERROR(n2.ForEachLaneTask(
        tp, count, [&](size_t first, size_t rows) -> Status {
          for (size_t i = first; i < first + rows; ++i) {
            Rng er = Rng::ForStream(seed, static_cast<uint64_t>(i));
            rn.SetRow(i, DrawUnit(pub_.n, er));
          }
          n2.ModPowRows(rn.row(first), rows, pub_.n);
          for (size_t i = first; i < first + rows; ++i) {
            const std::vector<uint32_t> gw = GPowM(ms[i]).ToFixedWords(w);
            n2.ModMulWords(gw.data(), rn.row(i), cipher.row(i));
          }
          return Status::OK();
        }));
    op_counts_.encrypts.fetch_add(count, std::memory_order_relaxed);
    return cipher.Unpack();
  }

  // Pool path: k base obfuscators (the only full powms, parallel), then a
  // serial squaring-refresh walk fixes obfuscator i deterministically.
  if (count == 0) return std::vector<BigInt>();
  const size_t k = std::min(static_cast<size_t>(pool_size_), count);
  mpint::LimbMatrix base(k, w);
  FLB_RETURN_IF_ERROR(n2.ForEachLaneTask(
      tp, k, [&](size_t first, size_t rows) -> Status {
        for (size_t j = first; j < first + rows; ++j) {
          Rng er = Rng::ForStream(seed, static_cast<uint64_t>(j));
          base.SetRow(j, DrawUnit(pub_.n, er));
        }
        n2.ModPowRows(base.row(first), rows, pub_.n);
        for (size_t j = first; j < first + rows; ++j) {
          base.SetRow(j, n2.ToMont(base.ToBigInt(j)));
        }
        return Status::OK();
      }));
  // Obfuscator stream as one contiguous SoA buffer: row i is obfuscator i
  // (Montgomery domain), refreshed in place by one flat Montgomery
  // squaring ((r^n)^2 = (r^2)^n).
  mpint::LimbMatrix rn_mont(count, w);
  for (size_t i = 0; i < count; ++i) {
    uint32_t* slot = base.row(i % k);
    std::copy(slot, slot + w, rn_mont.row(i));
    n2.MontSqrWords(slot, slot);
  }
  tp.ParallelForEach(static_cast<int64_t>(count), [&](int64_t e) {
    const auto i = static_cast<size_t>(e);
    // MontMul(gm, obf*R) = gm * obf mod n^2: the Montgomery factors
    // cancel, so applying the obfuscator costs a single flat MontMul.
    const std::vector<uint32_t> gw = GPowM(ms[i]).ToFixedWords(w);
    n2.MontMulWords(gw.data(), rn_mont.row(i), cipher.row(i));
  });
  op_counts_.encrypts.fetch_add(count, std::memory_order_relaxed);
  return cipher.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::DecryptBatch(
    const std::vector<BigInt>& cs, common::ThreadPool* pool) const {
  if (!priv_.has_value()) {
    return Status::FailedPrecondition("Paillier context has no private key");
  }
  FLB_RETURN_IF_ERROR(CheckCiphertexts(cs, pub_.n_squared));
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::Global();
  const size_t count = cs.size();
  // Plaintexts land in a contiguous SoA buffer at the modulus width.
  mpint::LimbMatrix plain(count, eval_->n_ctx().num_limbs());
  if (use_crt_) {
    const MontgomeryContext& p2 = eval_->p2_ctx();
    const MontgomeryContext& q2 = eval_->q2_ctx();
    mpint::LimbMatrix xp(count, p2.num_limbs());
    mpint::LimbMatrix xq(count, q2.num_limbs());
    FLB_RETURN_IF_ERROR(p2.ForEachLaneTask(
        tp, count, [&](size_t first, size_t rows) -> Status {
          for (size_t i = first; i < first + rows; ++i) {
            xp.SetRow(i, cs[i] % p2.modulus());
            xq.SetRow(i, cs[i] % q2.modulus());
          }
          p2.ModPowRows(xp.row(first), rows, eval_->p_minus_1());
          q2.ModPowRows(xq.row(first), rows, eval_->q_minus_1());
          for (size_t i = first; i < first + rows; ++i) {
            FLB_ASSIGN_OR_RETURN(BigInt m,
                                 CombineCrt(xp.ToBigInt(i), xq.ToBigInt(i)));
            plain.SetRow(i, m);
          }
          return Status::OK();
        }));
  } else {
    const MontgomeryContext& n2 = eval_->n2_ctx();
    mpint::LimbMatrix x = mpint::LimbMatrix::Pack(cs, n2.num_limbs());
    FLB_RETURN_IF_ERROR(n2.ForEachLaneTask(
        tp, count, [&](size_t first, size_t rows) -> Status {
          n2.ModPowRows(x.row(first), rows, priv_->lambda);
          for (size_t i = first; i < first + rows; ++i) {
            FLB_ASSIGN_OR_RETURN(BigInt m, FinishPlain(x.ToBigInt(i)));
            plain.SetRow(i, m);
          }
          return Status::OK();
        }));
  }
  op_counts_.decrypts.fetch_add(count, std::memory_order_relaxed);
  return plain.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::AddBatch(
    const std::vector<BigInt>& c1, const std::vector<BigInt>& c2,
    common::ThreadPool* pool) const {
  if (c1.size() != c2.size()) {
    return Status::InvalidArgument("AddBatch: size mismatch");
  }
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::Global();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  const size_t w = n2.num_limbs();
  // Both operand streams packed once, then each worker multiplies flat
  // contiguous rows (range checks still run against the original values).
  const mpint::LimbMatrix a = mpint::LimbMatrix::Pack(c1, w);
  const mpint::LimbMatrix b = mpint::LimbMatrix::Pack(c2, w);
  mpint::LimbMatrix o(c1.size(), w);
  FLB_RETURN_IF_ERROR(common::ParallelForEachStatus(
      tp, c1.size(), [&](size_t i) -> Status {
        if (c1[i] >= pub_.n_squared || c2[i] >= pub_.n_squared) {
          return Status::OutOfRange("Paillier ciphertext must be < n^2");
        }
        n2.ModMulWords(a.row(i), b.row(i), o.row(i));
        return Status::OK();
      }));
  op_counts_.adds.fetch_add(c1.size(), std::memory_order_relaxed);
  return o.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::AddPlainBatch(
    const std::vector<BigInt>& cs, const std::vector<BigInt>& ks,
    common::ThreadPool* pool) const {
  if (cs.size() != ks.size()) {
    return Status::InvalidArgument("AddPlainBatch: size mismatch");
  }
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::Global();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  const size_t w = n2.num_limbs();
  const mpint::LimbMatrix a = mpint::LimbMatrix::Pack(cs, w);
  mpint::LimbMatrix o(cs.size(), w);
  FLB_RETURN_IF_ERROR(common::ParallelForEachStatus(
      tp, cs.size(), [&](size_t i) -> Status {
        if (cs[i] >= pub_.n_squared) {
          return Status::OutOfRange("Paillier ciphertext must be < n^2");
        }
        if (ks[i] >= pub_.n) {
          return Status::OutOfRange("Paillier plaintext must be < n");
        }
        const std::vector<uint32_t> gw = GPowM(ks[i]).ToFixedWords(w);
        n2.ModMulWords(a.row(i), gw.data(), o.row(i));
        return Status::OK();
      }));
  op_counts_.adds.fetch_add(cs.size(), std::memory_order_relaxed);
  return o.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::FoldBatch(
    const std::vector<BigInt>& cs,
    const std::vector<std::vector<uint32_t>>& groups,
    common::ThreadPool* pool) const {
  size_t longest = 0;
  uint64_t adds = 0;
  for (const std::vector<uint32_t>& group : groups) {
    for (uint32_t i : group) {
      if (i >= cs.size()) {
        return Status::OutOfRange("FoldBatch: index out of range");
      }
      if (cs[i] >= pub_.n_squared) {
        return Status::OutOfRange("Paillier ciphertext must be < n^2");
      }
    }
    longest = std::max(longest, group.size());
    if (!group.empty()) adds += group.size() - 1;
  }
  common::ThreadPool& tp =
      pool != nullptr ? *pool : common::ThreadPool::Global();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  const size_t w = n2.num_limbs();
  // lift[k] = R^k mod n^2 for each group length k >= 2 that occurs.
  // MontMul(c, R^k) = c R^(k-1), and the chain's k - 1 MontMuls take the
  // R^(k-1) away again. R^2 = MontMul(R, R^2 mod n^2) is ToMont(R), and
  // R^(k+1) = MontMul(R^k, R^2).
  std::vector<std::vector<uint32_t>> lift(longest + 1);
  for (const std::vector<uint32_t>& group : groups) {
    if (group.size() >= 2) lift[group.size()].resize(w);
  }
  if (longest >= 2) {
    const std::vector<uint32_t> r2 = n2.ToMont(n2.MontOne()).ToFixedWords(w);
    std::vector<uint32_t> r_k = r2;
    for (size_t k = 2; k <= longest; ++k) {
      if (k > 2) n2.MontMulWords(r_k.data(), r2.data(), r_k.data());
      if (!lift[k].empty()) lift[k] = r_k;
    }
  }
  const mpint::LimbMatrix in = mpint::LimbMatrix::Pack(cs, w);
  mpint::LimbMatrix out(groups.size(), w);
  tp.ParallelForEach(static_cast<int64_t>(groups.size()), [&](int64_t e) {
    const auto g = static_cast<size_t>(e);
    const std::vector<uint32_t>& group = groups[g];
    uint32_t* acc = out.row(g);
    if (group.size() < 2) {
      if (group.empty()) {
        acc[0] = 1;  // the empty product
      } else {
        std::copy(in.row(group[0]), in.row(group[0]) + w, acc);
      }
      return;
    }
    n2.MontMulWords(in.row(group[0]), lift[group.size()].data(), acc);
    for (size_t t = 1; t < group.size(); ++t) {
      n2.MontMulWords(acc, in.row(group[t]), acc);
    }
  });
  op_counts_.adds.fetch_add(adds, std::memory_order_relaxed);
  return out.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::ScalarMulBatch(
    const std::vector<BigInt>& cs, const std::vector<BigInt>& ks,
    common::ThreadPool* pool) const {
  if (cs.size() != ks.size()) {
    return Status::InvalidArgument("ScalarMulBatch: size mismatch");
  }
  FLB_RETURN_IF_ERROR(CheckCiphertexts(cs, pub_.n_squared));
  common::ThreadPool& tp = pool != nullptr ? *pool : common::ThreadPool::Global();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  const size_t count = cs.size();
  const size_t w = n2.num_limbs();
  // Row i is raised to exps[i]: its ciphertext to k, or, for a negative
  // scalar, that ciphertext's inverse to the short n - k. The inverses are
  // taken together, serially, with one ModInverse for the whole batch and
  // one inversion per distinct ciphertext: equal ciphertexts are equal
  // fixed-width rows, so sorting the negated rows puts copies side by side,
  // and the first row of each run is inverted for all of them. An inverse
  // is unique, so the bytes match ScalarMulUncounted's. If the product of
  // the distinct rows is not a unit (exactly when one of them is not),
  // every element takes ScalarMulUncounted instead.
  mpint::LimbMatrix o = mpint::LimbMatrix::Pack(cs, w);
  std::vector<BigInt> exps;
  exps.reserve(count);
  std::vector<size_t> negated;
  for (size_t i = 0; i < count; ++i) {
    std::optional<BigInt> m = NegatedScalar(ks[i]);
    if (m) negated.push_back(i);
    exps.push_back(m ? std::move(*m) : ks[i]);
  }
  const auto row_less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(o.row(a), o.row(a) + w, o.row(b),
                                        o.row(b) + w);
  };
  std::sort(negated.begin(), negated.end(), row_less);
  // run[r]: the distinct row that negated row r copies.
  std::vector<size_t> run(negated.size()), firsts;
  for (size_t r = 0; r < negated.size(); ++r) {
    if (r == 0 || row_less(negated[r - 1], negated[r])) {
      firsts.push_back(negated[r]);
    }
    run[r] = firsts.size() - 1;
  }
  mpint::LimbMatrix inv(firsts.size(), w);
  for (size_t u = 0; u < firsts.size(); ++u) {
    std::copy(o.row(firsts[u]), o.row(firsts[u]) + w, inv.row(u));
  }
  if (BatchInvert(n2, pub_.n, inv)) {
    for (size_t r = 0; r < negated.size(); ++r) {
      std::copy(inv.row(run[r]), inv.row(run[r]) + w, o.row(negated[r]));
    }
    FLB_RETURN_IF_ERROR(n2.ForEachLaneTask(
        tp, count, [&](size_t first, size_t rows) -> Status {
          n2.ModPowRows(o.row(first), rows, exps.data() + first);
          return Status::OK();
        }));
  } else {
    tp.ParallelForEach(static_cast<int64_t>(count), [&](int64_t e) {
      const auto i = static_cast<size_t>(e);
      o.SetRow(i, ScalarMulUncounted(cs[i], ks[i]));
    });
  }
  op_counts_.scalar_muls.fetch_add(count, std::memory_order_relaxed);
  return o.Unpack();
}

Result<std::vector<BigInt>> PaillierContext::PackBatch(
    const std::vector<BigInt>& cs, const BigInt& offset, int slot_bits,
    size_t slots, common::ThreadPool* pool) const {
  if (slot_bits < 1 || slots < 1) {
    return Status::InvalidArgument("PackBatch: empty slot layout");
  }
  // The packed plaintext is below 2^(slots * slot_bits), which stays below
  // n only while slots * slot_bits < key_bits.
  if (slots > static_cast<size_t>((pub_.key_bits - 1) / slot_bits)) {
    return Status::InvalidArgument("PackBatch: slots overflow the modulus");
  }
  if (offset >= pub_.n) {
    return Status::OutOfRange("Paillier plaintext must be < n");
  }
  FLB_RETURN_IF_ERROR(CheckCiphertexts(cs, pub_.n_squared));
  common::ThreadPool& tp =
      pool != nullptr ? *pool : common::ThreadPool::Global();
  const MontgomeryContext& n2 = eval_->n2_ctx();
  // Multiplying by g^offset adds the offset: E(m) -> E(m + offset).
  const BigInt add_offset = GPowM(offset);
  const size_t groups = (cs.size() + slots - 1) / slots;
  const mpint::LimbMatrix in = mpint::LimbMatrix::Pack(cs, n2.num_limbs());
  mpint::LimbMatrix out(groups, n2.num_limbs());
  FLB_RETURN_IF_ERROR(n2.ForEachLaneTask(
      tp, groups, [&](size_t first, size_t count) -> Status {
        const size_t begin = first * slots;
        const size_t end = std::min(cs.size(), (first + count) * slots);
        n2.HornerRows(in.row(begin), end - begin, slots, slot_bits,
                      add_offset, out.row(first));
        return Status::OK();
      }));
  op_counts_.adds.fetch_add(2 * cs.size() - groups, std::memory_order_relaxed);
  op_counts_.scalar_muls.fetch_add(cs.size(), std::memory_order_relaxed);
  return out.Unpack();
}

}  // namespace flb::crypto

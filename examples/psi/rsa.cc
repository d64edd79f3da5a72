#include "examples/psi/rsa.h"

#include <utility>

#include "src/crypto/prime.h"

namespace flb::crypto {

Result<RsaKeyPair> RsaKeyGen(int key_bits, Rng& rng) {
  if (key_bits < 64 || key_bits % 2 != 0) {
    return Status::InvalidArgument("RSA key size must be even and >= 64 bits");
  }
  const int prime_bits = key_bits / 2;
  const BigInt e(65537);

  for (int attempt = 0; attempt < 64; ++attempt) {
    FLB_ASSIGN_OR_RETURN(BigInt p, GeneratePrime(prime_bits, rng));
    FLB_ASSIGN_OR_RETURN(BigInt q, GenerateDistinctPrime(prime_bits, p, rng));
    BigInt n = BigInt::Mul(p, q);
    if (n.BitLength() != key_bits) continue;
    const BigInt p_minus_1 = BigInt::Sub(p, BigInt(1));
    const BigInt q_minus_1 = BigInt::Sub(q, BigInt(1));
    const BigInt carmichael = BigInt::Lcm(p_minus_1, q_minus_1);
    auto d = BigInt::ModInverse(e, carmichael);
    if (!d.ok()) continue;  // e divides lambda(n); extremely rare — retry

    RsaKeyPair keys;
    keys.pub.key_bits = key_bits;
    keys.pub.n = std::move(n);
    keys.pub.e = e;
    keys.priv.d = std::move(d).value();
    keys.priv.dp = keys.priv.d % p_minus_1;
    keys.priv.dq = keys.priv.d % q_minus_1;
    FLB_ASSIGN_OR_RETURN(keys.priv.q_inv, BigInt::ModInverse(q, p));
    keys.priv.p = std::move(p);
    keys.priv.q = std::move(q);
    return keys;
  }
  return Status::Internal("RsaKeyGen: exceeded attempt budget");
}

Result<RsaContext> RsaContext::Create(RsaKeyPair keys) {
  if (keys.pub.n.IsZero() || keys.pub.e.IsZero()) {
    return Status::InvalidArgument("incomplete RSA public key");
  }
  RsaContext ctx;
  FLB_ASSIGN_OR_RETURN(auto p_ctx, MontgomeryContext::Create(keys.priv.p));
  FLB_ASSIGN_OR_RETURN(auto q_ctx, MontgomeryContext::Create(keys.priv.q));
  ctx.p_ctx_ = std::make_shared<MontgomeryContext>(std::move(p_ctx));
  ctx.q_ctx_ = std::make_shared<MontgomeryContext>(std::move(q_ctx));
  ctx.pub_ = std::move(keys.pub);
  ctx.priv_ = std::move(keys.priv);
  return ctx;
}

Result<BigInt> RsaContext::Decrypt(const BigInt& c) const {
  if (c >= pub_.n) {
    return Status::OutOfRange("RSA ciphertext must be < n");
  }
  // Garner's CRT recombination: m = mq + q * ((mp - mq) * q^{-1} mod p).
  const BigInt& p = priv_.p;
  const BigInt& q = priv_.q;
  const BigInt mp = p_ctx_->ModPow(c % p, priv_.dp);
  const BigInt mq = q_ctx_->ModPow(c % q, priv_.dq);
  BigInt diff;
  if (mp >= mq) {
    diff = BigInt::Sub(mp, mq);
  } else {
    diff = BigInt::Sub(BigInt::Add(mp, p), mq);
  }
  const BigInt h = BigInt::Mul(diff, priv_.q_inv) % p;
  return BigInt::Add(mq, BigInt::Mul(q, h));
}

}  // namespace flb::crypto

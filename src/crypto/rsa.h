// Textbook RSA with multiplicative homomorphism: the key pair and CRT
// signing that RSA-blind PSI (src/fl/psi) runs on.
//
// Note: unpadded RSA is used here deliberately — the homomorphic property
// E(m1)*E(m2) = E(m1*m2 mod n) only holds without padding, which is what
// federated protocols that use RSA blinding (e.g. RSA-PSI intersection in
// FATE) rely on. Decryption uses the CRT (q^{-1} mod p combine).

#ifndef FLB_CRYPTO_RSA_H_
#define FLB_CRYPTO_RSA_H_

#include <memory>
#include <optional>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/montgomery.h"
#include "src/mpint/bigint.h"

namespace flb::crypto {

struct RsaPublicKey {
  int key_bits = 0;
  BigInt n;
  BigInt e;

  size_t CiphertextWords() const {
    return (static_cast<size_t>(key_bits) + mpint::kLimbBits - 1) /
           mpint::kLimbBits;
  }
};

struct RsaPrivateKey {
  BigInt p;
  BigInt q;
  BigInt d;       // e^{-1} mod lcm(p-1, q-1)
  BigInt dp;      // d mod (p-1)
  BigInt dq;      // d mod (q-1)
  BigInt q_inv;   // q^{-1} mod p
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Generates an RSA key pair with |n| == key_bits and e = 65537.
Result<RsaKeyPair> RsaKeyGen(int key_bits, Rng& rng);

class RsaContext {
 public:
  static Result<RsaContext> CreatePublic(RsaPublicKey pub);
  static Result<RsaContext> Create(RsaKeyPair keys);

  const RsaPublicKey& pub() const { return pub_; }
  bool can_decrypt() const { return priv_.has_value(); }

  // c = m^e mod n, m in [0, n).
  Result<BigInt> Encrypt(const BigInt& m) const;
  // m = c^d mod n via CRT.
  Result<BigInt> Decrypt(const BigInt& c) const;
  // E(m1) * E(m2) = E(m1 * m2 mod n) — RSA's multiplicative homomorphism.
  Result<BigInt> Mul(const BigInt& c1, const BigInt& c2) const;

 private:
  RsaContext() = default;

  RsaPublicKey pub_;
  std::optional<RsaPrivateKey> priv_;
  std::shared_ptr<const MontgomeryContext> n_ctx_;
  std::shared_ptr<const MontgomeryContext> p_ctx_;
  std::shared_ptr<const MontgomeryContext> q_ctx_;
};

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_RSA_H_

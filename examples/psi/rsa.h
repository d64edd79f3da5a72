// Textbook RSA key generation and CRT signing: what RSA-blind PSI
// (examples/psi/psi.h) runs on.
//
// Note: unpadded RSA is used here deliberately — the blinding identity
// (H * r^e)^d = H^d * r mod n only holds without padding, which is what
// federated protocols that use RSA blinding (e.g. RSA-PSI intersection in
// FATE) rely on. The public side, m^e mod n, is a plain
// MontgomeryContext::ModPow. Signing uses the CRT (q^{-1} mod p combine).

#ifndef FLB_EXAMPLES_PSI_RSA_H_
#define FLB_EXAMPLES_PSI_RSA_H_

#include <memory>

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
  static Result<RsaContext> Create(RsaKeyPair keys);

  // c^d mod n via CRT, c in [0, n): a decryption, or the blind signature
  // PSI's host computes.
  Result<BigInt> Decrypt(const BigInt& c) const;

 private:
  RsaContext() = default;

  RsaPublicKey pub_;
  RsaPrivateKey priv_;
  std::shared_ptr<const MontgomeryContext> p_ctx_;
  std::shared_ptr<const MontgomeryContext> q_ctx_;
};

}  // namespace flb::crypto

#endif  // FLB_EXAMPLES_PSI_RSA_H_

#include "examples/psi/psi.h"

#include <algorithm>
#include <map>

#include "examples/psi/rsa.h"
#include "src/core/cost_model.h"
#include "src/ghe/he_cost.h"
#include "src/net/serializer.h"

namespace flb::fl {

namespace {

using crypto::RsaContext;
using mpint::BigInt;

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Full-domain hash of an id into [2, n): expand the id into n's width via a
// splitmix64 stream and reduce.
BigInt HashToGroup(uint64_t id, const BigInt& n) {
  const size_t words = n.WordCount() + 1;
  std::vector<uint32_t> w(words);
  uint64_t state = id * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  for (size_t i = 0; i + 1 < words; i += 2) {
    const uint64_t r = SplitMix(state + i);
    w[i] = static_cast<uint32_t>(r);
    w[i + 1] = static_cast<uint32_t>(r >> 32);
  }
  if (words % 2 == 1) w[words - 1] = static_cast<uint32_t>(SplitMix(state + words));
  BigInt h = BigInt::FromWords(std::move(w)) % n;
  if (h < BigInt(2)) h = BigInt::Add(h, BigInt(2));
  return h;
}

// Second hash: tag of an unblinded signature (64-bit, collision-safe for
// realistic id-set sizes).
uint64_t TagOf(const BigInt& t) {
  uint64_t acc = 0x2545F4914F6CDD1DULL;
  for (uint32_t w : t.words()) acc = SplitMix(acc ^ w);
  return acc;
}

// Host-side RSA cost: one full-width exponentiation per signature.
uint64_t SignLimbOps(int key_bits) {
  const size_t s = static_cast<size_t>(key_bits) / 32;
  return ghe::EstimateModPowMontMuls(key_bits) * ghe::MontMulLimbOps(s);
}

}  // namespace

Result<std::vector<uint64_t>> RsaPsiIntersect(
    const std::vector<uint64_t>& guest_ids,
    const std::vector<uint64_t>& host_ids, const PsiOptions& options,
    net::Network* network, SimClock* clock, PsiStats* stats) {
  if (network == nullptr) {
    return Status::InvalidArgument("RsaPsiIntersect: network required");
  }
  Rng rng(options.seed);
  core::CpuCostModel cpu;

  // ---- host: key generation, publish the public key -------------------------
  FLB_ASSIGN_OR_RETURN(auto keys, crypto::RsaKeyGen(options.rsa_key_bits, rng));
  FLB_ASSIGN_OR_RETURN(RsaContext host_ctx, RsaContext::Create(keys));
  const BigInt& n = keys.pub.n;
  const size_t words = keys.pub.CiphertextWords();
  {
    net::Serializer s;
    s.PutBigInt(keys.pub.n);
    s.PutBigInt(keys.pub.e);
    FLB_RETURN_IF_ERROR(network->Send("host", "guest", "psi_pub",
                                      s.TakeBytes()));
    FLB_RETURN_IF_ERROR(network->Receive("guest", "psi_pub").status());
  }

  // ---- guest: blind ids ------------------------------------------------------
  std::vector<BigInt> blinds;     // r_i
  std::vector<BigInt> blinded;    // H(u_i) * r_i^e mod n
  blinds.reserve(guest_ids.size());
  blinded.reserve(guest_ids.size());
  FLB_ASSIGN_OR_RETURN(auto n_ctx, crypto::MontgomeryContext::Create(n));
  for (uint64_t id : guest_ids) {
    BigInt r;
    do {
      r = BigInt::RandomBelow(rng, n);
    } while (r < BigInt(2) || !BigInt::Gcd(r, n).IsOne());
    const BigInt re = n_ctx.ModPow(r, keys.pub.e);
    blinded.push_back(n_ctx.ModMul(HashToGroup(id, n), re));
    blinds.push_back(std::move(r));
  }
  cpu.Charge(clock, guest_ids.size(), 20 * ghe::MontMulLimbOps(words));
  {
    net::Serializer s;
    s.PutBigIntBatchFixed(blinded, words);
    FLB_RETURN_IF_ERROR(network->Send("guest", "host", "psi_blind",
                                      s.TakeBytes(), blinded.size()));
  }

  // ---- host: blind-sign ------------------------------------------------------
  FLB_ASSIGN_OR_RETURN(auto blind_msg, network->Receive("host", "psi_blind"));
  net::Deserializer d(blind_msg.payload);
  FLB_ASSIGN_OR_RETURN(auto to_sign, d.GetBigIntBatchFixed(words));
  std::vector<BigInt> signed_back;
  signed_back.reserve(to_sign.size());
  for (const BigInt& y : to_sign) {
    FLB_ASSIGN_OR_RETURN(BigInt z, host_ctx.Decrypt(y));  // y^d mod n
    signed_back.push_back(std::move(z));
  }
  cpu.Charge(clock, to_sign.size(), SignLimbOps(options.rsa_key_bits));
  {
    net::Serializer s;
    s.PutBigIntBatchFixed(signed_back, words);
    FLB_RETURN_IF_ERROR(network->Send("host", "guest", "psi_signed",
                                      s.TakeBytes(), signed_back.size()));
  }

  // ---- host: tag own ids -----------------------------------------------------
  std::vector<uint64_t> host_tags;
  host_tags.reserve(host_ids.size());
  for (uint64_t id : host_ids) {
    FLB_ASSIGN_OR_RETURN(BigInt t, host_ctx.Decrypt(HashToGroup(id, n)));
    host_tags.push_back(TagOf(t));
  }
  cpu.Charge(clock, host_ids.size(), SignLimbOps(options.rsa_key_bits));
  std::sort(host_tags.begin(), host_tags.end());
  {
    net::Serializer s;
    s.PutU32(static_cast<uint32_t>(host_tags.size()));
    for (uint64_t tag : host_tags) s.PutU64(tag);
    FLB_RETURN_IF_ERROR(network->Send("host", "guest", "psi_tags",
                                      s.TakeBytes()));
  }

  // ---- guest: unblind, tag, intersect ----------------------------------------
  FLB_ASSIGN_OR_RETURN(auto signed_msg,
                       network->Receive("guest", "psi_signed"));
  net::Deserializer d2(signed_msg.payload);
  FLB_ASSIGN_OR_RETURN(auto signatures, d2.GetBigIntBatchFixed(words));
  if (signatures.size() != guest_ids.size()) {
    return Status::Internal("PSI: signature count mismatch");
  }
  std::map<uint64_t, uint64_t> guest_tag_to_id;
  for (size_t i = 0; i < guest_ids.size(); ++i) {
    FLB_ASSIGN_OR_RETURN(BigInt r_inv, BigInt::ModInverse(blinds[i], n));
    const BigInt t = n_ctx.ModMul(signatures[i], r_inv);
    guest_tag_to_id[TagOf(t)] = guest_ids[i];
  }
  cpu.Charge(clock, guest_ids.size(), 8 * ghe::MontMulLimbOps(words));

  FLB_ASSIGN_OR_RETURN(auto tags_msg, network->Receive("guest", "psi_tags"));
  net::Deserializer d3(tags_msg.payload);
  FLB_ASSIGN_OR_RETURN(uint32_t tag_count, d3.GetU32());
  std::vector<uint64_t> shared;
  for (uint32_t i = 0; i < tag_count; ++i) {
    FLB_ASSIGN_OR_RETURN(uint64_t tag, d3.GetU64());
    auto it = guest_tag_to_id.find(tag);
    if (it != guest_tag_to_id.end()) shared.push_back(it->second);
  }
  std::sort(shared.begin(), shared.end());

  if (stats != nullptr) {
    stats->guest_ids = guest_ids.size();
    stats->host_ids = host_ids.size();
    stats->intersection = shared.size();
    stats->blind_signatures = to_sign.size() + host_ids.size();
    stats->comm_bytes = network->stats().bytes;
  }
  return shared;
}

}  // namespace flb::fl

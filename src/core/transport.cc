#include "src/core/transport.h"

#include "src/net/serializer.h"

namespace flb::core {

Status SendEncVec(net::Network* network, const HeService& he,
                  const std::string& from, const std::string& to,
                  const std::string& topic, const EncVec& vec) {
  net::Serializer s;
  s.PutU32(static_cast<uint32_t>(vec.layout));
  s.PutU64(vec.count);
  s.PutU32(static_cast<uint32_t>(vec.slots_per_cipher));
  s.PutU32(static_cast<uint32_t>(vec.contributors));
  s.PutU32(static_cast<uint32_t>(vec.scale_muls));
  s.PutU32(static_cast<uint32_t>(vec.fp_slot_bits));
  s.PutU32(vec.modeled ? 1 : 0);
  // Real ciphertexts ship fixed-width (their true footprint); modeled
  // shadows ship variable-width and are padded below, so both execution
  // modes put exactly WireBytes() on the wire.
  const uint32_t cipher_words =
      vec.modeled ? 0 : static_cast<uint32_t>(he.CiphertextWords());
  s.PutU32(cipher_words);
  s.PutU32(static_cast<uint32_t>(vec.data.size()));
  for (const auto& c : vec.data) {
    if (cipher_words > 0) {
      s.PutBigIntFixed(c, cipher_words);
    } else {
      s.PutBigInt(c);
    }
  }
  std::vector<uint8_t> payload = s.TakeBytes();
  const size_t wire = he.WireBytes(vec);
  if (payload.size() < wire) payload.resize(wire, 0);
  return network->Send(from, to, topic, std::move(payload),
                       /*objects=*/vec.data.size());
}

Result<EncVec> RecvEncVec(net::Network* network, const std::string& to,
                          const std::string& topic) {
  FLB_ASSIGN_OR_RETURN(net::Message msg, network->Receive(to, topic));
  net::Deserializer d(msg.payload);
  EncVec vec;
  FLB_ASSIGN_OR_RETURN(uint32_t layout, d.GetU32());
  if (layout > 1) {
    return Status::InvalidArgument("RecvEncVec: bad layout tag");
  }
  vec.layout = static_cast<EncLayout>(layout);
  FLB_ASSIGN_OR_RETURN(uint64_t count, d.GetU64());
  vec.count = count;
  FLB_ASSIGN_OR_RETURN(uint32_t slots, d.GetU32());
  vec.slots_per_cipher = static_cast<int>(slots);
  FLB_ASSIGN_OR_RETURN(uint32_t contributors, d.GetU32());
  vec.contributors = static_cast<int>(contributors);
  FLB_ASSIGN_OR_RETURN(uint32_t scale_muls, d.GetU32());
  vec.scale_muls = static_cast<int>(scale_muls);
  FLB_ASSIGN_OR_RETURN(uint32_t fp_slot_bits, d.GetU32());
  vec.fp_slot_bits = static_cast<int>(fp_slot_bits);
  FLB_ASSIGN_OR_RETURN(uint32_t modeled, d.GetU32());
  vec.modeled = modeled != 0;
  FLB_ASSIGN_OR_RETURN(uint32_t cipher_words, d.GetU32());
  FLB_ASSIGN_OR_RETURN(uint32_t n, d.GetU32());
  // Every ciphertext takes at least 4 bytes (a word, or a variable-width
  // limb count): refuse a count the payload cannot hold before reserving.
  const size_t min_bytes = cipher_words > 0 ? size_t{cipher_words} * 4 : 4;
  if (n > d.remaining() / min_bytes) {
    return Status::InvalidArgument(
        "RecvEncVec: ciphertext count exceeds the payload");
  }
  vec.data.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (cipher_words > 0) {
      FLB_ASSIGN_OR_RETURN(mpint::BigInt c, d.GetBigIntFixed(cipher_words));
      vec.data.push_back(std::move(c));
    } else {
      FLB_ASSIGN_OR_RETURN(mpint::BigInt c, d.GetBigInt());
      vec.data.push_back(std::move(c));
    }
  }
  return vec;
}

Status SendDoubles(net::Network* network, const std::string& from,
                   const std::string& to, const std::string& topic,
                   const std::vector<double>& values) {
  net::Serializer s;
  s.PutDoubleVector(values);
  return network->Send(from, to, topic, s.TakeBytes());
}

Result<std::vector<double>> RecvDoubles(net::Network* network,
                                        const std::string& to,
                                        const std::string& topic) {
  FLB_ASSIGN_OR_RETURN(net::Message msg, network->Receive(to, topic));
  net::Deserializer d(msg.payload);
  return d.GetDoubleVector();
}

}  // namespace flb::core

// Byte-level serialization for FL messages.
//
// The wire format matters here: the paper's communication costs are driven
// by ciphertext bytes, so messages serialize BigInts in the same fixed
// 2*key-size layout a real FATE deployment ships (ciphertexts in Z_{n^2}
// always occupy 2k bits regardless of value). All integers little-endian.

#ifndef FLB_NET_SERIALIZER_H_
#define FLB_NET_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/mpint/bigint.h"

namespace flb::net {

using mpint::BigInt;

class Serializer {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  // Variable-width: u32 limb count + limbs.
  void PutBigInt(const BigInt& v);
  // Fixed-width: exactly `words` limbs (the ciphertext layout).
  void PutBigIntFixed(const BigInt& v, size_t words);
  void PutDoubleVector(const std::vector<double>& v);
  // A batch of same-width ciphertexts: u32 count + count * words limbs.
  void PutBigIntBatchFixed(const std::vector<BigInt>& v, size_t words);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Used as the integrity check on
// reliable-transport frames and anywhere a cheap end-to-end payload guard is
// needed; detects every single-bit flip.
uint32_t Crc32(const uint8_t* data, size_t len);

// Reliable-transport frame: the unit ReliableChannel puts on the wire.
//
//   [magic u32][crc u32][seq u64][len u32][payload]
//
// The CRC covers everything after the crc field (seq + len + payload), so a
// bit flip anywhere in the routed content surfaces as kDataLoss at the
// receiver; a corrupted magic is equally fatal. `seq` is the per-link
// sequence number duplicate suppression keys on.
struct Frame {
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeFrame(uint64_t seq,
                                 const std::vector<uint8_t>& payload);
// kDataLoss on bad magic, checksum mismatch, or a length that disagrees
// with the buffer — the caller treats all three as a corrupted frame.
Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes);

class Deserializer {
 public:
  explicit Deserializer(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<double> GetDouble();
  Result<BigInt> GetBigInt();
  Result<BigInt> GetBigIntFixed(size_t words);
  Result<std::vector<double>> GetDoubleVector();
  Result<std::vector<BigInt>> GetBigIntBatchFixed(size_t words);

  // True when every byte has been consumed.
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Need(size_t n) const;

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

}  // namespace flb::net

#endif  // FLB_NET_SERIALIZER_H_

#include "src/net/serializer.h"

#include <cstring>

namespace flb::net {

void Serializer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Serializer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Serializer::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Serializer::PutBigInt(const BigInt& v) {
  PutU32(static_cast<uint32_t>(v.WordCount()));
  for (uint32_t w : v.words()) PutU32(w);
}

void Serializer::PutBigIntFixed(const BigInt& v, size_t words) {
  for (uint32_t w : v.ToFixedWords(words)) PutU32(w);
}

void Serializer::PutDoubleVector(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double d : v) PutDouble(d);
}

void Serializer::PutBigIntBatchFixed(const std::vector<BigInt>& v,
                                     size_t words) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (const BigInt& x : v) PutBigIntFixed(x, words);
}

namespace {

constexpr uint32_t kFrameMagic = 0x464C4246;  // "FLBF"

const uint32_t* Crc32Table() {
  static const auto table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  const uint32_t* table = Crc32Table();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> EncodeFrame(uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  Serializer body;
  body.PutU64(seq);
  body.PutU32(static_cast<uint32_t>(payload.size()));
  Serializer out;
  out.PutU32(kFrameMagic);
  // CRC over [seq][len][payload] — the body built so far plus the payload
  // appended verbatim below.
  uint32_t crc = 0xFFFFFFFFu;
  const uint32_t* table = Crc32Table();
  for (uint8_t b : body.bytes()) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  for (uint8_t b : payload) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  out.PutU32(crc ^ 0xFFFFFFFFu);
  std::vector<uint8_t> bytes = out.TakeBytes();
  const auto& head = body.bytes();
  bytes.insert(bytes.end(), head.begin(), head.end());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 20) {  // magic + crc + seq + len
    return Status::DataLoss("frame: truncated header");
  }
  Deserializer d(bytes);
  FLB_ASSIGN_OR_RETURN(uint32_t magic, d.GetU32());
  if (magic != kFrameMagic) {
    return Status::DataLoss("frame: bad magic (corrupted or unframed)");
  }
  FLB_ASSIGN_OR_RETURN(uint32_t crc, d.GetU32());
  if (crc != Crc32(bytes.data() + 8, bytes.size() - 8)) {
    return Status::DataLoss("frame: CRC32 mismatch (payload corrupted)");
  }
  Frame frame;
  FLB_ASSIGN_OR_RETURN(frame.seq, d.GetU64());
  FLB_ASSIGN_OR_RETURN(uint32_t len, d.GetU32());
  if (len != d.remaining()) {
    return Status::DataLoss("frame: length disagrees with buffer");
  }
  frame.payload.assign(bytes.end() - len, bytes.end());
  return frame;
}

Status Deserializer::Need(size_t n) const {
  if (pos_ + n > bytes_.size()) {
    return Status::OutOfRange("Deserializer: truncated message");
  }
  return Status::OK();
}

Result<uint32_t> Deserializer::GetU32() {
  FLB_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Deserializer::GetU64() {
  FLB_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<double> Deserializer::GetDouble() {
  FLB_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<BigInt> Deserializer::GetBigInt() {
  FLB_ASSIGN_OR_RETURN(uint32_t words, GetU32());
  return GetBigIntFixed(words);
}

Result<BigInt> Deserializer::GetBigIntFixed(size_t words) {
  FLB_RETURN_IF_ERROR(Need(words * 4));
  std::vector<uint32_t> w(words);
  for (size_t i = 0; i < words; ++i) {
    uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<uint32_t>(bytes_[pos_ + 4 * i + b]) << (8 * b);
    }
    w[i] = v;
  }
  pos_ += words * 4;
  return BigInt::FromWords(std::move(w));
}

Result<std::vector<double>> Deserializer::GetDoubleVector() {
  FLB_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  FLB_RETURN_IF_ERROR(Need(size_t{count} * 8));
  std::vector<double> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FLB_ASSIGN_OR_RETURN(double d, GetDouble());
    out.push_back(d);
  }
  return out;
}

Result<std::vector<BigInt>> Deserializer::GetBigIntBatchFixed(size_t words) {
  FLB_ASSIGN_OR_RETURN(uint32_t count, GetU32());
  FLB_RETURN_IF_ERROR(Need(size_t{count} * words * 4));
  std::vector<BigInt> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FLB_ASSIGN_OR_RETURN(BigInt v, GetBigIntFixed(words));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace flb::net

#include "src/fl/model_io.h"

#include "src/net/serializer.h"

namespace flb::fl {

namespace {

constexpr uint32_t kCkptMagic = 0x464C4243;  // "FLBC"
constexpr uint32_t kVersion = 1;

constexpr size_t kHeaderBytes = 16;  // magic u32, version u32, checksum u64

uint64_t Checksum(const std::vector<uint8_t>& bytes, size_t from) {
  // FNV-1a over the payload, cheap integrity guard against truncation.
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = from; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(int epoch,
                                         const std::vector<double>& weights) {
  net::Serializer payload;
  payload.PutU32(static_cast<uint32_t>(epoch + 1));  // -1 stored as 0
  payload.PutDoubleVector(weights);
  net::Serializer out;
  out.PutU32(kCkptMagic);
  out.PutU32(kVersion);
  out.PutU64(Checksum(payload.bytes(), 0));
  auto bytes = out.TakeBytes();
  const auto& p = payload.bytes();
  bytes.insert(bytes.end(), p.begin(), p.end());
  return bytes;
}

Result<TrainCheckpoint> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  net::Deserializer d(bytes);
  FLB_ASSIGN_OR_RETURN(uint32_t magic, d.GetU32());
  if (magic != kCkptMagic) {
    return Status::InvalidArgument("checkpoint: bad magic");
  }
  FLB_ASSIGN_OR_RETURN(uint32_t version, d.GetU32());
  if (version != kVersion) {
    return Status::NotSupported("checkpoint: unsupported version");
  }
  FLB_ASSIGN_OR_RETURN(uint64_t checksum, d.GetU64());
  if (checksum != Checksum(bytes, kHeaderBytes)) {
    return Status::IoError("checkpoint: checksum mismatch (corrupt file)");
  }
  TrainCheckpoint ckpt;
  FLB_ASSIGN_OR_RETURN(uint32_t epoch, d.GetU32());
  ckpt.epoch = static_cast<int>(epoch) - 1;
  FLB_ASSIGN_OR_RETURN(ckpt.weights, d.GetDoubleVector());
  return ckpt;
}

}  // namespace flb::fl

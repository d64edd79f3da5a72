#include "src/fl/model_io.h"

#include <cstdio>
#include <string>

#include "src/net/serializer.h"

namespace flb::fl {

namespace {

constexpr uint32_t kLrMagic = 0x464C4252;   // "FLBR"
constexpr uint32_t kSbtMagic = 0x464C4253;  // "FLBS"
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

// The envelope every format shares: magic, version, the payload's
// checksum, then the payload.
std::vector<uint8_t> Seal(uint32_t magic, const net::Serializer& payload) {
  net::Serializer out;
  out.PutU32(magic);
  out.PutU32(kVersion);
  out.PutU64(Checksum(payload.bytes(), 0));
  auto bytes = out.TakeBytes();
  const auto& p = payload.bytes();
  bytes.insert(bytes.end(), p.begin(), p.end());
  return bytes;
}

// Checks the envelope of `bytes` through `d`, which then reads the payload.
// Errors name the format `what`.
Status Open(const std::vector<uint8_t>& bytes, uint32_t magic,
            const std::string& what, net::Deserializer* d) {
  FLB_ASSIGN_OR_RETURN(uint32_t got_magic, d->GetU32());
  if (got_magic != magic) {
    return Status::InvalidArgument(what + ": bad magic");
  }
  FLB_ASSIGN_OR_RETURN(uint32_t version, d->GetU32());
  if (version != kVersion) {
    return Status::NotSupported(what + ": unsupported version");
  }
  FLB_ASSIGN_OR_RETURN(uint64_t checksum, d->GetU64());
  if (checksum != Checksum(bytes, kHeaderBytes)) {
    return Status::IoError(what + ": checksum mismatch (corrupt file)");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> SerializeLrModel(const std::vector<double>& weights) {
  net::Serializer payload;
  payload.PutDoubleVector(weights);
  return Seal(kLrMagic, payload);
}

Result<std::vector<double>> DeserializeLrModel(
    const std::vector<uint8_t>& bytes) {
  net::Deserializer d(bytes);
  FLB_RETURN_IF_ERROR(Open(bytes, kLrMagic, "LR model", &d));
  return d.GetDoubleVector();
}

std::vector<uint8_t> SerializeSbtModel(const std::vector<SbtTree>& trees,
                                       double learning_rate) {
  net::Serializer payload;
  payload.PutDouble(learning_rate);
  payload.PutU32(static_cast<uint32_t>(trees.size()));
  for (const SbtTree& tree : trees) {
    payload.PutU32(static_cast<uint32_t>(tree.nodes.size()));
    for (const SbtNode& node : tree.nodes) {
      payload.PutU32(node.is_leaf ? 1 : 0);
      payload.PutU32(static_cast<uint32_t>(node.split_party + 1));
      payload.PutU32(node.split_feature);
      payload.PutU32(static_cast<uint32_t>(node.split_bin));
      payload.PutU32(static_cast<uint32_t>(node.left + 1));
      payload.PutU32(static_cast<uint32_t>(node.right + 1));
      payload.PutDouble(node.leaf_weight);
    }
  }
  return Seal(kSbtMagic, payload);
}

Result<SbtModel> DeserializeSbtModel(const std::vector<uint8_t>& bytes) {
  net::Deserializer d(bytes);
  FLB_RETURN_IF_ERROR(Open(bytes, kSbtMagic, "SBT model", &d));
  SbtModel model;
  FLB_ASSIGN_OR_RETURN(model.learning_rate, d.GetDouble());
  FLB_ASSIGN_OR_RETURN(uint32_t num_trees, d.GetU32());
  model.trees.reserve(num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    FLB_ASSIGN_OR_RETURN(uint32_t num_nodes, d.GetU32());
    SbtTree tree;
    tree.nodes.reserve(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      SbtNode node;
      FLB_ASSIGN_OR_RETURN(uint32_t leaf, d.GetU32());
      node.is_leaf = leaf != 0;
      FLB_ASSIGN_OR_RETURN(uint32_t party, d.GetU32());
      node.split_party = static_cast<int>(party) - 1;
      FLB_ASSIGN_OR_RETURN(node.split_feature, d.GetU32());
      FLB_ASSIGN_OR_RETURN(uint32_t bin, d.GetU32());
      node.split_bin = static_cast<int>(bin);
      FLB_ASSIGN_OR_RETURN(uint32_t left, d.GetU32());
      node.left = static_cast<int>(left) - 1;
      FLB_ASSIGN_OR_RETURN(uint32_t right, d.GetU32());
      node.right = static_cast<int>(right) - 1;
      FLB_ASSIGN_OR_RETURN(node.leaf_weight, d.GetDouble());
      // Structural validation: children must point inside the tree.
      if (!node.is_leaf &&
          (node.left < 0 || node.right < 0 ||
           node.left >= static_cast<int>(num_nodes) ||
           node.right >= static_cast<int>(num_nodes))) {
        return Status::InvalidArgument("SBT model: child index out of range");
      }
      tree.nodes.push_back(node);
    }
    model.trees.push_back(std::move(tree));
  }
  return model;
}

std::vector<uint8_t> SerializeCheckpoint(int epoch,
                                         const std::vector<double>& weights) {
  net::Serializer payload;
  payload.PutU32(static_cast<uint32_t>(epoch + 1));  // -1 stored as 0
  payload.PutDoubleVector(weights);
  return Seal(kCkptMagic, payload);
}

Result<TrainCheckpoint> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  net::Deserializer d(bytes);
  FLB_RETURN_IF_ERROR(Open(bytes, kCkptMagic, "checkpoint", &d));
  TrainCheckpoint ckpt;
  FLB_ASSIGN_OR_RETURN(uint32_t epoch, d.GetU32());
  ckpt.epoch = static_cast<int>(epoch) - 1;
  FLB_ASSIGN_OR_RETURN(ckpt.weights, d.GetDoubleVector());
  return ckpt;
}

Status WriteModelFile(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("WriteModelFile: cannot open " + path);
  }
  const size_t written = bytes.empty()
                             ? 0
                             : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && written == bytes.size();
  if (!ok) return Status::IoError("WriteModelFile: short write to " + path);
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadModelFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("ReadModelFile: cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool had_error = std::ferror(f) != 0;
  std::fclose(f);
  if (had_error) {
    return Status::IoError("ReadModelFile: read error on " + path);
  }
  return bytes;
}

}  // namespace flb::fl

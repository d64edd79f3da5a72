#include "src/core/he_service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/core/cost_model.h"

namespace flb::core {

namespace {

using ghe::HeOp;

// A residue c in (half_n, n) stands for the negative it encodes; returns
// its magnitude n - c, or nullopt for any other c. A codec value's
// magnitude is short, so c is read once from the top limb down to where it
// leaves n's limbs, and only the limbs below that are subtracted.
std::optional<BigInt> NegativeMagnitude(const BigInt& c, const BigInt& n,
                                        const BigInt& half_n) {
  const std::vector<uint32_t>& m = n.words();
  if (c <= half_n || c.WordCount() > m.size()) return std::nullopt;
  size_t top = m.size();
  while (top > 0 && c.word(top - 1) == m[top - 1]) --top;
  if (top == 0 || c.word(top - 1) > m[top - 1]) return std::nullopt;  // c >= n
  std::vector<uint32_t> diff(top);
  uint64_t borrow = 0;
  for (size_t i = 0; i < top; ++i) {
    const uint64_t d = uint64_t{m[i]} - c.word(i) - borrow;
    diff[i] = static_cast<uint32_t>(d);
    borrow = d >> 63;
  }
  return BigInt::FromWords(std::move(diff));
}

// c * k mod n on residues, reading one in (half_n, n) as the negative it
// encodes: multiply the short magnitudes, reduce, and negate once. Equal to
// BigInt::Mul(c, k) % n for every c and k; the plaintext twin of
// crypto::PaillierContext::NegatedScalar.
BigInt SignFoldedMulMod(const BigInt& c, const BigInt& k, const BigInt& n,
                        const BigInt& half_n) {
  const std::optional<BigInt> c_mag = NegativeMagnitude(c, n, half_n);
  const std::optional<BigInt> k_mag = NegativeMagnitude(k, n, half_n);
  BigInt r = BigInt::Mul(c_mag ? *c_mag : c, k_mag ? *k_mag : k) % n;
  if (c_mag.has_value() == k_mag.has_value() || r.IsZero()) return r;
  return BigInt::Sub(n, r);
}

// Every field of v but its ciphertexts: an op's result starts from its
// input's header without copying the input's data.
EncVec HeaderOf(const EncVec& v) {
  EncVec h;
  h.layout = v.layout;
  h.count = v.count;
  h.slots_per_cipher = v.slots_per_cipher;
  h.contributors = v.contributors;
  h.scale_muls = v.scale_muls;
  h.fp_slot_bits = v.fp_slot_bits;
  h.modeled = v.modeled;
  return h;
}

}  // namespace

HeService::HeService(const HeServiceOptions& options, SimClock* clock,
                     std::shared_ptr<gpusim::Device> device,
                     codec::Quantizer quantizer)
    : options_(options),
      traits_(TraitsFor(options.engine)),
      clock_(clock),
      device_(std::move(device)),
      quantizer_(std::move(quantizer)),
      rng_(options.seed) {}

Result<std::unique_ptr<HeService>> HeService::Create(
    const HeServiceOptions& options, SimClock* clock,
    std::shared_ptr<gpusim::Device> device) {
  if (options.key_bits < 64 || options.key_bits % 64 != 0) {
    return Status::InvalidArgument(
        "HeService: key_bits must be a positive multiple of 64");
  }
  // DecryptFixedPoint reads a slot as a signed 64-bit value less its
  // 2^(sb-1) offset, which overflows at sb = 64.
  if (options.fp_compress_slot_bits < 0 || options.fp_compress_slot_bits > 63) {
    return Status::InvalidArgument(
        "HeService: fp_compress_slot_bits must be in [0, 63] (0 = derive)");
  }
  const EngineTraits traits = TraitsFor(options.engine);
  if (traits.gpu_he && device == nullptr) {
    return Status::InvalidArgument(
        "HeService: engine '" + EngineName(options.engine) +
        "' runs HE on the GPU but no device was supplied");
  }

  codec::QuantizerConfig qcfg;
  qcfg.alpha = options.alpha;
  qcfg.r_bits = options.r_bits;
  qcfg.participants = options.participants;
  FLB_ASSIGN_OR_RETURN(codec::Quantizer quantizer,
                       codec::Quantizer::Create(qcfg));

  auto service = std::unique_ptr<HeService>(
      new HeService(options, clock, std::move(device), std::move(quantizer)));

  // Host execution pool: an explicit size makes the service own a private
  // pool; otherwise everyone shares the process-global one.
  if (options.host_threads > 0) {
    service->owned_pool_ =
        std::make_unique<common::ThreadPool>(options.host_threads);
    service->host_pool_ = service->owned_pool_.get();
  } else {
    service->host_pool_ = &common::ThreadPool::Global();
  }

  if (traits.gpu_he) {
    ghe::GheConfig gcfg;
    gcfg.words_per_thread = traits.words_per_thread;
    gcfg.streams =
        options.gpu_streams > 0 ? options.gpu_streams : traits.gpu_streams;
    gcfg.chunks_per_stream =
        options.ghe_chunks_per_stream > 0 ? options.ghe_chunks_per_stream : 1;
    gcfg.host_pool = service->host_pool_;
    service->ghe_ = std::make_unique<ghe::GheEngine>(service->device_, gcfg);
  }
  // Compression: the engine trait unless the option overrides it. The
  // effective flag lives in traits_ so every consumer (pack_slots,
  // CompressForTransmission, the encrypt paths) sees one value.
  const bool use_bc =
      options.use_bc < 0 ? traits.use_bc : options.use_bc != 0;
  service->traits_.use_bc = use_bc;
  if (use_bc) {
    FLB_ASSIGN_OR_RETURN(
        auto compressor,
        codec::BatchCompressor::Create(service->quantizer_, options.key_bits));
    service->compressor_.emplace(std::move(compressor));
  }

  if (options.modeled) {
    // Synthetic modulus: the modeled path never performs real crypto, it
    // only needs a key_bits-wide odd modulus for residue arithmetic.
    BigInt n = BigInt::Random(service->rng_, options.key_bits);
    auto w = n.ToFixedWords(options.key_bits / 32);
    w[0] |= 1u;
    w.back() |= 0x80000000u;
    service->n_ = BigInt::FromWords(std::move(w));
  } else {
    crypto::PaillierOptions popts;
    popts.use_fixed_width_kernels = options.use_fixed_width_kernels;
    FLB_ASSIGN_OR_RETURN(auto keys,
                         crypto::PaillierKeyGen(options.key_bits,
                                                service->rng_, popts));
    service->n_ = keys.pub.n;
    FLB_ASSIGN_OR_RETURN(auto ctx,
                         crypto::PaillierContext::Create(keys, popts));
    service->paillier_.emplace(std::move(ctx));
  }

  FLB_ASSIGN_OR_RETURN(
      auto fp, codec::FixedPointCodec::Create(service->n_, options.frac_bits));
  service->fp_codec_ = std::make_unique<codec::FixedPointCodec>(std::move(fp));
  return service;
}

int HeService::pack_slots() const {
  return traits_.use_bc ? compressor_->slots_per_plaintext() : 1;
}

size_t HeService::CiphertextWords() const {
  return static_cast<size_t>(options_.key_bits) * 2 / 32;
}

size_t HeService::WireBytes(const EncVec& c) const {
  // Fixed-width ciphertexts plus the transport header (layout/count/slot
  // metadata — see core::SendEncVec).
  return c.data.size() * CiphertextWords() * 4 + 48;
}

int HeService::fp_compress_slot_bits() const {
  if (options_.fp_compress_slot_bits > 0) {
    return options_.fp_compress_slot_bits;
  }
  return std::min(2 * options_.frac_bits + 14, 62);
}

Status HeService::CheckLayout(const EncVec& v, EncLayout expected,
                              const char* op) const {
  if (v.layout != expected) {
    return Status::InvalidArgument(std::string(op) +
                                   ": EncVec has the wrong layout");
  }
  if (v.modeled != options_.modeled) {
    return Status::InvalidArgument(
        std::string(op) + ": EncVec execution mode does not match service");
  }
  // The shape arrives off the wire (RecvEncVec); every op indexes by it.
  if (v.slots_per_cipher < 1 || v.fp_slot_bits < 0 || v.fp_slot_bits > 63) {
    return Status::InvalidArgument(std::string(op) +
                                   ": EncVec has an invalid slot layout");
  }
  const auto slots = static_cast<size_t>(v.slots_per_cipher);
  if (v.data.size() != v.count / slots + (v.count % slots != 0 ? 1 : 0)) {
    return Status::InvalidArgument(
        std::string(op) + ": EncVec count does not match its ciphertexts");
  }
  // Decoding sums `contributors` slot contributions and divides by
  // 2^(frac_bits * (1 + scale_muls)); both arrive off the wire too.
  if (v.contributors < 1 || v.contributors > options_.participants) {
    return Status::InvalidArgument(
        std::string(op) + ": EncVec contributors outside [1, participants]");
  }
  if (v.scale_muls < 0 ||
      int64_t{options_.frac_bits} * (1 + int64_t{v.scale_muls}) >=
          options_.key_bits) {
    return Status::InvalidArgument(
        std::string(op) + ": EncVec fixed-point scale exceeds the key");
  }
  return Status::OK();
}

Result<std::vector<BigInt>> HeService::ChargeBatch(const char* kind, HeOp op,
                                                   int64_t count,
                                                   const Compute& compute,
                                                   int width_bits) {
  Result<std::vector<BigInt>> out = std::vector<BigInt>{};
  const bool in_launch = traits_.gpu_he && !options_.modeled && count > 0;
  if (!in_launch) {
    out = compute();
    if (!out.ok() || count <= 0) return out;
  }
  const ghe::HeOpCost cost =
      ghe::HeCost(op, options_.key_bits, count, width_bits);
  const obs::Track track =
      obs::TraceRecorder::Global().RegisterTrack("he", "batches");
  if (!traits_.gpu_he) {
    // The span's extent is exactly the simulated CPU-HE time charged.
    ChargeSpan(clock_, CostKind::kCpuHe,
               CpuCostModel().SecondsFor(static_cast<uint64_t>(count),
                                         cost.limb_ops),
               track, kind, "he", {obs::Arg("count", count)});
    return out;
  }
  // One device batch, with the chunked copy/compute overlap when streams >
  // 1. The device traces the kernel and PCIe spans; the outer span shows
  // the whole batch on the HE track.
  obs::ScopedSpan span(clock_, track, kind, "he");
  span.AddArg(obs::Arg("count", count));
  std::function<Status()> body;
  if (in_launch) {
    body = [&] {
      out = compute();
      return out.status();
    };
  }
  FLB_RETURN_IF_ERROR(ghe_->ModelBatch(kind, count, cost.limbs, cost.limb_ops,
                                       cost.bytes_in, cost.bytes_out, body)
                          .status());
  return out;
}

Result<std::vector<BigInt>> HeService::PackedPlaintexts(
    const std::vector<double>& values) const {
  if (traits_.use_bc) return compressor_->Pack(values);
  FLB_ASSIGN_OR_RETURN(auto slots, quantizer_.EncodeBatch(values));
  std::vector<BigInt> plains;
  plains.reserve(slots.size());
  for (uint64_t s : slots) plains.emplace_back(s);
  return plains;
}

// ---------------------------------------------------------------------------
// Compute: one batch on the shadow residues (modeled) or through the
// PaillierContext batch call both real engines run.
// ---------------------------------------------------------------------------

Result<std::vector<BigInt>> HeService::EncryptBatch(
    std::vector<BigInt> plains) {
  if (options_.modeled) return plains;
  return paillier_->EncryptBatch(plains, rng_, host_pool_);
}

Result<std::vector<BigInt>> HeService::DecryptBatch(
    const std::vector<BigInt>& cs) const {
  if (options_.modeled) return cs;
  return paillier_->DecryptBatch(cs, host_pool_);
}

Result<std::vector<BigInt>> HeService::AddBatch(
    const std::vector<BigInt>& a, const std::vector<BigInt>& b) const {
  if (!options_.modeled) return paillier_->AddBatch(a, b, host_pool_);
  std::vector<BigInt> sums = a;
  for (size_t i = 0; i < sums.size(); ++i) sums[i].AddModInPlace(b[i], n_);
  return sums;
}

Result<std::vector<BigInt>> HeService::AddPlainBatch(
    const std::vector<BigInt>& cs, const std::vector<BigInt>& plains) const {
  if (!options_.modeled) {
    return paillier_->AddPlainBatch(cs, plains, host_pool_);
  }
  std::vector<BigInt> sums = cs;
  for (size_t i = 0; i < sums.size(); ++i) {
    sums[i].AddModInPlace(plains[i], n_);
  }
  return sums;
}

Result<std::vector<BigInt>> HeService::ScalarMulBatch(
    const std::vector<BigInt>& cs, const std::vector<BigInt>& ks) const {
  if (!options_.modeled) return paillier_->ScalarMulBatch(cs, ks, host_pool_);
  std::vector<BigInt> products;
  products.reserve(cs.size());
  for (size_t i = 0; i < cs.size(); ++i) {
    products.push_back(
        SignFoldedMulMod(cs[i], ks[i], n_, fp_codec_->half_modulus()));
  }
  return products;
}

Result<std::vector<BigInt>> HeService::FoldGroups(
    const std::vector<BigInt>& terms,
    const std::vector<std::vector<uint32_t>>& groups) {
  if (!options_.modeled) {
    // Ciphertexts multiply mod n^2: one Montgomery chain per group, one
    // group per pool task.
    FLB_ASSIGN_OR_RETURN(std::vector<BigInt> sums,
                         paillier_->FoldBatch(terms, groups, host_pool_));
    // An empty group is a fresh E(0). ObfuscationPool draws are ordered, so
    // these stay serial and in group order. Like the modeled residue 0, it
    // is neither counted nor charged (DESIGN.md §8).
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!groups[g].empty()) continue;
      FLB_ASSIGN_OR_RETURN(sums[g], paillier_->Encrypt(BigInt(), rng_));
    }
    return sums;
  }
  // Residues add mod n, sign-folded: a term in (n/2, n) enters as its
  // magnitude n - c, taken at most once per term per call (SBT's
  // SelectiveSums reads each gradient once per feature). Positives and
  // magnitudes go into two plain sums over the terms' own limbs, and the
  // group's residue is their difference, reduced once. A one-term group is
  // copied as it is, and an empty group is residue 0.
  const BigInt& half_n = fp_codec_->half_modulus();
  std::vector<uint8_t> read(terms.size(), 0);
  std::vector<std::optional<BigInt>> magnitude(terms.size());
  std::vector<BigInt> sums(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<uint32_t>& group = groups[g];
    if (group.size() < 2) {
      if (!group.empty()) sums[g] = terms[group[0]];
      continue;
    }
    BigInt pos, neg;
    for (uint32_t i : group) {
      if (read[i] == 0) {
        magnitude[i] = NegativeMagnitude(terms[i], n_, half_n);
        read[i] = 1;
      }
      if (magnitude[i].has_value()) {
        neg.AddInPlace(*magnitude[i]);
      } else {
        pos.AddInPlace(terms[i]);
      }
    }
    const bool negative = pos < neg;
    BigInt diff = negative ? BigInt::Sub(neg, pos) : BigInt::Sub(pos, neg);
    if (diff >= n_) diff = diff % n_;
    sums[g] = negative && !diff.IsZero() ? BigInt::Sub(n_, diff)
                                         : std::move(diff);
  }
  return sums;
}

Result<std::vector<BigInt>> HeService::PackBatch(const std::vector<BigInt>& cs,
                                                 int slot_bits,
                                                 int slots) const {
  const BigInt offset = BigInt::PowerOfTwo(slot_bits - 1);
  if (!options_.modeled) {
    // Horner from the top slot down, acc = acc^(2^sb) * E(v_j + offset),
    // one group per task on the host pool.
    return paillier_->PackBatch(cs, offset, slot_bits,
                                static_cast<size_t>(slots), host_pool_);
  }
  std::vector<BigInt> out;
  for (size_t base = 0; base < cs.size(); base += slots) {
    const size_t group = std::min<size_t>(slots, cs.size() - base);
    BigInt acc;
    for (size_t j = 0; j < group; ++j) {
      // shifted = (value + offset) * 2^(j*sb), on the residues.
      BigInt with_offset = cs[base + j];
      with_offset.AddModInPlace(offset, n_);
      const BigInt shifted =
          BigInt::ShiftLeft(with_offset, static_cast<int>(j) * slot_bits) % n_;
      acc.AddModInPlace(shifted, n_);
    }
    out.push_back(std::move(acc));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Packed-sum path
// ---------------------------------------------------------------------------

Result<EncVec> HeService::EncryptValues(const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::EncryptValues"));
  if (values.empty()) {
    return Status::InvalidArgument("EncryptValues: empty input");
  }
  // Encoding/quantization/packing cost: a handful of float+integer ops per
  // value — "extremely small" per the paper, but accounted for honestly.
  ChargeSpan(clock_, CostKind::kEncoding, values.size() * 4e-9,
             obs::TraceRecorder::Global().RegisterTrack("he", "encode"),
             "he.encode", "encode",
             {obs::Arg("values", static_cast<uint64_t>(values.size()))});
  FLB_ASSIGN_OR_RETURN(std::vector<BigInt> plains, PackedPlaintexts(values));
  const size_t n_cipher = plains.size();
  EncVec out;
  out.layout = EncLayout::kPackedSum;
  out.count = values.size();
  out.slots_per_cipher = pack_slots();
  out.contributors = 1;
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(
      out.data, ChargeBatch("he.encrypt", HeOp::kEncrypt, n_cipher,
                            [&] { return EncryptBatch(std::move(plains)); }));
  op_cells_.encrypts.fetch_add(n_cipher, std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(), std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::AddCipher(const EncVec& a, const EncVec& b) {
  FLB_RETURN_IF_ERROR(CheckLayout(a, EncLayout::kPackedSum, "AddCipher"));
  FLB_RETURN_IF_ERROR(CheckLayout(b, EncLayout::kPackedSum, "AddCipher"));
  if (a.count != b.count || a.slots_per_cipher != b.slots_per_cipher) {
    return Status::InvalidArgument("AddCipher: mismatched vector layouts");
  }
  if (a.contributors + b.contributors > options_.participants) {
    return Status::OutOfRange(
        "AddCipher: contributor total would exceed the quantizer's overflow "
        "headroom");
  }
  EncVec out = HeaderOf(a);
  out.contributors = a.contributors + b.contributors;
  FLB_ASSIGN_OR_RETURN(
      out.data, ChargeBatch("he.add", HeOp::kAdd, a.data.size(),
                            [&] { return AddBatch(a.data, b.data); }));
  op_cells_.hom_adds.fetch_add(a.data.size(), std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::AddPlainValues(const EncVec& c,
                                         const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kPackedSum, "AddPlainValues"));
  if (values.size() != c.count) {
    return Status::InvalidArgument("AddPlainValues: value count mismatch");
  }
  if (c.contributors + 1 > options_.participants) {
    return Status::OutOfRange("AddPlainValues: overflow headroom exhausted");
  }
  FLB_ASSIGN_OR_RETURN(const std::vector<BigInt> plains,
                       PackedPlaintexts(values));
  if (plains.size() != c.data.size()) {
    return Status::Internal("AddPlainValues: packing layout mismatch");
  }
  EncVec out = HeaderOf(c);
  out.contributors = c.contributors + 1;
  FLB_ASSIGN_OR_RETURN(
      out.data, ChargeBatch("he.add_plain", HeOp::kAddPlain, plains.size(),
                            [&] { return AddPlainBatch(c.data, plains); }));
  op_cells_.hom_adds.fetch_add(plains.size(), std::memory_order_relaxed);
  return out;
}

Result<std::vector<double>> HeService::DecryptValues(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptValues"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kPackedSum, "DecryptValues"));
  FLB_ASSIGN_OR_RETURN(const std::vector<BigInt> plains,
                       ChargeBatch("he.decrypt", HeOp::kDecrypt, c.data.size(),
                                   [&] { return DecryptBatch(c.data); }));
  op_cells_.decrypts.fetch_add(c.data.size(), std::memory_order_relaxed);
  op_cells_.values_decrypted.fetch_add(c.count, std::memory_order_relaxed);
  ChargeSpan(clock_, CostKind::kEncoding, c.count * 4e-9,
             obs::TraceRecorder::Global().RegisterTrack("he", "encode"),
             "he.decode", "encode",
             {obs::Arg("values", static_cast<uint64_t>(c.count))});
  if (traits_.use_bc) {
    return compressor_->Unpack(plains, c.count, c.contributors);
  }
  std::vector<double> out;
  out.reserve(plains.size());
  for (const BigInt& m : plains) {
    FLB_ASSIGN_OR_RETURN(uint64_t slot, m.ToU64());
    FLB_ASSIGN_OR_RETURN(double v,
                         quantizer_.DecodeAggregate(slot, c.contributors));
    out.push_back(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fixed-point path
// ---------------------------------------------------------------------------

Result<EncVec> HeService::EncryptFixedPoint(const std::vector<double>& values) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::EncryptFixedPoint"));
  if (values.empty()) {
    return Status::InvalidArgument("EncryptFixedPoint: empty input");
  }
  std::vector<BigInt> plains;
  plains.reserve(values.size());
  for (double v : values) {
    FLB_ASSIGN_OR_RETURN(BigInt x, fp_codec_->Encode(v));
    plains.push_back(std::move(x));
  }
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = values.size();
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(
      out.data,
      ChargeBatch("he.fp_encrypt", HeOp::kEncrypt, values.size(),
                  [&] { return EncryptBatch(std::move(plains)); }));
  op_cells_.encrypts.fetch_add(values.size(), std::memory_order_relaxed);
  op_cells_.values_encrypted.fetch_add(values.size(), std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::ScalarMulFixedPoint(
    const EncVec& c, const std::vector<double>& weights) {
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "ScalarMulFixedPoint"));
  if (weights.size() != c.count || c.slots_per_cipher != 1) {
    return Status::InvalidArgument(
        "ScalarMulFixedPoint: weight count mismatch or packed input");
  }
  std::vector<BigInt> ks;
  ks.reserve(weights.size());
  for (double w : weights) {
    FLB_ASSIGN_OR_RETURN(BigInt k, fp_codec_->EncodeScalar(w));
    ks.push_back(std::move(k));
  }
  EncVec out = HeaderOf(c);
  out.scale_muls = c.scale_muls + 1;
  FLB_ASSIGN_OR_RETURN(
      out.data,
      ChargeBatch("he.fp_scalar_mul", HeOp::kScalarMul, c.data.size(),
                  [&] { return ScalarMulBatch(c.data, ks); },
                  ghe::FixedPointScalarBits(options_.frac_bits)));
  op_cells_.scalar_muls.fetch_add(c.data.size(), std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::WeightedSums(
    const EncVec& c, const std::vector<std::vector<WeightedTerm>>& groups) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::WeightedSums"));
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kFixedPoint, "WeightedSums"));
  if (c.slots_per_cipher != 1) {
    return Status::InvalidArgument("WeightedSums: input must be unpacked");
  }
  // Flatten all terms into one scalar-mul batch.
  std::vector<BigInt> term_ciphers;
  std::vector<double> term_weights;
  for (const auto& group : groups) {
    for (const auto& term : group) {
      if (term.index >= c.data.size()) {
        return Status::OutOfRange("WeightedSums: term index out of range");
      }
      term_ciphers.push_back(c.data[term.index]);
      term_weights.push_back(term.weight);
    }
  }
  EncVec flat = HeaderOf(c);
  flat.count = term_ciphers.size();
  flat.data = std::move(term_ciphers);
  FLB_ASSIGN_OR_RETURN(EncVec products, ScalarMulFixedPoint(flat, term_weights));

  // Fold products group-wise as one add batch; group g's products sit at
  // consecutive positions.
  std::vector<std::vector<uint32_t>> positions(groups.size());
  uint32_t pos = 0;
  uint64_t adds = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t t = 0; t < groups[g].size(); ++t) positions[g].push_back(pos++);
    if (!groups[g].empty()) adds += groups[g].size() - 1;
  }
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = groups.size();
  out.scale_muls = c.scale_muls + 1;
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(
      out.data, ChargeBatch("he.fp_fold", HeOp::kAdd, adds, [&] {
        return FoldGroups(products.data, positions);
      }));
  op_cells_.hom_adds.fetch_add(adds, std::memory_order_relaxed);
  return out;
}

Result<EncVec> HeService::SelectiveSums(
    const EncVec& c, const std::vector<std::vector<uint32_t>>& groups) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::SelectiveSums"));
  // Selective sums are pure additions (no scalar multiplications), so they
  // do not route through WeightedSums.
  FLB_RETURN_IF_ERROR(CheckLayout(c, EncLayout::kFixedPoint, "SelectiveSums"));
  if (c.slots_per_cipher != 1) {
    return Status::InvalidArgument("SelectiveSums: input must be unpacked");
  }
  uint64_t adds = 0;
  for (const auto& group : groups) {
    for (uint32_t index : group) {
      if (index >= c.data.size()) {
        return Status::OutOfRange("SelectiveSums: index out of range");
      }
    }
    if (!group.empty()) adds += group.size() - 1;
  }
  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = groups.size();
  out.scale_muls = c.scale_muls;
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(
      out.data, ChargeBatch("he.selective_sum", HeOp::kAdd, adds,
                            [&] { return FoldGroups(c.data, groups); }));
  op_cells_.hom_adds.fetch_add(adds, std::memory_order_relaxed);
  return out;
}

Result<std::vector<double>> HeService::DecryptFixedPoint(const EncVec& c) {
  FLB_RETURN_IF_ERROR(CheckDeadline("HeService::DecryptFixedPoint"));
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "DecryptFixedPoint"));
  FLB_ASSIGN_OR_RETURN(
      const std::vector<BigInt> plains,
      ChargeBatch("he.fp_decrypt", HeOp::kDecrypt, c.data.size(),
                  [&] { return DecryptBatch(c.data); }));
  op_cells_.decrypts.fetch_add(c.data.size(), std::memory_order_relaxed);
  op_cells_.values_decrypted.fetch_add(c.count, std::memory_order_relaxed);

  std::vector<double> out;
  out.reserve(c.count);
  if (c.fp_slot_bits == 0) {
    for (const BigInt& m : plains) {
      FLB_ASSIGN_OR_RETURN(double v, fp_codec_->Decode(m, c.scale_muls));
      out.push_back(v);
    }
    return out;
  }
  // Compressed layout: extract slots and remove the sign offset.
  const int sb = c.fp_slot_bits;
  const double scale =
      std::ldexp(1.0, options_.frac_bits * (1 + c.scale_muls));
  const int64_t offset = int64_t{1} << (sb - 1);
  for (size_t i = 0; i < c.count; ++i) {
    const BigInt& z = plains[i / c.slots_per_cipher];
    const int pos = static_cast<int>(i % c.slots_per_cipher);
    const BigInt slot =
        BigInt::TruncateBits(BigInt::ShiftRight(z, pos * sb), sb);
    FLB_ASSIGN_OR_RETURN(uint64_t raw, slot.ToU64());
    out.push_back((static_cast<int64_t>(raw) - offset) / scale);
  }
  return out;
}

Result<EncVec> HeService::CompressForTransmission(const EncVec& c) {
  FLB_RETURN_IF_ERROR(
      CheckLayout(c, EncLayout::kFixedPoint, "CompressForTransmission"));
  if (!traits_.use_bc || c.slots_per_cipher != 1 || c.count <= 1) {
    return c;  // compression disabled or nothing to gain
  }
  const int sb = fp_compress_slot_bits();
  const int slots = ghe::CipherPackSlots(options_.key_bits, sb);
  if (slots <= 1) return c;

  EncVec out;
  out.layout = EncLayout::kFixedPoint;
  out.count = c.count;
  out.scale_muls = c.scale_muls;
  out.slots_per_cipher = slots;
  out.fp_slot_bits = sb;
  out.modeled = options_.modeled;
  FLB_ASSIGN_OR_RETURN(
      out.data,
      ChargeBatch("he.cipher_compress", HeOp::kPack, c.data.size(),
                  [&] { return PackBatch(c.data, sb, slots); }, sb));
  // Per source ciphertext: one offset add and one shift; beyond each
  // group's first, one add.
  const uint64_t adds = c.count - out.data.size();
  op_cells_.hom_adds.fetch_add(adds + c.count, std::memory_order_relaxed);
  op_cells_.scalar_muls.fetch_add(c.count, std::memory_order_relaxed);
  return out;
}

void HeService::CollectMetrics(std::vector<obs::MetricValue>& out) const {
  const std::string labels = "engine=" + EngineName(options_.engine);
  auto counter = [&](const char* name, uint64_t value) {
    obs::MetricValue m;
    m.name = name;
    m.labels = labels;
    m.type = obs::MetricType::kCounter;
    m.value = static_cast<double>(value);
    out.push_back(std::move(m));
  };
  counter("flb.he.encrypts", op_cells_.encrypts.load(std::memory_order_relaxed));
  counter("flb.he.decrypts", op_cells_.decrypts.load(std::memory_order_relaxed));
  counter("flb.he.hom_adds", op_cells_.hom_adds.load(std::memory_order_relaxed));
  counter("flb.he.scalar_muls", op_cells_.scalar_muls.load(std::memory_order_relaxed));
  counter("flb.he.values_encrypted", op_cells_.values_encrypted.load(std::memory_order_relaxed));
  counter("flb.he.values_decrypted", op_cells_.values_decrypted.load(std::memory_order_relaxed));
  // Fixed-width kernel limb width the n^2 context dispatched to (0 = the
  // generic path — modeled mode, odd widths, or FLB_FIXED_KERNELS=0).
  obs::MetricValue m;
  m.name = "flb.he.fixed_kernel_width";
  m.labels = labels;
  m.type = obs::MetricType::kGauge;
  m.value = paillier_.has_value()
                ? static_cast<double>(
                      paillier_->eval().n2_ctx().fixed_kernel_width())
                : 0.0;
  out.push_back(std::move(m));
}

}  // namespace flb::core

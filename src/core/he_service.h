// HeService: the FLBooster platform's HE facade, binding together the key
// material, the execution engine (CPU vs simulated GPU), the
// Encoding-Quantization module, and Batch Compression.
//
// Two encrypted-vector layouts are supported:
//
//  * Packed-sum (Quantizer + BatchCompressor): the transport layout for
//    vectors that only ever get added slot-wise across parties — gradient
//    aggregation (Homo LR), forward-score aggregation. Under BC, n values
//    share one ciphertext; otherwise one value per ciphertext.
//
//  * Fixed-point (FixedPointCodec): per-value ciphertexts hetero protocols
//    scalar-multiply and selectively sum (SecureBoost histograms, Hetero LR
//    gradient legs, the Hetero NN interactive layer). Under BC, *computed*
//    fixed-point ciphertext vectors are compressed before transmission by
//    cipher-space packing (SecureBoost+-style shift-and-add: each ciphertext
//    is offset-shifted to make the value non-negative, and a group is packed
//    into one ciphertext by Horner's rule, acc = acc^(2^sb) * E(v + offset))
//    — so BC applies even to ciphertexts the sender cannot re-encrypt.
//
// Execution modes:
//  * Real (default): genuine Paillier over the configured key size; results
//    are cryptographically exact. Tests, examples, and small benches.
//  * Modeled: the arithmetic runs on the *encoded plaintexts* (the
//    quantize/pack/fixed-point math is still real, so model convergence is
//    identical), while time, op counts, and bytes are charged exactly as the
//    real engine would. Epoch-scale benches use this (DESIGN.md §1).
//
// Every op validates, computes, then charges once (ChargeBatch): the
// compute runs on the shadow residues or through the PaillierContext batch
// call both real engines share, and the one charge is priced from the HE
// cost table (ghe/he_cost.h) whatever the mode. So a modeled run and a real
// one account identically by construction (DESIGN.md §4).

#ifndef FLB_CORE_HE_SERVICE_H_
#define FLB_CORE_HE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/codec/batch_compressor.h"
#include "src/codec/fixed_point.h"
#include "src/codec/quantizer.h"
#include "src/common/deadline.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/thread_pool.h"
#include "src/core/engine_config.h"
#include "src/crypto/paillier.h"
#include "src/ghe/ghe_engine.h"
#include "src/ghe/he_cost.h"
#include "src/mpint/bigint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::core {

using mpint::BigInt;

enum class EncLayout : int {
  kPackedSum = 0,   // quantized slots, additive aggregation only
  kFixedPoint = 1,  // signed fixed-point residues, per-value homomorphic math
};

// An encrypted (or, in modeled mode, plaintext-shadowed) vector.
struct EncVec {
  EncLayout layout = EncLayout::kPackedSum;
  size_t count = 0;           // logical double values represented
  int slots_per_cipher = 1;   // >1 means packed/compressed
  int contributors = 1;       // packed-sum: additive contributions per slot
  int scale_muls = 0;         // fixed-point: accumulated scale multiplications
  int fp_slot_bits = 0;       // fixed-point compressed: slot width (0 = not)
  bool modeled = false;       // data holds encoded plaintexts, not ciphertexts
  std::vector<BigInt> data;

  size_t num_ciphertexts() const { return data.size(); }
};

struct HeServiceOptions {
  EngineKind engine = EngineKind::kFlBooster;
  int key_bits = 1024;
  // Encoding-Quantization parameters (paper defaults: r + b = 32).
  int r_bits = 30;
  int participants = 4;
  double alpha = 1.0;
  // Fixed-point fractional bits for per-value legs.
  int frac_bits = 24;
  // Cipher-space compression slot width in [0, 63]
  // (0 = derive: min(2*frac_bits + 14, 62)).
  int fp_compress_slot_bits = 0;
  // Plaintext-shadow execution (see header comment).
  bool modeled = false;
  uint64_t seed = 20230401;
  // Device streams for the GPU engine's chunked copy/compute overlap.
  // 0 = take the engine default (EngineTraits::gpu_streams).
  int gpu_streams = 0;
  // Chunks per stream for the chunked schedule (GheConfig::
  // chunks_per_stream). 0 = engine default (1).
  int ghe_chunks_per_stream = 0;
  // Batch-compression override: -1 = engine trait (EngineTraits::use_bc),
  // 0 = force off, 1 = force on. A knob because compression trades HE
  // packing work against transmitted bytes — which side wins depends on
  // the workload's compute/network balance.
  int use_bc = -1;
  // Host worker threads for element-parallel HE bodies. > 0 makes the
  // service own a private pool of that size; 0 defers to the process-global
  // pool (FLB_HOST_THREADS). Bit-identical results at any value — only
  // wall-clock time changes.
  int host_threads = 0;
  // Dispatch the fixed-width Montgomery kernels for this key's contexts
  // (src/mpint/fixed_kernels.h). Results are bit-identical either way;
  // false keeps the generic radix-2^32 limb path (the differential oracle).
  bool use_fixed_width_kernels = true;
};

struct HeOpCounts {
  uint64_t encrypts = 0;
  uint64_t decrypts = 0;
  uint64_t hom_adds = 0;
  uint64_t scalar_muls = 0;
  // Logical double values that passed through Encrypt/Decrypt (the paper's
  // "instances" for Table IV throughput).
  uint64_t values_encrypted = 0;
  uint64_t values_decrypted = 0;
};

class HeService : public obs::MetricsSource {
 public:
  // Generates fresh keys (real mode) or a synthetic modulus (modeled mode).
  // `clock` may be null; `device` is required when the engine runs on GPU.
  static Result<std::unique_ptr<HeService>> Create(
      const HeServiceOptions& options, SimClock* clock,
      std::shared_ptr<gpusim::Device> device);

  // Optional run-wide deadline: when set and expired, the batch entry
  // points below return typed kDeadlineExceeded before doing any work, so
  // a budget-bounded run never starts another multi-second HE batch with
  // the budget already spent. Inert when unset (the default).
  void set_run_deadline(const common::Deadline* deadline) {
    run_deadline_ = deadline;
  }

  const HeServiceOptions& options() const { return options_; }
  EngineKind engine() const { return options_.engine; }
  const EngineTraits& traits() const { return traits_; }
  bool modeled() const { return options_.modeled; }
  const codec::Quantizer& quantizer() const { return quantizer_; }
  const codec::FixedPointCodec& fixed_point() const { return *fp_codec_; }
  // Slots per ciphertext on the packed-sum path (1 when BC is off).
  int pack_slots() const;
  // Serialized ciphertext width in 32-bit words.
  size_t CiphertextWords() const;
  // The modulus n (plaintext space).
  const BigInt& modulus() const { return n_; }

  // ---- Packed-sum path -------------------------------------------------------
  Result<EncVec> EncryptValues(const std::vector<double>& values);
  Result<EncVec> AddCipher(const EncVec& a, const EncVec& b);
  // Slot-wise addition of the caller's own plaintext values (one
  // "contribution"): used when a party folds its share into a received
  // ciphertext without encrypting separately.
  Result<EncVec> AddPlainValues(const EncVec& c,
                                const std::vector<double>& values);
  // Decrypts and decodes; `c.contributors` slot contributions are assumed.
  Result<std::vector<double>> DecryptValues(const EncVec& c);

  // ---- Fixed-point path ------------------------------------------------------
  Result<EncVec> EncryptFixedPoint(const std::vector<double>& values);
  // Elementwise E(v_i) * w_i for signed double weights.
  Result<EncVec> ScalarMulFixedPoint(const EncVec& c,
                                     const std::vector<double>& weights);
  // out_j = sum over (index, weight) terms of E(v_index) * weight — the
  // encrypted-gradient / encrypted-histogram primitive. All outputs must
  // draw from the same EncVec.
  struct WeightedTerm {
    uint32_t index;
    double weight;
  };
  Result<EncVec> WeightedSums(
      const EncVec& c, const std::vector<std::vector<WeightedTerm>>& groups);
  // Pure selective sums (SecureBoost buckets): weights implicitly 1.
  Result<EncVec> SelectiveSums(
      const EncVec& c, const std::vector<std::vector<uint32_t>>& groups);
  Result<std::vector<double>> DecryptFixedPoint(const EncVec& c);

  // ---- Batch compression, cipher-space (BC module, part 2) -------------------
  // Packs an unpacked fixed-point EncVec into ~count/slots ciphertexts by
  // homomorphic shift-and-add. Values must satisfy
  // |v| * 2^(f*(1+scale_muls)) < 2^(slot_bits-1). No-op (returns a copy)
  // when BC is disabled for this engine.
  Result<EncVec> CompressForTransmission(const EncVec& c);

  // Wire size of an EncVec in bytes (what Network::Send will carry).
  size_t WireBytes(const EncVec& c) const;

  // Snapshot of the live counters. The trainer thread does all the
  // counting; the metrics scrape thread (obs::ObsServer) reads
  // concurrently, so the cells are relaxed atomics — each counter is
  // exact, cross-counter consistency only at batch boundaries.
  HeOpCounts op_counts() const {
    HeOpCounts counts;
    counts.encrypts = op_cells_.encrypts.load(std::memory_order_relaxed);
    counts.decrypts = op_cells_.decrypts.load(std::memory_order_relaxed);
    counts.hom_adds = op_cells_.hom_adds.load(std::memory_order_relaxed);
    counts.scalar_muls =
        op_cells_.scalar_muls.load(std::memory_order_relaxed);
    counts.values_encrypted =
        op_cells_.values_encrypted.load(std::memory_order_relaxed);
    counts.values_decrypted =
        op_cells_.values_decrypted.load(std::memory_order_relaxed);
    return counts;
  }

  // obs::MetricsSource: HeOpCounts exposed through the unified registry.
  void CollectMetrics(std::vector<obs::MetricValue>& out) const override;

  // The host pool HE batch bodies run on (private or process-global).
  common::ThreadPool& host_pool() const { return *host_pool_; }

 private:
  HeService(const HeServiceOptions& options, SimClock* clock,
            std::shared_ptr<gpusim::Device> device, codec::Quantizer quantizer);

  // The one charge of an op: `compute` produces the batch's results, then
  // `count` `op`s are charged, priced from the HE cost table at the
  // declared `width_bits` — on a GPU engine as one device batch, on a CPU
  // engine through the CPU cost model. A real GPU batch runs `compute` as
  // its launch body, so the host batch telemetry times it; every other
  // path runs it directly. Either way a failed compute is charged nothing,
  // and nothing is charged when count is 0.
  using Compute = std::function<Result<std::vector<BigInt>>()>;
  Result<std::vector<BigInt>> ChargeBatch(const char* kind, ghe::HeOp op,
                                          int64_t count,
                                          const Compute& compute,
                                          int width_bits = 0);
  // Rejects a vector of the wrong layout or mode, whose count, slots and
  // slot width disagree with its ciphertexts, whose contributors fall
  // outside [1, participants], or whose scale 2^(frac_bits * (1 +
  // scale_muls)) does not fit below the key.
  Status CheckLayout(const EncVec& v, EncLayout expected,
                     const char* op) const;
  // Packed-sum plaintexts: BC-packed, or one quantized slot each.
  Result<std::vector<BigInt>> PackedPlaintexts(
      const std::vector<double>& values) const;

  // ---- Compute: one batch on the shadow residues (modeled) or through the
  // PaillierContext batch call both real engines run. Inputs are validated
  // by the caller; the real path only reads them.
  Result<std::vector<BigInt>> EncryptBatch(std::vector<BigInt> plains);
  Result<std::vector<BigInt>> DecryptBatch(const std::vector<BigInt>& cs) const;
  Result<std::vector<BigInt>> AddBatch(const std::vector<BigInt>& a,
                                       const std::vector<BigInt>& b) const;
  Result<std::vector<BigInt>> AddPlainBatch(
      const std::vector<BigInt>& cs, const std::vector<BigInt>& plains) const;
  Result<std::vector<BigInt>> ScalarMulBatch(
      const std::vector<BigInt>& cs, const std::vector<BigInt>& ks) const;
  // Sums terms[i] over each group's indices, reducing once per group:
  // residues add mod n as a sign-folded sum (modeled); ciphertexts multiply
  // mod n^2 in PaillierContext::FoldBatch's Montgomery chains, one group per
  // host pool task (real). A one-term group is its term as it is. An empty
  // group sums to zero, in real mode a fresh E(0) encrypted serially in
  // group order.
  Result<std::vector<BigInt>> FoldGroups(
      const std::vector<BigInt>& terms,
      const std::vector<std::vector<uint32_t>>& groups);
  // Cipher-space packing of `slots` ciphertexts per result.
  Result<std::vector<BigInt>> PackBatch(const std::vector<BigInt>& cs,
                                        int slot_bits, int slots) const;

  Status CheckDeadline(const char* op) const {
    return run_deadline_ == nullptr ? Status::OK() : run_deadline_->Check(op);
  }
  int fp_compress_slot_bits() const;

  HeServiceOptions options_;
  EngineTraits traits_;
  SimClock* clock_;
  const common::Deadline* run_deadline_ = nullptr;
  std::shared_ptr<gpusim::Device> device_;
  // Private pool when options_.host_threads > 0; otherwise host_pool_ points
  // at the process-global pool. Declared before ghe_ so the engine (which
  // borrows the pool) is destroyed first.
  std::unique_ptr<common::ThreadPool> owned_pool_;
  common::ThreadPool* host_pool_ = nullptr;
  std::unique_ptr<ghe::GheEngine> ghe_;

  codec::Quantizer quantizer_;
  std::optional<codec::BatchCompressor> compressor_;
  std::unique_ptr<codec::FixedPointCodec> fp_codec_;

  // Real mode only.
  std::optional<crypto::PaillierContext> paillier_;
  BigInt n_;
  Rng rng_;

  // Live op counters (see op_counts() for the threading contract).
  struct OpCells {
    std::atomic<uint64_t> encrypts{0};
    std::atomic<uint64_t> decrypts{0};
    std::atomic<uint64_t> hom_adds{0};
    std::atomic<uint64_t> scalar_muls{0};
    std::atomic<uint64_t> values_encrypted{0};
    std::atomic<uint64_t> values_decrypted{0};
  };
  OpCells op_cells_;

  // Registers the op counts with the global MetricsRegistry for the
  // service's lifetime (declared last: registration after the counts exist).
  obs::ScopedMetricsSource metrics_registration_{this};
};

}  // namespace flb::core

#endif  // FLB_CORE_HE_SERVICE_H_

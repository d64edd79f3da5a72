// GheEngine — the paper's GPU-HE layer (§IV-A).
//
// Exposes the Table I API surface as batched ("vectorized") operations over
// arrays of multi-precision integers, executed on the simulated device:
//
//   add/sub/mul/div/mod       — elementwise multi-precision arithmetic
//   mod_inv/mod_mul/mod_pow   — modular kernels (Montgomery-based)
//   Paillier::{encrypt,decrypt,add}, RSA::{encrypt,decrypt,mul}
//
// Every batch call becomes one kernel launch: each array element is served
// by T = s/x device threads (Algorithm 2's decomposition, x words per
// thread). The host body first computes the real results with BigInt and
// MontgomeryContext (the sequential CIOS loop; Algorithm 2's
// ParallelMontMul is only checked against it in tests); only when it
// succeeds does the device charge modeled kernel + PCIe time to the
// SimClock, so a failed batch costs nothing.
//
// The Paillier launches are priced from the HE cost table (he_cost.h).
// ModelOp runs the identical launch from the same row without a body, and
// ModelBatch prices any batch the caller describes, with an optional body:
// HeService charges every HE op through it, so a modeled op and a real one
// launch the same kernel. The paper driver prices millions of HE ops
// through ModelOp without executing millions of 4096-bit exponentiations
// (DESIGN.md §1, §4).

#ifndef FLB_GHE_GHE_ENGINE_H_
#define FLB_GHE_GHE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/crypto/paillier.h"
#include "src/crypto/rsa.h"
#include "src/ghe/he_cost.h"
#include "src/gpusim/device.h"
#include "src/mpint/bigint.h"

namespace flb::common {
class ThreadPool;
}  // namespace flb::common

namespace flb::ghe {

using mpint::BigInt;

struct GheConfig {
  // x in Algorithm 2: words of each operand held per device thread. The
  // thread count per element is s/x (adjusted down to a divisor of s).
  int words_per_thread = 4;
  // Device streams for batch execution. 1 = the original fully synchronous
  // H2D → kernel → D2H path. N > 1 plans each batch as chunks issued
  // round-robin across N streams, so chunk k's H2D overlaps chunk k-1's
  // kernel and chunk k-2's D2H on the device timeline (§V / Fig. 4 overlap,
  // HAFLO-style streamed staging). The engine prices the plan with
  // Device::EstimateChunks and runs it only when it beats one launch, so
  // small or kernel-bound batches keep the one-launch path and more streams
  // never slow a workload down.
  int streams = 1;
  // Chunks issued per stream on the chunked path. 1 = one chunk per stream
  // (each stream runs exactly one H2D → kernel → D2H pipeline). Higher
  // values slice the batch finer, which fills pipeline bubbles on large
  // batches at the price of more per-chunk launch/transfer latency.
  int chunks_per_stream = 1;
  // Host thread pool the batch bodies run on (element-parallel, bit-exact at
  // any thread count). nullptr = the process-global pool. Host parallelism
  // only changes wall-clock time: the modeled device timeline charges the
  // same simulated cost regardless.
  common::ThreadPool* host_pool = nullptr;
};

// Telemetry for the most recent batch call (chunked or not).
struct GheBatchStats {
  int chunks = 1;
  int streams = 1;
  bool async = false;  // true when the batch ran chunked across streams
  // Modeled batch latency from first H2D byte to last D2H byte.
  double makespan_seconds = 0.0;
  double kernel_busy_seconds = 0.0;
  double transfer_busy_seconds = 0.0;
  // What the one-launch synchronous path would have cost, and how much the
  // stream overlap saved against it (0 when the batch ran synchronously).
  double serial_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
};

class GheEngine {
 public:
  GheEngine(std::shared_ptr<gpusim::Device> device, GheConfig config = {});

  gpusim::Device& device() { return *device_; }
  const GheConfig& config() const { return config_; }

  // ---- Table I: fundamental vector arithmetic -------------------------------
  // Elementwise over equal-length arrays.
  Result<std::vector<BigInt>> Add(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  // Elementwise a-b; requires a[i] >= b[i].
  Result<std::vector<BigInt>> Sub(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  Result<std::vector<BigInt>> Mul(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  // Elementwise a/b and a%b; error on any zero divisor.
  Result<std::vector<BigInt>> Div(const std::vector<BigInt>& a,
                                  const std::vector<BigInt>& b);
  Result<std::vector<BigInt>> Mod(const std::vector<BigInt>& a,
                                  const BigInt& n);

  // ---- Table I: modular kernels ---------------------------------------------
  Result<std::vector<BigInt>> ModInv(const std::vector<BigInt>& a,
                                     const BigInt& n);
  Result<std::vector<BigInt>> ModMul(const std::vector<BigInt>& a,
                                     const std::vector<BigInt>& b,
                                     const BigInt& n);
  Result<std::vector<BigInt>> ModPow(const std::vector<BigInt>& x,
                                     const std::vector<BigInt>& p,
                                     const BigInt& n);

  // ---- Table I: Paillier / RSA ----------------------------------------------
  Result<std::vector<BigInt>> PaillierEncrypt(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& ms,
      Rng& rng);
  Result<std::vector<BigInt>> PaillierDecrypt(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs);
  Result<std::vector<BigInt>> PaillierAdd(const crypto::PaillierContext& ctx,
                                          const std::vector<BigInt>& c1,
                                          const std::vector<BigInt>& c2);
  // Elementwise E(m_i) + k_i for plaintext k_i (one (n+1)^k multiply each).
  Result<std::vector<BigInt>> PaillierAddPlain(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
      const std::vector<BigInt>& ks);
  // Elementwise E(m_i)^{k_i} = E(k_i * m_i) — a full modular exponentiation
  // per element, priced at the declared exponent width `scalar_bits`
  // (FixedPointScalarBits for fixed-point weights), never at the scalars.
  Result<std::vector<BigInt>> PaillierScalarMul(
      const crypto::PaillierContext& ctx, const std::vector<BigInt>& cs,
      const std::vector<BigInt>& ks, int scalar_bits);
  Result<std::vector<BigInt>> RsaEncrypt(const crypto::RsaContext& ctx,
                                         const std::vector<BigInt>& ms);
  Result<std::vector<BigInt>> RsaDecrypt(const crypto::RsaContext& ctx,
                                         const std::vector<BigInt>& cs);
  Result<std::vector<BigInt>> RsaMul(const crypto::RsaContext& ctx,
                                     const std::vector<BigInt>& c1,
                                     const std::vector<BigInt>& c2);

  // ---- Table I: key generation on the device --------------------------------
  // Paillier/RSA key generation with the prime search executed as a device
  // kernel: each warp owns a candidate (per-thread random number generators,
  // paper §IV-A3), trial division prunes, Miller-Rabin witnesses run as
  // modular exponentiations. Host-side arithmetic produces the actual key
  // material (bit-exact); the launch prices the parallel search.
  Result<crypto::PaillierKeyPair> PaillierKeyGen(int key_bits, Rng& rng);
  Result<crypto::RsaKeyPair> RsaKeyGen(int key_bits, Rng& rng);

  // ---- Timing-only models ----------------------------------------------------
  // A batch of `count` `op`s at `key_bits`, priced from the HE cost table:
  // the launch the Paillier call above makes, without a body unless one is
  // given. `width_bits` is the row's declared width (HeCost).
  Result<gpusim::LaunchResult> ModelOp(
      HeOp op, int key_bits, int64_t count, int width_bits = 0,
      const std::function<Status()>& body = nullptr);

  // Generic batch: `count` elements of `s` limbs, each costing
  // `limb_ops_per_elt` limb operations, moving in/out bytes over PCIe. With
  // a `body`, the body computes the batch's results before the launch (the
  // host batch telemetry times it) and a failing body's Status is returned
  // with nothing charged. HeService charges every HE op through this, so
  // its ops ride the same chunked multi-stream path as the Table I batches.
  Result<gpusim::LaunchResult> ModelBatch(
      const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
      size_t bytes_in, size_t bytes_out,
      const std::function<Status()>& body = nullptr);

  // Launch diagnostics of the most recent kernel (utilization telemetry).
  // For a chunked batch this aggregates the chunks: sim_seconds is the
  // window makespan, occupancy/utilization are time-weighted means, waves
  // are summed.
  const gpusim::LaunchResult& last_launch() const { return last_launch_; }
  // Scheduling diagnostics of the most recent batch call.
  const GheBatchStats& last_batch() const { return last_batch_; }

 private:
  // Shared launch path: runs `body` (if any) and returns its error before
  // touching the device, then launches one kernel over `count` elements of
  // `s` limbs, each costing `limb_ops_per_elt` limb operations, moving
  // in/out bytes over PCIe. With config_.streams > 1 the batch runs as its
  // chunk plan when the plan prices faster than one launch.
  Result<gpusim::LaunchResult> LaunchBatch(
      const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
      size_t bytes_in, size_t bytes_out, const std::function<Status()>& body);
  // A Paillier batch: `compute` runs as the body of ModelOp's launch.
  Result<std::vector<BigInt>> RunOp(
      HeOp op, int key_bits, int64_t count, int width_bits,
      const std::function<Result<std::vector<BigInt>>()>& compute);
  // Enqueues the priced plan on the engine's streams (creating them on
  // first use) and synchronizes.
  Result<gpusim::LaunchResult> LaunchChunks(
      const std::vector<gpusim::StreamChunk>& plan, int streams,
      size_t stage_bytes, double serial_seconds);

  int ThreadsPerElement(size_t s) const;
  // The pool batch bodies run on (config override or the global pool).
  common::ThreadPool& host_pool() const;
  // Runs a batch body under host-side wall-clock + pool-stat telemetry
  // (flb.host.* metrics and the host/threads trace track).
  Status RunBody(const char* name, const std::function<Status()>& body);

  std::shared_ptr<gpusim::Device> device_;
  GheConfig config_;
  gpusim::LaunchResult last_launch_;
  GheBatchStats last_batch_;
  // Device streams owned by this engine, created lazily.
  std::vector<gpusim::StreamId> stream_ids_;
};

}  // namespace flb::ghe

#endif  // FLB_GHE_GHE_ENGINE_H_

// GheEngine — the paper's GPU-HE layer (§IV-A): one kernel launch per HE
// batch on the simulated device.
//
// Each element of a batch is served by T = s/x device threads (Algorithm
// 2's decomposition, x words per thread, adjusted down to a divisor of s).
// ModelOp launches a batch of one Paillier op priced from its HE cost table
// row (he_cost.h); ModelBatch launches any batch the caller describes.
// HeService charges every HE op through ModelBatch, and bench_paper prices
// millions of HE ops through ModelOp without executing millions of 4096-bit
// exponentiations (DESIGN.md §1, §4).
//
// Either launch takes an optional host body that computes the batch's real
// results (a real GPU engine's Paillier batch). The body runs before the
// device is touched, under the host batch telemetry, and only when it
// succeeds does the device charge modeled kernel + PCIe time to the
// SimClock, so a failed batch costs nothing. The launch prices the same
// with a body as without one.

#ifndef FLB_GHE_GHE_ENGINE_H_
#define FLB_GHE_GHE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/ghe/he_cost.h"
#include "src/gpusim/device.h"

namespace flb::common {
class ThreadPool;
}  // namespace flb::common

namespace flb::ghe {

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
  // Host thread pool the callers' batch bodies run on; the host batch
  // telemetry reads its task, steal and thread counts. nullptr = the
  // process-global pool. Host parallelism only changes wall-clock time: the
  // modeled device timeline charges the same simulated cost regardless.
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

  // A batch of `count` `op`s at `key_bits`, priced from the HE cost table.
  // `width_bits` is the row's declared width (HeCost). With a `body`, the
  // body computes the batch's results before the launch and a failing
  // body's Status is returned with nothing charged. Returns the launch's
  // diagnostics; for a chunked batch they aggregate the chunks: sim_seconds
  // is the window makespan, occupancy/utilization are time-weighted means,
  // waves are summed.
  Result<gpusim::LaunchResult> ModelOp(
      HeOp op, int key_bits, int64_t count, int width_bits = 0,
      const std::function<Status()>& body = nullptr);

  // Generic batch: `count` elements of `s` limbs, each costing
  // `limb_ops_per_elt` limb operations, moving in/out bytes over PCIe, with
  // an optional `body` as in ModelOp. HeService charges every HE op through
  // this.
  Result<gpusim::LaunchResult> ModelBatch(
      const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
      size_t bytes_in, size_t bytes_out,
      const std::function<Status()>& body = nullptr);

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
  GheBatchStats last_batch_;
  // Device streams owned by this engine, created lazily.
  std::vector<gpusim::StreamId> stream_ids_;
};

}  // namespace flb::ghe

#endif  // FLB_GHE_GHE_ENGINE_H_

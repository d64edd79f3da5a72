#include "src/ghe/ghe_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/ghe/parallel_montgomery.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::ghe {

namespace {

// Staging buffers are rounded to page granularity so repeated chunked
// batches of slightly different sizes reuse pool slots instead of
// fragmenting the device heap.
size_t RoundUpPage(size_t bytes) {
  constexpr size_t kPage = 4096;
  return (bytes + kPage - 1) / kPage * kPage;
}

// Elements in chunk k of `count` split into `nchunks` near-equal pieces.
int64_t ChunkCount(int64_t count, int nchunks, int k) {
  const int64_t base = count / nchunks;
  const int64_t rem = count % nchunks;
  return base + (k < rem ? 1 : 0);
}

// Registers a kernel thread needs per held word (operand slices + the
// working accumulator slice), on top of a fixed base.
constexpr int kRegistersPerWord = 6;
constexpr int kBaseRegisters = 24;
// Divergent branch regions in the modular kernels (window selection + final
// conditional subtraction). The resource manager combines them when branch
// combining is on; the HAFLO baseline leaves them unmanaged.
constexpr int kDivergentBranches = 2;

gpusim::KernelDemand DemandFor(size_t s, int threads_per_elt) {
  gpusim::KernelDemand demand;
  const int x = static_cast<int>(s) / std::max(threads_per_elt, 1);
  // Per-thread registers: the operand slices (x words each of a, b, n, t)
  // plus each thread's share of the sliding-window table, which grows with
  // the operand width — the reason SM occupancy decays at larger key sizes
  // (paper Fig. 6 commentary).
  demand.registers_per_thread =
      kBaseRegisters + kRegistersPerWord * x + static_cast<int>(s) / 4;
  demand.divergent_branches = kDivergentBranches;
  demand.shared_mem_per_block = 0;
  return demand;
}

// The kernel ModelOp launches for each Paillier op.
const char* LaunchName(HeOp op) {
  switch (op) {
    case HeOp::kEncrypt:
      return "ghe.paillier_encrypt";
    case HeOp::kDecrypt:
      return "ghe.paillier_decrypt";
    case HeOp::kAdd:
      return "ghe.paillier_add";
    case HeOp::kAddPlain:
      return "ghe.paillier_add_plain";
    case HeOp::kScalarMul:
      return "ghe.paillier_scalar_mul";
    case HeOp::kPack:
      return "ghe.paillier_pack";
  }
  return "ghe.paillier";
}

}  // namespace

GheEngine::GheEngine(std::shared_ptr<gpusim::Device> device, GheConfig config)
    : device_(std::move(device)), config_(config) {
  FLB_CHECK(device_ != nullptr);
  FLB_CHECK(config_.words_per_thread >= 1);
}

int GheEngine::ThreadsPerElement(size_t s) const {
  const int target = std::max<int>(
      1, static_cast<int>(s) / config_.words_per_thread);
  return LargestValidThreadCount(s, target);
}

common::ThreadPool& GheEngine::host_pool() const {
  return config_.host_pool != nullptr ? *config_.host_pool
                                      : common::ThreadPool::Global();
}

Status GheEngine::RunBody(const char* name,
                          const std::function<Status()>& body) {
  common::ThreadPool& tp = host_pool();
  const auto before = tp.stats();
  WallTimer timer;
  Status status = body();
  const double wall = timer.ElapsedSeconds();
  const auto after = tp.stats();
  auto& metrics = obs::MetricsRegistry::Global();
  const std::string label = std::string("op=") + name;
  metrics.Count("flb.host.pool_tasks",
                static_cast<double>(after.tasks - before.tasks), label);
  metrics.Count("flb.host.pool_steals",
                static_cast<double>(after.steals - before.steals), label);
  metrics.Observe("flb.host.batch_wall_seconds", wall, label);
  metrics.Set("flb.host.threads", tp.num_threads());
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled()) {
    rec.Instant(rec.RegisterTrack("host", "threads"), "host.batch", "host",
                device_->TimelineNow(),
                {obs::Arg("op", name), obs::Arg("wall_seconds", wall),
                 obs::Arg("threads", tp.num_threads())});
  }
  return status;
}

Result<gpusim::LaunchResult> GheEngine::LaunchBatch(
    const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
    size_t bytes_in, size_t bytes_out, const std::function<Status()>& body) {
  if (count <= 0) {
    return Status::InvalidArgument(std::string(name) + ": empty batch");
  }
  // The host computes the batch's results before the device is touched, so
  // a batch whose compute fails is charged nothing.
  if (body) FLB_RETURN_IF_ERROR(RunBody(name, body));
  const int tpe = ThreadsPerElement(s);
  gpusim::KernelLaunch launch;
  launch.name = name;
  launch.total_threads = count * tpe;
  launch.ops_per_thread = limb_ops_per_elt / std::max(tpe, 1);
  launch.demand = DemandFor(s, tpe);

  const int streams = std::max(1, config_.streams);
  if (streams > 1 && count >= streams) {
    // The chunk plan: `nchunks` near-equal pieces round-robin over the
    // streams, each moving its share of the batch's bytes.
    const int nchunks = static_cast<int>(std::min<int64_t>(
        count,
        static_cast<int64_t>(streams) *
            std::max(1, config_.chunks_per_stream)));
    std::vector<gpusim::StreamChunk> plan;
    plan.reserve(static_cast<size_t>(nchunks));
    int64_t done = 0;
    size_t in_done = 0, out_done = 0;
    for (int k = 0; k < nchunks; ++k) {
      const int64_t next = done + ChunkCount(count, nchunks, k);
      const size_t in_next = bytes_in * next / count;
      const size_t out_next = bytes_out * next / count;
      gpusim::StreamChunk& chunk = plan.emplace_back();
      chunk.stream = k % streams;
      chunk.bytes_in = in_next - in_done;
      chunk.kernel = launch;
      chunk.kernel.total_threads = (next - done) * tpe;
      chunk.bytes_out = out_next - out_done;
      done = next;
      in_done = in_next;
      out_done = out_next;
    }
    // Per-chunk PCIe latency and launch latency mean small or kernel-bound
    // batches lose by splitting: chunk only when the plan prices strictly
    // faster than the one-launch synchronous path.
    FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult serial_est,
                         device_->EstimateLaunch(launch));
    const double serial_seconds = device_->TransferSeconds(bytes_in) +
                                  serial_est.sim_seconds +
                                  device_->TransferSeconds(bytes_out);
    FLB_ASSIGN_OR_RETURN(const double pipelined_seconds,
                         device_->EstimateChunks(plan));
    const bool chunked = pipelined_seconds < serial_seconds;
    // The scheduler's pricing decision, visible on the trace timeline and
    // countable in the metrics snapshot.
    auto& rec = obs::TraceRecorder::Global();
    if (rec.enabled()) {
      rec.Instant(rec.RegisterTrack("ghe", "scheduler"), "ghe.chunk_decision",
                  "ghe", device_->TimelineNow(),
                  {obs::Arg("op", name), obs::Arg("count", count),
                   obs::Arg("serial_seconds", serial_seconds),
                   obs::Arg("pipelined_seconds", pipelined_seconds),
                   obs::Arg("chunked", chunked)});
    }
    obs::MetricsRegistry::Global().Count(
        "flb.ghe.chunk_decisions", 1,
        chunked ? "choice=chunked" : "choice=serial");
    if (chunked) {
      // Staging buffers per stream: input + output slices of the largest
      // chunk, page-rounded so successive batches reuse the same pool slots.
      const size_t stage_bytes = RoundUpPage(
          (bytes_in + bytes_out) *
              static_cast<size_t>(ChunkCount(count, nchunks, 0)) /
              static_cast<size_t>(count) +
          1);
      return LaunchChunks(plan, streams, stage_bytes, serial_seconds);
    }
  }

  // Synchronous path: H2D, one kernel, D2H, each charged immediately.
  const double in_sec = device_->CopyToDevice(bytes_in);
  FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult result,
                       device_->Launch(launch));
  const double out_sec = device_->CopyFromDevice(bytes_out);

  last_batch_ = GheBatchStats{};
  last_batch_.makespan_seconds = in_sec + result.sim_seconds + out_sec;
  last_batch_.kernel_busy_seconds = result.sim_seconds;
  last_batch_.transfer_busy_seconds = in_sec + out_sec;
  last_batch_.serial_seconds = last_batch_.makespan_seconds;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Count("flb.ghe.batches", 1, "path=serial");
  metrics.Observe("flb.ghe.batch_makespan_seconds",
                  last_batch_.makespan_seconds, "path=serial");
  return result;
}

Result<gpusim::LaunchResult> GheEngine::LaunchChunks(
    const std::vector<gpusim::StreamChunk>& plan, int streams,
    size_t stage_bytes, double serial_seconds) {
  while (static_cast<int>(stream_ids_.size()) < streams) {
    stream_ids_.push_back(stream_ids_.empty() ? gpusim::kDefaultStream
                                              : device_->CreateStream());
  }
  auto& rm = device_->resource_manager();
  std::vector<gpusim::ResourceManager::DeviceAddress> staging;
  staging.reserve(static_cast<size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    FLB_ASSIGN_OR_RETURN(auto addr, rm.Alloc(stage_bytes));
    staging.push_back(addr);
  }

  gpusim::LaunchResult agg{};
  double weight = 0.0, occ_sum = 0.0, util_sum = 0.0;
  double kernel_busy = 0.0, transfer_busy = 0.0;
  for (const gpusim::StreamChunk& chunk : plan) {
    const gpusim::StreamId sid = stream_ids_[static_cast<size_t>(chunk.stream)];
    FLB_ASSIGN_OR_RETURN(const gpusim::CopyResult h2d,
                         device_->CopyToDeviceAsync(chunk.bytes_in, sid));
    FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult r,
                         device_->LaunchAsync(chunk.kernel, sid));
    FLB_ASSIGN_OR_RETURN(const gpusim::CopyResult d2h,
                         device_->CopyFromDeviceAsync(chunk.bytes_out, sid));

    agg.waves += r.waves;
    agg.block_threads = r.block_threads;
    agg.grid_blocks += r.grid_blocks;
    agg.limiting_resource = r.limiting_resource;
    occ_sum += r.occupancy * r.sim_seconds;
    util_sum += r.sm_utilization * r.sim_seconds;
    weight += r.sim_seconds;
    kernel_busy += r.sim_seconds;
    transfer_busy += h2d.seconds + d2h.seconds;
  }

  const double makespan = device_->Synchronize();
  for (auto addr : staging) {
    FLB_RETURN_IF_ERROR(rm.Free(addr));
  }

  agg.sim_seconds = makespan;
  agg.end_seconds = makespan;
  agg.occupancy = weight > 0.0 ? occ_sum / weight : 0.0;
  agg.sm_utilization = weight > 0.0 ? util_sum / weight : 0.0;

  const int chunks = static_cast<int>(plan.size());
  last_batch_ = GheBatchStats{};
  last_batch_.chunks = chunks;
  last_batch_.streams = streams;
  last_batch_.async = true;
  last_batch_.makespan_seconds = makespan;
  last_batch_.kernel_busy_seconds = kernel_busy;
  last_batch_.transfer_busy_seconds = transfer_busy;
  last_batch_.serial_seconds = serial_seconds;
  last_batch_.overlap_saved_seconds = serial_seconds - makespan;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Count("flb.ghe.batches", 1, "path=chunked");
  metrics.Count("flb.ghe.chunks", chunks, "path=chunked");
  metrics.Count("flb.ghe.overlap_saved_seconds",
                last_batch_.overlap_saved_seconds, "path=chunked");
  metrics.Observe("flb.ghe.batch_makespan_seconds", makespan, "path=chunked");
  return agg;
}

Result<gpusim::LaunchResult> GheEngine::ModelOp(
    HeOp op, int key_bits, int64_t count, int width_bits,
    const std::function<Status()>& body) {
  const HeOpCost cost = HeCost(op, key_bits, count, width_bits);
  return LaunchBatch(LaunchName(op), count, cost.limbs, cost.limb_ops,
                     cost.bytes_in, cost.bytes_out, body);
}

Result<gpusim::LaunchResult> GheEngine::ModelBatch(
    const char* name, int64_t count, size_t s, uint64_t limb_ops_per_elt,
    size_t bytes_in, size_t bytes_out, const std::function<Status()>& body) {
  return LaunchBatch(name, count, s, limb_ops_per_elt, bytes_in, bytes_out,
                     body);
}

}  // namespace flb::ghe

#include "src/gpusim/device.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace flb::gpusim {

StreamTimeline::StreamTimeline(bool full_duplex, int streams)
    : full_duplex_(full_duplex),
      ready_(static_cast<size_t>(streams), 0.0) {}

double StreamTimeline::Kernel(int stream, double seconds) {
  double& ready = ready_[static_cast<size_t>(stream)];
  const double start = std::max(ready, compute_free_);
  ready = compute_free_ = start + seconds;
  kernel_busy_ += seconds;
  return start;
}

double StreamTimeline::Copy(int stream, double seconds, bool to_device) {
  double& ready = ready_[static_cast<size_t>(stream)];
  double& engine = to_device ? h2d_free_ : d2h_free_;
  double& other = to_device ? d2h_free_ : h2d_free_;
  double start = std::max(ready, engine);
  // A half-duplex link has one DMA engine shared by both directions.
  if (!full_duplex_) start = std::max(start, other);
  ready = engine = start + seconds;
  if (!full_duplex_) other = ready;
  transfer_busy_ += seconds;
  return start;
}

double StreamTimeline::Makespan() const {
  double makespan = 0.0;
  for (double ready : ready_) makespan = std::max(makespan, ready);
  return makespan;
}

void StreamTimeline::Reset() {
  std::fill(ready_.begin(), ready_.end(), 0.0);
  compute_free_ = h2d_free_ = d2h_free_ = 0.0;
  kernel_busy_ = transfer_busy_ = 0.0;
}

Device::Device(DeviceSpec spec, SimClock* clock, bool branch_combining)
    : spec_(std::move(spec)),
      clock_(clock),
      rm_(spec_, branch_combining),
      instance_(obs::TraceRecorder::Global().UniqueProcessName("gpu")),
      window_(spec_.pcie_full_duplex, 1) {}

double Device::TimelineNow() const {
  common::MutexLock lock(mu_);
  return TimelineNowLocked();
}

double Device::TimelineNowLocked() const {
  return clock_ != nullptr ? clock_->Now() : local_now_;
}

void Device::AdvanceLocalTime(double seconds) {
  if (clock_ == nullptr) local_now_ += seconds;
}

obs::Track Device::StreamTrack(StreamId stream) const {
  return obs::TraceRecorder::Global().RegisterTrack(
      instance_, "stream " + std::to_string(stream));
}

obs::Track Device::DmaTrack(bool to_device) const {
  return obs::TraceRecorder::Global().RegisterTrack(
      instance_, to_device ? "dma h2d" : "dma d2h");
}

// Kernel span plus the sawtooth occupancy counter track (Fig. 6 telemetry
// made visible on the timeline).
void Device::TraceKernel(obs::Track track, const std::string& name,
                         double start, double end, double occupancy,
                         int stream) const {
  auto& rec = obs::TraceRecorder::Global();
  rec.Span(track, name, "kernel", start, end,
           {obs::Arg("occupancy", occupancy), obs::Arg("stream", stream)});
  const obs::Track counter =
      rec.RegisterTrack(instance_, "occupancy counter");
  rec.Counter(counter, "occupancy", start, occupancy);
  rec.Counter(counter, "occupancy", end, 0.0);
}

Result<LaunchResult> Device::EstimateLaunch(const KernelLaunch& launch) const {
  if (launch.total_threads <= 0) {
    return Status::InvalidArgument("Launch: total_threads must be > 0");
  }
  FLB_ASSIGN_OR_RETURN(BlockPlan plan,
                       rm_.PlanLaunch(launch.total_threads, launch.demand));

  // Resident (concurrently executing) threads across the device.
  const double resident =
      plan.occupancy * spec_.max_threads_per_sm * spec_.num_sms;
  const int waves = static_cast<int>(
      std::ceil(static_cast<double>(launch.total_threads) / resident));

  // Per-wave time: each resident thread retires ops_per_thread limb ops;
  // the SM's cores retire them at cycles_per_limb_op each. The SM can only
  // issue cuda_cores_per_sm lanes per cycle, so when more threads are
  // resident than cores the latency is hidden but throughput is core-bound:
  // effective throughput per SM = cores / cycles_per_op per cycle.
  const double active_threads_per_sm =
      std::min<double>(plan.occupancy * spec_.max_threads_per_sm,
                       static_cast<double>(launch.total_threads) /
                           spec_.num_sms);
  const double issue_ratio =
      std::max(1.0, active_threads_per_sm / spec_.cuda_cores_per_sm);
  double per_thread_sec = static_cast<double>(launch.ops_per_thread) *
                          spec_.cycles_per_limb_op / spec_.core_clock_hz *
                          issue_ratio;

  // Divergence penalty when the resource manager is not combining branches:
  // each divergent region serializes the two warp halves.
  if (!rm_.branch_combining() && launch.demand.divergent_branches > 0) {
    per_thread_sec *= 1.0 + 0.5 * launch.demand.divergent_branches;
  }
  // Register spills (demand beyond the architectural cap) push operand
  // traffic to local memory and stretch the arithmetic proportionally.
  per_thread_sec *= rm_.RegisterSpillFactor(launch.demand);

  LaunchResult result;
  result.sim_seconds =
      spec_.kernel_launch_latency_sec + waves * per_thread_sec;
  result.occupancy = plan.occupancy;
  result.waves = waves;
  result.block_threads = plan.block_threads;
  result.grid_blocks = plan.grid_blocks;
  result.limiting_resource = plan.limiting_resource;

  // SM utilization: fraction of the device's resident-thread capacity that
  // held live work, averaged over the kernel's waves. The final (partial)
  // wave drags utilization down for small launches.
  const double capacity = static_cast<double>(spec_.MaxResidentThreads());
  const double full_waves_util = plan.occupancy;
  const double used_in_last_wave =
      launch.total_threads - static_cast<int64_t>(resident) * (waves - 1);
  const double last_wave_util =
      std::clamp(used_in_last_wave / capacity, 0.0, full_waves_util);
  result.sm_utilization =
      waves == 1 ? last_wave_util
                 : ((waves - 1) * full_waves_util + last_wave_util) / waves;
  return result;
}

void Device::RecordKernelStats(const LaunchResult& result) {
  ++stats_.kernels_launched;
  stats_.kernel_seconds += result.sim_seconds;
  stats_.util_sum += result.sm_utilization * result.sim_seconds;
  stats_.util_weight += result.sim_seconds;
}

Result<LaunchResult> Device::Launch(const KernelLaunch& launch) {
  FLB_ASSIGN_OR_RETURN(LaunchResult result, EstimateLaunch(launch));
  double t0 = 0.0;
  {
    common::MutexLock lock(mu_);
    RecordKernelStats(result);
    t0 = TimelineNowLocked();
    AdvanceLocalTime(result.sim_seconds);
  }
  if (obs::TraceRecorder::Global().enabled()) {
    TraceKernel(StreamTrack(kDefaultStream), launch.name, t0,
                t0 + result.sim_seconds, result.occupancy, kDefaultStream);
  }
  if (clock_ != nullptr) {
    clock_->Charge(CostKind::kGpuKernel, result.sim_seconds);
  }
  return result;
}

double Device::TransferSeconds(size_t bytes) const {
  return spec_.pcie_latency_sec +
         bytes / spec_.pcie_bandwidth_bytes_per_sec;
}

double Device::CopyToDevice(size_t bytes) {
  const double sec = TransferSeconds(bytes);
  double t0 = 0.0;
  {
    common::MutexLock lock(mu_);
    ++stats_.h2d_copies;
    stats_.bytes_h2d += bytes;
    stats_.transfer_seconds += sec;
    t0 = TimelineNowLocked();
    AdvanceLocalTime(sec);
  }
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled()) {
    rec.Span(DmaTrack(true), "h2d", "pcie", t0, t0 + sec,
             {obs::Arg("bytes", static_cast<uint64_t>(bytes))});
  }
  if (clock_ != nullptr) clock_->Charge(CostKind::kPcieTransfer, sec);
  return sec;
}

double Device::CopyFromDevice(size_t bytes) {
  const double sec = TransferSeconds(bytes);
  double t0 = 0.0;
  {
    common::MutexLock lock(mu_);
    ++stats_.d2h_copies;
    stats_.bytes_d2h += bytes;
    stats_.transfer_seconds += sec;
    t0 = TimelineNowLocked();
    AdvanceLocalTime(sec);
  }
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled()) {
    rec.Span(DmaTrack(false), "d2h", "pcie", t0, t0 + sec,
             {obs::Arg("bytes", static_cast<uint64_t>(bytes))});
  }
  if (clock_ != nullptr) clock_->Charge(CostKind::kPcieTransfer, sec);
  return sec;
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

Status Device::CheckStream(StreamId stream) const {
  if (stream < 0 || stream >= window_.num_streams()) {
    return Status::InvalidArgument("Device: unknown stream " +
                                   std::to_string(stream));
  }
  return Status::OK();
}

StreamId Device::CreateStream() {
  common::MutexLock lock(mu_);
  window_.AddStream();
  ++stats_.streams_created;
  return window_.num_streams() - 1;
}

Result<LaunchResult> Device::LaunchAsync(const KernelLaunch& launch,
                                         StreamId stream) {
  {
    common::MutexLock lock(mu_);
    FLB_RETURN_IF_ERROR(CheckStream(stream));
  }
  FLB_ASSIGN_OR_RETURN(LaunchResult result, EstimateLaunch(launch));
  common::MutexLock lock(mu_);
  result.start_seconds = window_.Kernel(stream, result.sim_seconds);
  result.end_seconds = result.start_seconds + result.sim_seconds;
  RecordKernelStats(result);
  if (obs::TraceRecorder::Global().enabled()) {
    pending_trace_.push_back({PendingTraceOp::Kind::kKernel, launch.name,
                              stream, result.start_seconds,
                              result.end_seconds, result.occupancy, 0});
  }
  return result;
}

Result<CopyResult> Device::CopyAsync(size_t bytes, StreamId stream,
                                     bool to_device) {
  common::MutexLock lock(mu_);
  FLB_RETURN_IF_ERROR(CheckStream(stream));
  CopyResult copy;
  copy.seconds = TransferSeconds(bytes);
  copy.start_seconds = window_.Copy(stream, copy.seconds, to_device);
  copy.end_seconds = copy.start_seconds + copy.seconds;
  if (to_device) {
    ++stats_.h2d_copies;
    stats_.bytes_h2d += bytes;
  } else {
    ++stats_.d2h_copies;
    stats_.bytes_d2h += bytes;
  }
  stats_.transfer_seconds += copy.seconds;
  if (obs::TraceRecorder::Global().enabled()) {
    pending_trace_.push_back(
        {to_device ? PendingTraceOp::Kind::kH2d : PendingTraceOp::Kind::kD2h,
         to_device ? "h2d" : "d2h", stream, copy.start_seconds,
         copy.end_seconds, 0.0, bytes});
  }
  return copy;
}

Result<CopyResult> Device::CopyToDeviceAsync(size_t bytes, StreamId stream) {
  return CopyAsync(bytes, stream, /*to_device=*/true);
}

Result<CopyResult> Device::CopyFromDeviceAsync(size_t bytes, StreamId stream) {
  return CopyAsync(bytes, stream, /*to_device=*/false);
}

Result<double> Device::EstimateChunks(
    const std::vector<StreamChunk>& chunks) const {
  int streams = 1;
  for (const StreamChunk& chunk : chunks) {
    if (chunk.stream < 0) {
      return Status::InvalidArgument("EstimateChunks: negative stream");
    }
    streams = std::max(streams, chunk.stream + 1);
  }
  StreamTimeline timeline(spec_.pcie_full_duplex, streams);
  for (const StreamChunk& chunk : chunks) {
    FLB_ASSIGN_OR_RETURN(const LaunchResult kernel,
                         EstimateLaunch(chunk.kernel));
    timeline.Copy(chunk.stream, TransferSeconds(chunk.bytes_in), true);
    timeline.Kernel(chunk.stream, kernel.sim_seconds);
    timeline.Copy(chunk.stream, TransferSeconds(chunk.bytes_out), false);
  }
  return timeline.Makespan();
}

double Device::Synchronize() {
  double makespan = 0.0;
  double kernel_busy = 0.0;
  double exposed_transfer = 0.0;
  double t0 = 0.0;
  std::vector<PendingTraceOp> flush;
  {
    common::MutexLock lock(mu_);
    makespan = window_.Makespan();

    // Kernels serialize on the compute engine, so the window is never
    // shorter than its kernel busy time; everything beyond that is transfer
    // time the overlap failed to hide.
    kernel_busy = window_.kernel_busy();
    exposed_transfer = std::max(0.0, makespan - kernel_busy);

    stats_.overlap_saved_seconds +=
        kernel_busy + window_.transfer_busy() - makespan;
    ++stats_.synchronizations;

    t0 = TimelineNowLocked();
    flush.swap(pending_trace_);
    window_.Reset();  // fresh window origin
    AdvanceLocalTime(makespan);
  }

  // Flush the window's buffered async ops onto the trace (outside mu_: the
  // recorder is another component's concern). Charges below sum to the
  // makespan, so the window occupies [t0, t0 + makespan] on the simulated
  // timeline and every op lands at t0 + its window offset.
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled() && !flush.empty()) {
    for (const PendingTraceOp& op : flush) {
      if (op.kind == PendingTraceOp::Kind::kKernel) {
        TraceKernel(StreamTrack(op.stream), op.name, t0 + op.start,
                    t0 + op.end, op.occupancy, op.stream);
      } else {
        rec.Span(DmaTrack(op.kind == PendingTraceOp::Kind::kH2d), op.name,
                 "pcie", t0 + op.start, t0 + op.end,
                 {obs::Arg("bytes", op.bytes), obs::Arg("stream", op.stream)});
      }
    }
    rec.Instant(rec.RegisterTrack(instance_, "sync"), "device.sync",
                "device", t0 + makespan,
                {obs::Arg("makespan_seconds", makespan),
                 obs::Arg("kernel_busy_seconds", kernel_busy),
                 obs::Arg("exposed_transfer_seconds", exposed_transfer)});
  }

  if (clock_ != nullptr) {
    if (kernel_busy > 0.0) {
      clock_->Charge(CostKind::kGpuKernel, kernel_busy);
    }
    if (exposed_transfer > 0.0) {
      clock_->Charge(CostKind::kPcieTransfer, exposed_transfer);
    }
  }
  return makespan;
}

void Device::CollectMetrics(std::vector<obs::MetricValue>& out) const {
  common::MutexLock lock(mu_);
  const std::string labels = "device=" + instance_;
  auto counter = [&](const char* name, double value) {
    obs::MetricValue m;
    m.name = name;
    m.labels = labels;
    m.type = obs::MetricType::kCounter;
    m.value = value;
    out.push_back(std::move(m));
  };
  counter("flb.gpusim.kernels_launched",
          static_cast<double>(stats_.kernels_launched));
  counter("flb.gpusim.h2d_copies", static_cast<double>(stats_.h2d_copies));
  counter("flb.gpusim.d2h_copies", static_cast<double>(stats_.d2h_copies));
  counter("flb.gpusim.bytes_h2d", static_cast<double>(stats_.bytes_h2d));
  counter("flb.gpusim.bytes_d2h", static_cast<double>(stats_.bytes_d2h));
  counter("flb.gpusim.kernel_seconds", stats_.kernel_seconds);
  counter("flb.gpusim.transfer_seconds", stats_.transfer_seconds);
  counter("flb.gpusim.streams_created",
          static_cast<double>(stats_.streams_created));
  counter("flb.gpusim.synchronizations",
          static_cast<double>(stats_.synchronizations));
  counter("flb.gpusim.overlap_saved_seconds", stats_.overlap_saved_seconds);
  obs::MetricValue util;
  util.name = "flb.gpusim.mean_sm_utilization";
  util.labels = labels;
  util.type = obs::MetricType::kGauge;
  util.value = stats_.MeanSmUtilization();
  out.push_back(std::move(util));
}

}  // namespace flb::gpusim

// Device: the simulated CUDA device FLBooster's GPU-HE layer runs on.
//
// A kernel launch is its work decomposition — total threads and limb
// operations per thread. The caller computes the real results on the host
// (bit-exact) before it launches; the device charges *modeled* kernel time
// to the SimClock:
//
//   waves        = ceil(total_threads / resident_threads)
//   kernel_time  = launch_latency + waves * ops_per_thread * cycles_per_op
//                                          / core_clock * (1/ilp)
//
// where resident_threads = num_sms * max_threads_per_sm * occupancy comes
// from the ResourceManager's block plan, and a divergence penalty stretches
// per-thread time when branch combining is disabled. CopyToDevice /
// CopyFromDevice charge PCIe time the same way (paper Eq. 10's
// beta_transfer term).
//
// Async execution (§IV / §V copy-compute overlap): the device also exposes
// CUDA-style streams. Each stream is an in-order queue with its own
// timeline; work on different streams overlaps subject to the shared
// hardware engines (StreamTimeline below, the one statement of this rule):
//
//   * one compute engine — kernels serialize device-wide (the HE kernels
//     saturate the SMs, so concurrent kernels would not help);
//   * one DMA engine per PCIe direction — same-direction copies serialize,
//     H2D and D2H overlap when the spec's link is full duplex.
//
// Async ops advance the stream/engine timelines but charge nothing until
// Synchronize(), which charges the SimClock with the window's kernel busy
// time plus only the *exposed* PCIe time (makespan - kernel busy): copies
// hidden behind kernels are free, exactly the overlap Fig. 4 banks on. A
// single-stream window degenerates to the old serialized H2D → kernel →
// D2H accounting bit-for-bit. EstimateChunks replays a chunk plan on a
// fresh StreamTimeline without touching the window, the stats or the
// clock: it is to the async calls what EstimateLaunch is to Launch.
//
// The device also keeps the utilization telemetry behind Fig. 6: a
// work-weighted average of SM utilization across launches.

#ifndef FLB_GPUSIM_DEVICE_H_
#define FLB_GPUSIM_DEVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/sim_clock.h"
#include "src/gpusim/device_spec.h"
#include "src/gpusim/resource_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::gpusim {

// Stream 0 always exists (the default stream); CreateStream returns 1, 2, ...
using StreamId = int;

inline constexpr StreamId kDefaultStream = 0;

struct KernelLaunch {
  std::string name;
  // Work decomposition.
  int64_t total_threads = 0;
  // Limb operations (32-bit multiply-accumulate equivalents) each thread
  // retires. The GHE layer derives this from key size and thread split.
  uint64_t ops_per_thread = 0;
  KernelDemand demand;
};

struct LaunchResult {
  double sim_seconds = 0.0;
  double occupancy = 0.0;       // resident threads / SM capacity
  double sm_utilization = 0.0;  // fraction of device thread-slots doing work
  int waves = 0;
  int block_threads = 0;
  int grid_blocks = 0;
  const char* limiting_resource = "threads";
  // Async launches only: position on the current window's timeline
  // (seconds since the window origin). Zero for synchronous launches.
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

// Timeline placement of one async PCIe copy.
struct CopyResult {
  double seconds = 0.0;  // modeled transfer duration
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

// The async scheduling rule (§V / Fig. 4): in-order streams, one compute
// engine, one DMA engine per PCIe direction, shared when the link is half
// duplex. An op starts once both its stream and its engine are free and
// holds both until it ends. Times are seconds since the window origin. The
// device runs its async window on one, and EstimateChunks replays a chunk
// plan on a fresh one, so what a plan is priced at and what its window
// charges come from the same arithmetic.
class StreamTimeline {
 public:
  StreamTimeline(bool full_duplex, int streams);

  int num_streams() const { return static_cast<int>(ready_.size()); }
  void AddStream() { ready_.push_back(0.0); }
  // Appends an op of `seconds` to `stream` (0 <= stream < num_streams())
  // and returns its start.
  double Kernel(int stream, double seconds);
  double Copy(int stream, double seconds, bool to_device);
  // When the last stream drains.
  double Makespan() const;
  double kernel_busy() const { return kernel_busy_; }
  double transfer_busy() const { return transfer_busy_; }
  // An empty window at the origin; the streams stay.
  void Reset();

 private:
  bool full_duplex_;
  std::vector<double> ready_;  // per stream
  double compute_free_ = 0.0;
  double h2d_free_ = 0.0;
  double d2h_free_ = 0.0;
  double kernel_busy_ = 0.0;
  double transfer_busy_ = 0.0;
};

// One chunk of a chunked batch: H2D of `bytes_in`, `kernel`, then D2H of
// `bytes_out`, in order on the caller's `stream`-th stream.
struct StreamChunk {
  int stream = 0;
  size_t bytes_in = 0;
  KernelLaunch kernel;
  size_t bytes_out = 0;
};

struct DeviceStats {
  uint64_t kernels_launched = 0;
  uint64_t h2d_copies = 0;
  uint64_t d2h_copies = 0;
  uint64_t bytes_h2d = 0;
  uint64_t bytes_d2h = 0;
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  // Async-window telemetry.
  uint64_t streams_created = 0;
  uint64_t synchronizations = 0;
  // Sum over windows of (busy kernel + busy transfer) - makespan: the time
  // the stream overlap hid relative to fully serial execution.
  double overlap_saved_seconds = 0.0;
  // Work-weighted mean SM utilization (Fig. 6 metric).
  double MeanSmUtilization() const {
    return util_weight == 0.0 ? 0.0 : util_sum / util_weight;
  }
  double util_sum = 0.0;     // sum of utilization * kernel_seconds
  double util_weight = 0.0;  // sum of kernel_seconds
};

class Device : public obs::MetricsSource {
 public:
  // `clock` may be null (timing still returned per launch, just not
  // accumulated). `branch_combining` selects the resource-manager policy;
  // FLBooster runs with it on, the HAFLO baseline with it off.
  Device(DeviceSpec spec, SimClock* clock, bool branch_combining = true);

  const DeviceSpec& spec() const { return spec_; }
  ResourceManager& resource_manager() { return rm_; }
  const ResourceManager& resource_manager() const { return rm_; }

  // Charges the launch's modeled time.
  Result<LaunchResult> Launch(const KernelLaunch& launch);

  // Pure timing/geometry model of a launch: no stats, no clock.
  // Launch/LaunchAsync price the identical result.
  Result<LaunchResult> EstimateLaunch(const KernelLaunch& launch) const;

  // PCIe transfers (paper Eq. 10's beta_transfer terms).
  double CopyToDevice(size_t bytes);
  double CopyFromDevice(size_t bytes);
  // Modeled duration of one transfer of `bytes` (latency + bytes/bandwidth).
  double TransferSeconds(size_t bytes) const;

  // ---- Streams (async timeline) --------------------------------------------

  // Creates a new stream, idle at the current window origin.
  StreamId CreateStream();

  // Enqueues work on a stream: the modeled time lands on the stream
  // timeline. Charges nothing until Synchronize().
  Result<LaunchResult> LaunchAsync(const KernelLaunch& launch, StreamId stream);
  Result<CopyResult> CopyToDeviceAsync(size_t bytes, StreamId stream);
  Result<CopyResult> CopyFromDeviceAsync(size_t bytes, StreamId stream);

  // Pure: the makespan Synchronize() would return after `chunks` were
  // enqueued in order on an empty window, chunk.stream naming the caller's
  // stream. No stats, clock or window change.
  Result<double> EstimateChunks(const std::vector<StreamChunk>& chunks) const;

  // Drains every stream: charges the SimClock with the window's kernel busy
  // time and the exposed (non-overlapped) transfer time, resets all stream
  // and engine timelines to a fresh window origin, and returns the window
  // makespan in seconds.
  double Synchronize();

  // Snapshot by value: the counters keep moving under their own lock.
  DeviceStats stats() const {
    common::MutexLock lock(mu_);
    return stats_;
  }

  // Position on this device's trace timeline: the SimClock when one is
  // attached, otherwise a local cursor that advances with every charged
  // operation (so clock-less bench devices still emit monotonic traces).
  double TimelineNow() const;

  // obs::MetricsSource: DeviceStats exposed through the unified registry.
  void CollectMetrics(std::vector<obs::MetricValue>& out) const override;

 private:
  // Buffered trace record for one async op; flushed at Synchronize() when
  // the window's absolute timeline position is known.
  struct PendingTraceOp {
    enum class Kind { kKernel, kH2d, kD2h } kind = Kind::kKernel;
    std::string name;
    StreamId stream = 0;
    double start = 0.0;  // seconds since window origin
    double end = 0.0;
    double occupancy = 0.0;  // kernels
    uint64_t bytes = 0;      // copies
  };

  Status CheckStream(StreamId stream) const FLB_REQUIRES(mu_);
  Result<CopyResult> CopyAsync(size_t bytes, StreamId stream, bool to_device);
  void RecordKernelStats(const LaunchResult& result) FLB_REQUIRES(mu_);
  void AdvanceLocalTime(double seconds) FLB_REQUIRES(mu_);
  double TimelineNowLocked() const FLB_REQUIRES(mu_);
  obs::Track StreamTrack(StreamId stream) const;
  obs::Track DmaTrack(bool to_device) const;
  void TraceKernel(obs::Track track, const std::string& name, double start,
                   double end, double occupancy, int stream) const;

  DeviceSpec spec_;
  SimClock* clock_;
  ResourceManager rm_;
  // Guards the mutable device/stream/window state below. The SimClock and
  // recorder calls run outside the lock (Launch* account under brief
  // critical sections).
  mutable common::Mutex mu_;
  DeviceStats stats_ FLB_GUARDED_BY(mu_);
  std::string instance_;
  // Trace cursor when clock_ == nullptr.
  double local_now_ FLB_GUARDED_BY(mu_) = 0.0;
  std::vector<PendingTraceOp> pending_trace_ FLB_GUARDED_BY(mu_);

  // The async window; index 0 = default stream.
  StreamTimeline window_ FLB_GUARDED_BY(mu_);

  // Registers DeviceStats with the global MetricsRegistry for the device's
  // lifetime (declared last: registration after the stats exist).
  obs::ScopedMetricsSource metrics_registration_{this};
};

}  // namespace flb::gpusim

#endif  // FLB_GPUSIM_DEVICE_H_

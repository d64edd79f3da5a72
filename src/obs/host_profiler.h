// HostProfiler: the wall-clock profiling plane for host execution.
//
// The platform's primary trace domain is *simulated* time (see trace.h);
// charged accounting never touches the wall clock. But the host execution
// engine (src/common/thread_pool) does real work on real cores, and "is the
// pool actually saturated?" is a wall-clock question. HostProfiler answers
// it without perturbing the simulated plane: it installs itself as the
// process-wide ThreadPoolObserver and renders per-worker task / steal /
// idle windows into a *second* Perfetto clock domain — the "host.wall"
// process in the exported trace, whose timestamps are monotonic wall
// seconds since Enable() rather than simulated seconds. The two domains
// share one trace file; Perfetto renders them as separate process groups,
// so a run's simulated timeline and its real scheduling behaviour can be
// inspected side by side (see DESIGN.md, "Dual-clock trace model").
//
// It is also a MetricsSource: every snapshot contributes
//   flb.host.busy_ms{worker=N} / flb.host.idle_ms{worker=N}   (counters)
//   flb.host.queue_depth                                      (gauge)
//   flb.host.lock_contended / flb.host.lock_wait_seconds      (counter /
//       histogram, from common::MutexContention's lock-free buckets)
//
// Observer callbacks run on pool worker threads and touch only relaxed
// atomics plus the TraceRecorder's leaf lock — they never feed charged
// accounting, so enabling the profiler cannot change any run result (the
// ObsServer determinism test enforces this bit-for-bit).

#ifndef FLB_OBS_HOST_PROFILER_H_
#define FLB_OBS_HOST_PROFILER_H_

#include <atomic>
#include <cstdint>

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::obs {

class HostProfiler : public common::ThreadPoolObserver, public MetricsSource {
 public:
  HostProfiler() = default;
  ~HostProfiler() override = default;

  // The process-global profiler (the only instance that should ever be
  // installed as the pool observer; it lives for the whole process).
  static HostProfiler& Global();

  // Enables the global profiler when FLB_HOST_PROFILE is set to anything
  // but "0" / empty. ObsServer startup also calls Global().Enable(), so a
  // live-inspected process always has the wall plane populated.
  static void EnableFromEnv();

  // Idempotent. Installs the pool observer, turns on lock-contention
  // accounting, and registers the metrics source. The wall-time origin
  // (second clock domain's zero) is pinned on the first Enable().
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // ThreadPoolObserver (worker threads; lock-light by contract).
  void OnTask(const TaskEvent& event) override;
  void OnIdle(int worker, uint64_t start_ns, uint64_t end_ns) override;

  // MetricsSource (called under the registry lock; atomics only).
  void CollectMetrics(std::vector<MetricValue>& out) const override;

 private:
  // FLB_HOST_THREADS is capped at 512; slot 512 absorbs any overflow.
  static constexpr int kMaxWorkers = 513;

  struct alignas(64) WorkerStats {
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> steals{0};
  };

  Track WallTrack(int worker);
  Track QueueTrack();
  double WallSeconds(uint64_t ns) const;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> source_registered_{false};
  std::atomic<uint64_t> base_ns_{0};
  std::atomic<int64_t> queue_depth_{0};
  // Cached Track handles packed as (pid << 32) | tid; 0 = not yet
  // registered (real pids start at 1). RegisterTrack is idempotent, so a
  // racing double-registration is harmless.
  std::atomic<uint64_t> track_cache_[kMaxWorkers] = {};
  std::atomic<uint64_t> queue_track_cache_{0};
  WorkerStats workers_[kMaxWorkers];
};

}  // namespace flb::obs

#endif  // FLB_OBS_HOST_PROFILER_H_

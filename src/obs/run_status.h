// RunStatus: the live run-status snapshot served by ObsServer's /status.
//
// The batch obs layer (metrics + trace) only becomes visible after a run
// ends; RunStatus is the "what is happening right now" plane. Platform::Run
// stamps run identity and phase transitions, every trainer publishes its
// epoch progress (plus an HE-op and fault snapshot copied at the epoch
// boundary), and bench_common contributes the bench/section names. The
// ObsServer scrape thread renders the whole thing as one JSON object.
//
// Update discipline: producers push *plain values* at coarse boundaries
// (run start/end, epoch end, section start) — RunStatus never holds
// pointers into live components, so a scrape can never race component
// teardown or perturb charged accounting. All fields sit behind one small
// leaf mutex; updates are epoch-granularity, scrapes are human-granularity,
// so the lock is effectively uncontended.

#ifndef FLB_OBS_RUN_STATUS_H_
#define FLB_OBS_RUN_STATUS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/annotations.h"
#include "src/common/mutex.h"

namespace flb::obs {

// Identity of the run in flight (Platform::Run's config, by value).
struct RunInfo {
  std::string engine;
  std::string model;
  int key_bits = 0;
  int parties = 0;
  uint64_t seed = 0;
};

// HE op totals copied from HeService::op_counts() between batches (the
// counters are relaxed atomics: each exact, mutually consistent only at
// batch boundaries).
struct HeOpsStatus {
  uint64_t encrypts = 0;
  uint64_t decrypts = 0;
  uint64_t hom_adds = 0;
  uint64_t scalar_muls = 0;
  uint64_t values_encrypted = 0;
  uint64_t values_decrypted = 0;
};

struct EpochStatus {
  int epoch = -1;  // -1 = no epoch finished yet
  int max_epochs = 0;
  double loss = 0.0;
  double accuracy = 0.0;
  double sim_seconds = 0.0;  // cumulative simulated seconds
  uint64_t comm_bytes = 0;   // this epoch's bytes
};

// Chaos-plane counters (all zero on healthy runs).
struct FaultStatus {
  uint64_t injected = 0;
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t corruptions = 0;
  uint64_t delays = 0;
};

struct ChannelStatus {
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t crc_failures = 0;
};

// Degraded-mode state from the resilience layer (all zero on healthy
// runs): party quarantine counts from the RobustCoordinator / PartyHealth
// side, link circuit-breaker state from the net side. Two producers, two
// field groups, one block in /status.
struct ResilienceStatus {
  uint64_t quarantined = 0;        // parties currently in quarantine
  uint64_t quarantines = 0;        // quarantine events so far
  uint64_t readmits = 0;           // probation readmissions
  uint64_t deadline_exceeded = 0;  // budget-bounded waits that expired
  uint64_t breaker_open = 0;       // links currently open
  uint64_t breaker_half_open = 0;  // links probing
  uint64_t breaker_trips = 0;
  uint64_t breaker_fast_fails = 0;
};

// Whole-run decomposition, published once at EndRun.
struct RunTotals {
  double total_seconds = 0.0;
  double he_seconds = 0.0;
  double comm_seconds = 0.0;
  uint64_t comm_bytes = 0;
  uint64_t comm_messages = 0;
};

class RunStatus {
 public:
  RunStatus() = default;

  // The process-global status every producer updates and /status serves.
  static RunStatus& Global();

  void BeginRun(const RunInfo& info);
  void SetPhase(const std::string& phase);  // idle/setup/train/done/linger
  void SetBench(const std::string& bench);
  void SetSection(const std::string& section);
  void UpdateEpoch(const EpochStatus& epoch, const HeOpsStatus& he);
  void UpdateFaults(const FaultStatus& faults, const ChannelStatus& channel);
  // Quarantine-side half of the resilience block (RobustCoordinator).
  void UpdateQuarantine(uint64_t quarantined, uint64_t quarantines,
                        uint64_t readmits, uint64_t deadline_exceeded);
  // Breaker-side half of the resilience block (net::CircuitBreaker).
  void UpdateBreaker(uint64_t open, uint64_t half_open, uint64_t trips,
                     uint64_t fast_fails);
  void EndRun(const RunTotals& totals, const HeOpsStatus& he);

  // Scrape accounting, bumped by ObsServer (lock-free; shows up in the
  // /status payload so a dashboard can see it is being polled).
  void NoteScrape(const char* endpoint);

  // Monotonic update stamp: bumped by every mutating call above. Lets a
  // poller (and the tests) detect "something changed" cheaply.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  // The /status payload. Never touches live components: everything is
  // already snapshotted by value (the trace drop counter is read from the
  // global TraceRecorder *before* taking the status lock — leaf-lock
  // discipline).
  std::string ToJson() const;

 private:
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> scrapes_metrics_{0};
  std::atomic<uint64_t> scrapes_status_{0};
  std::atomic<uint64_t> scrapes_trace_{0};
  std::atomic<uint64_t> scrapes_healthz_{0};
  std::atomic<uint64_t> scrapes_other_{0};

  mutable common::Mutex mu_;
  std::string phase_ FLB_GUARDED_BY(mu_) = "idle";
  std::string bench_ FLB_GUARDED_BY(mu_);
  std::string section_ FLB_GUARDED_BY(mu_);
  RunInfo run_ FLB_GUARDED_BY(mu_);
  EpochStatus epoch_ FLB_GUARDED_BY(mu_);
  HeOpsStatus he_ FLB_GUARDED_BY(mu_);
  FaultStatus faults_ FLB_GUARDED_BY(mu_);
  ChannelStatus channel_ FLB_GUARDED_BY(mu_);
  ResilienceStatus resilience_ FLB_GUARDED_BY(mu_);
  RunTotals totals_ FLB_GUARDED_BY(mu_);
};

}  // namespace flb::obs

#endif  // FLB_OBS_RUN_STATUS_H_

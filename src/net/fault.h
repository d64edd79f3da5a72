// Deterministic fault injection for the simulated network.
//
// The paper's testbed is four healthy servers on an ideal Gigabit LAN; real
// FL deployments (and the emulation testbeds in PAPERS.md) see loss,
// duplication, reordering, corruption, stragglers, partitions, and party
// failure. A FaultPlan describes those degradations declaratively; a
// FaultInjector executes the plan with a seeded Rng so a given
// (plan, workload) pair is bit-reproducible: same seed, same drops, same
// retransmit counts, same trained weights.
//
// The injector is consulted by Network on every delivery attempt and by the
// trainers for liveness/straggler questions. Every injected fault is
// recorded as an obs trace instant (track "faults") and a
// flb.fault.* metrics counter, so chaos runs are fully observable.
//
// Plan spec grammar (also the FLB_FAULT_PLAN environment variable):
//   clauses separated by ';', each one of
//     seed=N                     deterministic seed (default 1)
//     drop=P dup=P reorder=P corrupt=P     default per-link probabilities
//     delay=S jitter=S           extra per-message delay + uniform jitter (s)
//     straggler=<party>:<factor> per-party slowdown (factor >= 1, repeatable)
//     crash=<party>@<t>[-<r>]    party down from t, recovering at r (sim s;
//                                omitted r = never recovers)
//     partition=<a>|<b>@<t1>-<t2>  bidirectional link outage window (sim s)
//     link=<from>><to>:k=v[,k=v...]  directional override of the per-link
//                                probabilities/delay for one link
// Example:
//   drop=0.02;straggler=party1:4;crash=party2@0.5-0.9;seed=7

#ifndef FLB_NET_FAULT_H_
#define FLB_NET_FAULT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flb::net {

// Probabilistic degradations of one directed link.
struct LinkFaults {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  double corrupt_prob = 0.0;
  double extra_delay_sec = 0.0;
  double jitter_sec = 0.0;

  bool any() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           corrupt_prob > 0 || extra_delay_sec > 0 || jitter_sec > 0;
  }
};

// Bidirectional link outage over a simulated-time window.
struct Partition {
  std::string a, b;
  double start_sec = 0.0;
  double end_sec = 0.0;
};

// Party down from `at_sec`; `recover_sec` < 0 means it never comes back.
struct Crash {
  std::string party;
  double at_sec = 0.0;
  double recover_sec = -1.0;
};

struct FaultPlan {
  uint64_t seed = 1;
  LinkFaults default_link;
  // Directional overrides keyed (from, to); a present entry fully replaces
  // default_link for that link.
  std::map<std::pair<std::string, std::string>, LinkFaults> per_link;
  std::map<std::string, double> straggler_factor;  // party -> factor >= 1
  std::vector<Partition> partitions;
  std::vector<Crash> crashes;

  bool empty() const {
    return !default_link.any() && per_link.empty() &&
           straggler_factor.empty() && partitions.empty() && crashes.empty();
  }

  // Parses the spec grammar above. InvalidArgument on malformed clauses,
  // probabilities outside [0,1], or straggler factors < 1.
  static Result<FaultPlan> Parse(const std::string& spec);
};

struct FaultStats {
  uint64_t decisions = 0;  // delivery attempts consulted
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t corruptions = 0;
  uint64_t delays = 0;
  uint64_t partition_drops = 0;
  uint64_t crash_drops = 0;

  uint64_t TotalInjected() const {
    return drops + duplicates + reorders + corruptions + delays +
           partition_drops + crash_drops;
  }
};

class FaultInjector : public obs::MetricsSource {
 public:
  // `clock` may be null: time-windowed faults (partitions, crashes) then
  // evaluate at t=0 forever; probabilistic faults are unaffected.
  explicit FaultInjector(FaultPlan plan, SimClock* clock = nullptr);

  const FaultPlan& plan() const { return plan_; }

  // What happens to one delivery attempt from -> to at the current sim
  // time. Consumes randomness deterministically (call order defines the
  // fault sequence).
  struct Decision {
    bool deliver = true;
    bool duplicate = false;
    bool reorder = false;
    bool corrupt = false;
    size_t corrupt_bit = 0;       // bit index to flip (valid when corrupt)
    double extra_delay_sec = 0.0;
    const char* fault = nullptr;  // label of the dominant fault, else null
  };
  Decision OnSend(const std::string& from, const std::string& to,
                  const std::string& topic, size_t payload_bytes);

  // Liveness / topology questions at the current sim time.
  bool IsCrashed(const std::string& party) const;
  bool LinkPartitioned(const std::string& a, const std::string& b) const;
  // Simulated time at which `party` recovers from a crash active at the
  // current time; < 0 when it never recovers (or is not crashed).
  double CrashRecoverTime(const std::string& party) const;

  // Compute/transfer slowdown for a party (1.0 when not a straggler).
  double StragglerFactor(const std::string& party) const;

  // Snapshot by value: the counters keep moving under their own lock.
  FaultStats stats() const {
    common::MutexLock lock(mu_);
    return stats_;
  }

  // obs::MetricsSource: flb.fault.* counters.
  void CollectMetrics(std::vector<obs::MetricValue>& out) const override;

 private:
  double Now() const;
  const LinkFaults& FaultsFor(const std::string& from,
                              const std::string& to) const;
  void RecordFault(const char* kind, const std::string& from,
                   const std::string& to, const std::string& topic);

  FaultPlan plan_;
  SimClock* clock_;
  // Guards the decision state (rng_ draws define the fault sequence, so
  // they must be serialized). Never held across RecordFault's calls into
  // the registry/recorder — OnSend collects kinds under the lock and
  // emits after releasing it (their locks order after ours only via
  // CollectMetrics, never the reverse).
  mutable common::Mutex mu_;
  Rng rng_ FLB_GUARDED_BY(mu_);
  FaultStats stats_ FLB_GUARDED_BY(mu_);
  obs::ScopedMetricsSource metrics_registration_{this};
};

}  // namespace flb::net

#endif  // FLB_NET_FAULT_H_

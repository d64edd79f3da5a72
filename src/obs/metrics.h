// MetricsRegistry: the unified metrics plane for the platform.
//
// Before this layer, per-component telemetry was scattered: DeviceStats on
// the simulated GPU, NetworkStats on the simulated network, HE op counts on
// HeService, GHE chunking diagnostics on the engine, and ad-hoc printf in
// the benches. The registry unifies them behind one snapshot/serialize API:
//
//  * Counters / gauges / histograms with labels, for ad-hoc metrics
//    (Count / Set / Observe). Values are doubles; counts up to 2^53 stay
//    exact.
//  * MetricsSource: an adapter the stats-owning components implement.
//    Device, Network, and HeService register themselves (RAII, via
//    ScopedMetricsSource) and contribute their stats structs to every
//    snapshot — the legacy structs stay as the hot-path accumulators and
//    keep their existing consumers compiling, but reporting routes through
//    the registry.
//
// Nothing resets: counters only grow for the life of their owner, so a
// reader that wants one interval's numbers takes the difference of two
// snapshots.
//
// Naming scheme: "flb.<module>.<metric>" in snake_case; labels are a
// canonical "key=value,key=value" string (sorted by the caller). Snapshots
// serialize to {"metrics": [...]} JSON consumed by
// scripts/run_all_experiments.sh and the CI schema check.

#ifndef FLB_OBS_METRICS_H_
#define FLB_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/status.h"

namespace flb::obs {

enum class MetricType : int { kCounter = 0, kGauge = 1, kHistogram = 2 };

std::string MetricTypeName(MetricType type);

struct HistogramBucket {
  double le = 0.0;  // upper bound (inclusive); last bucket is +inf
  uint64_t count = 0;
};

// One metric in a snapshot.
struct MetricValue {
  std::string name;
  std::string labels;  // canonical "k=v,k=v"; empty when unlabelled
  MetricType type = MetricType::kGauge;
  double value = 0.0;  // counter total / gauge value / histogram sum
  // Histogram-only fields.
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::vector<HistogramBucket> buckets;
};

// Implemented by components that own a legacy stats struct. CollectMetrics
// appends the struct's fields as MetricValues.
class MetricsSource {
 public:
  virtual ~MetricsSource() = default;
  virtual void CollectMetrics(std::vector<MetricValue>& out) const = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // The process-global registry every instrumented component reports to.
  static MetricsRegistry& Global();

  // Adds `delta` to the counter (find-or-create).
  void Count(const std::string& name, double delta,
             const std::string& labels = "");
  // Sets the gauge to `value`.
  void Set(const std::string& name, double value,
           const std::string& labels = "");
  // Records one observation into the histogram (log10 buckets, 1e-9..1e3).
  void Observe(const std::string& name, double value,
               const std::string& labels = "");

  void RegisterSource(MetricsSource* source);
  void UnregisterSource(MetricsSource* source);

  // Snapshot: the registry's own metrics plus every registered source's
  // contribution, sorted by (name, labels).
  std::vector<MetricValue> Collect() const;

  // {"metrics": [...]} (see header comment for the schema).
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  struct Histogram {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<uint64_t> buckets;  // kNumBuckets entries
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  // Leaf-level locking: mu_ is held across source->CollectMetrics calls, so
  // sources must never call back into the registry from that hook (it only
  // reads their own stats structs).
  mutable common::Mutex mu_;
  std::map<Key, double> counters_ FLB_GUARDED_BY(mu_);
  std::map<Key, double> gauges_ FLB_GUARDED_BY(mu_);
  std::map<Key, Histogram> histograms_ FLB_GUARDED_BY(mu_);
  std::vector<MetricsSource*> sources_ FLB_GUARDED_BY(mu_);
};

// RAII registration of a MetricsSource with a registry. Members of the
// source itself (declare last so registration happens after the stats
// fields exist).
class ScopedMetricsSource {
 public:
  explicit ScopedMetricsSource(
      MetricsSource* source,
      MetricsRegistry* registry = &MetricsRegistry::Global());
  ~ScopedMetricsSource();

  ScopedMetricsSource(const ScopedMetricsSource&) = delete;
  ScopedMetricsSource& operator=(const ScopedMetricsSource&) = delete;

 private:
  MetricsSource* source_;
  MetricsRegistry* registry_;
};

}  // namespace flb::obs

#endif  // FLB_OBS_METRICS_H_

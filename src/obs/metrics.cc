#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <tuple>

#include "src/obs/json_util.h"
#include "src/obs/trace.h"

namespace flb::obs {

namespace {

// Log10 buckets: 1e-9, 1e-8, ..., 1e3, +inf — spans nanosecond kernel
// launches to kilosecond epochs.
constexpr int kNumBuckets = 14;

double BucketBound(int i) {
  return i + 1 >= kNumBuckets ? std::numeric_limits<double>::infinity()
                              : std::pow(10.0, i - 9);
}

int BucketIndex(double v) {
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (v <= BucketBound(i)) return i;
  }
  return kNumBuckets - 1;
}

}  // namespace

std::string MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  // Registered after the registry is constructed, so the handler runs
  // before its destructor (covers binaries that never touch the recorder).
  static const int atexit_registered = std::atexit(ExportEnvConfigured);
  (void)atexit_registered;
  return registry;
}

void MetricsRegistry::Count(const std::string& name, double delta,
                            const std::string& labels) {
  common::MutexLock lock(mu_);
  counters_[{name, labels}] += delta;
}

void MetricsRegistry::Set(const std::string& name, double value,
                          const std::string& labels) {
  common::MutexLock lock(mu_);
  gauges_[{name, labels}] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value,
                              const std::string& labels) {
  common::MutexLock lock(mu_);
  Histogram& h = histograms_[{name, labels}];
  if (h.buckets.empty()) h.buckets.assign(kNumBuckets, 0);
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[static_cast<size_t>(BucketIndex(value))];
}

void MetricsRegistry::RegisterSource(MetricsSource* source) {
  common::MutexLock lock(mu_);
  sources_.push_back(source);
}

void MetricsRegistry::UnregisterSource(MetricsSource* source) {
  common::MutexLock lock(mu_);
  sources_.erase(std::remove(sources_.begin(), sources_.end(), source),
                 sources_.end());
}

std::vector<MetricValue> MetricsRegistry::Collect() const {
  common::MutexLock lock(mu_);
  std::vector<MetricValue> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, value] : counters_) {
    MetricValue m;
    m.name = key.first;
    m.labels = key.second;
    m.type = MetricType::kCounter;
    m.value = value;
    out.push_back(std::move(m));
  }
  for (const auto& [key, value] : gauges_) {
    MetricValue m;
    m.name = key.first;
    m.labels = key.second;
    m.type = MetricType::kGauge;
    m.value = value;
    out.push_back(std::move(m));
  }
  for (const auto& [key, h] : histograms_) {
    MetricValue m;
    m.name = key.first;
    m.labels = key.second;
    m.type = MetricType::kHistogram;
    m.value = h.sum;
    m.count = h.count;
    m.min = h.min;
    m.max = h.max;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (h.buckets[static_cast<size_t>(i)] == 0) continue;
      m.buckets.push_back(
          {BucketBound(i), h.buckets[static_cast<size_t>(i)]});
    }
    out.push_back(std::move(m));
  }
  for (const MetricsSource* source : sources_) {
    source->CollectMetrics(out);
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : Collect()) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":" + JsonQuote(m.name);
    out += ",\"labels\":" + JsonQuote(m.labels);
    out += ",\"type\":" + JsonQuote(MetricTypeName(m.type));
    out += ",\"value\":" + JsonNumber(m.value);
    if (m.type == MetricType::kHistogram) {
      out += ",\"count\":" + JsonNumber(m.count);
      out += ",\"min\":" + JsonNumber(m.min);
      out += ",\"max\":" + JsonNumber(m.max);
      out += ",\"buckets\":[";
      for (size_t i = 0; i < m.buckets.size(); ++i) {
        if (i > 0) out += ",";
        // +inf has no JSON literal; the last log10 bound is 1e3, so 1e9
        // stands in as the overflow bucket bound.
        const double le =
            std::isfinite(m.buckets[i].le) ? m.buckets[i].le : 1e9;
        out += "{\"le\":" + JsonNumber(le) +
               ",\"count\":" + JsonNumber(m.buckets[i].count) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n]}";
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("MetricsRegistry: cannot open " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("MetricsRegistry: short write to " + path);
  }
  return Status::OK();
}

ScopedMetricsSource::ScopedMetricsSource(MetricsSource* source,
                                         MetricsRegistry* registry)
    : source_(source), registry_(registry) {
  registry_->RegisterSource(source_);
}

ScopedMetricsSource::~ScopedMetricsSource() {
  registry_->UnregisterSource(source_);
}

}  // namespace flb::obs

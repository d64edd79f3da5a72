// Workload definitions and BenchJson export for bench_paper, the driver of
// every paper table and figure with the shape claims checked (DESIGN.md §3).
//
// Shapes are container-scale versions of the paper's corpora (Table II);
// the *ratios* between engines, models, datasets, and key sizes are the
// reproduction target, not the absolute seconds (DESIGN.md §1).

#ifndef FLB_BENCH_BENCH_COMMON_H_
#define FLB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/common/env.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/platform.h"
#include "src/obs/host_profiler.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::bench {

using core::EngineKind;
using core::FlModelKind;
using core::PlatformConfig;
using fl::DatasetKind;

// FLB_SMOKE=1 shrinks every workload grid to a CI-sized pass: one tiny key
// size, miniature datasets. The drivers still exercise every code path;
// only the numbers stop being meaningful.
inline bool SmokeMode() {
  static const bool smoke = common::Env::Flag("FLB_SMOKE");
  return smoke;
}

inline const std::vector<FlModelKind> kAllModels = {
    FlModelKind::kHomoLr, FlModelKind::kHeteroLr, FlModelKind::kHeteroSbt,
    FlModelKind::kHeteroNn};
inline const std::vector<DatasetKind> kAllDatasets = {
    DatasetKind::kRcv1, DatasetKind::kAvazu, DatasetKind::kSynthetic};
inline const std::vector<int> kKeySizes =
    SmokeMode() ? std::vector<int>{256} : std::vector<int>{1024, 2048, 4096};

// A platform config for (model, dataset) at container scale: modeled HE,
// one epoch, the paper's batch size where the shape allows it.
inline PlatformConfig WorkloadFor(FlModelKind model, DatasetKind dataset,
                                  EngineKind engine, int key_bits) {
  PlatformConfig cfg;
  cfg.engine = engine;
  cfg.model = model;
  cfg.key_bits = key_bits;
  cfg.modeled = true;
  cfg.num_parties = 4;
  cfg.train.max_epochs = 1;
  cfg.train.batch_size = 1024;
  cfg.dataset = fl::DefaultScaleSpec(dataset);
  switch (model) {
    case FlModelKind::kHomoLr:
    case FlModelKind::kHomoNn:
    case FlModelKind::kHeteroLr:
      break;  // default shapes
    case FlModelKind::kHeteroSbt:
      // Tree building is node x feature x instance heavy; keep the shape
      // modest so the full grid completes. Histogram bucket sums are small
      // (|g| <= 1, <= rows contributions), so narrow fixed-point slots give
      // the BC cipher compression its full ratio.
      cfg.dataset.rows = std::min<size_t>(cfg.dataset.rows, 1024);
      cfg.dataset.cols = std::min<size_t>(cfg.dataset.cols, 256);
      cfg.dataset.nnz_per_row =
          std::min<size_t>(cfg.dataset.nnz_per_row, cfg.dataset.cols);
      cfg.sbt.max_depth = 4;
      cfg.sbt.num_bins = 32;
      cfg.train.learning_rate = 0.3;
      cfg.frac_bits = 20;
      cfg.fp_compress_slot_bits = 32;
      break;
    case FlModelKind::kHeteroNn:
      cfg.dataset.rows = std::min<size_t>(cfg.dataset.rows, 512);
      cfg.dataset.cols = std::min<size_t>(cfg.dataset.cols, 256);
      cfg.dataset.nnz_per_row =
          std::min<size_t>(cfg.dataset.nnz_per_row, cfg.dataset.cols);
      cfg.train.batch_size = 256;
      cfg.nn.bottom_dim = 8;
      cfg.nn.interactive_dim = 8;
      break;
  }
  if (SmokeMode()) {
    cfg.dataset.rows = std::min<size_t>(cfg.dataset.rows, 128);
    cfg.dataset.cols = std::min<size_t>(cfg.dataset.cols, 32);
    cfg.dataset.nnz_per_row =
        std::min<size_t>(cfg.dataset.nnz_per_row, cfg.dataset.cols);
    cfg.train.batch_size = std::min(cfg.train.batch_size, 64);
    cfg.sbt.max_depth = std::min(cfg.sbt.max_depth, 3);
  }
  return cfg;
}

// Machine-readable bench results: one {bench, section, metric, value, unit}
// record per printed number that matters. Serialized as
// {"bench": "...", "results": [...]} to the FLB_BENCH_JSON path at exit.
class BenchJson {
 public:
  static BenchJson& Global() {
    static BenchJson instance;
    return instance;
  }

  void set_bench(std::string name) { bench_ = std::move(name); }
  const std::string& bench() const { return bench_; }
  void set_section(std::string section) { section_ = std::move(section); }
  void set_host_threads(int n) { host_threads_ = n; }
  void set_wall_ms(double ms) { wall_ms_ = ms; }

  void Record(const std::string& metric, double value,
              const std::string& unit) {
    rows_.push_back({section_, metric, unit, value});
  }
  void Record(const std::string& section, const std::string& metric,
              double value, const std::string& unit) {
    rows_.push_back({section, metric, unit, value});
  }

  size_t num_records() const { return rows_.size(); }

  std::string ToJson() const {
    std::string out = "{\"bench\":" + obs::JsonQuote(bench_);
    out += ",\"host_threads\":" + std::to_string(host_threads_);
    out += ",\"wall_ms\":" + obs::JsonNumber(wall_ms_);
    out += ",\"results\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n{\"bench\":" + obs::JsonQuote(bench_);
      out += ",\"section\":" + obs::JsonQuote(rows_[i].section);
      out += ",\"metric\":" + obs::JsonQuote(rows_[i].metric);
      out += ",\"value\":" + obs::JsonNumber(rows_[i].value);
      out += ",\"unit\":" + obs::JsonQuote(rows_[i].unit) + "}";
    }
    out += "\n]}";
    return out;
  }

  Status WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("BenchJson: cannot open " + path);
    }
    const std::string json = ToJson();
    const size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (written != json.size()) {
      return Status::IoError("BenchJson: short write to " + path);
    }
    return Status::OK();
  }

 private:
  struct Row {
    std::string section;
    std::string metric;
    std::string unit;
    double value = 0.0;
  };
  std::string bench_ = "bench";
  std::string section_;
  int host_threads_ = 0;
  double wall_ms_ = 0.0;
  std::vector<Row> rows_;
};

// Starts a new bench section: prints the header and scopes subsequent
// BenchJson::Record calls. The metrics plane is never reset: memoized runs
// serve several sections, so the export at exit holds them all.
inline void BeginSection(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
  BenchJson::Global().set_section(title);
  obs::RunStatus::Global().SetSection(title);
}

// At-exit export of the observability artifacts, gated on the environment:
//   FLB_TRACE_OUT   — Chrome trace-event JSON of the (last) run's timeline
//   FLB_METRICS_OUT — unified metrics snapshot
//   FLB_BENCH_JSON  — this bench's {bench, section, metric, value, unit} rows
// The constructor touches every singleton it will read so they are
// constructed first and therefore destroyed after this exporter runs.
class ObsExporter {
 public:
  ObsExporter() {
    obs::TraceRecorder::Global();
    obs::MetricsRegistry::Global();
    BenchJson::Global();
    const std::string bench_name = common::Env::Str("FLB_BENCH_NAME", "bench");
    BenchJson::Global().set_bench(bench_name);
    BenchJson::Global().set_host_threads(
        common::ThreadPool::Global().num_threads());
    // Live inspection: start the scrape server / wall profiler as early as
    // env configuration allows, and name the bench in /status.
    obs::ObsServer::EnsureGlobalFromEnv();
    obs::HostProfiler::EnableFromEnv();
    obs::RunStatus::Global().SetBench(bench_name);
  }

  ~ObsExporter() {
    BenchJson::Global().set_wall_ms(timer_.ElapsedSeconds() * 1e3);
    // Trace-cap losses become a bench row so summary.json surfaces them
    // alongside the numbers they may have truncated.
    BenchJson::Global().Record(
        "obs", "flb.obs.trace.dropped_events",
        static_cast<double>(obs::TraceRecorder::Global().dropped_events()),
        "count");
    Export();
    // FLB_OBS_LINGER: hold the process (phase "linger") so a scraper can
    // take final /metrics + /trace snapshots after all sections ran.
    obs::ObsServer::LingerFromEnv();
  }

  static void Export() {
    // Trace + metrics export lives in obs (atexit-registered for every
    // binary, idempotent); only the bench rows are bench-specific.
    obs::ExportEnvConfigured();
    const std::string path = common::Env::Str("FLB_BENCH_JSON");
    if (!path.empty()) {
      const Status s = BenchJson::Global().WriteJson(path);
      if (!s.ok()) {
        std::fprintf(stderr, "bench json export failed: %s\n",
                     s.ToString().c_str());
      } else {
        std::fprintf(stderr, "[obs] wrote bench results to %s\n",
                     path.c_str());
      }
    }
  }

 private:
  WallTimer timer_;  // whole-bench wall clock, exported as wall_ms
};

inline ObsExporter obs_exporter_at_exit;

inline core::RunReport MustRun(const PlatformConfig& cfg) {
  auto report = core::Platform::Run(cfg);
  if (!report.ok()) {
    std::fprintf(stderr, "platform run failed: %s\n",
                 report.status().ToString().c_str());
    std::abort();
  }
  return std::move(report).value();
}

}  // namespace flb::bench

#endif  // FLB_BENCH_BENCH_COMMON_H_

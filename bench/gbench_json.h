// google-benchmark -> BenchJson bridge.
//
// The paper driver (bench_paper) exports its numbers through
// bench_common.h's BenchJson
// ({bench, section, metric, value, unit} rows, written to FLB_BENCH_JSON at
// exit, validated by scripts/validate_obs_json.sh). The microbenchmarks
// (bench_paillier, bench_montgomery) are google-benchmark binaries, whose
// own JSON speaks a different schema — so the CI perf-regression job could
// not consume them.
//
// FLB_GBENCH_MAIN() replaces BENCHMARK_MAIN(): console output is unchanged
// (the reporter *is* a ConsoleReporter), and every completed per-iteration
// run is mirrored into BenchJson as
//   section = "gbench", metric = <full benchmark name>, value = real
//   nanoseconds per iteration, unit = "ns/iter".
// Aggregate rows (mean/median/stddev) and errored runs are skipped: the
// regression gate compares raw per-run timings, and an error must fail the
// job through the process exit code, not poison the baseline.
//
// bench_common.h's at-exit ObsExporter does the actual FLB_BENCH_JSON
// write, so microbenchmarks and regenerators produce byte-compatible
// artifacts from the same code path.

#ifndef FLB_BENCH_GBENCH_JSON_H_
#define FLB_BENCH_GBENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_common.h"

namespace flb::bench {

class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // Real wall time per iteration, normalized to nanoseconds regardless
      // of the benchmark's display unit (iterations == 0 cannot happen for
      // a completed RT_Iteration run, but guard the division anyway).
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double ns_per_iter = run.real_accumulated_time / iters * 1e9;
      BenchJson::Global().Record("gbench", run.benchmark_name(), ns_per_iter,
                                 "ns/iter");
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace flb::bench

// Drop-in replacement for BENCHMARK_MAIN() that routes results through the
// mirror reporter. Returns non-zero when no benchmark matched the filter,
// so a typo'd --benchmark_filter fails CI instead of green-lighting an
// empty run.
#define FLB_GBENCH_MAIN()                                                 \
  int main(int argc, char** argv) {                                       \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::flb::bench::JsonMirrorReporter reporter;                            \
    const size_t ran = ::benchmark::RunSpecifiedBenchmarks(&reporter);    \
    ::benchmark::Shutdown();                                              \
    return ran == 0 ? 2 : 0;                                              \
  }                                                                       \
  static_assert(true, "require a trailing semicolon")

#endif  // FLB_BENCH_GBENCH_JSON_H_

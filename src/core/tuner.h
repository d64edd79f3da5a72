// AutoTuner — closes the loop over FLBooster's performance knobs (ROADMAP
// open item 5).
//
// The platform exposes several knobs that each earlier PR validated in
// isolation: GHE stream count and chunk granularity (stream overlap), host
// thread count, HE mini-batch size, batch compression, fixed-width kernel
// dispatch. Their best joint setting depends on (key size, batch shape,
// device profile, link) — HAFLO and BouquetFL both observe that no static
// default is near-optimal across workloads. The tuner resolves them per
// workload:
//
//   1. Analytic warm start (Eq. 10 machinery): two tiny decomposition
//      probes split the workload's HE/communication counts into per-batch
//      and fixed components; every candidate in the KnobSpace is then
//      priced through the GHE launch model + the link model and ranked.
//   2. Online refinement: deterministic successive halving over the
//      top-ranked cohort (plus one exploration candidate drawn with
//      Rng::ForStream). Each round measures the survivors with real
//      warm-up runs (Platform::RunForTuning) at increasing fidelity in
//      *simulated* time and halves the cohort; the final round is a
//      playoff at the full workload size that always re-admits the
//      config's own knobs, so tuning never chooses a config that measures
//      worse than the defaults. No wall clock, no ambient entropy, so the
//      whole search is bit-reproducible (flb_analyze FLB001/FLB002 clean)
//      and invariant to host thread count.
//   3. TuningCache: the chosen knobs are memoized per workload
//      fingerprint (FNV-1a over every run-shape field, seed excluded) in
//      memory and optionally on disk (PlatformConfig::tuner_cache /
//      FLB_TUNER_CACHE), so repeated runs skip the warm-up entirely.
//
// Determinism contract: a tuned run is bit-identical to an untuned run
// launched directly with the chosen knobs, and FLB_AUTO_TUNE unset leaves
// every code path byte-identical to a build without the tuner.

#ifndef FLB_CORE_TUNER_H_
#define FLB_CORE_TUNER_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/core/platform.h"

namespace flb::tune {

// One point in the knob space. Zero / -1 fields mean "keep the engine or
// workload default", so the default-constructed KnobConfig is exactly
// today's untuned behavior.
struct KnobConfig {
  int gpu_streams = 0;           // device streams; 0 = engine default
  int ghe_chunks_per_stream = 0; // chunk granularity; 0 = default (1)
  int host_threads = 0;          // host pool width; 0 = inherit
  int batch_size = 0;            // HE mini-batch rows; 0 = workload default
  int use_bc = -1;               // batch compression; -1 = engine trait
  bool use_fixed_width_kernels = true;

  bool operator==(const KnobConfig& other) const {
    return gpu_streams == other.gpu_streams &&
           ghe_chunks_per_stream == other.ghe_chunks_per_stream &&
           host_threads == other.host_threads &&
           batch_size == other.batch_size && use_bc == other.use_bc &&
           use_fixed_width_kernels == other.use_fixed_width_kernels;
  }
  bool operator!=(const KnobConfig& other) const { return !(*this == other); }

  // Canonical single-line form, also the TuningCache wire format:
  // "streams=4 chunks=2 threads=0 batch=512 bc=1 fixed=1".
  std::string ToString() const;
  // Parses ToString output. nullopt on malformed input (a corrupt cache
  // line is skipped, never trusted).
  static std::optional<KnobConfig> Parse(const std::string& line);
};

// The candidate axes for one workload. Axes with a single value are
// effectively pinned (e.g. streams for CPU engines; host_threads, which
// cannot be searched by simulated time because results are wall-clock
// invariant by design).
struct KnobSpace {
  std::vector<int> gpu_streams;
  std::vector<int> chunks_per_stream;
  std::vector<int> host_threads;
  std::vector<int> batch_sizes;
  std::vector<int> use_bc;

  static KnobSpace For(const core::PlatformConfig& config);
  // Cross product, in deterministic axis order.
  std::vector<KnobConfig> Enumerate() const;
};

// What a Tune call did, for benches / tests / the /status tuner block.
struct TuneOutcome {
  KnobConfig chosen;
  std::string fingerprint;  // workload fingerprint, hex
  bool cache_hit = false;
  int candidates = 0;       // knob configs considered by the search
  int warmup_runs = 0;      // probe runs measured
  double warmup_seconds = 0.0;    // simulated seconds spent in probes
  double predicted_seconds = 0.0; // analytic full-scale estimate, chosen knobs
  double measured_seconds = 0.0;  // full-fidelity playoff epoch seconds
};

// Process-wide memo of chosen knobs per workload fingerprint, with an
// optional disk tier. The disk file is a versioned line format
// ("flbtune v1" header, then "<fingerprint> <KnobConfig::ToString>"),
// rewritten atomically-enough for a single-writer CI pipeline; corrupt
// lines are ignored.
class TuningCache {
 public:
  static TuningCache& Global();

  // In-memory first; on miss with a non-empty path, lazily loads that file
  // (once per path) and retries.
  std::optional<KnobConfig> Lookup(const std::string& path,
                                   const std::string& fingerprint);
  // Stores in memory and, with a non-empty path, rewrites the file with
  // every entry known for it.
  Status Store(const std::string& path, const std::string& fingerprint,
               const KnobConfig& knobs);
  // Drops all in-memory state (tests; disk files are left alone).
  void Clear();

 private:
  Status WriteFileLocked(const std::string& path)
      FLB_REQUIRES(mu_);
  void LoadFileLocked(const std::string& path)
      FLB_REQUIRES(mu_);

  common::Mutex mu_;
  // fingerprint -> knobs, all paths merged (fingerprints are
  // workload-unique, so one namespace suffices).
  std::map<std::string, KnobConfig> entries_ FLB_GUARDED_BY(mu_);
  std::set<std::string> loaded_paths_ FLB_GUARDED_BY(mu_);
};

class AutoTuner {
 public:
  // Resolves the knobs for `config` — cache hit or full search — and
  // returns the config with them applied (auto_tune cleared). This is what
  // Platform::Run calls when auto-tuning is on.
  static Result<core::PlatformConfig> TunedConfig(
      const core::PlatformConfig& config);

  // The full outcome, for benches and tests.
  static Result<TuneOutcome> Tune(const core::PlatformConfig& config);

  // `config` with `knobs` applied onto the knob fields (other fields
  // untouched).
  static core::PlatformConfig Apply(const core::PlatformConfig& config,
                                    const KnobConfig& knobs);

  // FNV-1a fingerprint (hex) over every field that shapes the run except
  // the seed — two runs differing only by seed share tuned knobs.
  static std::string Fingerprint(const core::PlatformConfig& config);
};

}  // namespace flb::tune

#endif  // FLB_CORE_TUNER_H_

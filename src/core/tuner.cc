#include "src/core/tuner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/codec/batch_compressor.h"
#include "src/codec/quantizer.h"
#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/core/cost_model.h"
#include "src/core/engine_config.h"
#include "src/ghe/ghe_engine.h"
#include "src/ghe/he_cost.h"
#include "src/gpusim/device.h"
#include "src/obs/metrics.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::tune {
namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string RunLabels(const core::PlatformConfig& config) {
  return "engine=" + core::EngineName(config.engine) +
         ",key_bits=" + std::to_string(config.key_bits) +
         ",model=" + core::ModelName(config.model);
}

// Effective batch-compression state for a config before any knob override
// (explicit config override first, then the engine trait).
bool EffectiveBc(const core::PlatformConfig& config) {
  if (config.use_bc >= 0) return config.use_bc != 0;
  return core::TraitsFor(config.engine).use_bc;
}

// Slots per packed plaintext for this workload's quantizer, the factor BC
// changes ciphertext counts and wire bytes by (Eq. 11). 1 when packing
// cannot apply.
int SlotsFor(const core::PlatformConfig& config) {
  codec::QuantizerConfig qc;
  qc.alpha = config.alpha;
  qc.r_bits = config.r_bits;
  qc.participants =
      config.model == core::FlModelKind::kHeteroNn ? 2 : config.num_parties;
  auto quantizer = codec::Quantizer::Create(qc);
  if (!quantizer.ok()) return 1;
  auto compressor =
      codec::BatchCompressor::Create(quantizer.value(), config.key_bits);
  if (!compressor.ok()) return 1;
  return compressor.value().slots_per_plaintext();
}

// Disables the trace recorder and quiets /status for the lifetime of the
// search, so warm-up probes never leak into the observable state of the
// real run. Restores on scope exit.
class ProbeGuard {
 public:
  ProbeGuard() {
    auto& recorder = obs::TraceRecorder::Global();
    trace_was_enabled_ = recorder.enabled();
    recorder.set_enabled(false);
    obs::RunStatus::Global().set_quiet(true);
  }
  ~ProbeGuard() {
    obs::TraceRecorder::Global().set_enabled(trace_was_enabled_);
    obs::RunStatus::Global().set_quiet(false);
  }
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  bool trace_was_enabled_ = false;
};

// One warm-up measurement: the workload with `knobs` applied, shrunk to
// `rows` and one epoch, run in plaintext-shadow mode through the probe
// entry point (no RunStatus/trace/env side effects). All timing is
// simulated seconds, so the measurement is bit-reproducible and invariant
// to host thread count.
Result<core::RunReport> RunProbe(const core::PlatformConfig& base,
                                 const KnobConfig& knobs, int64_t rows) {
  core::PlatformConfig probe = AutoTuner::Apply(base, knobs);
  probe.modeled = true;
  probe.auto_tune = false;
  probe.train.max_epochs = 1;
  probe.dataset.rows = static_cast<size_t>(rows);
  probe.fault_plan.clear();
  probe.run_deadline_sec = 0;
  probe.obs_port = 0;
  return core::Platform::RunForTuning(probe);
}

// Eq. 10-style affine decomposition of the probe counters: each count is
// modeled as (per-batch component) * num_batches + (fixed component),
// solved from two probes at different batch sizes. Per-value work lands in
// the fixed component (num_batches doesn't change it at fixed rows),
// per-round traffic and aggregate ops land in the per-batch component.
struct AffineCount {
  double per_batch = 0.0;
  double fixed = 0.0;

  double At(double num_batches) const {
    return std::max(0.0, per_batch * num_batches + fixed);
  }
};

AffineCount Solve(double v0, double v1, double nb0, double nb1) {
  AffineCount c;
  if (nb1 == nb0) {
    c.fixed = v0;
    return c;
  }
  c.per_batch = (v1 - v0) / (nb1 - nb0);
  c.fixed = v0 - c.per_batch * nb0;
  return c;
}

// The analytic workload model the candidate ranking is seeded from.
struct CountModel {
  AffineCount encrypts;
  AffineCount decrypts;
  AffineCount hom_adds;
  AffineCount scalar_muls;
  AffineCount messages;
  AffineCount bytes;
  double other_seconds = 0.0;  // probe time outside HE + comm
  bool baseline_bc = false;    // BC state the probes ran with
  int slots = 1;               // packing factor if BC were toggled
};

CountModel BuildCountModel(const core::PlatformConfig& config,
                           const core::RunReport& rep0,
                           const core::RunReport& rep1, int64_t rows, int b0,
                           int b1) {
  const double nb0 = std::ceil(static_cast<double>(rows) / b0);
  const double nb1 = std::ceil(static_cast<double>(rows) / b1);
  CountModel m;
  m.encrypts = Solve(static_cast<double>(rep0.he_ops.encrypts),
                     static_cast<double>(rep1.he_ops.encrypts), nb0, nb1);
  m.decrypts = Solve(static_cast<double>(rep0.he_ops.decrypts),
                     static_cast<double>(rep1.he_ops.decrypts), nb0, nb1);
  m.hom_adds = Solve(static_cast<double>(rep0.he_ops.hom_adds),
                     static_cast<double>(rep1.he_ops.hom_adds), nb0, nb1);
  m.scalar_muls = Solve(static_cast<double>(rep0.he_ops.scalar_muls),
                        static_cast<double>(rep1.he_ops.scalar_muls), nb0,
                        nb1);
  m.messages = Solve(static_cast<double>(rep0.comm_messages),
                     static_cast<double>(rep1.comm_messages), nb0, nb1);
  m.bytes = Solve(static_cast<double>(rep0.comm_bytes),
                  static_cast<double>(rep1.comm_bytes), nb0, nb1);
  m.other_seconds = rep0.other_seconds;
  m.baseline_bc = EffectiveBc(config);
  m.slots = SlotsFor(config);
  return m;
}

// Predicted epoch seconds for `knobs` at `rows` fidelity: HE time through
// the GHE launch model (GPU) or the CPU cost model, communication through
// the link model, plus the measured non-HE remainder. Only used to *rank*
// candidates — measurement corrects any model error before a knob wins.
double PredictSeconds(const core::PlatformConfig& config, const CountModel& m,
                      const KnobConfig& knobs, int64_t rows) {
  const core::EngineTraits traits = core::TraitsFor(config.engine);
  const int batch = knobs.batch_size > 0 ? knobs.batch_size
                                         : std::max(1, config.train.batch_size);
  const double nb = std::ceil(static_cast<double>(rows) / batch);

  double encrypts = m.encrypts.At(nb);
  double decrypts = m.decrypts.At(nb);
  double hom_adds = m.hom_adds.At(nb);
  const double scalar_muls = m.scalar_muls.At(nb);
  const double messages = m.messages.At(nb);
  double bytes = m.bytes.At(nb);

  // Toggling BC relative to the probes rescales ciphertext-count-shaped
  // quantities by the packing factor (Eq. 11).
  const bool candidate_bc =
      knobs.use_bc < 0 ? m.baseline_bc : knobs.use_bc != 0;
  if (candidate_bc != m.baseline_bc && m.slots > 1) {
    const double factor = candidate_bc ? 1.0 / m.slots
                                       : static_cast<double>(m.slots);
    encrypts *= factor;
    decrypts *= factor;
    hom_adds *= factor;
    bytes *= factor;
  }

  // Every op class is priced from the HE cost table, as the run prices it.
  const int key_bits = config.key_bits;
  const int scalar_bits = ghe::FixedPointScalarBits(config.frac_bits);
  const std::pair<ghe::HeOp, double> ops[] = {
      {ghe::HeOp::kEncrypt, encrypts},
      {ghe::HeOp::kDecrypt, decrypts},
      {ghe::HeOp::kAdd, hom_adds},
      {ghe::HeOp::kScalarMul, scalar_muls}};
  double he_seconds = 0.0;
  if (traits.gpu_he) {
    // Price the candidate's launch geometry on a throwaway device: one
    // launch per op class at the per-batch size, scaled by batch count, so
    // the stream/chunk overlap the candidate would get is what is priced.
    auto device = std::make_shared<gpusim::Device>(
        gpusim::DeviceSpec::Rtx3090(), nullptr, traits.branch_combining);
    ghe::GheConfig gcfg;
    gcfg.words_per_thread = traits.words_per_thread;
    gcfg.streams =
        knobs.gpu_streams > 0 ? knobs.gpu_streams : traits.gpu_streams;
    gcfg.chunks_per_stream =
        knobs.ghe_chunks_per_stream > 0 ? knobs.ghe_chunks_per_stream : 1;
    ghe::GheEngine engine(device, gcfg);
    for (const auto& [op, total] : ops) {
      if (total < 0.5) continue;
      const int64_t per_launch =
          std::max<int64_t>(1, std::llround(total / nb));
      auto launch = engine.ModelOp(op, key_bits, per_launch, scalar_bits);
      if (launch.ok()) he_seconds += launch.value().sim_seconds * nb;
    }
  } else {
    const core::CpuCostModel cost;
    for (const auto& [op, total] : ops) {
      he_seconds += cost.SecondsFor(
          static_cast<uint64_t>(total),
          ghe::HeCost(op, key_bits, 1, scalar_bits).limb_ops);
    }
  }

  // Link model: per-message latency + bandwidth + per-serialized-object
  // protocol cost, with objects estimated from the ciphertext wire width.
  const double cipher_bytes = 2.0 * key_bits / 8.0;
  const double objects = cipher_bytes > 0 ? bytes / cipher_bytes : 0.0;
  const double comm_seconds =
      messages * config.link.latency_sec +
      bytes / config.link.bandwidth_bytes_per_sec +
      objects * config.link.per_object_overhead_sec;

  return he_seconds + comm_seconds + m.other_seconds;
}

// Publishes the outcome to every observability surface: flb.tuner.*
// metrics, the tuner trace track, and the /status tuner block. Called
// after the ProbeGuard has been released.
void PublishOutcome(const core::PlatformConfig& config,
                    const TuneOutcome& outcome) {
  auto& metrics = obs::MetricsRegistry::Global();
  const std::string labels = RunLabels(config);
  metrics.Count("flb.tuner.candidates", outcome.candidates, labels);
  metrics.Count("flb.tuner.warmup_runs", outcome.warmup_runs, labels);
  metrics.Count("flb.tuner.warmup_seconds", outcome.warmup_seconds, labels);
  metrics.Set("flb.tuner.chosen_streams", outcome.chosen.gpu_streams, labels);
  metrics.Set("flb.tuner.chosen_chunks",
              outcome.chosen.ghe_chunks_per_stream, labels);
  metrics.Set("flb.tuner.chosen_batch", outcome.chosen.batch_size, labels);
  metrics.Set("flb.tuner.chosen_bc", outcome.chosen.use_bc, labels);
  metrics.Set("flb.tuner.predicted_seconds", outcome.predicted_seconds,
              labels);
  metrics.Set("flb.tuner.measured_seconds", outcome.measured_seconds, labels);
  if (outcome.measured_seconds > 0) {
    metrics.Set("flb.tuner.prediction_error",
                std::fabs(outcome.predicted_seconds -
                          outcome.measured_seconds) /
                    outcome.measured_seconds,
                labels);
  }

  obs::TunerStatus status;
  status.enabled = true;
  status.cache_hit = outcome.cache_hit;
  status.candidates = static_cast<uint64_t>(outcome.candidates);
  status.warmup_runs = static_cast<uint64_t>(outcome.warmup_runs);
  status.warmup_seconds = outcome.warmup_seconds;
  status.predicted_seconds = outcome.predicted_seconds;
  status.measured_seconds = outcome.measured_seconds;
  status.fingerprint = outcome.fingerprint;
  status.chosen = outcome.chosen.ToString();
  obs::RunStatus::Global().UpdateTuner(status);

  auto& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) {
    const obs::Track track = recorder.RegisterTrack("tuner", "search");
    recorder.Instant(
        track, outcome.cache_hit ? "tuner.cache_hit" : "tuner.search",
        "tuner", 0.0,
        {obs::Arg("fingerprint", outcome.fingerprint),
         obs::Arg("candidates", outcome.candidates),
         obs::Arg("warmup_runs", outcome.warmup_runs),
         obs::Arg("warmup_seconds", outcome.warmup_seconds)});
    recorder.Instant(track, "tuner.chosen", "tuner", 0.0,
                     {obs::Arg("knobs", outcome.chosen.ToString()),
                      obs::Arg("predicted_seconds", outcome.predicted_seconds),
                      obs::Arg("measured_seconds", outcome.measured_seconds)});
  }
}

}  // namespace

// ---- KnobConfig -------------------------------------------------------------

std::string KnobConfig::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "streams=%d chunks=%d threads=%d batch=%d bc=%d fixed=%d",
                gpu_streams, ghe_chunks_per_stream, host_threads, batch_size,
                use_bc, use_fixed_width_kernels ? 1 : 0);
  return buf;
}

std::optional<KnobConfig> KnobConfig::Parse(const std::string& line) {
  KnobConfig knobs;
  int fixed = 0;
  if (std::sscanf(line.c_str(),
                  "streams=%d chunks=%d threads=%d batch=%d bc=%d fixed=%d",
                  &knobs.gpu_streams, &knobs.ghe_chunks_per_stream,
                  &knobs.host_threads, &knobs.batch_size, &knobs.use_bc,
                  &fixed) != 6) {
    return std::nullopt;
  }
  if (knobs.gpu_streams < 0 || knobs.gpu_streams > 256 ||
      knobs.ghe_chunks_per_stream < 0 || knobs.ghe_chunks_per_stream > 256 ||
      knobs.host_threads < 0 || knobs.host_threads > 512 ||
      knobs.batch_size < 0 || knobs.batch_size > (1 << 26) ||
      knobs.use_bc < -1 || knobs.use_bc > 1 || fixed < 0 || fixed > 1) {
    return std::nullopt;
  }
  knobs.use_fixed_width_kernels = fixed != 0;
  return knobs;
}

// ---- KnobSpace --------------------------------------------------------------

KnobSpace KnobSpace::For(const core::PlatformConfig& config) {
  KnobSpace space;
  const core::EngineTraits traits = core::TraitsFor(config.engine);
  if (traits.gpu_he) {
    space.gpu_streams = {1, 2, 4, 8};
    space.chunks_per_stream = {1, 2, 4};
  } else {
    // CPU engines have no stream/chunk schedule to search.
    space.gpu_streams = {0};
    space.chunks_per_stream = {0};
  }
  // Host threads are deliberately pinned: results and simulated time are
  // bit-identical at any pool width (the repo's core invariant), so a
  // simulated-time search cannot distinguish values — and must not try, or
  // the chosen config would depend on measurement noise.
  space.host_threads = {0};
  // Fixed-width kernel dispatch is bit-identical and never slower in
  // simulated time; keep the config's setting rather than searching it.

  const int64_t rows = std::max<int64_t>(
      16, static_cast<int64_t>(config.dataset.rows));
  const int base_batch = std::max(1, config.train.batch_size);
  std::vector<int> batches;
  for (const int shift : {-2, -1, 0, 1, 2}) {
    int64_t candidate = shift < 0
                            ? static_cast<int64_t>(base_batch) >> -shift
                            : static_cast<int64_t>(base_batch) << shift;
    candidate = std::clamp<int64_t>(candidate, 16, rows);
    batches.push_back(static_cast<int>(candidate));
  }
  std::sort(batches.begin(), batches.end());
  batches.erase(std::unique(batches.begin(), batches.end()), batches.end());
  space.batch_sizes = batches;

  // -1 keeps the workload's effective BC state; the other value flips it.
  space.use_bc = {-1, EffectiveBc(config) ? 0 : 1};
  return space;
}

std::vector<KnobConfig> KnobSpace::Enumerate() const {
  std::vector<KnobConfig> out;
  for (const int bc : use_bc) {
    for (const int batch : batch_sizes) {
      for (const int threads : host_threads) {
        for (const int streams : gpu_streams) {
          for (const int chunks : chunks_per_stream) {
            KnobConfig knobs;
            knobs.gpu_streams = streams;
            knobs.ghe_chunks_per_stream = chunks;
            knobs.host_threads = threads;
            knobs.batch_size = batch;
            knobs.use_bc = bc;
            out.push_back(knobs);
          }
        }
      }
    }
  }
  return out;
}

// ---- TuningCache ------------------------------------------------------------

TuningCache& TuningCache::Global() {
  static TuningCache* cache = new TuningCache();  // leaked singleton
  return *cache;
}

std::optional<KnobConfig> TuningCache::Lookup(const std::string& path,
                                              const std::string& fingerprint) {
  common::MutexLock lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) return it->second;
  if (!path.empty() && loaded_paths_.insert(path).second) {
    LoadFileLocked(path);
    it = entries_.find(fingerprint);
    if (it != entries_.end()) return it->second;
  }
  return std::nullopt;
}

Status TuningCache::Store(const std::string& path,
                          const std::string& fingerprint,
                          const KnobConfig& knobs) {
  common::MutexLock lock(mu_);
  // Merge the file first so a rewrite never drops entries another process
  // (or an earlier run) put there.
  if (!path.empty() && loaded_paths_.insert(path).second) {
    LoadFileLocked(path);
  }
  entries_[fingerprint] = knobs;
  if (path.empty()) return Status::OK();
  return WriteFileLocked(path);
}

void TuningCache::Clear() {
  common::MutexLock lock(mu_);
  entries_.clear();
  loaded_paths_.clear();
}

void TuningCache::LoadFileLocked(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return;  // missing cache file = empty cache
  char line[256];
  bool header_ok = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (!header_ok) {
      if (s != "flbtune v1") break;  // wrong version: ignore the file
      header_ok = true;
      continue;
    }
    const size_t space = s.find(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string fingerprint = s.substr(0, space);
    const std::optional<KnobConfig> knobs =
        KnobConfig::Parse(s.substr(space + 1));
    if (!knobs.has_value()) continue;  // corrupt line: skip, never trust
    // In-memory entries (from this process's searches) win over the file.
    entries_.emplace(fingerprint, *knobs);
  }
  std::fclose(f);
}

Status TuningCache::WriteFileLocked(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("TuningCache: cannot write " + path);
  }
  std::fprintf(f, "flbtune v1\n");
  for (const auto& [fingerprint, knobs] : entries_) {
    std::fprintf(f, "%s %s\n", fingerprint.c_str(),
                 knobs.ToString().c_str());
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("TuningCache: write failed for " + path);
  }
  return Status::OK();
}

// ---- AutoTuner --------------------------------------------------------------

std::string AutoTuner::Fingerprint(const core::PlatformConfig& config) {
  std::ostringstream os;
  os << "v1|engine=" << static_cast<int>(config.engine)
     << "|model=" << static_cast<int>(config.model)
     << "|ds=" << static_cast<int>(config.dataset.kind) << ':'
     << config.dataset.rows << 'x' << config.dataset.cols << ':'
     << config.dataset.nnz_per_row << ':' << config.dataset.seed
     << "|parties=" << config.num_parties << "|key=" << config.key_bits
     << "|r=" << config.r_bits << "|alpha=" << config.alpha
     << "|frac=" << config.frac_bits
     << "|slot=" << config.fp_compress_slot_bits
     << "|modeled=" << config.modeled
     << "|epochs=" << config.train.max_epochs
     << "|batch=" << config.train.batch_size
     << "|lr=" << config.train.learning_rate << "|l2=" << config.train.l2
     << "|tol=" << config.train.tolerance
     << "|opt=" << static_cast<int>(config.train.optimizer)
     << "|sbt=" << config.sbt.max_depth << ':' << config.sbt.num_bins << ':'
     << config.sbt.reg_lambda << ':' << config.sbt.min_child_weight
     << "|nn=" << config.nn.bottom_dim << ':' << config.nn.interactive_dim
     << ':' << config.nn.init_seed << "|hnn=" << config.homo_nn.hidden_dim
     << ':' << config.homo_nn.local_steps << ':' << config.homo_nn.init_seed
     << "|link=" << config.link.bandwidth_bytes_per_sec << ':'
     << config.link.latency_sec << ':'
     << config.link.per_object_overhead_sec
     << "|fixed=" << config.use_fixed_width_kernels;
  // The run seed is deliberately excluded: runs differing only by seed
  // share a workload shape, so they share tuned knobs.
  return Hex64(Fnv1a64(os.str()));
}

core::PlatformConfig AutoTuner::Apply(const core::PlatformConfig& config,
                                      const KnobConfig& knobs) {
  core::PlatformConfig out = config;
  if (knobs.gpu_streams > 0) out.gpu_streams = knobs.gpu_streams;
  if (knobs.ghe_chunks_per_stream > 0) {
    out.ghe_chunks_per_stream = knobs.ghe_chunks_per_stream;
  }
  if (knobs.host_threads > 0) out.host_threads = knobs.host_threads;
  if (knobs.batch_size > 0) out.train.batch_size = knobs.batch_size;
  if (knobs.use_bc >= 0) out.use_bc = knobs.use_bc;
  out.use_fixed_width_kernels = knobs.use_fixed_width_kernels;
  return out;
}

Result<TuneOutcome> AutoTuner::Tune(const core::PlatformConfig& config) {
  TuneOutcome outcome;
  outcome.fingerprint = Fingerprint(config);
  const std::string cache_path = !config.tuner_cache.empty()
                                     ? config.tuner_cache
                                     : common::Env::Str("FLB_TUNER_CACHE");
  auto& metrics = obs::MetricsRegistry::Global();
  const std::string labels = RunLabels(config);

  if (const std::optional<KnobConfig> hit =
          TuningCache::Global().Lookup(cache_path, outcome.fingerprint)) {
    outcome.chosen = *hit;
    outcome.cache_hit = true;
    metrics.Count("flb.tuner.cache_hits", 1, labels);
    PublishOutcome(config, outcome);
    return outcome;
  }
  metrics.Count("flb.tuner.cache_misses", 1, labels);

  // Candidate set: the workload's knob space plus the config's own knobs
  // (so "leave everything alone" always competes).
  std::vector<KnobConfig> candidates = KnobSpace::For(config).Enumerate();
  KnobConfig defaults;
  defaults.use_fixed_width_kernels = config.use_fixed_width_kernels;
  for (auto& knobs : candidates) {
    knobs.use_fixed_width_kernels = config.use_fixed_width_kernels;
  }
  int default_index = -1;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == defaults) {
      default_index = static_cast<int>(i);
      break;
    }
  }
  if (default_index < 0) {
    default_index = static_cast<int>(candidates.size());
    candidates.push_back(defaults);
  }
  outcome.candidates = static_cast<int>(candidates.size());

  const int64_t full_rows = std::max<int64_t>(
      16, static_cast<int64_t>(config.dataset.rows));
  const int64_t probe_rows = std::min<int64_t>(full_rows, 256);

  int winner = default_index;
  double winner_predicted = 0.0;
  double winner_measured = 0.0;
  {
    ProbeGuard guard;

    // Decomposition probes: the same shrunken workload at two batch sizes
    // splits every counter into per-batch and fixed components.
    const int b0 = static_cast<int>(std::clamp<int64_t>(
        config.train.batch_size, 16, probe_rows));
    int b1 = std::max(16, b0 / 2);
    if (b1 == b0) {
      b1 = static_cast<int>(std::min<int64_t>(probe_rows, 2LL * b0));
    }
    KnobConfig probe_knobs = defaults;
    probe_knobs.batch_size = b0;
    FLB_ASSIGN_OR_RETURN(const core::RunReport rep0,
                         RunProbe(config, probe_knobs, probe_rows));
    ++outcome.warmup_runs;
    outcome.warmup_seconds += rep0.total_seconds;
    core::RunReport rep1 = rep0;
    if (b1 != b0) {
      probe_knobs.batch_size = b1;
      FLB_ASSIGN_OR_RETURN(rep1, RunProbe(config, probe_knobs, probe_rows));
      ++outcome.warmup_runs;
      outcome.warmup_seconds += rep1.total_seconds;
    }
    const CountModel model =
        BuildCountModel(config, rep0, rep1, probe_rows, b0, b1);

    // Analytic ranking of the whole space (Eq. 10 warm start), priced at
    // the FULL workload size: the affine decomposition exists precisely to
    // extrapolate from tiny probes, and ranking at probe size would
    // misorder candidates whose batch size only pays off at scale.
    std::vector<std::pair<double, int>> ranked;
    ranked.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      ranked.emplace_back(
          PredictSeconds(config, model, candidates[i], full_rows),
          static_cast<int>(i));
    }
    std::stable_sort(ranked.begin(), ranked.end());

    // Cohort: the config's own knobs, one exploration pick (seeded,
    // stateless Rng stream — no ambient entropy), then the analytic top
    // ranks. Deterministic order, deduplicated.
    const size_t kCohort = 8;
    std::vector<int> cohort;
    const auto add_candidate = [&cohort](int index) {
      if (std::find(cohort.begin(), cohort.end(), index) == cohort.end()) {
        cohort.push_back(index);
      }
    };
    add_candidate(default_index);
    Rng explore = Rng::ForStream(config.seed ^ Fnv1a64(outcome.fingerprint),
                                 /*stream=*/0);
    add_candidate(static_cast<int>(explore.NextBelow(candidates.size())));
    for (const auto& [predicted, index] : ranked) {
      if (cohort.size() >= kCohort) break;
      add_candidate(index);
    }

    // Successive halving with a full-fidelity playoff. Each round measures
    // every survivor at the round's row count — raised per candidate so a
    // batch size larger than the round can actually be expressed instead of
    // being clamped into an indistinguishable tie — and scores it as
    // estimated full-workload epoch seconds (row-linear extrapolation).
    // The final round always runs at the real workload size and always
    // re-admits the config's own knobs, so the chosen config can never
    // measure worse than the defaults at full scale. Ties break on
    // candidate index, so the search is exactly reproducible.
    struct Scored {
      double seconds;
      int index;
      bool operator<(const Scored& other) const {
        return seconds != other.seconds ? seconds < other.seconds
                                        : index < other.index;
      }
    };
    const auto probe_fidelity = [&](int index, int64_t round_rows) {
      const int batch = candidates[static_cast<size_t>(index)].batch_size > 0
                            ? candidates[static_cast<size_t>(index)].batch_size
                            : std::max(1, config.train.batch_size);
      return std::min(full_rows,
                      std::max(round_rows, static_cast<int64_t>(batch)));
    };
    std::map<std::pair<int, int64_t>, double> probe_memo;
    const auto measure = [&](int index,
                             int64_t round_rows) -> Result<double> {
      const int64_t rows = probe_fidelity(index, round_rows);
      const auto memo = probe_memo.find({index, rows});
      if (memo != probe_memo.end()) return memo->second;
      FLB_ASSIGN_OR_RETURN(const core::RunReport rep,
                           RunProbe(config, candidates[index], rows));
      ++outcome.warmup_runs;
      outcome.warmup_seconds += rep.total_seconds;
      const double scaled = rep.total_seconds *
                            static_cast<double>(full_rows) /
                            static_cast<double>(rows);
      probe_memo.emplace(std::make_pair(index, rows), scaled);
      return scaled;
    };

    double winner_seconds = 0.0;
    std::vector<int> alive = cohort;
    int64_t fidelity = probe_rows;
    while (true) {
      const bool final_round = alive.size() <= 2;
      if (final_round) {
        if (std::find(alive.begin(), alive.end(), default_index) ==
            alive.end()) {
          alive.push_back(default_index);
        }
        fidelity = full_rows;
      }
      std::vector<Scored> scored;
      scored.reserve(alive.size());
      for (const int index : alive) {
        FLB_ASSIGN_OR_RETURN(const double seconds, measure(index, fidelity));
        scored.push_back({seconds, index});
      }
      std::sort(scored.begin(), scored.end());
      winner = scored.front().index;
      winner_seconds = scored.front().seconds;
      if (final_round) break;
      const size_t keep = std::max<size_t>(1, alive.size() / 2);
      alive.clear();
      for (size_t i = 0; i < keep; ++i) alive.push_back(scored[i].index);
      fidelity = std::min(full_rows, fidelity * 2);
    }

    for (const auto& [predicted, index] : ranked) {
      if (index == winner) {
        winner_predicted = predicted;
        break;
      }
    }
    winner_measured = winner_seconds;
  }  // ProbeGuard released: observability restored before publishing.

  outcome.chosen = candidates[static_cast<size_t>(winner)];
  outcome.predicted_seconds = winner_predicted;
  outcome.measured_seconds = winner_measured;

  const Status stored = TuningCache::Global().Store(
      cache_path, outcome.fingerprint, outcome.chosen);
  if (!stored.ok()) {
    std::fprintf(stderr, "[tuner] WARN: %s\n", stored.message().c_str());
  }
  PublishOutcome(config, outcome);
  return outcome;
}

Result<core::PlatformConfig> AutoTuner::TunedConfig(
    const core::PlatformConfig& config) {
  FLB_ASSIGN_OR_RETURN(const TuneOutcome outcome, Tune(config));
  core::PlatformConfig tuned = Apply(config, outcome.chosen);
  tuned.auto_tune = false;
  return tuned;
}

}  // namespace flb::tune

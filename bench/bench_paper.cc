// bench_paper: the paper's evaluation (§VI), its analytic model (Eqs. 10-14),
// its §V staging pipeline and the extension sweeps, then the paper's shape
// claims checked against the same numbers. A section is a table whose rows
// are the cells of its axes; every printed number is also a BenchJson row.
// Fig. 1, Tables III to VI, Fig. 7 and Eq. 14 share one grid of memoized
// one-epoch runs.
// A claim is a row too: an id, the paper's wording, a domain of cells, a
// per-cell predicate and the exact cells where it is known not to hold (the
// deviations in EXPERIMENTS.md). The run exits 1 when an unlisted cell breaks
// a claim or a listed exception starts to hold. Claims are checked at full
// size and fault-free only: FLB_SMOKE or FLB_FAULT_PLAN skips them.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/batchcrypt_codec.h"
#include "bench/bench_common.h"
#include "src/codec/batch_compressor.h"
#include "src/codec/quantizer.h"
#include "src/common/rng.h"
#include "src/core/cost_model.h"
#include "src/crypto/paillier.h"
#include "src/ghe/ghe_engine.h"
#include "src/ghe/he_cost.h"

namespace flb::bench {
namespace {

using core::RunReport;
using ghe::HeOp;
using gpusim::DeviceSpec;
using mpint::BigInt;

constexpr EngineKind kFate = EngineKind::kFate;
constexpr EngineKind kHaflo = EngineKind::kHaflo;
constexpr EngineKind kBooster = EngineKind::kFlBooster;
constexpr EngineKind kNoGhe = EngineKind::kFlBoosterNoGhe;
constexpr EngineKind kNoBc = EngineKind::kFlBoosterNoBc;

// One row of a section or one cell of a claim. Fields its axes do not set
// keep these defaults: Homo LR on RCV1 at 1024 bits under FATE.
struct Cell {
  FlModelKind model = FlModelKind::kHomoLr;
  DatasetKind dataset = DatasetKind::kRcv1;
  EngineKind engine = kFate;
  int key = 1024;
  int batch = 0;  // Eq. 10 batch size
  int r = 0;      // quantization bits
  int p = 0;      // participants
  int s = 0;      // Damgård–Jurik degree
  HeOp op = HeOp::kEncrypt;  // §V staged batch
  int streams = 0;           // §V device streams
  double drop = 0;           // robustness: packet loss rate
  int straggler = 0;         // robustness: party 1's slowdown factor
  std::vector<std::string> labels;  // one per axis
};

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

// A column header, its printf width (< 0: left-justified), and the values,
// each a label plus the cell fields it sets.
struct Axis {
  const char* head;
  int width;
  std::vector<std::pair<std::string, std::function<void(Cell&)>>> values;
};

// An axis whose values set `field`, each labelled name(value).
template <typename T, typename NameFn>
Axis Of(const char* head, int width, T Cell::*field,
        const std::vector<T>& values, NameFn name) {
  Axis a{head, width, {}};
  for (const T v : values) {
    a.values.push_back({name(v), [field, v](Cell& c) { c.*field = v; }});
  }
  return a;
}
Axis Ints(const char* head, int width, int Cell::*field,
          const std::vector<int>& values) {
  return Of(head, width, field, values,
            [](int v) { return std::to_string(v); });
}
Axis Models() {
  return Of("Model", -12, &Cell::model, kAllModels, core::ModelName);
}
Axis Datasets() {
  return Of("Dataset", -10, &Cell::dataset, kAllDatasets, fl::DatasetName);
}
Axis Engines(const std::vector<EngineKind>& engines) {
  return Of("Method", -10, &Cell::engine, engines, core::EngineName);
}
Axis Keys() { return Ints("key", 5, &Cell::key, kKeySizes); }
Axis Ops(const std::vector<HeOp>& ops) {
  return Of("op", -8, &Cell::op, ops,
            [](HeOp op) { return op == HeOp::kAdd ? "hom-add" : "encrypt"; });
}
Axis Streams(const std::vector<int>& streams) {
  return Ints("streams", 7, &Cell::streams, streams);
}
Axis Drops(const std::vector<double>& rates) {
  return Of("drop", 7, &Cell::drop, rates, [](double d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g%%", d * 100);
    return std::string(buf);
  });
}
Axis Stragglers(const std::vector<int>& factors) {
  return Of("straggler", 10, &Cell::straggler, factors,
            [](int f) { return std::to_string(f) + "x"; });
}

// Key steps "1024->2048": a cell at the larger key, for claims about growth.
int Prev(int key) {
  return *(std::find(kKeySizes.begin(), kKeySizes.end(), key) - 1);
}
Axis Steps() {
  return Of("step", 11, &Cell::key, {kKeySizes.begin() + 1, kKeySizes.end()},
            [](int k) {
              return std::to_string(Prev(k)) + "->" + std::to_string(k);
            });
}

// Calls f once per combination of the axes' values, first axis outermost.
void ForEach(const std::vector<Axis>& axes,
             const std::function<void(const Cell&)>& f, size_t i = 0,
             const Cell& cell = {}) {
  if (i == axes.size()) return f(cell);
  for (const auto& [label, set] : axes[i].values) {
    Cell next = cell;
    set(next);
    next.labels.push_back(label);
    ForEach(axes, f, i + 1, next);
  }
}

// ---- Measurements of a cell ----

// kEpoch is a one-epoch grid cell; Fig. 8 and Table VII train longer.
enum class Variant { kEpoch, kCurve, kBias, kBiasLossless };

int epoch_runs = 0;  // one-epoch Platform::Run calls made

const RunReport& Run(const Cell& c, EngineKind engine,
                     Variant variant = Variant::kEpoch) {
  using Id = std::tuple<FlModelKind, DatasetKind, EngineKind, int, Variant>;
  static std::map<Id, RunReport> memo;
  const Id id = {c.model, c.dataset, engine, c.key, variant};
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  PlatformConfig cfg = WorkloadFor(c.model, c.dataset, engine, c.key);
  if (variant == Variant::kEpoch) {
    ++epoch_runs;
  } else {
    cfg.train.max_epochs = variant == Variant::kCurve ? 5 : 4;
    cfg.train.tolerance = 0;  // run every epoch: a full curve
  }
  if (variant == Variant::kBiasLossless) {
    // Near-lossless reference: the widest encodings the slots allow.
    cfg.r_bits = 52;
    cfg.frac_bits = 48;
    cfg.fp_compress_slot_bits = 0;
  }
  return memo.emplace(id, MustRun(cfg)).first->second;
}

template <EngineKind E>
double Secs(const Cell& c) { return Run(c, E).total_seconds; }
double EngineSecs(const Cell& c) { return Run(c, c.engine).total_seconds; }
double VsFate(const Cell& c) { return Secs<kFate>(c) / Secs<kBooster>(c); }
double VsHaflo(const Cell& c) { return Secs<kHaflo>(c) / Secs<kBooster>(c); }

// A component's share of the cell's run under its engine, in percent.
template <double RunReport::*Part>
double Share(const Cell& c) {
  return 100.0 * Run(c, c.engine).*Part / EngineSecs(c);
}
constexpr auto kHeShare = Share<&RunReport::he_seconds>;
constexpr auto kCommShare = Share<&RunReport::comm_seconds>;
constexpr auto kOtherShare = Share<&RunReport::other_seconds>;

// Table IV: values through HE per HE-second.
template <EngineKind E>
double Throughput(const Cell& c) { return Run(c, E).he_throughput; }

// Fig. 7: bytes on the wire without BC over bytes with it.
template <EngineKind E>
double Bytes(const Cell& c) { return 1.0 * Run(c, E).comm_bytes; }
double CompressionRatio(const Cell& c) {
  return Bytes<kNoBc>(c) / Bytes<kBooster>(c);
}

// Fig. 8 on Synthetic: a 5-epoch run, and E's time to it over FLBooster's.
const RunReport& Curve(Cell c, EngineKind engine) {
  c.dataset = DatasetKind::kSynthetic;
  return Run(c, engine, Variant::kCurve);
}
template <EngineKind E>
double CurveSpeedup(const Cell& c) {
  return Curve(c, E).total_seconds / Curve(c, kBooster).total_seconds;
}

// Table VII: Bias = |L_lossless - L_FLBooster| / L_lossless (Eq. 15).
template <Variant V>
double Loss(const Cell& c) { return Run(c, kBooster, V).train.final_loss; }
double Bias(const Cell& c) {
  const double lossless = Loss<Variant::kBiasLossless>(c);
  return std::fabs(lossless - Loss<Variant::kBias>(c)) / lossless;
}
double BiasPercent(const Cell& c) { return 100.0 * Bias(c); }

// Eq. 14 (Homo LR on RCV1): FATE's epoch time over E's.
template <EngineKind E>
double Ac(const Cell& c) { return Secs<kFate>(c) / Secs<E>(c); }
double AcProduct(const Cell& c) { return Ac<kNoBc>(c) * Ac<kNoGhe>(c); }

// Fig. 6: mean SM utilization (%) of `engine` running the model's HE-op mix
// at a saturated batch: LR encrypt/decrypt-, SBT add-, NN scalar-mul-bound.
double Utilization(const Cell& c, EngineKind engine) {
  const auto traits = core::TraitsFor(engine);
  auto device = std::make_shared<gpusim::Device>(
      DeviceSpec::Rtx3090(), nullptr, traits.branch_combining);
  ghe::GheConfig cfg;
  cfg.words_per_thread = traits.words_per_thread;
  ghe::GheEngine ghe(device, cfg);
  const int64_t n = 1 << 17;
  const int fp_bits = ghe::FixedPointScalarBits(PlatformConfig{}.frac_bits);
  std::vector<std::tuple<HeOp, int64_t, int>> mix = {
      {HeOp::kEncrypt, n, 0}, {HeOp::kAdd, n, 0}, {HeOp::kDecrypt, n, 0}};
  if (c.model == FlModelKind::kHeteroLr) {
    mix = {{HeOp::kEncrypt, n, 0}, {HeOp::kAddPlain, n, 0},
           {HeOp::kDecrypt, n / 4, 0}};
  } else if (c.model == FlModelKind::kHeteroSbt) {
    mix = {{HeOp::kEncrypt, n / 8, 0}, {HeOp::kAdd, n * 4, 0},
           {HeOp::kDecrypt, n / 8, 0}};
  } else if (c.model == FlModelKind::kHeteroNn) {
    mix = {{HeOp::kScalarMul, n, fp_bits}, {HeOp::kAdd, n, 0},
           {HeOp::kDecrypt, n / 8, 0}};
  }
  for (const auto& [op, count, bits] : mix) {
    ghe.ModelOp(op, c.key, count, bits).value();
  }
  return 100.0 * device->stats().MeanSmUtilization();
}
template <EngineKind E>
double UtilizationOf(const Cell& c) { return Utilization(c, E); }

// Eq. 10: simulated seconds of one encrypt batch on the CPU cost model and
// on a GPU preset (kernels plus PCIe), and their ratio AC_ghe.
double CpuSecs(const Cell& c) {
  return core::CpuCostModel().SecondsFor(
      c.batch, ghe::HeCost(HeOp::kEncrypt, c.key, c.batch).limb_ops);
}
template <DeviceSpec (*Spec)()>
double GpuSecs(const Cell& c) {
  auto device = std::make_shared<gpusim::Device>(Spec(), nullptr);
  ghe::GheEngine(device).ModelOp(HeOp::kEncrypt, c.key, c.batch).value();
  return device->stats().kernel_seconds + device->stats().transfer_seconds;
}
template <DeviceSpec (*Spec)()>
double AcGhe(const Cell& c) { return CpuSecs(c) / GpuSecs<Spec>(c); }
constexpr auto kRtx = DeviceSpec::Rtx3090;
constexpr auto kEdge = DeviceSpec::JetsonClass;

// Eqs. 11-13: FLBooster's batch compressor at c.key, c.r bits, c.p parties.
codec::BatchCompressor Bc(const Cell& c) {
  codec::QuantizerConfig qcfg;
  qcfg.r_bits = c.r;
  qcfg.participants = c.p;
  return codec::BatchCompressor::Create(codec::Quantizer::Create(qcfg).value(),
                                        c.key)
      .value();
}
double Slots(const Cell& c) { return Bc(c).slots_per_plaintext(); }
double Ratio4k(const Cell& c) { return Bc(c).CompressionRatio(4096); }
double Bound(const Cell& c) { return Bc(c).TheoreticalCompressionRatio(); }
double Psu(const Cell& c) {
  return 100 * Bc(c).PlaintextSpaceUtilization(4096);
}

// §II: aggregates p parties' packed vectors by integer addition and returns
// the max abs decode error against the true sums.
template <typename Codec>
double MaxError(const Codec& codec, int p, bool same_sign) {
  Rng rng(500 + p);
  std::vector<double> sums(64, 0.0);
  std::vector<BigInt> agg;
  for (int party = 0; party < p; ++party) {
    std::vector<double> vals(sums.size());
    for (size_t i = 0; i < vals.size(); ++i) {
      vals[i] = same_sign ? 0.5 + 0.4 * rng.NextDouble()
                          : (rng.NextDouble() - 0.5) * 0.5;
      sums[i] += vals[i];
    }
    const std::vector<BigInt> packed = codec.Pack(vals).value();
    agg.resize(packed.size());
    for (size_t i = 0; i < agg.size(); ++i) {
      agg[i] = BigInt::Add(agg[i], packed[i]);
    }
  }
  const std::vector<double> decoded = codec.Unpack(agg, sums.size(), p).value();
  double worst = 0;
  for (size_t i = 0; i < sums.size(); ++i) {
    worst = std::max(worst, std::fabs(decoded[i] - sums[i]));
  }
  return worst;
}
// 14-bit values: BatchCrypt-style with a fixed 2-bit headroom, and FLBooster,
// whose headroom tracks ceil(log2 p).
template <bool SameSign>
double BatchCryptError(const Cell& c) {
  codec::BatchCryptConfig cfg;
  cfg.value_bits = 14;
  cfg.headroom_bits = 2;
  return MaxError(codec::BatchCryptCodec::Create(cfg).value(), c.p, SameSign);
}
template <bool SameSign>
double FlBoosterError(const Cell& c) {
  Cell r14 = c;
  r14.r = 14;
  return MaxError(Bc(r14), c.p, SameSign);
}

// Extension: a degree-s Damgård–Jurik scheme over a Paillier modulus n
// holds plaintexts mod n^s in ciphertexts mod n^(s+1), so its columns are
// closed-form in those two bit lengths, here for one seeded 512-bit key:
// {slots per ciphertext at the paper's r + b = 32 bits, plaintext bits,
// ciphertext bits}.
std::array<double, 3> DamgardJurik(const Cell& c) {
  static const BigInt n = [] {
    Rng rng(42);
    return crypto::PaillierKeyGen(512, rng).value().pub.n;
  }();
  BigInt plain = n;
  for (int i = 1; i < c.s; ++i) plain = BigInt::Mul(plain, n);
  const int plain_bits = plain.BitLength();
  return {1.0 * ((plain_bits - 1) / 32), 1.0 * plain_bits,
          1.0 * BigInt::Mul(plain, n).BitLength()};
}
template <int I>
double Dj(const Cell& c) { return DamgardJurik(c)[I]; }
double DjExpansion(const Cell& c) { return Dj<2>(c) / Dj<1>(c); }
double DjBytesPerValue(const Cell& c) { return Dj<2>(c) / 8.0 / Dj<0>(c); }

// §V / Fig. 4: a 2^16-element batch of c.op at c.key on a fresh RTX 3090
// engine with c.streams streams, as GheEngine schedules it: chunked when
// its plan prices faster than one launch.
const ghe::GheBatchStats& Staged(const Cell& c) {
  static std::map<std::tuple<HeOp, int, int>, ghe::GheBatchStats> memo;
  const std::tuple<HeOp, int, int> id = {c.op, c.key, c.streams};
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  ghe::GheConfig cfg;
  cfg.streams = c.streams;
  ghe::GheEngine engine(
      std::make_shared<gpusim::Device>(DeviceSpec::Rtx3090(), nullptr), cfg);
  engine.ModelOp(c.op, c.key, 1 << 16).value();
  return memo.emplace(id, engine.last_batch()).first->second;
}
double OneLaunchSecs(const Cell& c) { return Staged(c).serial_seconds; }
double StagedSecs(const Cell& c) { return Staged(c).makespan_seconds; }
double Chunks(const Cell& c) { return Staged(c).chunks; }
double StagingGain(const Cell& c) {
  return OneLaunchSecs(c) / StagedSecs(c);
}

// Extension (DESIGN.md §6): Homo LR under c.drop packet loss and party 1
// slowed c.straggler-fold. Faulty links go through the reliable channel
// (ack/retransmit with backoff); a straggler past the 2x deadline gate
// leaves its round and the FedAvg denominator is renormalized.
const RunReport& Faulty(const Cell& c) {
  static std::map<std::pair<double, int>, RunReport> memo;
  const std::pair<double, int> id = {c.drop, c.straggler};
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  PlatformConfig cfg;
  cfg.engine = kBooster;
  cfg.model = FlModelKind::kHomoLr;
  cfg.dataset = fl::DatasetSpec{DatasetKind::kSynthetic, 1024, 32, 32, 11};
  cfg.num_parties = 4;
  cfg.key_bits = 1024;
  cfg.modeled = true;
  cfg.train.max_epochs = 3;
  cfg.train.batch_size = 64;
  cfg.train.tolerance = 1e-9;
  cfg.train.straggler_deadline_factor = 2.0;
  if (SmokeMode()) {
    cfg.dataset.rows = 128;
    cfg.dataset.cols = 16;
    cfg.dataset.nnz_per_row = 16;
    cfg.train.max_epochs = 2;
  }
  if (c.drop > 0 || c.straggler > 1) {
    char plan[96];
    std::snprintf(plan, sizeof(plan), "seed=11;drop=%g;straggler=party1:%d",
                  c.drop, c.straggler);
    cfg.fault_plan = plan;
  }
  return memo.emplace(id, MustRun(cfg)).first->second;
}
double FaultyEpochSecs(const Cell& c) { return Faulty(c).SecondsPerEpoch(); }
double Accuracy(const Cell& c) { return Faulty(c).train.final_accuracy; }
double Retransmits(const Cell& c) {
  return 1.0 * Faulty(c).channel_stats.retransmits;
}
double Dropouts(const Cell& c) {
  return 1.0 * Faulty(c).robustness.TotalDropouts();
}

// ---- Sections ----

using Fn = double (*)(const Cell&);

// A numeric column: header, printf width and precision, a suffix after the
// number, the BenchJson unit, and the cell's value.
struct Col {
  const char* head;
  int width;
  int prec;
  const char* suffix;
  const char* unit;
  Fn value;
};
// Seconds, ratio and percent columns.
Col S(const char* h, int w, int p, Fn f) { return {h, w, p, "", "s", f}; }
Col X(const char* h, int w, int p, Fn f) { return {h, w, p, "x", "x", f}; }
Col Pct(const char* h, int w, int p, Fn f) { return {h, w, p, "%", "%", f}; }

// Prints a section: the header line, then one row per cell of the axes with
// an optional note after it. Each value is also the BenchJson row
// "<column>,<axis>=<label>,...".
void Section(const std::string& title, const std::vector<Axis>& axes,
             const std::vector<Col>& cols,
             const char* (*note)(const Cell&) = nullptr) {
  BeginSection(title);
  const char* sep = "";
  for (const Axis& a : axes) {
    std::printf("%s%*s", std::exchange(sep, " "), a.width, a.head);
  }
  for (const Col& c : cols) {
    std::printf("%s%*s", std::exchange(sep, " "),
                c.width + static_cast<int>(std::strlen(c.suffix)), c.head);
  }
  std::printf("\n");
  ForEach(axes, [&](const Cell& cell) {
    std::string where;
    const char* sep = "";
    for (size_t i = 0; i < axes.size(); ++i) {
      std::printf("%s%*s", std::exchange(sep, " "), axes[i].width,
                  cell.labels[i].c_str());
      where += std::string(",") + axes[i].head + "=" + cell.labels[i];
    }
    for (const Col& c : cols) {
      const double v = c.value(cell);
      std::printf("%s%*.*f%s", std::exchange(sep, " "), c.width, c.prec, v,
                  c.suffix);
      BenchJson::Global().Record(c.head + where, v, c.unit);
    }
    std::printf("%s\n", note ? note(cell) : "");
  });
}

void Fig8() {
  BeginSection("Fig. 8 — convergence on Synthetic @ 1024-bit keys");
  auto& json = BenchJson::Global();
  ForEach({Models()}, [&](const Cell& c) {
    const std::string model = core::ModelName(c.model);
    std::printf("\n-- %s: loss vs cumulative simulated seconds --\n%-10s",
                model.c_str(), "Method");
    for (size_t e = 0; e < Curve(c, kFate).train.epochs.size(); ++e) {
      std::printf("   epoch%-2zu        ", e);
    }
    for (EngineKind engine : {kFate, kHaflo, kBooster}) {
      const std::string name = core::EngineName(engine);
      std::printf("\n%-10s", name.c_str());
      const auto& epochs = Curve(c, engine).train.epochs;
      for (size_t e = 0; e < epochs.size(); ++e) {
        std::printf("  %7.4f@%-8.1f", epochs[e].loss,
                    epochs[e].sim_seconds_cum);
        const std::string where = ",Model=" + model + ",Method=" + name +
                                  ",epoch=" + std::to_string(e);
        json.Record("loss" + where, epochs[e].loss, "");
        json.Record("seconds" + where, epochs[e].sim_seconds_cum, "s");
      }
    }
    const double vs_fate = CurveSpeedup<kFate>(c);
    const double vs_haflo = CurveSpeedup<kHaflo>(c);
    std::printf("\n   time to final loss: FATE/FLBooster = %.1fx, "
                "HAFLO/FLBooster = %.1fx\n",
                vs_fate, vs_haflo);
    json.Record("FATE/FLBooster,Model=" + model, vs_fate, "x");
    json.Record("HAFLO/FLBooster,Model=" + model, vs_haflo, "x");
  });
}

void PrintSections() {
  auto& json = BenchJson::Global();
  const std::vector<Axis> grid = {Models(), Datasets(), Keys()};
  Section("Fig. 1 — FATE epoch time breakdown at 1024-bit keys",
          {Models(), Datasets()},
          {S("epoch (s)", 12, 2, EngineSecs), Pct("HE %", 7, 1, kHeShare),
           Pct("comm %", 7, 1, kCommShare),
           Pct("other %", 7, 1, kOtherShare)});
  Section("Table III — average epoch time in seconds", grid,
          {S("FATE", 12, 2, Secs<kFate>), S("HAFLO", 12, 2, Secs<kHaflo>),
           S("FLBooster", 12, 3, Secs<kBooster>), X("vsFATE", 8, 1, VsFate),
           X("vsHAFLO", 8, 1, VsHaflo)});
  double lo = 1e300, hi = 0;
  ForEach(grid, [&](const Cell& c) {
    lo = std::min(lo, VsHaflo(c));
    hi = std::max(hi, VsHaflo(c));
  });
  std::printf(
      "\nFLBooster speedup over HAFLO: %.1fx - %.1fx (paper: 14.3x - 138x)\n",
      lo, hi);
  json.Record("vsHAFLO min", lo, "x");
  json.Record("vsHAFLO max", hi, "x");
  Section("Table IV — HE-op throughput (values per second)", grid,
          {{"FATE", 12, 0, "", "values/s", Throughput<kFate>},
           {"HAFLO", 12, 0, "", "values/s", Throughput<kHaflo>},
           {"FLBooster", 12, 0, "", "values/s", Throughput<kBooster>}});
  Section("Fig. 6 — SM utilization in HE operations (%)", {Models(), Keys()},
          {Pct("HAFLO", 9, 1, UtilizationOf<kHaflo>),
           Pct("FLBooster", 11, 1, UtilizationOf<kBooster>)});
  Section("Table V — module ablation, epoch seconds", grid,
          {S("FLBooster", 12, 3, Secs<kBooster>),
           S("w/o GHE", 12, 2, Secs<kNoGhe>), S("w/o BC", 12, 2, Secs<kNoBc>)});
  Section("Fig. 7 — batch-compression ratio vs key size", {Models(), Keys()},
          {{"bytes w/o BC", 16, 0, "", "B", Bytes<kNoBc>},
           {"bytes w/ BC", 16, 0, "", "B", Bytes<kBooster>},
           X("ratio", 13, 1, CompressionRatio)});
  Section("Table VI — component shares, Homo LR @ 1024-bit keys",
          {Datasets(), Engines({kFate, kHaflo, kBooster})},
          {Pct("Others", 8, 1, kOtherShare), Pct("HE ops", 8, 1, kHeShare),
           Pct("Comm", 8, 1, kCommShare), S("epoch (s)", 14, 3, EngineSecs)});
  Fig8();
  Section("Table VII — convergence bias at 1024-bit keys (Eq. 15)",
          {Models(), Datasets()},
          {{"lossless loss", 14, 6, "", "", Loss<Variant::kBiasLossless>},
           {"FLBooster", 14, 6, "", "", Loss<Variant::kBias>},
           Pct("bias", 8, 3, BiasPercent)});
  double worst = 0;
  ForEach({Models(), Datasets()},
          [&](const Cell& c) { worst = std::max(worst, BiasPercent(c)); });
  std::printf("\nWorst-case bias %.3f%% — paper Table VII reports 0.2%%-3.3%%, "
              "all 'much less than 5%%'.\n",
              worst);
  json.Record("worst bias", worst, "%");
  Section("Eq. 10 — GPU-HE acceleration ratio (encrypt batches)",
          {Keys(), Ints("batch", 10, &Cell::batch, {256, 4096, 65536})},
          {S("t_cpu (s)", 14, 4, CpuSecs), S("t_gpu (s)", 14, 6, GpuSecs<kRtx>),
           X("AC_ghe", 9, 0, AcGhe<kRtx>)});
  Section("Eqs. 11-13 — compression ratio and plaintext-space utilization",
          {Keys(), Ints("r", 4, &Cell::r, {30}),
           Ints("p", 4, &Cell::p, {2, 4, 64})},
          {{"slots", 8, 0, "", "count", Slots}, X("ratio(4k)", 11, 1, Ratio4k),
           X("bound k/(r+b)", 11, 1, Bound), Pct("PSU", 7, 1, Psu)});
  Section("Eq. 14 — composition: AC = AC_ghe * AC_bc vs end-to-end", {Keys()},
          {X("AC_ghe", 7, 1, Ac<kNoBc>), X("AC_bc", 7, 1, Ac<kNoGhe>),
           X("product", 9, 1, AcProduct), X("measured", 9, 1, Ac<kBooster>)});
  // Extension: the Eq. 10 advantage on a datacenter GPU and on an edge one.
  Section("Device scaling — GPU-HE speedup vs CPU (Eq. 10)",
          {Ints("key", 5, &Cell::key, {1024, 2048, 4096}),
           Ints("batch", 9, &Cell::batch, {1024, 16384})},
          {S("t_cpu (s)", 14, 3, CpuSecs),
           S("RTX3090 (s)", 14, 5, GpuSecs<kRtx>),
           S("edge GPU (s)", 14, 5, GpuSecs<kEdge>),
           X("AC_3090", 8, 0, AcGhe<kRtx>), X("AC_edge", 8, 0, AcGhe<kEdge>)});
  const DeviceSpec rtx = kRtx(), edge = kEdge();
  const double peak =
      (rtx.num_sms * rtx.cuda_cores_per_sm * rtx.core_clock_hz) /
      (edge.num_sms * edge.cuda_cores_per_sm * edge.core_clock_hz);
  std::printf("\nPeak throughput, RTX 3090 over the edge device: ~%.0fx\n",
              peak);
  json.Record("peak ratio", peak, "x");
  Section("§II claim — fixed headroom (BatchCrypt-style) vs ceil(log2 p) "
          "(FLBooster)",
          {Ints("p", 4, &Cell::p, {2, 4, 8, 16, 32})},
          {{"BCrypt benign", 18, 6, "", "", BatchCryptError<false>},
           {"BCrypt same-sign", 18, 6, "", "", BatchCryptError<true>},
           {"FLB benign", 18, 6, "", "", FlBoosterError<false>},
           {"FLB same-sign", 18, 6, "", "", FlBoosterError<true>}},
          [](const Cell& c) { return c.p > 4 ? "   <- BCrypt unsafe" : ""; });
  // BC packs k/(r+b) values per 2k-bit ciphertext; a degree-s Damgård–Jurik
  // plaintext holds s*k bits in (s+1)*k.
  Section("Damgård–Jurik degree sweep (key 512 bits, 32-bit slots)",
          {Ints("s", 3, &Cell::s, {1, 2, 3, 4, 6, 8})},
          {{"slots/ct", 12, 0, "", "count", Dj<0>},
           {"ct bits", 14, 0, "", "bits", Dj<2>},
           X("expansion", 11, 2, DjExpansion),
           {"bytes/grad", 14, 1, "", "B", DjBytesPerValue}});
  Section("Robustness — Homo LR under packet loss and a straggler",
          {Drops({0, 0.005, 0.02}), Stragglers({1, 4})},
          {S("epoch (s)", 12, 5, FaultyEpochSecs),
           {"accuracy", 10, 4, "", "", Accuracy},
           {"retransmits", 13, 0, "", "count", Retransmits},
           {"dropouts", 10, 0, "", "count", Dropouts}});
  // Last: after the final Platform run, so an exported trace ends with
  // these batches' stream timelines.
  Section("§V / Fig. 4 — chunked staging vs one launch, 2^16 elements",
          {Ops({HeOp::kEncrypt, HeOp::kAdd}), Keys(), Streams({1, 2, 4, 8})},
          {S("one launch (s)", 15, 6, OneLaunchSecs),
           S("staged (s)", 15, 6, StagedSecs),
           {"chunks", 7, 0, "", "count", Chunks},
           X("gain", 7, 2, StagingGain)});
}

// ---- Claims: the paper's shapes, and where this reproduction deviates ----

struct Claim {
  const char* id;
  const char* paper;  // the paper's wording
  std::vector<Axis> domain;
  std::function<bool(const Cell&)> holds;
  std::set<std::string> exceptions = {};  // cells where it does not hold
};

bool InBand(double x, double lo, double hi) { return x >= lo && x <= hi; }

// "Grows with the key size": f at a step's larger key beats its smaller.
std::function<bool(const Cell&)> Grows(Fn f) {
  return [f](Cell c) {
    const double at_key = f(c);
    c.key = Prev(c.key);
    return at_key > f(c);
  };
}

std::vector<Claim> Claims() {
  const std::vector<Axis> grid = {Models(), Datasets(), Keys()};
  const std::vector<Axis> steps = {Models(), Datasets(), Steps()};
  return {
      {"fig1.he_share", "HE operations take > 50% of every FATE epoch",
       {Models(), Datasets()}, [](const Cell& c) { return kHeShare(c) > 50; },
       {"Hetero SBT/RCV1", "Hetero SBT/Avazu", "Hetero SBT/Synthetic"}},
      {"fig1.comm_share", "communication takes > 40% of every FATE epoch",
       {Models(), Datasets()}, [](const Cell& c) { return kCommShare(c) > 40; },
       {"Hetero LR/RCV1", "Hetero LR/Avazu", "Hetero LR/Synthetic",
        "Hetero NN/RCV1", "Hetero NN/Avazu", "Hetero NN/Synthetic"}},
      {"table3.order", "FLBooster beats HAFLO beats FATE in every cell", grid,
       [](const Cell& c) {
         return Secs<kFate>(c) > Secs<kHaflo>(c) && VsHaflo(c) > 1;
       }},
      {"table3.vs_haflo_band", "FLBooster is 14.3x-138x faster than HAFLO",
       grid, [](const Cell& c) { return InBand(VsHaflo(c), 14.3, 138); }},
      {"table3.vs_fate_grows", "the speedup over FATE grows with key size",
       steps, Grows(VsFate)},
      {"table3.vs_haflo_grows", "the speedup over HAFLO grows with key size",
       steps, Grows(VsHaflo), {"Homo LR/Synthetic/2048->4096"}},
      {"table4.order", "FLBooster's HE throughput beats HAFLO's beats FATE's",
       grid,
       [](const Cell& c) {
         return Throughput<kBooster>(c) > Throughput<kHaflo>(c) &&
                Throughput<kHaflo>(c) > Throughput<kFate>(c);
       }},
      {"table4.falls_with_key", "every engine's throughput falls with key size",
       {Engines({kFate, kHaflo, kBooster}), Models(), Datasets(), Steps()},
       Grows([](const Cell& c) { return -Run(c, c.engine).he_throughput; })},
      {"table5.ablations_slower", "removing either module slows every cell",
       grid,
       [](const Cell& c) {
         return std::min(Secs<kNoGhe>(c), Secs<kNoBc>(c)) > Secs<kBooster>(c);
       }},
      {"table5.no_bc_slowest",
       "w/o BC is slower than w/o GHE: communication is the bigger bottleneck",
       grid, [](const Cell& c) { return Secs<kNoGhe>(c) < Secs<kNoBc>(c); },
       {"Hetero SBT/RCV1/4096", "Hetero SBT/Avazu/4096",
        "Hetero SBT/Synthetic/4096", "Hetero NN/RCV1/2048",
        "Hetero NN/Avazu/2048", "Hetero NN/Synthetic/2048",
        "Hetero NN/RCV1/4096", "Hetero NN/Avazu/4096",
        "Hetero NN/Synthetic/4096"}},
      {"fig6.beats_haflo", "FLBooster's SM utilization beats HAFLO's",
       {Models(), Keys()},
       [](const Cell& c) {
         return UtilizationOf<kBooster>(c) > UtilizationOf<kHaflo>(c);
       }},
      {"fig6.falls_with_key", "SM utilization falls as the key size grows",
       {Engines({kHaflo, kBooster}), Models(), Steps()},
       // At the printed 0.1%: a flat line must not "fall" by one ulp.
       Grows([](const Cell& c) {
         return -std::round(10 * Utilization(c, c.engine));
       }),
       {"HAFLO/Homo LR/1024->2048", "HAFLO/Homo LR/2048->4096",
        "HAFLO/Hetero LR/1024->2048", "HAFLO/Hetero LR/2048->4096",
        "HAFLO/Hetero SBT/1024->2048", "HAFLO/Hetero SBT/2048->4096",
        "HAFLO/Hetero NN/1024->2048", "HAFLO/Hetero NN/2048->4096"}},
      {"fig6.haflo_floor", "(deviation) HAFLO stays between 13% and 17%",
       {Models(), Keys()},
       [](const Cell& c) { return InBand(UtilizationOf<kHaflo>(c), 13, 17); }},
      {"fig7.grows_with_key", "the compression ratio grows with key size",
       {Models(), Steps()}, Grows(CompressionRatio)},
      {"fig7.two_orders", "the ratio reaches 100x at the largest key",
       {Models(), Ints("key", 5, &Cell::key, {kKeySizes.back()})},
       [](const Cell& c) { return CompressionRatio(c) >= 100; },
       {"Hetero LR/4096", "Hetero SBT/4096", "Hetero NN/4096"}},
      {"table6.haflo_comm", "HAFLO spends > 95% of the epoch communicating",
       {Datasets(), Engines({kHaflo})},
       [](const Cell& c) { return kCommShare(c) > 95; }},
      {"table6.flb_others", "FLBooster's 'others' share is >= 22%",
       {Datasets(), Engines({kBooster})},
       [](const Cell& c) { return kOtherShare(c) >= 22; },
       {"RCV1/FLBooster", "Avazu/FLBooster", "Synthetic/FLBooster"}},
      {"fig8.same_losses", "every engine walks the same per-epoch losses",
       {Models()},
       [](const Cell& c) {
         auto losses = [&](EngineKind e) {
           std::vector<double> out;
           for (const auto& epoch : Curve(c, e).train.epochs) {
             out.push_back(epoch.loss);
           }
           return out;
         };
         return losses(kFate) == losses(kBooster) &&
                losses(kHaflo) == losses(kBooster);
       }},
      {"fig8.vs_fate_band",
       "FLBooster reaches the final loss 28.7x-144.3x sooner than FATE",
       {Models()},
       [](const Cell& c) {
         return InBand(CurveSpeedup<kFate>(c), 28.7, 144.3);
       },
       {"Hetero SBT"}},
      {"fig8.vs_haflo_band",
       "FLBooster reaches the final loss 14.3x-75.2x sooner than HAFLO",
       {Models()},
       [](const Cell& c) {
         return InBand(CurveSpeedup<kHaflo>(c), 14.3, 75.2);
       }},
      {"table7.bias", "the convergence bias is much less than 5%",
       {Models(), Datasets()}, [](const Cell& c) { return Bias(c) < 0.05; }},
      {"eq13.ratio_bound", "the compression ratio never exceeds k/(r+b)",
       {Keys(), Ints("r", 4, &Cell::r, {30}),
        Ints("p", 4, &Cell::p, {2, 4, 64})},
       [](const Cell& c) { return Ratio4k(c) <= Bound(c); }},
      {"eq14.product_bound", "AC_ghe x AC_bc is at least the end-to-end AC",
       {Keys()}, [](const Cell& c) { return AcProduct(c) >= Ac<kBooster>(c); }},
      {"sec2.overflow",
       "a fixed 2-bit headroom overflows (same-sign error > 1) iff p > 4",
       {Ints("p", 4, &Cell::p, {2, 4, 8, 16, 32})},
       [](const Cell& c) {
         return (BatchCryptError<true>(c) > 1) == (c.p > 4);
       }},
      {"sec5.never_worse", "pipelined staging is never slower than one launch",
       {Ops({HeOp::kEncrypt, HeOp::kAdd}), Keys(), Streams({1, 2, 4, 8})},
       [](const Cell& c) { return StagedSecs(c) <= OneLaunchSecs(c); }},
      {"sec5.add_gains", "hom-add staging gains >= 1.2x on 2 or more streams",
       {Ops({HeOp::kAdd}), Keys(), Streams({2, 4, 8})},
       [](const Cell& c) { return StagingGain(c) >= 1.2; }},
      {"sec5.add_grows", "the hom-add gain grows with the stream count",
       {Ops({HeOp::kAdd}), Keys(), Streams({2, 4, 8})},
       [](Cell c) {
         const double gain = StagingGain(c);
         c.streams /= 2;
         return gain > StagingGain(c);
       }},
      {"sec5.encrypt_flat", "kernel-bound encryption stays within 1%",
       {Ops({HeOp::kEncrypt}), Keys(), Streams({1, 2, 4, 8})},
       [](const Cell& c) { return StagingGain(c) <= 1.01; }},
      {"robust.loss_costs_time", "(extension) packet loss raises epoch time",
       {Drops({0.005, 0.02}), Stragglers({1, 4})},
       [](Cell c) {
         const double lossy = FaultyEpochSecs(c);
         c.drop = 0;
         return lossy > FaultyEpochSecs(c);
       }},
      {"robust.same_accuracy",
       "(extension) without a straggler, loss keeps the clean accuracy",
       {Drops({0.005, 0.02}), Stragglers({1})},
       [](Cell c) {
         const double acc = Accuracy(c);
         c.drop = 0;
         return acc == Accuracy(c);
       }},
      {"robust.straggler_drops",
       "(extension) the 4x straggler drops out, the 1x one never does",
       {Drops({0, 0.005, 0.02}), Stragglers({1, 4})},
       [](const Cell& c) { return (Dropouts(c) > 0) == (c.straggler > 1); }},
  };
}

// Checks one claim over its domain; prints and records the verdict.
bool Verdict(const Claim& claim) {
  std::vector<std::string> broken, healed;
  std::set<std::string> seen;
  ForEach(claim.domain, [&](const Cell& c) {
    const std::string name = Join(c.labels, "/");
    const bool holds = claim.holds(c);
    seen.insert(name);
    if (holds == (claim.exceptions.count(name) > 0)) {
      (holds ? healed : broken).push_back(name);
    }
  });
  for (const std::string& e : claim.exceptions) {
    if (seen.count(e) == 0) healed.push_back(e + " (no such cell)");
  }
  const bool ok = broken.empty() && healed.empty();
  std::printf("%-4s %-23s %2zu cells, %zu exceptions: %s\n",
              ok ? "ok" : "FAIL", claim.id, seen.size(),
              claim.exceptions.size(), claim.paper);
  if (!broken.empty()) {
    std::printf("     breaks in unlisted cells: %s\n",
                Join(broken, ", ").c_str());
  }
  if (!healed.empty()) {
    std::printf("     holds in listed exceptions: %s\n",
                Join(healed, ", ").c_str());
  }
  BenchJson::Global().Record(claim.id, ok ? 1 : 0, "bool");
  return ok;
}

}  // namespace
}  // namespace flb::bench

int main() {
  using namespace flb::bench;
  PrintSections();

  BeginSection("Claims");
  std::printf("one-epoch grid runs: %d\n", epoch_runs);
  BenchJson::Global().Record("one-epoch runs", epoch_runs, "count");
  const std::vector<Claim> claims = Claims();
  if (SmokeMode() || !flb::common::Env::Str("FLB_FAULT_PLAN").empty()) {
    std::printf("%zu claims not checked: FLB_SMOKE or FLB_FAULT_PLAN is set\n",
                claims.size());
    return 0;
  }
  int failed = 0;
  for (const Claim& claim : claims) failed += Verdict(claim) ? 0 : 1;
  std::printf("\n%d of %zu claims failed\n", failed, claims.size());
  return failed > 0 ? 1 : 0;
}

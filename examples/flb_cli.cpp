// flb_cli: run any (engine x model x dataset x key size) combination from
// the command line and print the measurement report — the "user-friendly
// API" surface for scripting custom experiments.
//
//   $ ./example_flb_cli --model=hetero_sbt --engine=flbooster
//         --dataset=avazu --key-bits=2048 --epochs=2 --parties=4
//
// All flags optional; defaults shown by --help.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/platform.h"
#include "src/obs/obs_server.h"

namespace {

using flb::core::EngineKind;
using flb::core::FlModelKind;

struct Args {
  std::string engine = "flbooster";
  std::string model = "homo_lr";
  std::string dataset = "synthetic";
  int key_bits = 1024;
  int epochs = 1;
  int parties = 4;
  int batch = 1024;
  size_t rows = 0;  // 0 = dataset default
  size_t cols = 0;
  bool real = false;  // real crypto instead of modeled
  bool help = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ParseFlag(const char* arg, const char* name, int* out) {
  std::string s;
  if (!ParseFlag(arg, name, &s)) return false;
  *out = std::atoi(s.c_str());
  return true;
}

bool ParseFlag(const char* arg, const char* name, size_t* out) {
  std::string s;
  if (!ParseFlag(arg, name, &s)) return false;
  *out = static_cast<size_t>(std::atoll(s.c_str()));
  return true;
}

void PrintHelp(const Args& d) {
  std::printf(
      "flb_cli — run one FLBooster experiment\n\n"
      "  --engine=fate|haflo|flbooster|no_ghe|no_bc   (default %s)\n"
      "  --model=homo_lr|homo_nn|hetero_lr|hetero_sbt|hetero_nn\n"
      "                                               (default %s)\n"
      "  --dataset=rcv1|avazu|synthetic               (default %s)\n"
      "  --key-bits=N        Paillier |n|             (default %d)\n"
      "  --epochs=N                                   (default %d)\n"
      "  --parties=N                                  (default %d)\n"
      "  --batch=N                                    (default %d)\n"
      "  --rows=N --cols=N   dataset shape override\n"
      "  --real              real Paillier instead of modeled time\n",
      d.engine.c_str(), d.model.c_str(), d.dataset.c_str(), d.key_bits,
      d.epochs, d.parties, d.batch);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string ignored;
    if (std::strcmp(argv[i], "--help") == 0) {
      args.help = true;
    } else if (std::strcmp(argv[i], "--real") == 0) {
      args.real = true;
    } else if (!ParseFlag(argv[i], "engine", &args.engine) &&
               !ParseFlag(argv[i], "model", &args.model) &&
               !ParseFlag(argv[i], "dataset", &args.dataset) &&
               !ParseFlag(argv[i], "key-bits", &args.key_bits) &&
               !ParseFlag(argv[i], "epochs", &args.epochs) &&
               !ParseFlag(argv[i], "parties", &args.parties) &&
               !ParseFlag(argv[i], "batch", &args.batch) &&
               !ParseFlag(argv[i], "rows", &args.rows) &&
               !ParseFlag(argv[i], "cols", &args.cols)) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (args.help) {
    PrintHelp(Args{});
    return 0;
  }

  flb::core::PlatformConfig cfg;
  if (args.engine == "fate") cfg.engine = EngineKind::kFate;
  else if (args.engine == "haflo") cfg.engine = EngineKind::kHaflo;
  else if (args.engine == "flbooster") cfg.engine = EngineKind::kFlBooster;
  else if (args.engine == "no_ghe") cfg.engine = EngineKind::kFlBoosterNoGhe;
  else if (args.engine == "no_bc") cfg.engine = EngineKind::kFlBoosterNoBc;
  else { std::fprintf(stderr, "bad --engine\n"); return 2; }

  if (args.model == "homo_lr") cfg.model = FlModelKind::kHomoLr;
  else if (args.model == "homo_nn") cfg.model = FlModelKind::kHomoNn;
  else if (args.model == "hetero_lr") cfg.model = FlModelKind::kHeteroLr;
  else if (args.model == "hetero_sbt") cfg.model = FlModelKind::kHeteroSbt;
  else if (args.model == "hetero_nn") cfg.model = FlModelKind::kHeteroNn;
  else { std::fprintf(stderr, "bad --model\n"); return 2; }

  flb::fl::DatasetKind kind;
  if (args.dataset == "rcv1") kind = flb::fl::DatasetKind::kRcv1;
  else if (args.dataset == "avazu") kind = flb::fl::DatasetKind::kAvazu;
  else if (args.dataset == "synthetic") kind = flb::fl::DatasetKind::kSynthetic;
  else { std::fprintf(stderr, "bad --dataset\n"); return 2; }

  cfg.dataset = flb::fl::DefaultScaleSpec(kind);
  if (args.rows > 0) cfg.dataset.rows = args.rows;
  if (args.cols > 0) {
    cfg.dataset.cols = args.cols;
    cfg.dataset.nnz_per_row =
        std::min(cfg.dataset.nnz_per_row, cfg.dataset.cols);
  }
  cfg.key_bits = args.key_bits;
  cfg.num_parties = args.parties;
  cfg.modeled = !args.real;
  cfg.train.max_epochs = args.epochs;
  cfg.train.batch_size = args.batch;

  auto report = flb::core::Platform::Run(cfg);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("%s | %s | %s | %d-bit keys | %d parties | %s crypto\n",
              flb::core::EngineName(cfg.engine).c_str(),
              flb::core::ModelName(cfg.model).c_str(),
              flb::fl::DatasetName(kind).c_str(), cfg.key_bits,
              cfg.num_parties, cfg.modeled ? "modeled" : "real");
  std::printf("dataset: %zu x %zu\n", cfg.dataset.rows, cfg.dataset.cols);
  std::printf("\n%6s %12s %12s\n", "epoch", "loss", "accuracy");
  for (const auto& e : report->train.epochs) {
    std::printf("%6d %12.5f %11.1f%%\n", e.epoch, e.loss, 100 * e.accuracy);
  }
  std::printf(
      "\ntotals: %.3f s simulated (HE %.1f%%, comm %.1f%%, other %.1f%%)\n",
      report->total_seconds, 100 * report->he_seconds / report->total_seconds,
      100 * report->comm_seconds / report->total_seconds,
      100 * report->other_seconds / report->total_seconds);
  std::printf(
      "HE ops: %llu enc / %llu add / %llu smul / %llu dec  |  %.2f MB on "
      "wire in %llu messages  |  pack ratio %.1fx\n",
      static_cast<unsigned long long>(report->he_ops.encrypts),
      static_cast<unsigned long long>(report->he_ops.hom_adds),
      static_cast<unsigned long long>(report->he_ops.scalar_muls),
      static_cast<unsigned long long>(report->he_ops.decrypts),
      report->comm_bytes / 1048576.0,
      static_cast<unsigned long long>(report->comm_messages),
      report->pack_ratio);
  if (report->sm_utilization > 0) {
    std::printf("GPU: mean SM utilization %.1f%%\n",
                100 * report->sm_utilization);
  }
  // FLB_OBS_LINGER: with FLB_OBS_PORT set, stay up for final scrapes.
  flb::obs::ObsServer::LingerFromEnv();
  return 0;
}

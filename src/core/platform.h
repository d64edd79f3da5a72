// FLBoosterPlatform: the top-level entry point (paper Fig. 3).
//
// One call wires together a dataset, a partitioning, an FL model, an engine
// configuration (FATE / HAFLO / FLBooster / ablations), the simulated GPU,
// the simulated network, and the simulated clock — then trains and returns
// the full measurement record the paper's tables are built from.

#ifndef FLB_CORE_PLATFORM_H_
#define FLB_CORE_PLATFORM_H_

#include <string>

#include "src/common/deadline.h"
#include "src/common/result.h"
#include "src/core/engine_config.h"
#include "src/core/he_service.h"
#include "src/fl/dataset.h"
#include "src/fl/fl_types.h"
#include "src/fl/hetero_nn.h"
#include "src/fl/hetero_sbt.h"
#include "src/fl/homo_nn.h"
#include "src/net/circuit_breaker.h"
#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/net/reliable_channel.h"

namespace flb::core {

enum class FlModelKind : int {
  kHomoLr = 0,
  kHeteroLr = 1,
  kHeteroSbt = 2,
  kHeteroNn = 3,
  // Extension beyond the paper's four evaluated models: FedAvg with
  // encrypted model deltas (FATE's Homo NN workload class).
  kHomoNn = 4,
};

std::string ModelName(FlModelKind kind);

struct PlatformConfig {
  EngineKind engine = EngineKind::kFlBooster;
  FlModelKind model = FlModelKind::kHomoLr;
  fl::DatasetSpec dataset;
  int num_parties = 4;  // Hetero NN always uses 2 (guest + host)
  int key_bits = 1024;
  int r_bits = 30;
  double alpha = 1.0;
  // Fixed-point encoding for per-value legs and the cipher-compression slot
  // width (0 = auto). SBT histograms use narrower slots (their bucket sums
  // are small), which raises the compression ratio.
  int frac_bits = 24;
  int fp_compress_slot_bits = 0;
  bool modeled = true;  // plaintext-shadow HE (epoch benches); false = real
  fl::TrainConfig train;
  fl::SbtParams sbt;
  fl::NnParams nn;
  fl::HomoNnParams homo_nn;
  net::LinkSpec link = net::LinkSpec::GigabitEthernet();
  uint64_t seed = 20230401;
  // Device streams for chunked HE batch overlap. 0 = engine default
  // (4 for the FLBooster engines, 1 for the baselines).
  int gpu_streams = 0;
  // Host worker threads for element-parallel HE batch bodies. 0 = the
  // process-global pool (FLB_HOST_THREADS, then hardware_concurrency).
  // Results are bit-identical for any value; only wall-clock changes.
  int host_threads = 0;
  // Fault plan spec (net/fault.h grammar). Empty = consult FLB_FAULT_PLAN;
  // both empty = healthy run with the legacy raw transport. A non-empty
  // plan attaches a FaultInjector and routes all traffic through a
  // ReliableChannel (framing + ack/retransmit).
  std::string fault_plan;
  net::ReliableOptions reliable;
  // Run-wide simulated-seconds budget. 0 = unbounded. When set, a
  // common::Deadline is threaded through the network, the HE service, and
  // the trainers; expiry surfaces as typed kDeadlineExceeded instead of a
  // run that drags on past the budget.
  double run_deadline_sec = 0;

  // ---- Engine overrides for a hand-set run --------------------------------
  // Chunks per stream for the GHE chunked batch schedule. 0 = engine
  // default (1 chunk per stream).
  int ghe_chunks_per_stream = 0;
  // Batch-compression override: -1 = engine trait, 0 = force off,
  // 1 = force on.
  int use_bc = -1;
  // Dispatch the fixed-width Montgomery kernels (bit-identical results
  // either way; real-crypto wall-clock only).
  bool use_fixed_width_kernels = true;
};

struct RunReport {
  fl::TrainResult train;
  // Whole-run decomposition (simulated seconds).
  double total_seconds = 0;
  double he_seconds = 0;
  double comm_seconds = 0;
  double other_seconds = 0;
  uint64_t comm_bytes = 0;
  uint64_t comm_messages = 0;
  HeOpCounts he_ops;
  // Values through HE per HE-second (Table IV's instances/second).
  double he_throughput = 0;
  // Work-weighted SM utilization (Fig. 6; 0 for CPU engines).
  double sm_utilization = 0;
  // Pre-encryption packing ratio actually achieved: values encrypted per
  // ciphertext produced (Fig. 7 input).
  double pack_ratio = 1.0;
  // Chaos-run accounting (all zero without a fault plan).
  fl::RobustnessCounters robustness;
  net::FaultStats fault_stats;
  net::ChannelStats channel_stats;
  net::BreakerStats breaker_stats;

  double SecondsPerEpoch() const {
    return train.epochs.empty() ? 0.0
                                : total_seconds / train.epochs.size();
  }
};

class Platform {
 public:
  // Builds the whole stack, trains, and reports. Deterministic for a fixed
  // config.
  static Result<RunReport> Run(const PlatformConfig& config);
};

}  // namespace flb::core

#endif  // FLB_CORE_PLATFORM_H_

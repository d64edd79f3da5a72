#include "src/core/pipeline.h"

#include <algorithm>

#include "src/ghe/he_cost.h"
#include "src/gpusim/device.h"

namespace flb::core {

namespace {

Status ValidateStages(const std::vector<PipelineStage>& stages, int chunks) {
  if (stages.empty()) {
    return Status::InvalidArgument("pipeline: no stages");
  }
  if (chunks < 1) {
    return Status::InvalidArgument("pipeline: chunks must be >= 1");
  }
  for (const auto& stage : stages) {
    if (stage.seconds < 0) {
      return Status::InvalidArgument("pipeline: negative stage time '" +
                                     stage.name + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Result<double> PipelineSchedule::OverlappedSeconds(
    const std::vector<PipelineStage>& stages, int chunks) {
  FLB_RETURN_IF_ERROR(ValidateStages(stages, chunks));
  double fill = 0.0, bottleneck = 0.0;
  for (const auto& stage : stages) {
    fill += stage.seconds;
    bottleneck = std::max(bottleneck, stage.seconds);
  }
  return fill + (chunks - 1) * bottleneck;
}

Result<double> PipelineSchedule::SerialSeconds(
    const std::vector<PipelineStage>& stages, int chunks) {
  FLB_RETURN_IF_ERROR(ValidateStages(stages, chunks));
  double per_chunk = 0.0;
  for (const auto& stage : stages) per_chunk += stage.seconds;
  return per_chunk * chunks;
}

Result<PipelineStage> PipelineSchedule::Bottleneck(
    const std::vector<PipelineStage>& stages) {
  FLB_RETURN_IF_ERROR(ValidateStages(stages, 1));
  const PipelineStage* worst = &stages[0];
  for (const auto& stage : stages) {
    if (stage.seconds > worst->seconds) worst = &stage;
  }
  return *worst;
}

namespace {

// Builds the Fig. 4 stage chain for one chunk of a batched op.
Result<PipelinedModelResult> BuildChain(ghe::GheEngine& engine, int key_bits,
                                        int64_t count, int chunks,
                                        bool encrypt) {
  if (count < 1) {
    return Status::InvalidArgument("PipelinedModel: empty batch");
  }
  chunks = std::max(1, std::min<int>(chunks, static_cast<int>(count)));
  const int64_t chunk = (count + chunks - 1) / chunks;
  const gpusim::DeviceSpec& spec = engine.device().spec();
  // Encryption stages half-width plaintexts in; addition moves two
  // full-width ciphertexts in and one out.
  const ghe::HeOp op = encrypt ? ghe::HeOp::kEncrypt : ghe::HeOp::kAdd;
  const ghe::HeOpCost cost = ghe::HeCost(op, key_bits, chunk);

  PipelinedModelResult result;
  result.chunks = chunks;
  const double host_rate = 2.0e9;  // host-side limb/copy ops per second

  // Kernel time for one chunk via the device model (stats only; the reset
  // keeps this modeling pass out of the engine's cumulative telemetry).
  // Streams are pinned to 1 so the chunk prices as a single launch, then
  // restored for the device-timeline measurement below.
  const int prev_streams = engine.config().streams;
  engine.device().ResetStats();
  engine.set_streams(1);
  FLB_ASSIGN_OR_RETURN(const gpusim::LaunchResult launch,
                       engine.ModelOp(op, key_bits, chunk));

  // Device-timeline measurement: the whole batch through the engine's real
  // execution path, serial vs chunked across streams.
  FLB_RETURN_IF_ERROR(engine.ModelOp(op, key_bits, count).status());
  result.device_serial_seconds = engine.last_batch().makespan_seconds;
  engine.set_streams(chunks);
  FLB_RETURN_IF_ERROR(engine.ModelOp(op, key_bits, count).status());
  result.device_async_seconds = engine.last_batch().makespan_seconds;
  result.streams_used =
      engine.last_batch().async ? engine.last_batch().streams : 1;
  engine.set_streams(prev_streams);
  engine.device().ResetStats();

  result.stages_per_chunk = {
      {"convert", chunk * 8.0 / host_rate},
      {"encode+pack", encrypt ? chunk * (cost.limbs / 2.0) / host_rate : 0.0},
      {"h2d", spec.pcie_latency_sec +
                  cost.bytes_in / spec.pcie_bandwidth_bytes_per_sec},
      {"kernel", launch.sim_seconds},
      {"d2h", spec.pcie_latency_sec +
                  cost.bytes_out / spec.pcie_bandwidth_bytes_per_sec},
      {"unconvert", chunk * 8.0 / host_rate},
  };
  FLB_ASSIGN_OR_RETURN(result.serial_seconds,
                       PipelineSchedule::SerialSeconds(
                           result.stages_per_chunk, chunks));
  FLB_ASSIGN_OR_RETURN(result.overlapped_seconds,
                       PipelineSchedule::OverlappedSeconds(
                           result.stages_per_chunk, chunks));
  result.speedup = result.serial_seconds / result.overlapped_seconds;
  return result;
}

}  // namespace

Result<PipelinedModelResult> PipelinedModel::Encrypt(ghe::GheEngine& engine,
                                                     int key_bits,
                                                     int64_t count,
                                                     int chunks) {
  return BuildChain(engine, key_bits, count, chunks, /*encrypt=*/true);
}

Result<PipelinedModelResult> PipelinedModel::HomAdd(ghe::GheEngine& engine,
                                                    int key_bits,
                                                    int64_t count,
                                                    int chunks) {
  return BuildChain(engine, key_bits, count, chunks, /*encrypt=*/false);
}

}  // namespace flb::core

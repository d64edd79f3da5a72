#include "src/core/platform.h"

#include <memory>
#include <utility>

#include "src/common/env.h"
#include "src/fl/hetero_lr.h"
#include "src/fl/homo_lr.h"
#include "src/fl/partition.h"
#include "src/obs/host_profiler.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb::core {

std::string ModelName(FlModelKind kind) {
  switch (kind) {
    case FlModelKind::kHomoLr:
      return "Homo LR";
    case FlModelKind::kHeteroLr:
      return "Hetero LR";
    case FlModelKind::kHeteroSbt:
      return "Hetero SBT";
    case FlModelKind::kHeteroNn:
      return "Hetero NN";
    case FlModelKind::kHomoNn:
      return "Homo NN";
  }
  return "unknown";
}

Result<RunReport> Platform::Run(const PlatformConfig& config) {
  // Live inspection plane: the FLB_OBS_PORT-gated HTTP server plus the
  // wall profiler. Both are pure observers — same-seed runs are
  // bit-identical with them on or off.
  obs::ObsServer::EnsureGlobalFromEnv();
  obs::HostProfiler::EnableFromEnv();

  // One coherent timeline per run: grid drivers call Run many times, each
  // with a fresh SimClock starting at 0, so stale events from earlier runs
  // would overlap the new ones. The exported trace is the last run's.
  auto& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) recorder.Clear();

  if (config.num_parties < 1) {
    return Status::InvalidArgument("Platform: num_parties must be >= 1");
  }
  const EngineTraits traits = TraitsFor(config.engine);

  auto clock = std::make_unique<SimClock>();
  std::shared_ptr<gpusim::Device> device;
  if (traits.gpu_he) {
    device = std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(),
                                              clock.get(),
                                              traits.branch_combining);
  }
  net::Network network(config.link, clock.get());

  // Chaos mode: an explicit plan in the config wins; else the
  // FLB_FAULT_PLAN environment variable (read fresh on every run so test
  // fixtures can set/unset it). An active plan attaches the fault injector
  // and reroutes all traffic through a reliable channel.
  std::string fault_spec = config.fault_plan;
  if (fault_spec.empty()) fault_spec = common::Env::Str("FLB_FAULT_PLAN");
  // The run-wide deadline. Lives on this frame; every component holds a
  // plain pointer and treats the default-constructed (infinite) case as
  // free — clean runs keep bit-identical accounting.
  const common::Deadline run_deadline =
      common::Deadline::After(clock.get(), config.run_deadline_sec);
  if (!run_deadline.infinite()) network.set_deadline(&run_deadline);

  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<net::ReliableChannel> reliable;
  std::unique_ptr<net::CircuitBreaker> breaker;
  if (!fault_spec.empty()) {
    FLB_ASSIGN_OR_RETURN(net::FaultPlan plan,
                         net::FaultPlan::Parse(fault_spec));
    injector = std::make_unique<net::FaultInjector>(std::move(plan),
                                                    clock.get());
    // Retry options: config base, overridable via FLB_NET_RETRY.
    FLB_ASSIGN_OR_RETURN(net::ReliableOptions reliable_opts,
                         net::ReliableOptions::FromEnv(config.reliable));
    // Same mixing as the breaker: RTO jitter is a pure function of
    // (run seed, link, message, attempt).
    reliable_opts.jitter_seed ^= config.seed;
    reliable = std::make_unique<net::ReliableChannel>(&network,
                                                      reliable_opts);
    // The per-link circuit breaker, with the run seed mixed into its
    // jitter stream so same-seed runs reproduce the same open windows.
    net::BreakerOptions breaker_opts;
    breaker_opts.seed ^= config.seed;
    breaker = std::make_unique<net::CircuitBreaker>(breaker_opts,
                                                    clock.get());
    reliable->set_breaker(breaker.get());
    if (!run_deadline.infinite()) reliable->set_run_deadline(&run_deadline);
    network.set_fault_injector(injector.get());
    network.set_reliable_channel(reliable.get());
  }

  const int parties =
      config.model == FlModelKind::kHeteroNn ? 2 : config.num_parties;

  const obs::Track run_track = recorder.RegisterTrack("platform", "run");
  const double setup_start = clock->Now();

  obs::RunInfo run_info;
  run_info.engine = EngineName(config.engine);
  run_info.model = ModelName(config.model);
  run_info.key_bits = config.key_bits;
  run_info.parties = parties;
  run_info.seed = config.seed;
  obs::RunStatus::Global().BeginRun(run_info);

  HeServiceOptions he_opts;
  he_opts.engine = config.engine;
  he_opts.key_bits = config.key_bits;
  he_opts.r_bits = config.r_bits;
  he_opts.participants = parties;
  he_opts.alpha = config.alpha;
  he_opts.frac_bits = config.frac_bits;
  he_opts.fp_compress_slot_bits = config.fp_compress_slot_bits;
  he_opts.modeled = config.modeled;
  he_opts.seed = config.seed;
  he_opts.gpu_streams = config.gpu_streams;
  he_opts.ghe_chunks_per_stream = config.ghe_chunks_per_stream;
  he_opts.use_bc = config.use_bc;
  he_opts.host_threads = config.host_threads;
  he_opts.use_fixed_width_kernels = config.use_fixed_width_kernels;
  FLB_ASSIGN_OR_RETURN(auto he,
                       HeService::Create(he_opts, clock.get(), device));
  if (!run_deadline.infinite()) he->set_run_deadline(&run_deadline);

  FLB_ASSIGN_OR_RETURN(fl::Dataset dataset,
                       fl::GenerateDataset(config.dataset));

  fl::FlSession session;
  session.he = he.get();
  session.network = &network;
  session.clock = clock.get();
  session.faults = injector.get();
  if (!run_deadline.infinite()) session.deadline = &run_deadline;

  if (recorder.enabled()) {
    recorder.Span(run_track, "platform.setup", "platform", setup_start,
                  clock->Now(),
                  {obs::Arg("engine", EngineName(config.engine)),
                   obs::Arg("model", ModelName(config.model)),
                   obs::Arg("key_bits", config.key_bits),
                   obs::Arg("parties", parties)});
  }
  const double train_start = clock->Now();
  obs::RunStatus::Global().SetPhase("train");

  RunReport report;
  switch (config.model) {
    case FlModelKind::kHomoLr: {
      FLB_ASSIGN_OR_RETURN(auto shards,
                           fl::HorizontalSplit(dataset, parties));
      fl::HomoLrTrainer trainer(std::move(shards), session, config.train);
      FLB_ASSIGN_OR_RETURN(report.train, trainer.Train());
      break;
    }
    case FlModelKind::kHeteroLr: {
      FLB_ASSIGN_OR_RETURN(auto partition,
                           fl::VerticalSplit(dataset, parties));
      fl::HeteroLrTrainer trainer(std::move(partition), session,
                                  config.train);
      FLB_ASSIGN_OR_RETURN(report.train, trainer.Train());
      break;
    }
    case FlModelKind::kHeteroSbt: {
      FLB_ASSIGN_OR_RETURN(auto partition,
                           fl::VerticalSplit(dataset, parties));
      fl::HeteroSbtTrainer trainer(std::move(partition), session,
                                   config.train, config.sbt);
      FLB_ASSIGN_OR_RETURN(report.train, trainer.Train());
      break;
    }
    case FlModelKind::kHeteroNn: {
      FLB_ASSIGN_OR_RETURN(auto partition, fl::VerticalSplit(dataset, 2));
      fl::HeteroNnTrainer trainer(std::move(partition), session,
                                  config.train, config.nn);
      FLB_ASSIGN_OR_RETURN(report.train, trainer.Train());
      break;
    }
    case FlModelKind::kHomoNn: {
      FLB_ASSIGN_OR_RETURN(auto shards,
                           fl::HorizontalSplit(dataset, parties));
      fl::HomoNnTrainer trainer(std::move(shards), session, config.train,
                                config.homo_nn);
      FLB_ASSIGN_OR_RETURN(report.train, trainer.Train());
      break;
    }
  }

  if (recorder.enabled()) {
    recorder.Span(run_track, "platform.train", "platform", train_start,
                  clock->Now(), {obs::Arg("model", ModelName(config.model))});
  }

  report.total_seconds = clock->Now();
  report.he_seconds = clock->HeSeconds();
  report.comm_seconds = clock->CommSeconds();
  report.other_seconds = clock->OtherSeconds();
  report.comm_bytes = network.stats().bytes;
  report.comm_messages = network.stats().messages;
  report.he_ops = he->op_counts();
  const uint64_t he_values =
      report.he_ops.values_encrypted + report.he_ops.values_decrypted;
  report.he_throughput =
      report.he_seconds > 0 ? he_values / report.he_seconds : 0.0;
  if (device != nullptr) {
    report.sm_utilization = device->stats().MeanSmUtilization();
  }
  if (report.he_ops.encrypts > 0) {
    report.pack_ratio = static_cast<double>(report.he_ops.values_encrypted) /
                        report.he_ops.encrypts;
  }
  report.robustness = report.train.robustness;
  if (injector != nullptr) report.fault_stats = injector->stats();
  if (reliable != nullptr) report.channel_stats = reliable->stats();
  if (breaker != nullptr) report.breaker_stats = breaker->stats();

  {
    // Final /status snapshot, pushed by value: RunStatus never points into
    // the run's components, which die with this frame (see run_status.h).
    obs::RunTotals totals;
    totals.total_seconds = report.total_seconds;
    totals.he_seconds = report.he_seconds;
    totals.comm_seconds = report.comm_seconds;
    totals.comm_bytes = report.comm_bytes;
    totals.comm_messages = report.comm_messages;
    obs::HeOpsStatus he_status;
    he_status.encrypts = report.he_ops.encrypts;
    he_status.decrypts = report.he_ops.decrypts;
    he_status.hom_adds = report.he_ops.hom_adds;
    he_status.scalar_muls = report.he_ops.scalar_muls;
    he_status.values_encrypted = report.he_ops.values_encrypted;
    he_status.values_decrypted = report.he_ops.values_decrypted;
    obs::RunStatus::Global().EndRun(totals, he_status);
  }

  // Per-run report gauges: the last completed run for each (engine, model,
  // key) cell of a grid driver stays visible in the metrics snapshot.
  auto& metrics = obs::MetricsRegistry::Global();
  const std::string run_labels =
      "engine=" + EngineName(config.engine) +
      ",key_bits=" + std::to_string(config.key_bits) +
      ",model=" + ModelName(config.model);
  metrics.Set("flb.platform.total_seconds", report.total_seconds, run_labels);
  metrics.Set("flb.platform.he_seconds", report.he_seconds, run_labels);
  metrics.Set("flb.platform.comm_seconds", report.comm_seconds, run_labels);
  metrics.Set("flb.platform.other_seconds", report.other_seconds, run_labels);
  metrics.Set("flb.platform.comm_bytes",
              static_cast<double>(report.comm_bytes), run_labels);
  metrics.Set("flb.platform.he_throughput", report.he_throughput, run_labels);
  metrics.Set("flb.platform.sm_utilization", report.sm_utilization,
              run_labels);
  metrics.Set("flb.platform.pack_ratio", report.pack_ratio, run_labels);
  if (injector != nullptr) {
    metrics.Set("flb.platform.fault_injected",
                static_cast<double>(report.fault_stats.TotalInjected()),
                run_labels);
    metrics.Set("flb.platform.retransmits",
                static_cast<double>(report.channel_stats.retransmits),
                run_labels);
    metrics.Set("flb.platform.timeouts",
                static_cast<double>(report.channel_stats.timeouts),
                run_labels);
    metrics.Set("flb.platform.dropouts",
                static_cast<double>(report.robustness.TotalDropouts()),
                run_labels);
    metrics.Set("flb.platform.resumes",
                static_cast<double>(report.robustness.resumes), run_labels);
    metrics.Set("flb.resilience.breaker.trip_total",
                static_cast<double>(report.breaker_stats.trips), run_labels);
    metrics.Set("flb.resilience.quarantine_total",
                static_cast<double>(report.robustness.quarantines),
                run_labels);
    metrics.Set("flb.resilience.deadline_exceeded_total",
                static_cast<double>(report.robustness.deadline_exceeded),
                run_labels);
  }
  return report;
}

}  // namespace flb::core

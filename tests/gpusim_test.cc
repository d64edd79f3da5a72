// Tests for the simulated GPU device: resource manager (block table, memory
// pool, register/branch policy), occupancy, launch timing, utilization.

#include <gtest/gtest.h>

#include "src/gpusim/device.h"
#include "src/gpusim/device_spec.h"
#include "src/gpusim/resource_manager.h"

namespace flb::gpusim {
namespace {

DeviceSpec Spec() { return DeviceSpec::Rtx3090(); }

TEST(DeviceSpecTest, Rtx3090Constants) {
  const DeviceSpec s = Spec();
  EXPECT_EQ(s.num_sms, 82);
  EXPECT_EQ(s.MaxResidentThreads(), 82 * 1536);
  EXPECT_GT(s.core_clock_hz, 1e9);
  EXPECT_GT(s.pcie_bandwidth_bytes_per_sec, 1e9);
}

// ---------------------------------------------------------------------------
// ResourceManager: registers and branches
// ---------------------------------------------------------------------------

TEST(ResourceManagerTest, BranchCombiningKeepsRegisterDemand) {
  ResourceManager rm(Spec(), /*branch_combining=*/true);
  KernelDemand d;
  d.registers_per_thread = 40;
  d.divergent_branches = 3;
  EXPECT_EQ(rm.EffectiveRegisters(d), 40);
}

TEST(ResourceManagerTest, UnmanagedBranchesDoubleRegistersPerRegion) {
  ResourceManager rm(Spec(), /*branch_combining=*/false);
  KernelDemand d;
  d.registers_per_thread = 40;
  d.divergent_branches = 1;
  EXPECT_EQ(rm.EffectiveRegisters(d), 80);
  d.divergent_branches = 2;
  EXPECT_EQ(rm.EffectiveRegisters(d), 160);
  d.divergent_branches = 10;  // capped at the architectural max
  EXPECT_EQ(rm.EffectiveRegisters(d), Spec().max_registers_per_thread);
}

TEST(ResourceManagerTest, OccupancyThreadLimited) {
  ResourceManager rm(Spec());
  KernelDemand d;
  d.registers_per_thread = 32;  // 32*1536 = 49152 < 65536: threads bind
  EXPECT_DOUBLE_EQ(rm.OccupancyFor(512, d), 1.0);  // 3 blocks of 512 = 1536
  EXPECT_DOUBLE_EQ(rm.OccupancyFor(1024, d), 1024.0 / 1536.0);  // 1 block fits
}

TEST(ResourceManagerTest, OccupancyRegisterLimited) {
  ResourceManager rm(Spec());
  KernelDemand d;
  d.registers_per_thread = 80;  // 80*512 = 40960: one 512-block per SM
  EXPECT_DOUBLE_EQ(rm.OccupancyFor(512, d), 512.0 / 1536.0);
  auto plan = rm.PlanLaunch(100000, d).value();
  EXPECT_STREQ(plan.limiting_resource, "registers");
  EXPECT_LT(plan.occupancy, 1.0);
}

TEST(ResourceManagerTest, OccupancySharedMemLimited) {
  ResourceManager rm(Spec());
  KernelDemand d;
  d.registers_per_thread = 16;
  d.shared_mem_per_block = Spec().shared_mem_per_sm;  // one block per SM
  EXPECT_DOUBLE_EQ(rm.OccupancyFor(128, d), 128.0 / 1536.0);
}

TEST(ResourceManagerTest, PlanLaunchPicksHighOccupancyBlock) {
  ResourceManager rm(Spec());
  KernelDemand d;
  d.registers_per_thread = 32;
  auto plan = rm.PlanLaunch(1 << 20, d).value();
  EXPECT_GT(plan.block_threads, 0);
  EXPECT_DOUBLE_EQ(plan.occupancy, 1.0);
  EXPECT_EQ(plan.grid_blocks,
            (1 << 20) / plan.block_threads +
                ((1 << 20) % plan.block_threads != 0 ? 1 : 0));
}

TEST(ResourceManagerTest, PlanLaunchShrinksBlocksForTinyLaunches) {
  ResourceManager rm(Spec());
  KernelDemand d;
  auto plan = rm.PlanLaunch(40, d).value();
  EXPECT_EQ(plan.block_threads, rm.block_size_table().front());
  EXPECT_EQ(plan.grid_blocks, 1);
}

TEST(ResourceManagerTest, PlanLaunchRejectsZeroWork) {
  ResourceManager rm(Spec());
  EXPECT_FALSE(rm.PlanLaunch(0, KernelDemand{}).ok());
  EXPECT_FALSE(rm.PlanLaunch(-5, KernelDemand{}).ok());
}

// ---------------------------------------------------------------------------
// ResourceManager: memory table
// ---------------------------------------------------------------------------

TEST(MemoryPoolTest, AllocFreeReuseCycle) {
  ResourceManager rm(Spec());
  auto a1 = rm.Alloc(4096).value();
  auto a2 = rm.Alloc(4096).value();
  EXPECT_NE(a1, a2);
  EXPECT_EQ(rm.pool_stats().fresh_allocations, 2u);
  EXPECT_EQ(rm.pool_stats().bytes_in_use, 8192u);

  ASSERT_TRUE(rm.Free(a1).ok());
  // Same-size alloc is served from the table (address reuse).
  auto a3 = rm.Alloc(4096).value();
  EXPECT_EQ(a3, a1);
  EXPECT_EQ(rm.pool_stats().pool_hits, 1u);
  EXPECT_EQ(rm.pool_stats().fresh_allocations, 2u);
}

TEST(MemoryPoolTest, DifferentSizeClassMisses) {
  ResourceManager rm(Spec());
  auto a1 = rm.Alloc(4096).value();
  ASSERT_TRUE(rm.Free(a1).ok());
  auto a2 = rm.Alloc(8192).value();
  EXPECT_NE(a2, a1);
  EXPECT_EQ(rm.pool_stats().pool_hits, 0u);
}

TEST(MemoryPoolTest, ErrorPaths) {
  ResourceManager rm(Spec());
  EXPECT_FALSE(rm.Alloc(0).ok());
  EXPECT_TRUE(rm.Free(0xdead).IsNotFound());
  auto a = rm.Alloc(64).value();
  ASSERT_TRUE(rm.Free(a).ok());
  EXPECT_TRUE(rm.Free(a).IsFailedPrecondition());  // double free
}

TEST(MemoryPoolTest, ExhaustionCountsPooledMemory) {
  DeviceSpec tiny = Spec();
  tiny.global_mem_bytes = 1024;
  ResourceManager rm(tiny);
  auto a = rm.Alloc(1024).value();
  EXPECT_TRUE(rm.Alloc(1).status().IsResourceExhausted());
  ASSERT_TRUE(rm.Free(a).ok());
  // Freed-but-pooled memory still counts as reserved; only a request of
  // its size class reuses it.
  EXPECT_TRUE(rm.Alloc(512).status().IsResourceExhausted());
  EXPECT_TRUE(rm.Alloc(1024).ok());
}

TEST(MemoryPoolTest, PeakTracksHighWater) {
  ResourceManager rm(Spec());
  auto a = rm.Alloc(1000).value();
  auto b = rm.Alloc(2000).value();
  ASSERT_TRUE(rm.Free(a).ok());
  ASSERT_TRUE(rm.Free(b).ok());
  EXPECT_EQ(rm.pool_stats().peak_bytes, 3000u);
  EXPECT_EQ(rm.pool_stats().bytes_in_use, 0u);
}

// ---------------------------------------------------------------------------
// Device: launch timing and utilization
// ---------------------------------------------------------------------------

TEST(DeviceTest, LaunchChargesClockAndRunsBody) {
  SimClock clock;
  Device dev(Spec(), &clock);
  KernelLaunch launch;
  launch.name = "test";
  launch.total_threads = 1 << 16;
  launch.ops_per_thread = 1000;
  auto result = dev.Launch(launch).value();
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_DOUBLE_EQ(clock.Elapsed(CostKind::kGpuKernel), result.sim_seconds);
  EXPECT_EQ(dev.stats().kernels_launched, 1u);
}

TEST(DeviceTest, MoreWorkTakesLongerProportionally) {
  Device dev(Spec(), nullptr);
  KernelLaunch small, large;
  small.total_threads = large.total_threads = Spec().MaxResidentThreads();
  small.ops_per_thread = 1000;
  large.ops_per_thread = 10000;
  const double lat = Spec().kernel_launch_latency_sec;
  const double t_small = dev.Launch(small)->sim_seconds - lat;
  const double t_large = dev.Launch(large)->sim_seconds - lat;
  // 10x the per-thread ops -> 10x the compute time (net of launch latency).
  EXPECT_NEAR(t_large / t_small, 10.0, 0.01);
}

TEST(DeviceTest, WavesScaleWithOversubscription) {
  Device dev(Spec(), nullptr);
  KernelLaunch launch;
  launch.ops_per_thread = 1000;
  launch.total_threads = Spec().MaxResidentThreads();
  EXPECT_EQ(dev.Launch(launch)->waves, 1);
  launch.total_threads = 4 * Spec().MaxResidentThreads();
  EXPECT_EQ(dev.Launch(launch)->waves, 4);
}

TEST(DeviceTest, SmallLaunchHasLowUtilization) {
  Device dev(Spec(), nullptr);
  KernelLaunch launch;
  launch.ops_per_thread = 1000;
  launch.total_threads = 128;  // a sliver of an 125952-thread device
  auto r = dev.Launch(launch).value();
  EXPECT_LT(r.sm_utilization, 0.01);
  launch.total_threads = 10 * Spec().MaxResidentThreads();
  r = dev.Launch(launch).value();
  EXPECT_GT(r.sm_utilization, 0.9);
}

TEST(DeviceTest, RegisterPressureLowersOccupancyAndUtilization) {
  Device dev(Spec(), nullptr);
  KernelLaunch light, heavy;
  light.total_threads = heavy.total_threads = 10 * Spec().MaxResidentThreads();
  light.ops_per_thread = heavy.ops_per_thread = 1000;
  light.demand.registers_per_thread = 32;
  heavy.demand.registers_per_thread = 200;
  auto r_light = dev.Launch(light).value();
  auto r_heavy = dev.Launch(heavy).value();
  EXPECT_GT(r_light.occupancy, r_heavy.occupancy);
  EXPECT_GT(r_light.sm_utilization, r_heavy.sm_utilization);
}

TEST(DeviceTest, BranchDivergenceSlowsHaflosStyleDevice) {
  // Same kernel, branch combining on (FLBooster) vs off (HAFLO): the
  // unmanaged device pays both register doubling and serialization.
  KernelLaunch launch;
  launch.total_threads = 10 * Spec().MaxResidentThreads();
  launch.ops_per_thread = 5000;
  launch.demand.registers_per_thread = 48;
  launch.demand.divergent_branches = 2;

  Device combined(Spec(), nullptr, /*branch_combining=*/true);
  Device unmanaged(Spec(), nullptr, /*branch_combining=*/false);
  auto r_combined = combined.Launch(launch).value();
  auto r_unmanaged = unmanaged.Launch(launch).value();
  EXPECT_LT(r_combined.sim_seconds, r_unmanaged.sim_seconds);
  EXPECT_GE(r_combined.sm_utilization, r_unmanaged.sm_utilization);
}

TEST(DeviceTest, TransfersChargePcie) {
  SimClock clock;
  Device dev(Spec(), &clock);
  const double t1 = dev.CopyToDevice(16 << 20);
  const double t2 = dev.CopyFromDevice(16 << 20);
  EXPECT_GT(t1, 0.0);
  EXPECT_NEAR(clock.Elapsed(CostKind::kPcieTransfer), t1 + t2, 1e-12);
  EXPECT_EQ(dev.stats().bytes_h2d, 16u << 20);
  EXPECT_EQ(dev.stats().bytes_d2h, 16u << 20);
  // Doubling bytes roughly doubles time (latency aside).
  const double t4 = dev.CopyToDevice(32 << 20);
  EXPECT_GT(t4, 1.8 * (t1 - Spec().pcie_latency_sec));
}

TEST(DeviceTest, MeanUtilizationAggregates) {
  Device dev(Spec(), nullptr);
  KernelLaunch launch;
  launch.ops_per_thread = 1000;
  launch.total_threads = 10 * Spec().MaxResidentThreads();
  dev.Launch(launch).value();
  dev.Launch(launch).value();
  EXPECT_GT(dev.stats().MeanSmUtilization(), 0.9);
}

TEST(DeviceTest, LaunchRejectsEmptyWork) {
  Device dev(Spec(), nullptr);
  KernelLaunch launch;
  launch.total_threads = 0;
  EXPECT_FALSE(dev.Launch(launch).ok());
}

// ---------------------------------------------------------------------------
// Streams: the async timeline
// ---------------------------------------------------------------------------

KernelLaunch SmallKernel(int64_t threads = 1 << 16,
                         uint64_t ops = 1000) {
  KernelLaunch launch;
  launch.name = "async";
  launch.total_threads = threads;
  launch.ops_per_thread = ops;
  return launch;
}

TEST(DeviceStreamTest, EstimateLaunchIsPureAndMatchesLaunch) {
  SimClock clock;
  Device dev(Spec(), &clock);
  const auto est = dev.EstimateLaunch(SmallKernel()).value();
  EXPECT_EQ(dev.stats().kernels_launched, 0u);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  const auto real = dev.Launch(SmallKernel()).value();
  EXPECT_DOUBLE_EQ(est.sim_seconds, real.sim_seconds);
  EXPECT_EQ(est.waves, real.waves);
  EXPECT_DOUBLE_EQ(est.occupancy, real.occupancy);
}

TEST(DeviceStreamTest, SingleStreamWindowMatchesSyncCharges) {
  // The same H2D -> kernel -> D2H sequence, synchronous vs enqueued on the
  // default stream: one stream means no overlap, so Synchronize must charge
  // the clock exactly what the serial path does.
  const size_t bytes = 8 << 20;
  SimClock sync_clock;
  Device sync_dev(Spec(), &sync_clock);
  sync_dev.CopyToDevice(bytes);
  sync_dev.Launch(SmallKernel()).value();
  sync_dev.CopyFromDevice(bytes / 2);

  SimClock async_clock;
  Device async_dev(Spec(), &async_clock);
  async_dev.CopyToDeviceAsync(bytes, kDefaultStream).value();
  async_dev.LaunchAsync(SmallKernel(), kDefaultStream).value();
  async_dev.CopyFromDeviceAsync(bytes / 2, kDefaultStream).value();
  const double makespan = async_dev.Synchronize();

  EXPECT_NEAR(makespan, sync_clock.Now(), 1e-15);
  EXPECT_NEAR(async_clock.Elapsed(CostKind::kGpuKernel),
              sync_clock.Elapsed(CostKind::kGpuKernel), 1e-15);
  EXPECT_NEAR(async_clock.Elapsed(CostKind::kPcieTransfer),
              sync_clock.Elapsed(CostKind::kPcieTransfer), 1e-15);
}

TEST(DeviceStreamTest, TwoStreamsOverlapCopiesWithCompute) {
  // Two independent chunks on two streams: stream 1's H2D runs during
  // stream 0's kernel, so the window is shorter than the serial sum.
  Device dev(Spec(), nullptr);
  const StreamId s1 = dev.CreateStream();
  const size_t bytes = 32 << 20;

  double serial = 0.0;
  for (const StreamId s : {kDefaultStream, s1}) {
    dev.CopyToDeviceAsync(bytes, s).value();
    const auto r = dev.LaunchAsync(SmallKernel(), s).value();
    dev.CopyFromDeviceAsync(bytes, s).value();
    serial += 2 * dev.TransferSeconds(bytes) + r.sim_seconds;
  }
  const double makespan = dev.Synchronize();
  EXPECT_LT(makespan, serial);
  EXPECT_GT(dev.stats().overlap_saved_seconds, 0.0);
  EXPECT_EQ(dev.stats().streams_created, 1u);
  EXPECT_EQ(dev.stats().synchronizations, 1u);
}

TEST(DeviceStreamTest, KernelsSerializeAcrossStreams) {
  // One compute engine: a kernel on stream 1 cannot start until stream 0's
  // kernel finishes, even with no data dependency.
  Device dev(Spec(), nullptr);
  const StreamId s1 = dev.CreateStream();
  const auto r0 = dev.LaunchAsync(SmallKernel(), kDefaultStream).value();
  const auto r1 = dev.LaunchAsync(SmallKernel(), s1).value();
  EXPECT_DOUBLE_EQ(r1.start_seconds, r0.end_seconds);
}

TEST(DeviceStreamTest, SameDirectionCopiesSerializeOppositeOverlap) {
  // Full-duplex PCIe: each direction has one DMA engine. Same-direction
  // copies on different streams queue; opposite directions run concurrently.
  Device dev(Spec(), nullptr);
  const StreamId s1 = dev.CreateStream();
  const StreamId s2 = dev.CreateStream();
  const size_t bytes = 16 << 20;
  const auto h2d_a = dev.CopyToDeviceAsync(bytes, kDefaultStream).value();
  const auto h2d_b = dev.CopyToDeviceAsync(bytes, s1).value();
  const auto d2h = dev.CopyFromDeviceAsync(bytes, s2).value();
  EXPECT_DOUBLE_EQ(h2d_b.start_seconds, h2d_a.end_seconds);
  EXPECT_DOUBLE_EQ(d2h.start_seconds, 0.0);
}

TEST(DeviceStreamTest, HalfDuplexLinkSerializesBothDirections) {
  Device dev(DeviceSpec::JetsonClass(), nullptr);
  ASSERT_FALSE(dev.spec().pcie_full_duplex);
  const StreamId s1 = dev.CreateStream();
  const size_t bytes = 16 << 20;
  const auto h2d = dev.CopyToDeviceAsync(bytes, kDefaultStream).value();
  const auto d2h = dev.CopyFromDeviceAsync(bytes, s1).value();
  EXPECT_DOUBLE_EQ(d2h.start_seconds, h2d.end_seconds);
}

TEST(DeviceStreamTest, SynchronizeChargesExposedTransferOnly) {
  // Charged PCIe time is makespan - kernel busy: copies hidden behind
  // kernels cost nothing, copies the overlap failed to hide cost in full.
  SimClock clock;
  Device dev(Spec(), &clock);
  const StreamId s1 = dev.CreateStream();
  double kernel_busy = 0.0;
  const size_t bytes = 32 << 20;
  for (const StreamId s : {kDefaultStream, s1}) {
    dev.CopyToDeviceAsync(bytes, s).value();
    kernel_busy += dev.LaunchAsync(SmallKernel(), s).value().sim_seconds;
    dev.CopyFromDeviceAsync(bytes, s).value();
  }
  const double makespan = dev.Synchronize();
  EXPECT_NEAR(clock.Elapsed(CostKind::kGpuKernel), kernel_busy, 1e-15);
  EXPECT_NEAR(clock.Elapsed(CostKind::kPcieTransfer),
              makespan - kernel_busy, 1e-12);
  EXPECT_NEAR(clock.Now(), makespan, 1e-12);
}

TEST(DeviceStreamTest, SynchronizeResetsTheWindow) {
  SimClock clock;
  Device dev(Spec(), &clock);
  const StreamId s1 = dev.CreateStream();
  dev.CopyToDeviceAsync(1 << 20, s1).value();
  EXPECT_GT(dev.Synchronize(), 0.0);
  const double charged = clock.Now();
  // Fresh window: an empty Synchronize is free, and the next op on the
  // stream starts back at the origin.
  EXPECT_DOUBLE_EQ(dev.Synchronize(), 0.0);
  EXPECT_DOUBLE_EQ(clock.Now(), charged);
  EXPECT_DOUBLE_EQ(dev.CopyToDeviceAsync(1 << 20, s1).value().start_seconds,
                   0.0);
}

TEST(DeviceStreamTest, RejectsUnknownStreams) {
  Device dev(Spec(), nullptr);
  EXPECT_FALSE(dev.LaunchAsync(SmallKernel(), 7).ok());
  EXPECT_FALSE(dev.CopyToDeviceAsync(1024, -1).ok());
  StreamChunk chunk;
  chunk.stream = -1;
  chunk.kernel = SmallKernel();
  EXPECT_FALSE(dev.EstimateChunks({chunk}).ok());
}

// Chunks of uneven sizes round-robin over `streams` streams.
std::vector<StreamChunk> UnevenPlan(int streams) {
  std::vector<StreamChunk> plan;
  for (int k = 0; k < 7; ++k) {
    StreamChunk& chunk = plan.emplace_back();
    chunk.stream = k % streams;
    chunk.bytes_in = static_cast<size_t>(4 + k) << 20;
    chunk.kernel = SmallKernel(int64_t{1} << (12 + k % 3), 20000 + 5000 * k);
    chunk.bytes_out = static_cast<size_t>(9 - k) << 19;
  }
  return plan;
}

TEST(DeviceStreamTest, EstimateChunksEqualsSynchronize) {
  // The estimate replays the window's rule on a fresh timeline: the same
  // plan enqueued for real must drain at exactly the priced makespan, on
  // a full-duplex link and on a half-duplex one.
  for (const DeviceSpec& spec :
       {DeviceSpec::Rtx3090(), DeviceSpec::JetsonClass()}) {
    SimClock clock;
    Device dev(spec, &clock);
    const std::vector<StreamId> ids = {kDefaultStream, dev.CreateStream(),
                                       dev.CreateStream()};
    const std::vector<StreamChunk> plan = UnevenPlan(3);
    const double priced = dev.EstimateChunks(plan).value();
    EXPECT_EQ(dev.stats().kernels_launched, 0u);
    EXPECT_EQ(dev.stats().h2d_copies, 0u);
    EXPECT_EQ(dev.stats().synchronizations, 0u);
    EXPECT_EQ(clock.Now(), 0.0);

    double serial = 0.0;
    for (const StreamChunk& chunk : plan) {
      const StreamId sid = ids[static_cast<size_t>(chunk.stream)];
      serial += dev.CopyToDeviceAsync(chunk.bytes_in, sid).value().seconds;
      serial += dev.LaunchAsync(chunk.kernel, sid).value().sim_seconds;
      serial += dev.CopyFromDeviceAsync(chunk.bytes_out, sid).value().seconds;
    }
    EXPECT_EQ(dev.Synchronize(), priced) << spec.name;
    if (spec.pcie_full_duplex) {
      EXPECT_LT(priced, serial);
    } else {
      // One DMA engine in issue order: each chunk's H2D waits for the
      // previous chunk's D2H, which waited for its kernel.
      EXPECT_DOUBLE_EQ(priced, serial);
    }
  }
}

// The closed-form pipeline laws the stream rule obeys: with one chunk per
// stream, S equal-length stages per chunk and a full-duplex link, chunks
// flow through the three engines like a classic pipeline.
double PipelineMakespan(double h2d, double kernel, double d2h, int chunks,
                        int streams) {
  StreamTimeline timeline(/*full_duplex=*/true, streams);
  for (int k = 0; k < chunks; ++k) {
    timeline.Copy(k % streams, h2d, /*to_device=*/true);
    timeline.Kernel(k % streams, kernel);
    timeline.Copy(k % streams, d2h, /*to_device=*/false);
  }
  return timeline.Makespan();
}

TEST(PipelineScheduleTest, SingleChunkEqualsSerial) {
  EXPECT_DOUBLE_EQ(PipelineMakespan(1.0, 2.0, 3.0, 1, 1), 6.0);
  EXPECT_DOUBLE_EQ(PipelineMakespan(1.0, 2.0, 3.0, 1, 4), 6.0);
}

TEST(PipelineScheduleTest, ClassicPipelineFormula) {
  // fill (1+2+3) + (chunks-1) * bottleneck(3); 24 s serially.
  EXPECT_DOUBLE_EQ(PipelineMakespan(1.0, 2.0, 3.0, 4, 4), 6.0 + 3 * 3.0);
  // One stream keeps the chunks in order: no overlap at all.
  EXPECT_DOUBLE_EQ(PipelineMakespan(1.0, 2.0, 3.0, 4, 1), 24.0);
}

TEST(PipelineScheduleTest, BalancedStagesApproachStageCountSpeedup) {
  // With 3 equal stages and many chunks, speedup -> 3, already on 4
  // round-robin streams.
  const int chunks = 1000;
  EXPECT_NEAR(3.0 * chunks / PipelineMakespan(1.0, 1.0, 1.0, chunks, 4), 3.0,
              0.05);
}

TEST(PipelineScheduleTest, BottleneckIdentified) {
  // Whichever engine holds the longest stage paces the pipeline: each
  // further chunk adds exactly that stage.
  const double stages[3][3] = {{5, 1, 2}, {1, 5, 2}, {1, 2, 5}};
  for (const auto& st : stages) {
    EXPECT_DOUBLE_EQ(PipelineMakespan(st[0], st[1], st[2], 9, 9) -
                         PipelineMakespan(st[0], st[1], st[2], 8, 9),
                     5.0);
  }
}

TEST(PipelineScheduleTest, Validation) {
  Device dev(Spec(), nullptr);
  EXPECT_DOUBLE_EQ(dev.EstimateChunks({}).value(), 0.0);
  StreamChunk empty_kernel;
  EXPECT_FALSE(dev.EstimateChunks({empty_kernel}).ok());
}

}  // namespace
}  // namespace flb::gpusim

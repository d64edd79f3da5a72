// Resilience-layer tests: the simulated-time Deadline, the per-link
// CircuitBreaker state machine, the PartyHealth quarantine policy, the
// FLB_NET_RETRY override surface, and the end-to-end guarantees the layer
// exists for — every trainer terminates within the configured deadline
// under a permanently crashed party (typed error or renormalized partial
// result, never a hang), clean-path accounting is untouched, and same-seed
// chaos runs are bit-identical.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/sim_clock.h"
#include "src/core/platform.h"
#include "src/fl/party_health.h"
#include "src/net/circuit_breaker.h"
#include "src/net/reliable_channel.h"
#include "src/obs/metrics.h"

namespace flb {
namespace {

// ---------------------------------------------------------------------------
// common::Deadline
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  common::Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.Check("test").ok());
  EXPECT_TRUE(std::isinf(d.remaining()));
}

TEST(DeadlineTest, NonPositiveBudgetMeansUnbounded) {
  SimClock clock;
  EXPECT_TRUE(common::Deadline::After(&clock, 0).infinite());
  EXPECT_TRUE(common::Deadline::After(&clock, -1).infinite());
  EXPECT_TRUE(common::Deadline::After(nullptr, 5).infinite());
}

TEST(DeadlineTest, ExpiresOnSimulatedTime) {
  SimClock clock;
  clock.Charge(CostKind::kOther, 1.0);
  const common::Deadline d = common::Deadline::After(&clock, 2.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_DOUBLE_EQ(d.expires_at(), 3.0);
  EXPECT_DOUBLE_EQ(d.remaining(), 2.0);
  EXPECT_TRUE(d.Check("early").ok());

  clock.Charge(CostKind::kOther, 1.5);
  EXPECT_FALSE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining(), 0.5);

  clock.Charge(CostKind::kOther, 1.0);
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining(), 0.0);
  const Status late = d.Check("late");
  EXPECT_TRUE(late.IsDeadlineExceeded()) << late.ToString();
  EXPECT_NE(late.ToString().find("late"), std::string::npos);
}

// ---------------------------------------------------------------------------
// net::CircuitBreaker
// ---------------------------------------------------------------------------

net::BreakerOptions TestBreakerOptions() {
  net::BreakerOptions opts;
  opts.failure_threshold = 3;
  opts.open_sec = 0.1;
  opts.backoff = 2.0;
  opts.max_open_sec = 1.0;
  opts.jitter_frac = 0.1;
  opts.seed = 42;
  return opts;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndFailsFast) {
  SimClock clock;
  net::CircuitBreaker breaker(TestBreakerOptions(), &clock);
  EXPECT_TRUE(breaker.AllowSend("a", "b"));
  breaker.RecordFailure("a", "b");
  breaker.RecordFailure("a", "b");
  EXPECT_TRUE(breaker.AllowSend("a", "b"));  // still closed
  EXPECT_EQ(breaker.stats().trips, 0u);
  breaker.RecordFailure("a", "b");  // third consecutive failure trips
  EXPECT_EQ(breaker.stats().trips, 1u);
  EXPECT_FALSE(breaker.AllowSend("a", "b"));
  EXPECT_FALSE(breaker.AllowSend("a", "b"));
  EXPECT_EQ(breaker.stats().fast_fails, 2u);
  // The breaker is per directed link: the reverse direction is untouched.
  EXPECT_TRUE(breaker.AllowSend("b", "a"));
  EXPECT_EQ(breaker.stats().fast_fails, 2u);
  EXPECT_EQ(breaker.stats().probes, 0u);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  SimClock clock;
  net::CircuitBreaker breaker(TestBreakerOptions(), &clock);
  breaker.RecordFailure("a", "b");
  breaker.RecordFailure("a", "b");
  breaker.RecordSuccess("a", "b");
  breaker.RecordFailure("a", "b");
  breaker.RecordFailure("a", "b");
  EXPECT_TRUE(breaker.AllowSend("a", "b"));
  EXPECT_EQ(breaker.stats().trips, 0u);
}

TEST(CircuitBreakerTest, ProbeAfterOpenWindowClosesOnSuccess) {
  SimClock clock;
  const net::BreakerOptions opts = TestBreakerOptions();
  net::CircuitBreaker breaker(opts, &clock);
  for (int i = 0; i < opts.failure_threshold; ++i) {
    breaker.RecordFailure("a", "b");
  }
  ASSERT_EQ(breaker.stats().trips, 1u);
  ASSERT_FALSE(breaker.AllowSend("a", "b"));
  // Past the worst-case jittered window the link must admit one probe.
  clock.Charge(CostKind::kOther, opts.open_sec * (1.0 + opts.jitter_frac));
  EXPECT_TRUE(breaker.AllowSend("a", "b"));
  EXPECT_EQ(breaker.stats().probes, 1u);
  breaker.RecordSuccess("a", "b");
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_TRUE(breaker.AllowSend("a", "b"));
  EXPECT_EQ(breaker.stats().probes, 1u);
  // Closed again: one failure no longer trips, as it would half-open.
  breaker.RecordFailure("a", "b");
  EXPECT_EQ(breaker.stats().trips, 1u);
}

TEST(CircuitBreakerTest, ProbeFailureReopensWithDeeperWindow) {
  SimClock clock;
  const net::BreakerOptions opts = TestBreakerOptions();
  net::CircuitBreaker breaker(opts, &clock);
  for (int i = 0; i < opts.failure_threshold; ++i) {
    breaker.RecordFailure("a", "b");
  }
  clock.Charge(CostKind::kOther, opts.open_sec * (1.0 + opts.jitter_frac));
  ASSERT_TRUE(breaker.AllowSend("a", "b"));  // probe admitted
  breaker.RecordFailure("a", "b");           // probe failed
  EXPECT_EQ(breaker.stats().trips, 2u);
  // The second window is backed off: just past one base window the link is
  // still open even at maximum negative jitter.
  clock.Charge(CostKind::kOther, opts.open_sec * (1.0 + opts.jitter_frac));
  EXPECT_FALSE(breaker.AllowSend("a", "b"));
  // Past the doubled worst-case window a probe is admitted again.
  clock.Charge(CostKind::kOther,
               opts.open_sec * opts.backoff * (1.0 + opts.jitter_frac));
  EXPECT_TRUE(breaker.AllowSend("a", "b"));
}

TEST(CircuitBreakerTest, JitterIsDeterministicPerSeed) {
  // Two breakers with the same seed walk the same transition timeline;
  // tested by stepping both clocks in lockstep and comparing the first
  // step at which the probe is admitted.
  auto first_probe_step = [](uint64_t seed) {
    SimClock clock;
    net::BreakerOptions opts = TestBreakerOptions();
    opts.seed = seed;
    net::CircuitBreaker breaker(opts, &clock);
    for (int i = 0; i < opts.failure_threshold; ++i) {
      breaker.RecordFailure("a", "b");
    }
    for (int step = 0; step < 200; ++step) {
      clock.Charge(CostKind::kOther, 0.001);
      if (breaker.AllowSend("a", "b")) return step;
    }
    return -1;
  };
  const int a = first_probe_step(42);
  EXPECT_EQ(a, first_probe_step(42));
  EXPECT_NE(a, -1);
}

// ---------------------------------------------------------------------------
// fl::PartyHealth
// ---------------------------------------------------------------------------

TEST(PartyHealthTest, DisabledByDefault) {
  SimClock clock;
  fl::PartyHealth health(fl::PartyHealthOptions{}, &clock);
  EXPECT_FALSE(health.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(health.RecordFailure("p"));
  }
  EXPECT_FALSE(health.Quarantined("p"));
  EXPECT_EQ(health.quarantines(), 0u);
}

fl::PartyHealthOptions TestHealthOptions() {
  fl::PartyHealthOptions opts;
  opts.ewma_alpha = 0.5;
  opts.failure_threshold = 0.5;
  opts.quarantine_sec = 1.0;
  opts.backoff = 2.0;
  opts.max_quarantine_sec = 10.0;
  return opts;
}

TEST(PartyHealthTest, QuarantinesReadmitsAndBacksOff) {
  SimClock clock;
  fl::PartyHealth health(TestHealthOptions(), &clock);
  ASSERT_TRUE(health.enabled());

  // A first observation seeds the EWMA directly, so start the party with a
  // success (EWMA 0.0): one failure then reads 0.5 — at, not above, the
  // threshold — and the second (0.75) quarantines.
  health.RecordSuccess("p");
  EXPECT_FALSE(health.RecordFailure("p"));
  EXPECT_TRUE(health.RecordFailure("p"));
  EXPECT_TRUE(health.Quarantined("p"));
  EXPECT_EQ(health.quarantines(), 1u);
  EXPECT_EQ(health.QuarantinedCount(), 1u);

  // Crossing the window boundary readmits the party on probation.
  clock.Charge(CostKind::kOther, 1.5);
  EXPECT_FALSE(health.Quarantined("p"));
  EXPECT_EQ(health.readmits(), 1u);
  EXPECT_EQ(health.QuarantinedCount(), 0u);

  // A failure on probation re-quarantines immediately with a deeper
  // window (1.0 * backoff = 2.0 simulated seconds).
  EXPECT_TRUE(health.RecordFailure("p"));
  EXPECT_EQ(health.quarantines(), 2u);
  clock.Charge(CostKind::kOther, 1.5);
  EXPECT_TRUE(health.Quarantined("p"));  // 1.5 < 2.0: still inside
  clock.Charge(CostKind::kOther, 1.0);
  EXPECT_FALSE(health.Quarantined("p"));
  EXPECT_EQ(health.readmits(), 2u);

  // Sustained successes on probation keep the party admitted.
  for (int i = 0; i < 8; ++i) health.RecordSuccess("p");
  EXPECT_FALSE(health.Quarantined("p"));
  EXPECT_EQ(health.quarantines(), 2u);
}

TEST(PartyHealthTest, PartiesAreTrackedIndependently) {
  SimClock clock;
  fl::PartyHealth health(TestHealthOptions(), &clock);
  // A party whose very first observation is a failure seeds the EWMA at
  // 1.0 and quarantines immediately. A first success seeds it at 0.0, so
  // one failure then reads 0.5, at the threshold, and does not.
  EXPECT_TRUE(health.RecordFailure("bad"));
  health.RecordSuccess("good");
  EXPECT_TRUE(health.Quarantined("bad"));
  EXPECT_FALSE(health.Quarantined("good"));
  EXPECT_FALSE(health.RecordFailure("good"));
  EXPECT_FALSE(health.Quarantined("good"));
  EXPECT_TRUE(health.Quarantined("bad"));
}

// ---------------------------------------------------------------------------
// FLB_NET_RETRY override surface
// ---------------------------------------------------------------------------

class NetRetryEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("FLB_NET_RETRY"); }
};

TEST_F(NetRetryEnvTest, UnsetKeepsBaseOptions) {
  unsetenv("FLB_NET_RETRY");
  net::ReliableOptions base;
  base.max_attempts = 6;
  const auto opts = net::ReliableOptions::FromEnv(base);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->max_attempts, 6);
}

TEST_F(NetRetryEnvTest, OverridesSelectedKeys) {
  setenv("FLB_NET_RETRY", "max_attempts=4,rto=0.02,jitter=0.2,seed=9", 1);
  net::ReliableOptions base;
  const auto opts = net::ReliableOptions::FromEnv(base);
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->max_attempts, 4);
  EXPECT_DOUBLE_EQ(opts->initial_rto_sec, 0.02);
  EXPECT_DOUBLE_EQ(opts->jitter_frac, 0.2);
  EXPECT_EQ(opts->jitter_seed, 9u);
  // Untouched keys keep their base values.
  EXPECT_DOUBLE_EQ(opts->deadline_sec, base.deadline_sec);
}

TEST_F(NetRetryEnvTest, RejectsUnknownKeysAndBadValues) {
  setenv("FLB_NET_RETRY", "bogus=1", 1);
  EXPECT_FALSE(net::ReliableOptions::FromEnv({}).ok());
  setenv("FLB_NET_RETRY", "max_attempts=zero", 1);
  EXPECT_FALSE(net::ReliableOptions::FromEnv({}).ok());
  setenv("FLB_NET_RETRY", "max_attempts=0", 1);
  EXPECT_FALSE(net::ReliableOptions::FromEnv({}).ok());
  setenv("FLB_NET_RETRY", "jitter=2", 1);
  EXPECT_FALSE(net::ReliableOptions::FromEnv({}).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: termination, degradation, determinism
// ---------------------------------------------------------------------------

core::PlatformConfig SmallConfig(core::FlModelKind model) {
  core::PlatformConfig cfg;
  cfg.engine = core::EngineKind::kFlBooster;
  cfg.model = model;
  cfg.dataset = fl::DatasetSpec{fl::DatasetKind::kSynthetic, 128, 8, 8, 5};
  cfg.num_parties = 3;
  cfg.key_bits = 256;
  cfg.r_bits = 14;
  cfg.modeled = true;
  cfg.train.max_epochs = 2;
  cfg.train.batch_size = 32;
  cfg.train.tolerance = 1e-9;
  return cfg;
}

// The critical party whose permanent crash cannot be aggregated around.
std::string CriticalParty(core::FlModelKind model) {
  switch (model) {
    case core::FlModelKind::kHomoLr:
    case core::FlModelKind::kHomoNn:
      return "server";
    default:
      return "guest";
  }
}

// SmallConfig(model) with its critical party crashed over [0.3 T, 0.6 T]
// of a clean run's simulated time T: the party comes back mid-run.
core::PlatformConfig CrashWindowConfig(core::FlModelKind model, double t) {
  char window[64];
  std::snprintf(window, sizeof(window), "@%.9f-%.9f", 0.3 * t, 0.6 * t);
  auto cfg = SmallConfig(model);
  cfg.fault_plan = "crash=" + CriticalParty(model) + window;
  cfg.reliable.deadline_sec = 0.02 * t;
  cfg.reliable.max_attempts = 3;
  return cfg;
}

// The flb.resilience.events series `trainer` recorded, by label set.
std::map<std::string, double> ResilienceEvents(const std::string& trainer) {
  const std::string model = ",model=" + trainer;
  std::map<std::string, double> events;
  for (const auto& m : obs::MetricsRegistry::Global().Collect()) {
    if (m.name == "flb.resilience.events" &&
        m.labels.size() > model.size() &&
        m.labels.compare(m.labels.size() - model.size(), model.size(),
                         model) == 0) {
      events[m.labels] += m.value;
    }
  }
  return events;
}

// The label sets of `after` whose count grew since `before`.
std::map<std::string, double> NewEvents(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> grown;
  for (const auto& [labels, count] : after) {
    const auto it = before.find(labels);
    const double delta = count - (it == before.end() ? 0.0 : it->second);
    if (delta > 0.0) grown[labels] = delta;
  }
  return grown;
}

TEST(ResilienceEndToEndTest, PermanentCriticalCrashTerminatesTyped) {
  // The acceptance scenario: with a critical party dead from t=0 and a
  // run-wide deadline, every trainer must terminate with a typed error —
  // kUnavailable (resume found a permanent crash) or kDeadlineExceeded
  // (the budget ran out first) — never a hang past the deadline.
  const core::FlModelKind kModels[] = {
      core::FlModelKind::kHomoLr, core::FlModelKind::kHomoNn,
      core::FlModelKind::kHeteroLr, core::FlModelKind::kHeteroSbt,
      core::FlModelKind::kHeteroNn};
  for (const auto model : kModels) {
    auto cfg = SmallConfig(model);
    cfg.fault_plan = "seed=3;crash=" + CriticalParty(model) + "@0";
    cfg.reliable.deadline_sec = 0.01;
    cfg.reliable.max_attempts = 2;
    cfg.run_deadline_sec = 60.0;  // simulated seconds, generous
    const auto report = core::Platform::Run(cfg);
    ASSERT_FALSE(report.ok()) << core::ModelName(model);
    EXPECT_TRUE(report.status().IsUnavailable() ||
                report.status().IsDeadlineExceeded())
        << core::ModelName(model) << ": " << report.status().ToString();
  }
}

TEST(ResilienceEndToEndTest, TinyRunDeadlineIsTypedForAllModels) {
  // Even on a healthy network, an absurdly small run deadline must surface
  // as typed kDeadlineExceeded from the round-boundary checks — the
  // deadline path works without any fault plan attached.
  const core::FlModelKind kModels[] = {
      core::FlModelKind::kHomoLr, core::FlModelKind::kHomoNn,
      core::FlModelKind::kHeteroLr, core::FlModelKind::kHeteroSbt,
      core::FlModelKind::kHeteroNn};
  for (const auto model : kModels) {
    auto cfg = SmallConfig(model);
    cfg.run_deadline_sec = 1e-9;
    const auto report = core::Platform::Run(cfg);
    ASSERT_FALSE(report.ok()) << core::ModelName(model);
    EXPECT_TRUE(report.status().IsDeadlineExceeded())
        << core::ModelName(model) << ": " << report.status().ToString();
  }
}

TEST(ResilienceEndToEndTest, CriticalCrashWindowResumesEveryTrainer) {
  // A critical party that crashes mid-run and comes back is waited out:
  // every trainer restores its last epoch checkpoint, re-runs from there,
  // completes all its epochs, and replays bit-identically under one seed.
  const core::FlModelKind kModels[] = {
      core::FlModelKind::kHomoLr, core::FlModelKind::kHomoNn,
      core::FlModelKind::kHeteroLr, core::FlModelKind::kHeteroSbt,
      core::FlModelKind::kHeteroNn};
  for (const auto model : kModels) {
    const auto clean = core::Platform::Run(SmallConfig(model));
    ASSERT_TRUE(clean.ok()) << core::ModelName(model);
    const double t = clean->total_seconds;
    auto run = [&] {
      return core::Platform::Run(CrashWindowConfig(model, t));
    };
    const auto a = run();
    const auto b = run();
    ASSERT_TRUE(a.ok()) << core::ModelName(model) << ": "
                        << a.status().ToString();
    ASSERT_TRUE(b.ok()) << core::ModelName(model) << ": "
                        << b.status().ToString();
    EXPECT_EQ(a->train.epochs.size(), 2u) << core::ModelName(model);
    EXPECT_GE(a->robustness.resumes, 1u) << core::ModelName(model);
    EXPECT_EQ(a->total_seconds, b->total_seconds) << core::ModelName(model);
    EXPECT_EQ(a->train.final_loss, b->train.final_loss)
        << core::ModelName(model);
    EXPECT_EQ(a->comm_bytes, b->comm_bytes) << core::ModelName(model);
    const fl::RobustnessCounters& ra = a->robustness;
    const fl::RobustnessCounters& rb = b->robustness;
    EXPECT_EQ(ra.straggler_dropouts, rb.straggler_dropouts);
    EXPECT_EQ(ra.crash_dropouts, rb.crash_dropouts);
    EXPECT_EQ(ra.transport_dropouts, rb.transport_dropouts);
    EXPECT_EQ(ra.partial_rounds, rb.partial_rounds);
    EXPECT_EQ(ra.skipped_rounds, rb.skipped_rounds);
    EXPECT_EQ(ra.checkpoints, rb.checkpoints);
    EXPECT_EQ(ra.resumes, rb.resumes);
    EXPECT_EQ(ra.quarantines, rb.quarantines);
    EXPECT_EQ(ra.quarantine_skips, rb.quarantine_skips);
    EXPECT_EQ(ra.readmits, rb.readmits);
    EXPECT_EQ(ra.deadline_exceeded, rb.deadline_exceeded);
  }
}

TEST(ResilienceEndToEndTest, CoordinatorEventsNameTheCoordinator) {
  // Checkpoints, resumes and round-level events belong to the party that
  // coordinates the run: the guest of a hetero run, which has no server,
  // and the server of a homo one. The global registry keeps every earlier
  // run's events, so only the ones these runs add count.
  const auto hetero_before = ResilienceEvents("hetero_lr");
  const auto homo_before = ResilienceEvents("homo_lr");
  for (const auto model :
       {core::FlModelKind::kHeteroLr, core::FlModelKind::kHomoLr}) {
    const auto clean = core::Platform::Run(SmallConfig(model));
    ASSERT_TRUE(clean.ok()) << core::ModelName(model);
    const auto run =
        core::Platform::Run(CrashWindowConfig(model, clean->total_seconds));
    ASSERT_TRUE(run.ok()) << core::ModelName(model) << ": "
                          << run.status().ToString();
    ASSERT_GE(run->robustness.resumes, 1u) << core::ModelName(model);
  }
  const auto hetero = NewEvents(hetero_before, ResilienceEvents("hetero_lr"));
  EXPECT_EQ(hetero.count("kind=resume,party=guest,model=hetero_lr"), 1u);
  for (const auto& [labels, count] : hetero) {
    EXPECT_EQ(labels.find("party=server"), std::string::npos) << labels;
  }
  EXPECT_EQ(NewEvents(homo_before, ResilienceEvents("homo_lr"))
                .count("kind=resume,party=server,model=homo_lr"),
            1u);
}

TEST(ResilienceEndToEndTest, HostCrashDegradesHeteroLrGracefully) {
  // A non-critical host dying permanently mid-run is aggregated around:
  // the guest folds the surviving hosts' shares and renormalizes, the run
  // completes, and the degradation is visible in the counters.
  auto cfg = SmallConfig(core::FlModelKind::kHeteroLr);
  cfg.fault_plan = "seed=11;crash=host1@0";
  cfg.reliable.deadline_sec = 0.05;
  cfg.reliable.max_attempts = 2;
  cfg.run_deadline_sec = 120.0;
  const auto report = core::Platform::Run(cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->train.epochs.size(), 2u);
  EXPECT_GT(report->robustness.partial_rounds, 0u);
}

TEST(ResilienceEndToEndTest, HostCrashDegradesSbtGracefully) {
  // SBT excludes a dead host from the tree: its features yield no split
  // candidates, the remaining shards still grow a usable tree.
  auto cfg = SmallConfig(core::FlModelKind::kHeteroSbt);
  cfg.fault_plan = "seed=11;crash=host1@0";
  cfg.reliable.deadline_sec = 0.05;
  cfg.reliable.max_attempts = 2;
  cfg.run_deadline_sec = 120.0;
  const auto report = core::Platform::Run(cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->train.epochs.size(), 2u);
  EXPECT_GT(report->robustness.partial_rounds, 0u);
}

TEST(ResilienceEndToEndTest, StragglerQuarantineEngagesAndReadmits) {
  // A persistent straggler past the upload deadline fails every exchange;
  // with the health policy on, it is quarantined, skipped, readmitted on
  // probation, and re-quarantined when it keeps straggling.
  auto cfg = SmallConfig(core::FlModelKind::kHomoLr);
  cfg.num_parties = 4;
  cfg.train.max_epochs = 4;
  cfg.train.straggler_deadline_factor = 2.0;
  // Window sized against the ~4ms simulated round spacing of this config
  // so the run sees skips (inside the window) AND a readmission (past it).
  cfg.train.health_quarantine_sec = 0.02;
  cfg.train.health_quarantine_backoff = 1.0;
  cfg.train.health_failure_threshold = 0.4;
  cfg.train.health_ewma_alpha = 0.5;
  cfg.fault_plan = "seed=5;straggler=party1:8";
  const auto report = core::Platform::Run(cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->robustness.quarantines, 1u);
  EXPECT_GE(report->robustness.quarantine_skips, 1u);
  EXPECT_GE(report->robustness.readmits, 1u);
  EXPECT_EQ(report->train.epochs.size(), 4u);
}

TEST(ResilienceEndToEndTest, SameSeedChaosRunsAreBitIdentical) {
  // One stormy hetero run, executed twice: weights, timeline, and every
  // resilience counter must match bit-for-bit.
  auto run = [] {
    auto cfg = SmallConfig(core::FlModelKind::kHeteroLr);
    cfg.fault_plan = "seed=7;drop=0.15;crash=host1@0.5-2.0";
    cfg.reliable.deadline_sec = 0.05;
    cfg.reliable.max_attempts = 3;
    cfg.run_deadline_sec = 240.0;
    return core::Platform::Run(cfg);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->total_seconds, b->total_seconds);  // exact, not approximate
  EXPECT_EQ(a->train.final_loss, b->train.final_loss);
  EXPECT_EQ(a->train.final_accuracy, b->train.final_accuracy);
  EXPECT_EQ(a->comm_bytes, b->comm_bytes);
  EXPECT_EQ(a->robustness.transport_dropouts, b->robustness.transport_dropouts);
  EXPECT_EQ(a->robustness.partial_rounds, b->robustness.partial_rounds);
  EXPECT_EQ(a->robustness.quarantines, b->robustness.quarantines);
  EXPECT_EQ(a->robustness.deadline_exceeded, b->robustness.deadline_exceeded);
  EXPECT_EQ(a->breaker_stats.trips, b->breaker_stats.trips);
  EXPECT_EQ(a->breaker_stats.fast_fails, b->breaker_stats.fast_fails);
  EXPECT_EQ(a->channel_stats.retransmits, b->channel_stats.retransmits);
}

TEST(ResilienceEndToEndTest, CleanPathIsUntouchedByResilienceWiring) {
  // A healthy run with a (generous) run deadline configured must produce
  // byte-identical results to one without: every deadline check is a
  // no-op-or-compare, the breaker never engages, health never observes a
  // failure.
  auto run = [](double run_deadline_sec) {
    auto cfg = SmallConfig(core::FlModelKind::kHomoLr);
    cfg.run_deadline_sec = run_deadline_sec;
    return core::Platform::Run(cfg).value();
  };
  const auto without = run(0);
  const auto with = run(1e9);
  EXPECT_EQ(without.total_seconds, with.total_seconds);
  EXPECT_EQ(without.train.final_loss, with.train.final_loss);
  EXPECT_EQ(without.comm_bytes, with.comm_bytes);
  EXPECT_EQ(with.breaker_stats.trips, 0u);
  EXPECT_EQ(with.breaker_stats.fast_fails, 0u);
  EXPECT_EQ(with.robustness.quarantines, 0u);
  EXPECT_EQ(with.robustness.deadline_exceeded, 0u);
}

}  // namespace
}  // namespace flb

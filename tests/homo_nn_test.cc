// Tests for the FedAvg Homo NN trainer (extension model).

#include <gtest/gtest.h>

#include <memory>

#include "src/core/he_service.h"
#include "src/core/platform.h"
#include "src/fl/homo_nn.h"
#include "src/fl/partition.h"

namespace flb::fl {
namespace {

struct Rig {
  SimClock clock;
  std::shared_ptr<gpusim::Device> device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  net::Network network{net::LinkSpec::GigabitEthernet(), &clock};
  std::unique_ptr<core::HeService> he;

  Rig(int parties, bool modeled) {
    core::HeServiceOptions opts;
    opts.engine = core::EngineKind::kFlBooster;
    opts.key_bits = 256;
    opts.r_bits = 14;
    opts.participants = parties;
    opts.modeled = modeled;
    he = core::HeService::Create(opts, &clock, device).value();
  }

  FlSession session() { return FlSession{he.get(), &network, &clock}; }
};

TEST(HomoNnTest, FedAvgReducesLossWithRealHe) {
  Rig rig(3, /*modeled=*/false);
  auto ds = GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 150, 12, 12, 4})
                .value();
  auto shards = HorizontalSplit(ds, 3).value();
  TrainConfig cfg;
  cfg.max_epochs = 10;
  cfg.batch_size = 50;
  cfg.learning_rate = 1.0;
  cfg.tolerance = 0;
  HomoNnParams params;
  params.hidden_dim = 6;
  HomoNnTrainer trainer(shards, rig.session(), cfg, params);
  auto result = trainer.Train().value();
  // Monotone-ish improvement: each epoch's loss below the first.
  EXPECT_LT(result.final_loss, result.epochs.front().loss);
  EXPECT_LT(result.final_loss, 0.693);  // better than the random-init plateau
  EXPECT_GT(result.final_accuracy, 0.5);
  EXPECT_GT(result.epochs[0].he_seconds, 0.0);
  EXPECT_GT(result.epochs[0].comm_bytes, 0u);
}

TEST(HomoNnTest, ParameterVectorLayout) {
  Rig rig(2, true);
  auto ds = GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 40, 10, 10, 4})
                .value();
  auto shards = HorizontalSplit(ds, 2).value();
  HomoNnParams params;
  params.hidden_dim = 4;
  HomoNnTrainer trainer(shards, rig.session(), TrainConfig{}, params);
  // W1 (4x10) + b1 (4) + w2 (4) + b2 (1).
  EXPECT_EQ(trainer.parameters().size(), 4u * 10 + 4 + 4 + 1);
  auto probs = trainer.Predict(ds);
  EXPECT_EQ(probs.size(), ds.rows());
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(HomoNnTest, ModeledMatchesRealTrajectory) {
  auto ds = GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 80, 8, 8, 4})
                .value();
  auto shards = HorizontalSplit(ds, 2).value();
  TrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.batch_size = 40;
  cfg.tolerance = 0;
  HomoNnParams params;
  params.hidden_dim = 4;

  Rig real(2, false), modeled(2, true);
  HomoNnTrainer rt(shards, real.session(), cfg, params);
  HomoNnTrainer mt(shards, modeled.session(), cfg, params);
  auto rres = rt.Train().value();
  auto mres = mt.Train().value();
  ASSERT_EQ(rres.epochs.size(), mres.epochs.size());
  for (size_t e = 0; e < rres.epochs.size(); ++e) {
    EXPECT_NEAR(rres.epochs[e].loss, mres.epochs[e].loss, 1e-9);
  }
}

TEST(HomoNnTest, MultipleLocalStepsStillSynchronize) {
  Rig rig(2, true);
  auto ds = GenerateDataset(DatasetSpec{DatasetKind::kSynthetic, 80, 8, 8, 4})
                .value();
  auto shards = HorizontalSplit(ds, 2).value();
  TrainConfig cfg;
  cfg.max_epochs = 3;
  cfg.batch_size = 40;
  cfg.learning_rate = 0.5;
  cfg.tolerance = 0;
  HomoNnParams params;
  params.hidden_dim = 4;
  params.local_steps = 3;  // FedAvg with E > 1
  HomoNnTrainer trainer(shards, rig.session(), cfg, params);
  auto result = trainer.Train().value();
  EXPECT_LT(result.final_loss, result.epochs.front().loss + 1e-12);
}

TEST(HomoNnTest, PlatformIntegration) {
  core::PlatformConfig cfg;
  cfg.engine = core::EngineKind::kFlBooster;
  cfg.model = core::FlModelKind::kHomoNn;
  cfg.dataset = DatasetSpec{DatasetKind::kSynthetic, 64, 16, 16, 5};
  cfg.num_parties = 2;
  cfg.key_bits = 1024;
  cfg.modeled = true;
  cfg.train.max_epochs = 1;
  cfg.train.batch_size = 32;
  cfg.homo_nn.hidden_dim = 4;
  auto report = core::Platform::Run(cfg).value();
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GT(report.he_ops.encrypts, 0u);
  EXPECT_EQ(core::ModelName(core::FlModelKind::kHomoNn), "Homo NN");
}

}  // namespace
}  // namespace flb::fl

// Sample alignment with RSA-blind PSI, then vertical training — the full
// heterogeneous onboarding flow: two organizations discover which customers
// they share (without revealing the rest), align their tables on the
// intersection, and train a Hetero LR model over it.
//
//   $ ./example_psi_alignment

#include <algorithm>
#include <cstdio>
#include <memory>

#include "examples/psi/psi.h"
#include "src/core/he_service.h"
#include "src/fl/hetero_lr.h"
#include "src/fl/partition.h"

int main() {
  using namespace flb;

  // Overlapping but distinct customer universes.
  std::vector<uint64_t> guest_ids, host_ids;
  for (uint64_t i = 0; i < 300; ++i) guest_ids.push_back(2 * i);      // evens
  for (uint64_t i = 0; i < 300; ++i) host_ids.push_back(3 * i);       // triples
  std::printf("Guest has %zu customers, host has %zu\n", guest_ids.size(),
              host_ids.size());

  SimClock clock;
  net::Network network(net::LinkSpec::GigabitEthernet(), &clock);

  // ---- phase 1: private set intersection -----------------------------------
  fl::PsiOptions psi_opts;
  psi_opts.rsa_key_bits = 512;
  fl::PsiStats stats;
  auto shared = fl::RsaPsiIntersect(guest_ids, host_ids, psi_opts, &network,
                                    &clock, &stats)
                    .value();
  std::printf(
      "PSI: %zu shared customers found (%llu blind signatures, %.1f KB on "
      "the wire, %.2f s simulated)\n",
      shared.size(), static_cast<unsigned long long>(stats.blind_signatures),
      stats.comm_bytes / 1024.0, clock.Now());

  // ---- phase 2: align + vertically train on the intersection ----------------
  fl::DatasetSpec spec;
  spec.kind = fl::DatasetKind::kSynthetic;
  spec.rows = shared.size();
  spec.cols = 16;
  spec.nnz_per_row = 16;
  fl::Dataset aligned = fl::GenerateDataset(spec).value();
  auto partition = fl::VerticalSplit(aligned, 2).value();

  auto device = std::make_shared<gpusim::Device>(
      gpusim::DeviceSpec::Rtx3090(), &clock);
  core::HeServiceOptions he_opts;
  he_opts.engine = core::EngineKind::kFlBooster;
  he_opts.key_bits = 256;
  he_opts.r_bits = 14;
  he_opts.participants = 2;
  auto he = core::HeService::Create(he_opts, &clock, device).value();

  fl::TrainConfig cfg;
  cfg.max_epochs = 4;
  cfg.batch_size = 50;
  fl::FlSession session{he.get(), &network, &clock};
  fl::HeteroLrTrainer trainer(partition, session, cfg);
  auto result = trainer.Train().value();

  std::printf("\nTraining on the %zu aligned customers:\n", shared.size());
  for (const auto& epoch : result.epochs) {
    std::printf("  epoch %d: loss %.4f, accuracy %.1f%%\n", epoch.epoch,
                epoch.loss, 100.0 * epoch.accuracy);
  }
  std::printf(
      "\nNeither side learned the other's non-shared customers; training "
      "touched only the intersection.\n");
  return 0;
}

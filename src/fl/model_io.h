// Epoch-boundary training checkpoints: what RobustCoordinator keeps in
// memory to resume a run after a critical party crashes.

#ifndef FLB_FL_MODEL_IO_H_
#define FLB_FL_MODEL_IO_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace flb::fl {

// The epoch just completed plus the model weights at its end, sealed in a
// magic + version + FNV-1a checksum envelope.
struct TrainCheckpoint {
  int epoch = -1;  // -1 = initial weights, before any epoch completed
  std::vector<double> weights;
};
std::vector<uint8_t> SerializeCheckpoint(int epoch,
                                         const std::vector<double>& weights);
Result<TrainCheckpoint> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes);

}  // namespace flb::fl

#endif  // FLB_FL_MODEL_IO_H_

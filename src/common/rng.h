// Deterministic pseudo-random number generation.
//
// All randomness in FLBooster flows through Rng so that datasets, key
// generation in tests, and benchmark workloads are reproducible. The core
// generator is xoshiro256**, which is fast, has a 256-bit state, and passes
// BigCrush. Cryptographic key generation in production would use an OS
// CSPRNG; for this reproduction determinism is more valuable (see DESIGN.md)
// and the Paillier/RSA math is unaffected by the entropy source.

#ifndef FLB_COMMON_RNG_H_
#define FLB_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flb {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform over [0, 2^64).
  uint64_t NextU64();
  // Uniform over [0, 2^32).
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }
  // Uniform over [0, bound) for bound > 0, rejection-sampled (unbiased).
  uint64_t NextBelow(uint64_t bound);
  // Uniform double in [0, 1).
  double NextDouble();
  // Standard normal via Box–Muller.
  double NextGaussian();
  // true with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // `n` uniform 32-bit words (used for multi-precision random integers).
  std::vector<uint32_t> NextWords(size_t n);

  // Independent generator for stream `stream` of a seed, stateless in the
  // parent: ForStream(seed, i) depends only on (seed, i). Parallel batch
  // bodies draw one seed from the caller's Rng and give element i the
  // ForStream(seed, i) generator, making the randomness — and therefore the
  // results — independent of work partitioning and steal order.
  static Rng ForStream(uint64_t seed, uint64_t stream);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace flb

#endif  // FLB_COMMON_RNG_H_

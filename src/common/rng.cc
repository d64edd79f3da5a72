#include "src/common/rng.h"

#include <cmath>

namespace flb {

namespace {

// splitmix64: expands a 64-bit seed into the 256-bit xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

std::vector<uint32_t> Rng::NextWords(size_t n) {
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i + 1 < n; i += 2) {
    const uint64_t r = NextU64();
    out[i] = static_cast<uint32_t>(r);
    out[i + 1] = static_cast<uint32_t>(r >> 32);
  }
  if (n % 2 == 1) out[n - 1] = NextU32();
  return out;
}

Rng Rng::ForStream(uint64_t seed, uint64_t stream) {
  // Mix the pair through one splitmix step so that nearby stream indices
  // land far apart in seed space; the Rng constructor splitmixes again to
  // fill the 256-bit state.
  uint64_t x = seed ^ (stream + 1) * 0xD1342543DE82EF95ULL;
  return Rng(SplitMix64(x));
}

}  // namespace flb

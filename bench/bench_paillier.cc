// Microbenchmarks for the Paillier implementation and its ablations
// (DESIGN.md §3): g = n+1 fast path vs random g, CRT vs plain decryption,
// fixed-width kernels vs the generic limb path, and the raw op costs that
// the cost model (Eq. 10) prices.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bench/gbench_json.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/paillier.h"

namespace {

using flb::Rng;
using flb::common::ThreadPool;
using flb::crypto::PaillierContext;
using flb::crypto::PaillierKeyGen;
using flb::crypto::PaillierOptions;
using flb::mpint::BigInt;

// Key material is expensive; cache one key pair per (bits, options) cell.
const PaillierContext& CachedContext(int bits, bool g_n_plus_1, bool crt) {
  static std::map<std::tuple<int, bool, bool>, PaillierContext> cache;
  auto key = std::make_tuple(bits, g_n_plus_1, crt);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(1000 + bits + 2 * g_n_plus_1 + crt);
    PaillierOptions opts;
    opts.use_g_n_plus_1 = g_n_plus_1;
    opts.use_crt_decryption = crt;
    auto keys = PaillierKeyGen(bits, rng, opts).value();
    it = cache.emplace(key, PaillierContext::Create(keys, opts).value()).first;
  }
  return it->second;
}

void BM_Encrypt(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool fast_g = state.range(1) != 0;
  const auto& ctx = CachedContext(bits, fast_g, true);
  Rng rng(7);
  BigInt m = BigInt::RandomBelow(rng, ctx.pub().n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Encrypt(m, rng).value());
  }
  state.SetLabel(fast_g ? "g=n+1" : "random g");
}
BENCHMARK(BM_Encrypt)
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Args({2048, 1})
    ->Args({2048, 0});

void BM_Decrypt(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool crt = state.range(1) != 0;
  const auto& ctx = CachedContext(bits, true, crt);
  Rng rng(8);
  BigInt c = ctx.Encrypt(BigInt(123456789), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Decrypt(c).value());
  }
  state.SetLabel(crt ? "CRT" : "plain");
}
BENCHMARK(BM_Decrypt)
    ->Args({1024, 1})
    ->Args({1024, 0})
    ->Args({2048, 1})
    ->Args({2048, 0});

void BM_HomomorphicAdd(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto& ctx = CachedContext(bits, true, true);
  Rng rng(9);
  BigInt c1 = ctx.Encrypt(BigInt(1), rng).value();
  BigInt c2 = ctx.Encrypt(BigInt(2), rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Add(c1, c2).value());
  }
}
BENCHMARK(BM_HomomorphicAdd)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_ScalarMulSmallVsNegative(benchmark::State& state) {
  // The ciphertext-inverse path keeps negative fixed-point scalars as cheap
  // as positive ones (without it the exponent would be |n| bits).
  const auto& ctx = CachedContext(1024, true, true);
  Rng rng(10);
  BigInt c = ctx.Encrypt(BigInt(777), rng).value();
  const bool negative = state.range(0) != 0;
  const BigInt k = negative
                       ? BigInt::Sub(ctx.pub().n, BigInt(1 << 20))  // -2^20
                       : BigInt(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ScalarMul(c, k).value());
  }
  state.SetLabel(negative ? "negative scalar" : "positive scalar");
}
BENCHMARK(BM_ScalarMulSmallVsNegative)->Arg(0)->Arg(1);

// Shared pools per thread count so the batch benchmarks don't pay thread
// spawn/teardown inside the timed region.
ThreadPool& CachedPool(int threads) {
  static std::map<int, std::unique_ptr<ThreadPool>> pools;
  auto it = pools.find(threads);
  if (it == pools.end()) {
    it = pools.emplace(threads, std::make_unique<ThreadPool>(threads)).first;
  }
  return *it->second;
}

const PaillierContext& CachedBatchContext(int bits, bool secure,
                                          bool fixed_width = true) {
  static std::map<std::tuple<int, bool, bool>, PaillierContext> cache;
  auto key = std::make_tuple(bits, secure, fixed_width);
  auto it = cache.find(key);
  if (it == cache.end()) {
    // The seed ignores fixed_width, so the fixed and generic contexts hold
    // the same key material — the timing difference is the kernel alone.
    Rng rng(2000 + bits + secure);
    PaillierOptions opts;
    opts.secure_obfuscation = secure;
    opts.use_fixed_width_kernels = fixed_width;
    auto keys = PaillierKeyGen(bits, rng, opts).value();
    it = cache.emplace(key, PaillierContext::Create(keys, opts).value()).first;
  }
  return it->second;
}

// Host execution engine: EncryptBatch wall-clock over {key bits, obfuscation
// path, pool threads}. secure=0 is the seeded obfuscation pool (precompute
// cache); secure=1 a fresh powm per element. Outputs are bit-identical at
// any thread count, so only time/iter differs across the threads axis.
void BM_EncryptBatch(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const bool secure = state.range(1) != 0;
  const int threads = static_cast<int>(state.range(2));
  const auto& ctx = CachedBatchContext(bits, secure);
  auto& pool = CachedPool(threads);
  constexpr size_t kBatch = 64;
  std::vector<BigInt> ms;
  for (size_t i = 0; i < kBatch; ++i) ms.push_back(BigInt(i * 13 + 1));
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.EncryptBatch(ms, rng, &pool).value());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel((secure ? "secure powm" : "obf. pool") + std::string(", ") +
                 std::to_string(threads) + " thread(s)");
}
BENCHMARK(BM_EncryptBatch)
    ->Args({1024, 1, 1})
    ->Args({1024, 0, 1})
    ->Args({1024, 0, 4})
    ->Args({2048, 0, 1})
    ->Args({2048, 0, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DecryptBatch(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const auto& ctx = CachedBatchContext(bits, false);
  auto& pool = CachedPool(threads);
  constexpr size_t kBatch = 64;
  std::vector<BigInt> ms;
  for (size_t i = 0; i < kBatch; ++i) ms.push_back(BigInt(i * 7 + 3));
  Rng rng(22);
  const auto cs = ctx.EncryptBatch(ms, rng, &pool).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.DecryptBatch(cs, &pool).value());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(std::to_string(threads) + " thread(s)");
}
BENCHMARK(BM_DecryptBatch)
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Unit(benchmark::kMillisecond);

// Generic-path twins of the batch benchmarks: same keys, same workload,
// fixed-width kernels disabled. scripts/check_bench_regression.sh asserts a
// minimum fixed/generic speedup ratio from these pairs — a machine-
// independent gate alongside the absolute baseline comparison.
void BM_EncryptBatchGeneric(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto& ctx = CachedBatchContext(bits, false, /*fixed_width=*/false);
  auto& pool = CachedPool(1);
  constexpr size_t kBatch = 64;
  std::vector<BigInt> ms;
  for (size_t i = 0; i < kBatch; ++i) ms.push_back(BigInt(i * 13 + 1));
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.EncryptBatch(ms, rng, &pool).value());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("generic limb path, 1 thread(s)");
}
BENCHMARK(BM_EncryptBatchGeneric)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_DecryptBatchGeneric(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto& ctx = CachedBatchContext(bits, false, /*fixed_width=*/false);
  auto& pool = CachedPool(1);
  constexpr size_t kBatch = 64;
  std::vector<BigInt> ms;
  for (size_t i = 0; i < kBatch; ++i) ms.push_back(BigInt(i * 7 + 3));
  Rng rng(22);
  const auto cs = ctx.EncryptBatch(ms, rng, &pool).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.DecryptBatch(cs, &pool).value());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("generic limb path, 1 thread(s)");
}
BENCHMARK(BM_DecryptBatchGeneric)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Fold groups at two shapes on a 1024-bit key, arg {shape}: 0 is nn_real's
// interactive layer (128 groups of 8 consecutive products), 1 an SBT-like
// histogram (256 rows, each in one of 32 bins per feature for 16 features:
// 512 groups of about 8 terms over 256 ciphertexts).
struct FoldShape {
  std::vector<BigInt> cs;
  std::vector<std::vector<uint32_t>> groups;
  size_t terms = 0;
};

const FoldShape& CachedFoldShape(int shape) {
  static std::map<int, FoldShape> cache;
  auto it = cache.find(shape);
  if (it != cache.end()) return it->second;
  Rng rng(23 + shape);
  FoldShape f;
  uint32_t rows = 0;
  if (shape == 0) {
    rows = 128 * 8;
    for (uint32_t i = 0; i < rows; ++i) {
      if (i % 8 == 0) f.groups.emplace_back();
      f.groups.back().push_back(i);
    }
  } else {
    constexpr uint32_t kFeatures = 16, kBins = 32;
    rows = 256;
    f.groups.resize(kFeatures * kBins);
    for (uint32_t r = 0; r < rows; ++r) {
      for (uint32_t c = 0; c < kFeatures; ++c) {
        f.groups[c * kBins + rng.NextBelow(kBins)].push_back(r);
      }
    }
  }
  std::vector<BigInt> ms;
  for (uint32_t i = 0; i < rows; ++i) ms.push_back(BigInt(i * 11 + 5));
  f.cs = CachedBatchContext(1024, false)
             .EncryptBatch(ms, rng, &CachedPool(1))
             .value();
  for (const auto& group : f.groups) f.terms += group.size();
  return cache.emplace(shape, std::move(f)).first->second;
}

const char* FoldLabel(int shape) {
  return shape == 0 ? "nn_real 128 x 8, 1 thread(s)"
                    : "SBT-like 512 bins, 1 thread(s)";
}

// PaillierContext::FoldBatch: one Montgomery chain per group, k MontMuls
// for k terms.
void BM_FoldBatch(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const FoldShape& f = CachedFoldShape(shape);
  const auto& ctx = CachedBatchContext(1024, false);
  auto& pool = CachedPool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.FoldBatch(f.cs, f.groups, &pool).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.terms));
  state.SetLabel(FoldLabel(shape));
}
BENCHMARK(BM_FoldBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The same groups folded one PaillierContext::Add at a time, in order: a
// ModMul of 4 MontMuls per add.
void BM_FoldPerAdd(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const FoldShape& f = CachedFoldShape(shape);
  const auto& ctx = CachedBatchContext(1024, false);
  for (auto _ : state) {
    std::vector<BigInt> sums(f.groups.size());
    for (size_t g = 0; g < f.groups.size(); ++g) {
      const std::vector<uint32_t>& group = f.groups[g];
      if (group.empty()) continue;
      sums[g] = f.cs[group[0]];
      for (size_t t = 1; t < group.size(); ++t) {
        sums[g] = ctx.Add(sums[g], f.cs[group[t]]).value();
      }
    }
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.terms));
  state.SetLabel(FoldLabel(shape));
}
BENCHMARK(BM_FoldPerAdd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KeyGen(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  uint64_t seed = 42;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(PaillierKeyGen(bits, rng).value());
  }
}
BENCHMARK(BM_KeyGen)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

FLB_GBENCH_MAIN();

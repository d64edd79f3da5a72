// Microbenchmarks for the modular-arithmetic substrate (paper Algorithms
// 1 & 2 and the §IV-A3 design choices):
//   * basic Montgomery (Alg. 1) vs word-scanning CIOS vs the thread-
//     decomposed parallel CIOS (Alg. 2) at each key size;
//   * sliding-window width sweep for modular exponentiation;
//   * a same-exponent 8-row batch on the AVX-512 IFMA lane kernel vs per
//     row on the same scalar kernel, alone and cut into pool tasks;
//   * the same pair for the hetero NN path's per-row batches at their
//     real shapes: ScalarMulBatch's exponentiations (an exponent per row)
//     and PackBatch's Horner groups.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/montgomery.h"
#include "src/ghe/parallel_montgomery.h"
#include "src/mpint/fixed_kernels.h"
#include "src/mpint/limb_matrix.h"

namespace {

using flb::Rng;
using flb::crypto::MontgomeryContext;
using flb::mpint::BigInt;

BigInt OddModulus(int bits, Rng& rng) {
  BigInt n = BigInt::Random(rng, bits);
  auto w = n.ToFixedWords(bits / 32);
  w[0] |= 1u;
  w.back() |= 0x80000000u;
  return BigInt::FromWords(std::move(w));
}

void BM_MontMulBasic(benchmark::State& state) {
  Rng rng(1);
  const int bits = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng)).value();
  BigInt a = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt b = BigInt::RandomBelow(rng, ctx.modulus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MontMulBasic(a, b));
  }
}
BENCHMARK(BM_MontMulBasic)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_MontMulCios(benchmark::State& state) {
  Rng rng(1);
  const int bits = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng)).value();
  BigInt a = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt b = BigInt::RandomBelow(rng, ctx.modulus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MontMul(a, b));
  }
}
BENCHMARK(BM_MontMulCios)->Arg(1024)->Arg(2048)->Arg(4096);

// The same CIOS workload with the fixed-width kernel dispatch disabled —
// the generic heap-backed radix-2^32 loop. Paired with BM_MontMulCios by
// scripts/check_bench_regression.sh for the machine-independent speedup
// ratio gate.
void BM_MontMulCiosGeneric(benchmark::State& state) {
  Rng rng(1);
  const int bits = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng),
                                       /*use_fixed_kernels=*/false).value();
  BigInt a = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt b = BigInt::RandomBelow(rng, ctx.modulus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.MontMul(a, b));
  }
}
BENCHMARK(BM_MontMulCiosGeneric)->Arg(1024)->Arg(2048)->Arg(4096);

// Host-side execution of the Algorithm 2 decomposition. Thread count is the
// second argument; on real hardware the threads run concurrently — here the
// interest is the limb-op and communication accounting.
void BM_MontMulParallelCios(benchmark::State& state) {
  Rng rng(1);
  const int bits = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng)).value();
  const size_t s = ctx.num_limbs();
  const auto aw = BigInt::RandomBelow(rng, ctx.modulus()).ToFixedWords(s);
  const auto bw = BigInt::RandomBelow(rng, ctx.modulus()).ToFixedWords(s);
  std::vector<uint32_t> out(s);
  uint64_t comms = 0;
  for (auto _ : state) {
    auto stats = flb::ghe::ParallelMontMul(aw.data(), bw.data(),
                                           ctx.modulus().words().data(),
                                           ctx.n0_inv(), s, threads,
                                           out.data())
                     .value();
    comms += stats.inter_thread_comms;
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["inter_thread_comms"] =
      benchmark::Counter(static_cast<double>(comms),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MontMulParallelCios)
    ->Args({1024, 1})
    ->Args({1024, 8})
    ->Args({1024, 32})
    ->Args({2048, 16})
    ->Args({4096, 32});

void BM_ModPowWindowSweep(benchmark::State& state) {
  Rng rng(2);
  const int window = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(1024, rng)).value();
  BigInt base = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt exp = BigInt::Random(rng, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModPow(base, exp, window));
  }
  ctx.ResetCounters();
  ctx.ModPow(base, exp, window);
  state.counters["mont_muls"] =
      static_cast<double>(ctx.mont_mul_count());
}
BENCHMARK(BM_ModPowWindowSweep)->DenseRange(1, 7);

void BM_ModPowAuto(benchmark::State& state) {
  Rng rng(3);
  const int bits = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng)).value();
  BigInt base = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt exp = BigInt::Random(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModPow(base, exp));
  }
}
BENCHMARK(BM_ModPowAuto)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_ModPowAutoGeneric(benchmark::State& state) {
  Rng rng(3);
  const int bits = static_cast<int>(state.range(0));
  auto ctx = MontgomeryContext::Create(OddModulus(bits, rng),
                                       /*use_fixed_kernels=*/false).value();
  BigInt base = BigInt::RandomBelow(rng, ctx.modulus());
  BigInt exp = BigInt::Random(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.ModPow(base, exp));
  }
}
BENCHMARK(BM_ModPowAutoGeneric)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

// A same-exponent batch of `rows` random rows mod a `bits`-bit modulus,
// raised to a half-width exponent (the CRT decryption leg's shape at 1024
// bits, r^n mod n^2's at 2048), on a context with the lane kernel or
// without it (per-row ModPow on the same scalar kernel).
struct SameExponentBatch {
  MontgomeryContext ctx;
  flb::mpint::LimbMatrix bases;
  BigInt exp;
};

SameExponentBatch MakeBatch(int bits, size_t rows, bool lanes) {
  Rng rng(4);
  const BigInt mod = OddModulus(bits, rng);
  const size_t limbs = mod.WordCount();
  auto ctx = MontgomeryContext::CreateWithKernel(
                 mod, flb::mpint::fixed::FindKernel(limbs),
                 lanes ? flb::mpint::fixed::FindLaneKernel(limbs) : nullptr)
                 .value();
  flb::mpint::LimbMatrix bases(rows, limbs);
  for (size_t i = 0; i < rows; ++i) {
    bases.SetRow(i, BigInt::RandomBelow(rng, mod));
  }
  BigInt exp = BigInt::Random(rng, bits / 2);
  return {std::move(ctx), std::move(bases), std::move(exp)};
}

// One lane group through ModPowRows. Without IFMA both sides run per row;
// the "lanes" counter says which. The CI perf job records this pair but
// gates nothing on it: hosted runners may lack IFMA.
void ModPowBatchBench(benchmark::State& state, bool lanes) {
  const SameExponentBatch b = MakeBatch(static_cast<int>(state.range(0)),
                                        MontgomeryContext::kLanes, lanes);
  for (auto _ : state) {
    flb::mpint::LimbMatrix x = b.bases;
    b.ctx.ModPowRows(x.row(0), x.rows(), b.exp);
    benchmark::DoNotOptimize(x.row(0));
  }
  state.counters["lanes"] = b.ctx.lane_kernel_width() != 0 ? 1 : 0;
}

void BM_ModPowBatchLanes(benchmark::State& state) {
  ModPowBatchBench(state, true);
}
BENCHMARK(BM_ModPowBatchLanes)->Arg(1024)->Arg(2048);

void BM_ModPowBatchPerRow(benchmark::State& state) {
  ModPowBatchBench(state, false);
}
BENCHMARK(BM_ModPowBatchPerRow)->Arg(1024)->Arg(2048);

// ScalarMulBatch's exponentiations at nn_real's shape: 8 rows mod a
// 2048-bit modulus (n^2 of a 1024-bit key), each raised to its own 15-24-bit
// fixed-point scalar, one lane group or 8 per-row ModPows. Recorded
// ungated by the CI perf job, like the ModPowBatch pair.
void ScalarMulBatchBench(benchmark::State& state, bool lanes) {
  const SameExponentBatch b = MakeBatch(2048, MontgomeryContext::kLanes, lanes);
  Rng rng(5);
  std::vector<BigInt> exps;
  for (size_t i = 0; i < MontgomeryContext::kLanes; ++i) {
    const int bits = 15 + static_cast<int>(i * 9 / 7);
    exps.push_back(BigInt::Add(BigInt::Random(rng, bits - 1),
                               BigInt::PowerOfTwo(bits - 1)));
  }
  for (auto _ : state) {
    flb::mpint::LimbMatrix x = b.bases;
    b.ctx.ModPowRows(x.row(0), x.rows(), exps.data());
    benchmark::DoNotOptimize(x.row(0));
    benchmark::ClobberMemory();
  }
  state.counters["lanes"] = b.ctx.lane_kernel_width() != 0 ? 1 : 0;
}

void BM_ScalarMulBatchLanes(benchmark::State& state) {
  ScalarMulBatchBench(state, true);
}
BENCHMARK(BM_ScalarMulBatchLanes);

void BM_ScalarMulBatchPerRow(benchmark::State& state) {
  ScalarMulBatchBench(state, false);
}
BENCHMARK(BM_ScalarMulBatchPerRow);

// PackBatch's Horner groups at nn_real's compression shape: 8 groups of 16
// slots of 62 bits mod a 2048-bit modulus (n^2 of a 1024-bit key), one
// lane group or 8 per-row groups. Recorded ungated, like the pair above.
void PackBatchBench(benchmark::State& state, bool lanes) {
  constexpr size_t kSlots = 16;
  constexpr int kSlotBits = 62;
  const SameExponentBatch b =
      MakeBatch(2048, MontgomeryContext::kLanes * kSlots, lanes);
  Rng rng(6);
  const BigInt factor = BigInt::RandomBelow(rng, b.ctx.modulus());
  flb::mpint::LimbMatrix out(MontgomeryContext::kLanes, b.bases.width());
  for (auto _ : state) {
    b.ctx.HornerRows(b.bases.row(0), b.bases.rows(), kSlots, kSlotBits,
                     factor, out.row(0));
    benchmark::DoNotOptimize(out.row(0));
    benchmark::ClobberMemory();
  }
  state.counters["lanes"] = b.ctx.lane_kernel_width() != 0 ? 1 : 0;
}

void BM_PackBatchLanes(benchmark::State& state) { PackBatchBench(state, true); }
BENCHMARK(BM_PackBatchLanes);

void BM_PackBatchPerRow(benchmark::State& state) {
  PackBatchBench(state, false);
}
BENCHMARK(BM_PackBatchPerRow);

// The batch grouping at pool scale, args {bits, rows, threads, lanes}:
// ForEachLaneTask cuts the rows into one task per full 8-row lane group
// (lanes=1) or one task per row (lanes=0) on a pool of `threads`. Wall
// time, so a thread count above the host's core count measures
// time-sharing, not parallel speed-up.
void BM_ModPowBatchPool(benchmark::State& state) {
  const SameExponentBatch b =
      MakeBatch(static_cast<int>(state.range(0)),
                static_cast<size_t>(state.range(1)), state.range(3) != 0);
  flb::common::ThreadPool pool(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    flb::mpint::LimbMatrix x = b.bases;
    const flb::Status st = b.ctx.ForEachLaneTask(
        pool, x.rows(), [&](size_t first, size_t count) {
          b.ctx.ModPowRows(x.row(first), count, b.exp);
          return flb::Status::OK();
        });
    benchmark::DoNotOptimize(st.ok());
  }
  state.counters["lanes"] = b.ctx.lane_kernel_width() != 0 ? 1 : 0;
}
BENCHMARK(BM_ModPowBatchPool)
    ->ArgsProduct({{1024, 2048}, {8, 16, 32}, {1, 2, 4}, {0, 1}})
    ->UseRealTime();

}  // namespace

FLB_GBENCH_MAIN();

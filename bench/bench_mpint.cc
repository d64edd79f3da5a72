// Microbenchmarks for the multi-precision integer substrate: the basic
// vector ops behind Table I and the Karatsuba-threshold design choice
// called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.h"
#include "src/common/rng.h"
#include "src/mpint/bigint.h"

namespace {

using flb::Rng;
using flb::mpint::BigInt;

void BM_Add(benchmark::State& state) {
  Rng rng(1);
  BigInt a = BigInt::Random(rng, state.range(0));
  BigInt b = BigInt::Random(rng, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(BigInt::Add(a, b));
}
BENCHMARK(BM_Add)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Mul(benchmark::State& state) {
  Rng rng(2);
  BigInt a = BigInt::Random(rng, state.range(0));
  BigInt b = BigInt::Random(rng, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(BigInt::Mul(a, b));
}
// Crosses the Karatsuba threshold (40 limbs = 1280 bits): the growth rate
// visibly drops past it.
BENCHMARK(BM_Mul)->Arg(512)->Arg(1024)->Arg(1280)->Arg(2048)->Arg(4096)
    ->Arg(8192)->Arg(16384);

void BM_DivMod(benchmark::State& state) {
  Rng rng(3);
  BigInt a = BigInt::Random(rng, 2 * state.range(0));
  BigInt b = BigInt::Random(rng, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(BigInt::DivMod(a, b).value());
}
BENCHMARK(BM_DivMod)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_ModInverse(benchmark::State& state) {
  Rng rng(4);
  BigInt n = BigInt::Random(rng, state.range(0));
  if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
  BigInt a = BigInt::RandomBelow(rng, n);
  while (!BigInt::Gcd(a, n).IsOne()) a = BigInt::RandomBelow(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModInverse(a, n).value());
  }
}
BENCHMARK(BM_ModInverse)->Arg(512)->Arg(1024)->Arg(2048);

// The coprimality check of an obfuscator draw: a random value below an odd
// modulus of the same width.
void BM_Gcd(benchmark::State& state) {
  Rng rng(6);
  BigInt n = BigInt::Random(rng, state.range(0));
  if (n.IsEven()) n = BigInt::Add(n, BigInt(1));
  const BigInt a = BigInt::RandomBelow(rng, n);
  for (auto _ : state) benchmark::DoNotOptimize(BigInt::Gcd(a, n));
}
BENCHMARK(BM_Gcd)->Arg(512)->Arg(1024)->Arg(2048);

void BM_HexRoundTrip(benchmark::State& state) {
  Rng rng(5);
  BigInt a = BigInt::Random(rng, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::FromHex(a.ToHex()).value());
  }
}
BENCHMARK(BM_HexRoundTrip)->Arg(1024)->Arg(4096);

}  // namespace

FLB_GBENCH_MAIN();

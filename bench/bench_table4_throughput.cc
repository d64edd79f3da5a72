// Table IV: throughput in HE operations (instances per second) — how many
// gradient values per second flow through encryption/aggregation/decryption
// under each engine.
//
// Shape targets: FATE in the hundreds, HAFLO orders of magnitude above it,
// FLBooster above HAFLO (packing multiplies value throughput); throughput
// falls roughly with the cube of the key size.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/crypto/paillier.h"

namespace {

// Host execution engine: wall-clock cost of the real Paillier batch
// helpers. Two levers, measured separately:
//   - precompute caches: the seeded obfuscation pool (one MontMul per r^n
//     after the bases are built) vs secure_obfuscation (a fresh |n|-bit
//     powm per element) — compared at ONE thread so the ratio isolates the
//     cache, not parallelism;
//   - the work-stealing pool: the same batch at 1 thread vs all threads.
// Outputs are bit-identical across both thread counts (checked here).
void PrintHostWallclockSection() {
  using flb::Rng;
  using flb::WallTimer;
  using flb::common::ThreadPool;
  using flb::mpint::BigInt;

  flb::bench::BeginSection("host_wallclock");
  const int key = flb::bench::SmokeMode() ? 256 : 1024;
  const size_t batch = flb::bench::SmokeMode() ? 64 : 256;
  const int reps = flb::bench::SmokeMode() ? 1 : 3;

  Rng kg(77);
  auto keys = flb::crypto::PaillierKeyGen(key, kg).value();
  flb::crypto::PaillierOptions secure_opts;
  secure_opts.secure_obfuscation = true;
  auto secure_ctx =
      flb::crypto::PaillierContext::Create(keys, secure_opts).value();
  auto pool_ctx = flb::crypto::PaillierContext::Create(keys).value();

  std::vector<BigInt> ms;
  ms.reserve(batch);
  for (size_t i = 0; i < batch; ++i) ms.push_back(BigInt(i * 31 + 1));

  ThreadPool one(1);
  ThreadPool& many = ThreadPool::Global();

  auto time_encrypt = [&](const flb::crypto::PaillierContext& ctx,
                          ThreadPool* pool,
                          std::vector<BigInt>* out) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Rng rng(11);  // same seed every run: outputs must be identical
      WallTimer t;
      *out = ctx.EncryptBatch(ms, rng, pool).value();
      const double s = t.ElapsedSeconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e3;
  };
  auto time_decrypt = [&](const std::vector<BigInt>& cs, ThreadPool* pool,
                          std::vector<BigInt>* out) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer t;
      *out = pool_ctx.DecryptBatch(cs, pool).value();
      const double s = t.ElapsedSeconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e3;
  };

  std::vector<BigInt> enc_secure, enc_pool_1t, enc_pool_nt;
  const double secure_1t = time_encrypt(secure_ctx, &one, &enc_secure);
  const double pool_1t = time_encrypt(pool_ctx, &one, &enc_pool_1t);
  const double pool_nt = time_encrypt(pool_ctx, &many, &enc_pool_nt);
  std::vector<BigInt> dec_1t, dec_nt;
  const double dec_ms_1t = time_decrypt(enc_pool_1t, &one, &dec_1t);
  const double dec_ms_nt = time_decrypt(enc_pool_1t, &many, &dec_nt);

  bool identical = enc_pool_1t == enc_pool_nt && dec_1t == dec_nt;
  for (size_t i = 0; identical && i < batch; ++i) {
    identical = pool_ctx.Decrypt(enc_pool_1t[i]).value() == ms[i] &&
                pool_ctx.Decrypt(enc_secure[i]).value() == ms[i];
  }

  const int threads = many.num_threads();
  std::printf("Real Paillier batch wall-clock, key=%d batch=%zu\n", key,
              batch);
  std::printf("%-34s %10s\n", "path", "wall ms");
  std::printf("%-34s %10.2f\n", "encrypt secure powm, 1 thread", secure_1t);
  std::printf("%-34s %10.2f\n", "encrypt obf. pool,   1 thread", pool_1t);
  std::printf("%-34s %10.2f  (threads=%d)\n", "encrypt obf. pool,   N threads",
              pool_nt, threads);
  std::printf("%-34s %10.2f\n", "decrypt CRT,         1 thread", dec_ms_1t);
  std::printf("%-34s %10.2f  (threads=%d)\n", "decrypt CRT,         N threads",
              dec_ms_nt, threads);
  std::printf("precompute-cache speedup (1 thread): %.2fx\n",
              secure_1t / pool_1t);
  std::printf("thread speedup (encrypt): %.2fx  (decrypt): %.2fx\n",
              pool_1t / pool_nt, dec_ms_1t / dec_ms_nt);
  std::printf("Outputs identical across thread counts: %s\n",
              identical ? "yes" : "NO — MISMATCH");

  const std::string suffix = "key=" + std::to_string(key);
  auto& json = flb::bench::BenchJson::Global();
  json.Record("encrypt_secure_wall_ms,threads=1," + suffix, secure_1t, "ms");
  json.Record("encrypt_pool_wall_ms,threads=1," + suffix, pool_1t, "ms");
  json.Record("encrypt_pool_wall_ms,threads=" + std::to_string(threads) +
                  "," + suffix,
              pool_nt, "ms");
  json.Record("decrypt_wall_ms,threads=1," + suffix, dec_ms_1t, "ms");
  json.Record("decrypt_wall_ms,threads=" + std::to_string(threads) + "," +
                  suffix,
              dec_ms_nt, "ms");
  json.Record("precompute_cache_speedup," + suffix, secure_1t / pool_1t, "x");
  json.Record("encrypt_thread_speedup," + suffix, pool_1t / pool_nt, "x");
  json.Record("decrypt_thread_speedup," + suffix, dec_ms_1t / dec_ms_nt, "x");
  json.Record("outputs_identical," + suffix, identical ? 1 : 0, "bool");
}

}  // namespace

int main() {
  using namespace flb::bench;
  BeginSection("Table IV — HE-op throughput (values per second)");
  std::printf("%-12s %-10s %5s %12s %12s %12s\n", "Model", "Dataset", "key",
              "FATE", "HAFLO", "FLBooster");
  for (auto model : kAllModels) {
    for (auto dataset : kAllDatasets) {
      for (int key : kKeySizes) {
        double tp[3];
        const EngineKind engines[] = {EngineKind::kFate, EngineKind::kHaflo,
                                      EngineKind::kFlBooster};
        const char* engine_names[] = {"fate", "haflo", "flbooster"};
        for (int e = 0; e < 3; ++e) {
          tp[e] = MustRun(WorkloadFor(model, dataset, engines[e], key))
                      .he_throughput;
          BenchJson::Global().Record(
              "he_throughput,engine=" + std::string(engine_names[e]) +
                  ",model=" + flb::core::ModelName(model) +
                  ",dataset=" + flb::fl::DatasetName(dataset) +
                  ",key=" + std::to_string(key),
              tp[e], "values/s");
        }
        std::printf("%-12s %-10s %5d %12.0f %12.0f %12.0f\n",
                    flb::core::ModelName(model).c_str(),
                    flb::fl::DatasetName(dataset).c_str(), key, tp[0], tp[1],
                    tp[2]);
      }
    }
  }
  std::printf(
      "\nShape: FLBooster > HAFLO >> FATE; throughput decays steeply with "
      "key size (paper Table IV).\n");
  PrintHostWallclockSection();
  return 0;
}

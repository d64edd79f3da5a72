// Host execution engine tests: the work-stealing ThreadPool, the Paillier
// obfuscation pool / precompute caches, and the determinism contract —
// results, statuses, op counts, and simulated time must be bit-identical
// for ANY thread count (DESIGN.md "Host execution engine").

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/he_service.h"
#include "src/core/platform.h"
#include "src/crypto/paillier.h"
#include "src/crypto/paillier_eval.h"
#include "src/gpusim/device.h"

namespace flb {
namespace {

using common::ParallelForEachStatus;
using common::ThreadPool;
using crypto::PaillierContext;
using crypto::PaillierKeyGen;
using crypto::PaillierKeyPair;
using crypto::PaillierOptions;
using mpint::BigInt;

// ---- ThreadPool basics ------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelForEach(3, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.ParallelFor(64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      seen[static_cast<size_t>(i)] = std::this_thread::get_id();
    }
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, StatsCountCallsAndTasks) {
  ThreadPool pool(4);
  const auto before = pool.stats();
  pool.ParallelFor(1024, [](int64_t, int64_t) {});
  const auto after = pool.stats();
  EXPECT_EQ(after.parallel_fors, before.parallel_fors + 1);
  EXPECT_GT(after.tasks, before.tasks);
}

TEST(ThreadPoolTest, ThreadsFromEnvParsing) {
  EXPECT_EQ(ThreadPool::ThreadsFromEnv("4", 2), 4);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv("1", 2), 1);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv("0", 2), 2);    // non-positive
  EXPECT_EQ(ThreadPool::ThreadsFromEnv("-3", 2), 2);   // non-positive
  EXPECT_EQ(ThreadPool::ThreadsFromEnv("abc", 2), 2);  // non-numeric
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(nullptr, 2), 2);
}

TEST(ThreadPoolTest, ParallelForEachStatusReportsSmallestErrorIndex) {
  // Two failing indices: the smaller one must win at every thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    return ParallelForEachStatus(pool, 1000, [](size_t i) {
      if (i == 17 || i == 800) {
        return Status::InvalidArgument("element " + std::to_string(i));
      }
      return Status::OK();
    });
  };
  const Status s1 = run(1);
  EXPECT_FALSE(s1.ok());
  for (int threads : {2, 8}) {
    const Status sn = run(threads);
    EXPECT_EQ(sn.ToString(), s1.ToString()) << "threads=" << threads;
  }
  ThreadPool pool(4);
  EXPECT_TRUE(ParallelForEachStatus(pool, 0, [](size_t) {
                return Status::InvalidArgument("never called");
              }).ok());
}

// ---- Obfuscation pool + precompute caches -----------------------------------

class ObfuscationPoolTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& Keys() {
    static const PaillierKeyPair keys = [] {
      Rng rng(42);
      return PaillierKeyGen(256, rng).value();
    }();
    return keys;
  }
};

TEST_F(ObfuscationPoolTest, RoundTripsAcrossManyRefreshes) {
  PaillierOptions opts;
  opts.obfuscation_pool_size = 4;
  auto ctx = PaillierContext::Create(Keys(), opts).value();
  Rng rng(7);  // untouched by the pool path; passed for interface parity
  // 50 encryptions over a 4-slot pool: every slot is refreshed ~12 times.
  for (uint64_t i = 0; i < 50; ++i) {
    const BigInt m(i * 97 + 5);
    const BigInt c = ctx.Encrypt(m, rng).value();
    EXPECT_EQ(ctx.Decrypt(c).value(), m) << "draw " << i;
  }
  EXPECT_EQ(ctx.obfuscation_pool().draws(), 50u);
  EXPECT_EQ(ctx.obfuscation_pool().refreshes(), 50u);
}

TEST_F(ObfuscationPoolTest, DrawOrderIsDeterministicPerKey) {
  // Two contexts over the same key produce the same ciphertext stream, and
  // the caller's rng is never consumed on the pool path.
  auto ctx1 = PaillierContext::Create(Keys()).value();
  auto ctx2 = PaillierContext::Create(Keys()).value();
  Rng r1(1), r2(999);  // different seeds: must not matter
  for (uint64_t i = 0; i < 20; ++i) {
    const BigInt m(i + 1);
    EXPECT_EQ(ctx1.Encrypt(m, r1).value(), ctx2.Encrypt(m, r2).value());
  }
  EXPECT_EQ(r1.NextU64(), Rng(1).NextU64());  // rng untouched
}

TEST_F(ObfuscationPoolTest, SecureObfuscationMatchesSeedPathReference) {
  PaillierOptions opts;
  opts.secure_obfuscation = true;
  auto ctx = PaillierContext::Create(Keys(), opts).value();
  ASSERT_TRUE(ctx.secure_obfuscation());
  const BigInt& n = ctx.pub().n;
  const BigInt n2 = ctx.pub().n_squared;
  const BigInt m(123456789);
  Rng rng(31), ref_rng(31);
  const BigInt c = ctx.Encrypt(m, rng).value();
  // Reference: g = n+1 fast path, fresh r^n powm, same rng stream.
  const BigInt r = crypto::DrawUnit(n, ref_rng);
  const BigInt gm = BigInt::Add(BigInt(1), BigInt::Mul(m, n)) % n2;
  const BigInt rn = ctx.n2_ctx().ModPow(r, n);
  EXPECT_EQ(c, ctx.n2_ctx().ModMul(gm, rn));
  EXPECT_EQ(ctx.Decrypt(c).value(), m);
}

TEST_F(ObfuscationPoolTest, PoolAndSecurePathsDecryptIdentically) {
  PaillierOptions secure;
  secure.secure_obfuscation = true;
  auto pool_ctx = PaillierContext::Create(Keys()).value();
  auto secure_ctx = PaillierContext::Create(Keys(), secure).value();
  Rng rng(5);
  std::vector<BigInt> ms;
  for (uint64_t i = 0; i < 16; ++i) ms.push_back(BigInt(i * 1009));
  auto pool_cs = pool_ctx.EncryptBatch(ms, rng).value();
  auto secure_cs = secure_ctx.EncryptBatch(ms, rng).value();
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(pool_ctx.Decrypt(pool_cs[i]).value(), ms[i]);
    EXPECT_EQ(secure_ctx.Decrypt(secure_cs[i]).value(), ms[i]);
  }
}

// ---- Batch helpers: thread-count invariance ---------------------------------

class BatchInvarianceTest : public ::testing::Test {
 protected:
  static const PaillierKeyPair& Keys() {
    static const PaillierKeyPair keys = [] {
      Rng rng(77);
      return PaillierKeyGen(256, rng).value();
    }();
    return keys;
  }

  // 1024-bit keys put the CRT legs (32 limbs) and n^2 (64 limbs) on lane
  // widths.
  static const PaillierKeyPair& LaneKeys() {
    static const PaillierKeyPair keys = [] {
      Rng rng(41);
      return PaillierKeyGen(1024, rng).value();
    }();
    return keys;
  }

  static std::vector<BigInt> Messages(size_t count) {
    std::vector<BigInt> ms;
    for (size_t i = 0; i < count; ++i) ms.push_back(BigInt(i * 31 + 1));
    return ms;
  }
};

TEST_F(BatchInvarianceTest, AllBatchHelpersAreBitIdenticalAcrossThreadCounts) {
  const auto ms = Messages(37);  // odd count: uneven chunking
  // Mixed signs: every other scalar encodes a negative, n - k, so
  // ScalarMulBatch runs its batch-inversion path next to the direct one.
  auto ks = Messages(37);
  for (size_t i = 1; i < ks.size(); i += 2) {
    ks[i] = BigInt::Sub(Keys().pub.n, ks[i]);
  }

  struct Run {
    std::vector<BigInt> enc, dec, add, add_plain, scalar_mul;
    uint64_t encrypts, decrypts, adds, scalar_muls;
  };
  auto run_all = [&](int threads) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(Keys()).value();
    Rng rng(13);
    Run r;
    r.enc = ctx.EncryptBatch(ms, rng, &pool).value();
    r.dec = ctx.DecryptBatch(r.enc, &pool).value();
    r.add = ctx.AddBatch(r.enc, r.enc, &pool).value();
    r.add_plain = ctx.AddPlainBatch(r.enc, ks, &pool).value();
    r.scalar_mul = ctx.ScalarMulBatch(r.enc, ks, &pool).value();
    const auto& oc = ctx.op_counts();
    r.encrypts = oc.encrypts.load();
    r.decrypts = oc.decrypts.load();
    r.adds = oc.adds.load();
    r.scalar_muls = oc.scalar_muls.load();
    return r;
  };

  const Run base = run_all(1);
  EXPECT_EQ(base.dec, ms);
  EXPECT_EQ(base.encrypts, ms.size());
  EXPECT_EQ(base.decrypts, ms.size());
  auto ctx = PaillierContext::Create(Keys()).value();
  for (size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(base.scalar_mul[i], ctx.ScalarMul(base.enc[i], ks[i]).value())
        << "element " << i;
  }
  for (int threads : {2, 8}) {
    const Run r = run_all(threads);
    EXPECT_EQ(r.enc, base.enc) << "threads=" << threads;
    EXPECT_EQ(r.dec, base.dec) << "threads=" << threads;
    EXPECT_EQ(r.add, base.add) << "threads=" << threads;
    EXPECT_EQ(r.add_plain, base.add_plain) << "threads=" << threads;
    EXPECT_EQ(r.scalar_mul, base.scalar_mul) << "threads=" << threads;
    EXPECT_EQ(r.encrypts, base.encrypts) << "threads=" << threads;
    EXPECT_EQ(r.decrypts, base.decrypts) << "threads=" << threads;
    EXPECT_EQ(r.adds, base.adds) << "threads=" << threads;
    EXPECT_EQ(r.scalar_muls, base.scalar_muls) << "threads=" << threads;
  }
}

TEST_F(BatchInvarianceTest, ScalarMulBatchWithNonUnitsMatchesSingleOps) {
  // 0 and n are < n^2 but share a factor with it, so the batch product is
  // not a unit and every element takes the per-element path, row 5 (a
  // real ciphertext with a negative scalar) included. 0 comes twice, so its
  // copies share one row of the batch inversion, and that row still sends
  // the whole batch down the per-element path.
  const BigInt& n = Keys().pub.n;
  auto ctx = PaillierContext::Create(Keys()).value();
  Rng rng(19);
  std::vector<BigInt> cs = ctx.EncryptBatch(Messages(8), rng).value();
  cs[1] = BigInt();  // odd indices carry negative scalars
  cs[3] = n;
  cs[7] = BigInt();
  std::vector<BigInt> ks;
  for (size_t i = 0; i < cs.size(); ++i) {
    const BigInt k(i * 5 + 3);
    ks.push_back(i % 2 == 0 ? k : BigInt::Sub(n, k));
  }
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const auto out = ctx.ScalarMulBatch(cs, ks, &pool).value();
    ASSERT_EQ(out.size(), cs.size());
    for (size_t i = 0; i < cs.size(); ++i) {
      EXPECT_EQ(out[i], ctx.ScalarMul(cs[i], ks[i]).value())
          << "threads=" << threads << " element " << i;
    }
  }
}

// ScalarMulBatch inverts each distinct negative-scalar ciphertext once: 8
// ciphertexts, each used 5 times with a negative scalar and once with a
// positive one, in shuffled order. The outputs equal per-element ScalarMul
// at 1, 2 and 8 threads, and the n^2 MontMuls beyond the per-element
// exponentiations (the batch inversion) equal those of a batch of the 8
// distinct ciphertexts alone.
TEST_F(BatchInvarianceTest, ScalarMulBatchInvertsEachDistinctCiphertextOnce) {
  const BigInt& n = Keys().pub.n;
  Rng rng(23);
  const std::vector<BigInt> distinct =
      PaillierContext::Create(Keys()).value().EncryptBatch(Messages(8), rng)
          .value();
  std::vector<BigInt> cs, ks;
  for (size_t u = 0; u < distinct.size(); ++u) {
    for (size_t use = 0; use < 6; ++use) {
      const BigInt k(u * 37 + use * 5 + 3);
      cs.push_back(distinct[u]);
      ks.push_back(use == 0 ? k : BigInt::Sub(n, k));
    }
  }
  for (size_t i = cs.size() - 1; i > 0; --i) {
    const size_t j = rng.NextBelow(i + 1);
    std::swap(cs[i], cs[j]);
    std::swap(ks[i], ks[j]);
  }
  std::vector<BigInt> distinct_ks;
  for (size_t u = 0; u < distinct.size(); ++u) {
    distinct_ks.push_back(BigInt::Sub(n, BigInt(u * 11 + 2)));
  }

  // The batch's n^2 MontMuls minus those of its elements run one by one.
  const auto inversion_muls = [](const PaillierContext& ctx,
                                 const std::vector<BigInt>& c,
                                 const std::vector<BigInt>& k,
                                 ThreadPool& pool) {
    const auto& n2 = ctx.eval().n2_ctx();
    const uint64_t start = n2.mont_mul_count();
    EXPECT_TRUE(ctx.ScalarMulBatch(c, k, &pool).ok());
    const uint64_t batch_done = n2.mont_mul_count();
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_TRUE(ctx.ScalarMul(c[i], k[i]).ok());
    }
    return (batch_done - start) - (n2.mont_mul_count() - batch_done);
  };

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(Keys()).value();
    const auto out = ctx.ScalarMulBatch(cs, ks, &pool).value();
    ASSERT_EQ(out.size(), cs.size());
    for (size_t i = 0; i < cs.size(); ++i) {
      EXPECT_EQ(out[i], ctx.ScalarMul(cs[i], ks[i]).value())
          << "threads=" << threads << " element " << i;
    }
    EXPECT_EQ(inversion_muls(ctx, cs, ks, pool),
              inversion_muls(ctx, distinct, distinct_ks, pool))
        << "threads=" << threads;
  }
}

TEST_F(BatchInvarianceTest, PackBatchValidatesBeforeAnyWork) {
  auto ctx = PaillierContext::Create(Keys()).value();
  Rng rng(5);
  auto cs = ctx.EncryptBatch(Messages(4), rng).value();
  cs[2] = Keys().pub.n_squared;
  EXPECT_TRUE(ctx.PackBatch(cs, BigInt(8), 16, 3).status().IsOutOfRange());
  EXPECT_TRUE(ctx.PackBatch({}, Keys().pub.n, 16, 3).status().IsOutOfRange());
  EXPECT_TRUE(ctx.PackBatch({}, BigInt(8), 16, 0).status().IsInvalidArgument());
  // slots * slot_bits >= key_bits would wrap the packed value mod n.
  cs[2] = cs[0];
  const int key_bits = Keys().pub.key_bits;
  const uint64_t muls = ctx.eval().n2_ctx().mont_mul_count();
  EXPECT_TRUE(ctx.PackBatch(cs, BigInt(8), 16, key_bits / 16)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ctx.PackBatch(cs, BigInt(8), key_bits, 1).status().IsInvalidArgument());
  EXPECT_EQ(ctx.op_counts().adds.load(), 0u);
  EXPECT_EQ(ctx.op_counts().scalar_muls.load(), 0u);
  EXPECT_EQ(ctx.eval().n2_ctx().mont_mul_count(), muls);
  // The widest layout that fits still packs.
  EXPECT_TRUE(ctx.PackBatch(cs, BigInt(8), 15, (key_bits - 1) / 15).ok());
}

TEST_F(BatchInvarianceTest, FoldBatchValidatesBeforeAnyWork) {
  // A ciphertext >= n^2 is rejected wherever a group references it, also
  // alone in a one-term group, which is otherwise copied without a
  // multiply; so is an index past the end. No add is counted and no
  // MontMul runs.
  auto ctx = PaillierContext::Create(Keys()).value();
  Rng rng(6);
  auto cs = ctx.EncryptBatch(Messages(4), rng).value();
  cs[2] = Keys().pub.n_squared;
  const uint64_t muls = ctx.eval().n2_ctx().mont_mul_count();
  EXPECT_TRUE(ctx.FoldBatch(cs, {{0, 1}, {2}}).status().IsOutOfRange());
  EXPECT_TRUE(ctx.FoldBatch(cs, {{0, 1, 3, 2}}).status().IsOutOfRange());
  EXPECT_TRUE(ctx.FoldBatch(cs, {{0, 1}, {4}}).status().IsOutOfRange());
  EXPECT_EQ(ctx.op_counts().adds.load(), 0u);
  EXPECT_EQ(ctx.eval().n2_ctx().mont_mul_count(), muls);
  // An unreferenced ciphertext is not read.
  EXPECT_TRUE(ctx.FoldBatch(cs, {{0, 1}, {3}, {}}).ok());

  // Through HeService, on every real engine: a one-term SelectiveSums group
  // holding a ciphertext >= n^2 (RecvEncVec's fixed-width words reach
  // 2^(2 key_bits)) fails as it does in a longer group.
  for (core::EngineKind engine :
       {core::EngineKind::kFate, core::EngineKind::kHaflo,
        core::EngineKind::kFlBooster}) {
    SimClock clock;
    core::HeServiceOptions opts;
    opts.engine = engine;
    opts.key_bits = 256;
    opts.modeled = false;
    auto device = std::make_shared<gpusim::Device>(
        gpusim::DeviceSpec::Rtx3090(), &clock);
    auto he = core::HeService::Create(opts, &clock, device).value();
    core::EncVec enc = he->EncryptFixedPoint({0.5, -1.0, 2.0}).value();
    const BigInt& n = he->modulus();
    enc.data[1] = BigInt::Mul(n, n);
    const uint64_t adds = he->op_counts().hom_adds;
    EXPECT_TRUE(he->SelectiveSums(enc, {{0, 2}, {1}}).status().IsOutOfRange())
        << core::EngineName(engine);
    EXPECT_TRUE(
        he->SelectiveSums(enc, {{0, 1, 2}}).status().IsOutOfRange())
        << core::EngineName(engine);
    EXPECT_EQ(he->op_counts().hom_adds, adds) << core::EngineName(engine);
  }
}

TEST_F(BatchInvarianceTest, SecureObfuscationBatchIsInvariantToo) {
  PaillierOptions opts;
  opts.secure_obfuscation = true;
  const auto ms = Messages(19);
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(Keys(), opts).value();
    Rng rng(29);
    return ctx.EncryptBatch(ms, rng, &pool).value();
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST_F(BatchInvarianceTest, BatchErrorsAndCountsAreInvariant) {
  // Oversized plaintexts at two indices: the reported error and the op
  // counters (bumped only on whole-batch success) match at any thread count.
  auto ms = Messages(64);
  ms[9] = Keys().pub.n;   // out of range
  ms[50] = Keys().pub.n;  // also out of range; index 9 must win
  auto run = [&](int threads, uint64_t* encrypts) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(Keys()).value();
    Rng rng(3);
    const Status s = ctx.EncryptBatch(ms, rng, &pool).status();
    *encrypts = ctx.op_counts().encrypts.load();
    return s;
  };
  uint64_t enc1 = 0, encn = 0;
  const Status s1 = run(1, &enc1);
  EXPECT_FALSE(s1.ok());
  EXPECT_EQ(enc1, 0u);  // failed batch counts nothing
  for (int threads : {2, 8}) {
    EXPECT_EQ(run(threads, &encn).ToString(), s1.ToString());
    EXPECT_EQ(encn, 0u);
  }
}

// Every per-key context's MontMul count, and the op counters.
std::vector<uint64_t> WorkCounts(const PaillierContext& ctx) {
  const auto& e = ctx.eval();
  std::vector<uint64_t> counts = {e.n2_ctx().mont_mul_count(),
                                  e.n_ctx().mont_mul_count()};
  if (e.has_crt()) {
    counts.push_back(e.p2_ctx().mont_mul_count());
    counts.push_back(e.q2_ctx().mont_mul_count());
  }
  const auto& oc = ctx.op_counts();
  for (const auto* c : {&oc.encrypts, &oc.decrypts, &oc.adds,
                        &oc.scalar_muls}) {
    counts.push_back(c->load());
  }
  return counts;
}

TEST_F(BatchInvarianceTest, EncryptAndDecryptBatchesValidateBeforeAnyWork) {
  // The last element is out of range: the batch fails with OutOfRange
  // before a single exponentiation, at any thread count, counting nothing.
  auto ms = Messages(20);
  ms.back() = Keys().pub.n;
  PaillierOptions plain;
  plain.secure_obfuscation = true;
  plain.use_crt_decryption = false;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const PaillierOptions& opts : {PaillierOptions{}, plain}) {
      auto ctx = PaillierContext::Create(Keys(), opts).value();
      Rng rng(31);
      auto cs = ctx.EncryptBatch(Messages(20), rng, &pool).value();
      cs.back() = Keys().pub.n_squared;
      const std::vector<uint64_t> before = WorkCounts(ctx);
      EXPECT_TRUE(ctx.EncryptBatch(ms, rng, &pool).status().IsOutOfRange())
          << threads << " threads";
      EXPECT_TRUE(ctx.DecryptBatch(cs, &pool).status().IsOutOfRange())
          << threads << " threads";
      EXPECT_EQ(WorkCounts(ctx), before) << threads << " threads";
    }
  }
}

// 33 rows are four full lane groups and a tail row, so on a CPU with the
// lane kernel the batches run four lane tasks and one per-row task at
// every thread count. Ciphertexts, plaintexts, op counts and every
// context's MontMul count match at 1, 2, 4 and 8 threads, and batch
// decryptions match the per-row single-op path. The scalar
// multiplications take mixed-sign fixed-point scalars (15-24-bit
// magnitudes, every other one negative, so one exponent per row after the
// batch inversion); they are repeated with the kernels off, so per row on
// the generic path, and all match per-element ScalarMul.
TEST_F(BatchInvarianceTest, LaneBatchesAreBitIdenticalAcrossThreadCounts) {
  const PaillierKeyPair& keys = LaneKeys();
  std::vector<BigInt> ms, ks;
  Rng data_rng(43);
  for (size_t i = 0; i < 33; ++i) {
    ms.push_back(BigInt::RandomBelow(data_rng, keys.pub.n));
    const int bits = 15 + static_cast<int>(data_rng.NextU64() % 10);
    const BigInt k = BigInt::Add(BigInt::Random(data_rng, bits - 1),
                                 BigInt::PowerOfTwo(bits - 1));
    ks.push_back(i % 2 == 0 ? k : BigInt::Sub(keys.pub.n, k));
  }
  ms[0] = BigInt(0);
  ms[1] = BigInt::Sub(keys.pub.n, BigInt(1));
  PaillierOptions plain;
  plain.secure_obfuscation = true;
  plain.use_crt_decryption = false;
  PaillierOptions off;
  off.use_fixed_width_kernels = false;

  struct Run {
    std::vector<BigInt> enc, dec, secure, plain_dec, single;
    std::vector<uint64_t> counts, plain_counts;
  };
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(keys).value();
    auto plain_ctx = PaillierContext::Create(keys, plain).value();
    Rng rng(47);
    Run r;
    r.enc = ctx.EncryptBatch(ms, rng, &pool).value();
    r.dec = ctx.DecryptBatch(r.enc, &pool).value();
    r.secure = plain_ctx.EncryptBatch(ms, rng, &pool).value();
    r.plain_dec = plain_ctx.DecryptBatch(r.secure, &pool).value();
    // A fresh context's first single-op encryption fills its pool.
    for (size_t i = 0; i < 3; ++i) {
      r.single.push_back(ctx.Encrypt(ms[i], rng).value());
    }
    r.counts = WorkCounts(ctx);
    r.plain_counts = WorkCounts(plain_ctx);
    return r;
  };
  // ScalarMulBatch on a fresh context: its outputs, then its counts.
  const auto scale = [&](int threads, const PaillierOptions& opts,
                         const std::vector<BigInt>& cs) {
    ThreadPool pool(threads);
    auto ctx = PaillierContext::Create(keys, opts).value();
    std::vector<BigInt> out = ctx.ScalarMulBatch(cs, ks, &pool).value();
    return std::pair{out, WorkCounts(ctx)};
  };
  const Run base = run(1);
  EXPECT_EQ(base.dec, ms);
  EXPECT_EQ(base.plain_dec, ms);
  const auto scaled = scale(1, PaillierOptions{}, base.enc);
  auto ctx = PaillierContext::Create(keys).value();
  for (size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(ctx.Decrypt(base.enc[i]).value(), ms[i]) << "element " << i;
    EXPECT_EQ(ctx.ScalarMul(base.enc[i], ks[i]).value(), scaled.first[i])
        << "element " << i;
  }
  for (int threads : {1, 2, 4, 8}) {
    if (threads > 1) {
      const Run r = run(threads);
      EXPECT_EQ(r.enc, base.enc) << "threads=" << threads;
      EXPECT_EQ(r.dec, base.dec) << "threads=" << threads;
      EXPECT_EQ(r.secure, base.secure) << "threads=" << threads;
      EXPECT_EQ(r.plain_dec, base.plain_dec) << "threads=" << threads;
      EXPECT_EQ(r.single, base.single) << "threads=" << threads;
      EXPECT_EQ(r.counts, base.counts) << "threads=" << threads;
      EXPECT_EQ(r.plain_counts, base.plain_counts) << "threads=" << threads;
      EXPECT_EQ(scale(threads, PaillierOptions{}, base.enc), scaled)
          << "threads=" << threads;
    }
    EXPECT_EQ(scale(threads, off, base.enc), scaled)
        << "kernels off, threads=" << threads;
  }
}

// PackBatch at 1024 bits (n^2 on a lane width) with 7, 8, 9, 16 and 17
// groups, each also with a short last group, at 1, 2 and 4 threads: the
// bytes of the direct formula prod_j (c_j * g^offset)^(2^(j*slot_bits))
// mod n^2 (by ModPow and ModMul), whose plaintext is
// sum_j (m_j + offset) * 2^(j*slot_bits), and one set of counts. With the
// kernels off (per row on the generic path) 17 groups give the same bytes
// and counts.
TEST_F(BatchInvarianceTest, PackBatchLanesMatchDirectFormula) {
  const PaillierKeyPair& keys = LaneKeys();
  constexpr size_t kSlots = 4;
  constexpr int kSlotBits = 62;
  const BigInt offset = BigInt::PowerOfTwo(kSlotBits - 1);
  PaillierOptions off;
  off.use_fixed_width_kernels = false;
  const auto ctx = PaillierContext::Create(keys).value();
  const auto ctx_off = PaillierContext::Create(keys, off).value();
  Rng rng(53);
  std::vector<BigInt> ms;
  for (size_t i = 0; i < 17 * kSlots; ++i) ms.push_back(BigInt(i * 977 + 3));
  const std::vector<BigInt> all = ctx.EncryptBatch(ms, rng).value();
  const crypto::MontgomeryContext& n2 = ctx.n2_ctx();
  const BigInt g_offset =
      n2.ModPow(BigInt::Add(keys.pub.n, BigInt(1)), offset);
  // The packed ciphertext and plaintext of rows [first, first + k).
  const auto direct = [&](size_t first, size_t k) {
    BigInt acc(1), sum;
    for (size_t j = 0; j < k; ++j) {
      const BigInt c = n2.ModMul(all[first + j], g_offset);
      const BigInt shift = BigInt::PowerOfTwo(static_cast<int>(j) * kSlotBits);
      acc = n2.ModMul(acc, n2.ModPow(c, shift));
      sum = BigInt::Add(sum,
                        BigInt::ShiftLeft(BigInt::Add(ms[first + j], offset),
                                          static_cast<int>(j) * kSlotBits));
    }
    return std::pair{acc, sum};
  };
  std::vector<std::pair<BigInt, BigInt>> full;
  for (size_t g = 0; g < 17; ++g) full.push_back(direct(g * kSlots, kSlots));
  for (size_t groups : {7, 8, 9, 16, 17}) {
    for (size_t count : {groups * kSlots, groups * kSlots - 3}) {
      const std::vector<BigInt> cs(all.begin(), all.begin() + count);
      std::vector<BigInt> want, plain;
      for (size_t g = 0; g < groups; ++g) {
        const auto [c, m] = g * kSlots + kSlots <= count
                                ? full[g]
                                : direct(g * kSlots, count - g * kSlots);
        want.push_back(c);
        plain.push_back(m);
      }
      EXPECT_EQ(ctx.DecryptBatch(want).value(), plain)
          << count << " ciphertexts";
      std::vector<uint64_t> first_counts;
      for (int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        for (const PaillierContext* c : {&ctx, &ctx_off}) {
          if (c == &ctx_off && (threads > 1 || groups < 17)) continue;
          const auto work = [c] {
            return std::vector<uint64_t>{c->eval().n2_ctx().mont_mul_count(),
                                         c->op_counts().adds.load(),
                                         c->op_counts().scalar_muls.load()};
          };
          std::vector<uint64_t> counts = work();
          const auto packed =
              c->PackBatch(cs, offset, kSlotBits, kSlots, &pool).value();
          EXPECT_EQ(packed, want) << count << " ciphertexts, " << threads
                                  << " threads, lanes "
                                  << c->eval().n2_ctx().lane_kernel_width();
          const std::vector<uint64_t> after = work();
          for (size_t i = 0; i < counts.size(); ++i) {
            counts[i] = after[i] - counts[i];
          }
          if (first_counts.empty()) first_counts = counts;
          EXPECT_EQ(counts, first_counts)
              << count << " ciphertexts, " << threads << " threads";
        }
      }
    }
  }
}

// ---- HeService + Platform: end-to-end invariance ----------------------------

// FATE runs real Paillier on the host; FLBooster runs it as the body of its
// device launch. On both, ciphertexts, decrypted values, a failing op's
// error, simulated seconds and op counts match at 1, 2 and 8 host threads.
class ServiceInvarianceTest : public ::testing::Test {
 protected:
  struct Run {
    std::vector<BigInt> ciphertexts;
    std::vector<double> decrypted;
    std::string error;
    double sim_seconds;
    uint64_t encrypts, values;
  };

  Run RunService(core::EngineKind engine, int host_threads) {
    SimClock clock;
    core::HeServiceOptions opts;
    opts.engine = engine;
    opts.key_bits = 256;
    opts.r_bits = 14;
    opts.participants = 4;
    opts.modeled = false;
    opts.frac_bits = 16;
    opts.host_threads = host_threads;
    std::shared_ptr<gpusim::Device> device;
    if (core::TraitsFor(engine).gpu_he) {
      device = std::make_shared<gpusim::Device>(gpusim::DeviceSpec::Rtx3090(),
                                                &clock);
    }
    auto he = core::HeService::Create(opts, &clock, device).value();
    EXPECT_EQ(he->host_pool().num_threads(), host_threads);

    std::vector<double> values;
    for (int i = 0; i < 33; ++i) values.push_back(0.01 * i - 0.15);
    auto enc = he->EncryptValues(values).value();
    auto sum = he->AddCipher(enc, enc).value();
    Run r;
    r.ciphertexts = sum.data;
    r.decrypted = he->DecryptValues(sum).value();
    // A ciphertext outside Z*_{n^2} fails the whole batch.
    core::EncVec bad = sum;
    bad.data.back() = BigInt::Mul(he->modulus(), he->modulus());
    r.error = he->DecryptValues(bad).status().ToString();
    r.sim_seconds = clock.Now();
    r.encrypts = he->op_counts().encrypts;
    r.values = he->op_counts().values_encrypted;
    return r;
  }

  void ExpectInvariant(core::EngineKind engine) {
    const Run base = RunService(engine, 1);
    EXPECT_GT(base.sim_seconds, 0.0);
    EXPECT_NE(base.error.find("OutOfRange"), std::string::npos) << base.error;
    for (int threads : {2, 8}) {
      const Run r = RunService(engine, threads);
      EXPECT_EQ(r.ciphertexts, base.ciphertexts) << "threads=" << threads;
      EXPECT_EQ(r.decrypted, base.decrypted) << "threads=" << threads;
      EXPECT_EQ(r.error, base.error) << "threads=" << threads;
      EXPECT_EQ(r.sim_seconds, base.sim_seconds) << "threads=" << threads;
      EXPECT_EQ(r.encrypts, base.encrypts) << "threads=" << threads;
      EXPECT_EQ(r.values, base.values) << "threads=" << threads;
    }
  }
};

TEST_F(ServiceInvarianceTest, RealCpuPathInvariantAcrossHostThreads) {
  ExpectInvariant(core::EngineKind::kFate);
}

TEST_F(ServiceInvarianceTest, RealGpuPathInvariantAcrossHostThreads) {
  ExpectInvariant(core::EngineKind::kFlBooster);
}

TEST(PlatformInvarianceTest, RealTrainingRunInvariantAcrossHostThreads) {
  auto run = [](int host_threads) {
    core::PlatformConfig cfg;
    cfg.engine = core::EngineKind::kFlBooster;
    cfg.model = core::FlModelKind::kHomoLr;
    cfg.key_bits = 256;
    cfg.modeled = false;  // real crypto end to end
    cfg.num_parties = 2;
    cfg.host_threads = host_threads;
    cfg.train.max_epochs = 1;
    cfg.train.batch_size = 32;
    cfg.dataset = fl::DefaultScaleSpec(fl::DatasetKind::kSynthetic);
    cfg.dataset.rows = 64;
    cfg.dataset.cols = 8;
    cfg.dataset.nnz_per_row = 8;
    return core::Platform::Run(cfg).value();
  };
  const auto base = run(1);
  ASSERT_FALSE(base.train.epochs.empty());
  for (int threads : {2, 8}) {
    const auto r = run(threads);
    ASSERT_EQ(r.train.epochs.size(), base.train.epochs.size());
    for (size_t e = 0; e < base.train.epochs.size(); ++e) {
      EXPECT_EQ(r.train.epochs[e].loss, base.train.epochs[e].loss);
      EXPECT_EQ(r.train.epochs[e].accuracy, base.train.epochs[e].accuracy);
    }
    EXPECT_EQ(r.total_seconds, base.total_seconds) << "threads=" << threads;
    EXPECT_EQ(r.comm_bytes, base.comm_bytes) << "threads=" << threads;
    EXPECT_EQ(r.comm_messages, base.comm_messages) << "threads=" << threads;
    EXPECT_EQ(r.he_ops.encrypts, base.he_ops.encrypts);
    EXPECT_EQ(r.he_ops.decrypts, base.he_ops.decrypts);
  }
}

}  // namespace
}  // namespace flb

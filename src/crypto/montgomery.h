// Montgomery modular arithmetic.
//
// Implements the paper's Algorithm 1 (basic Montgomery multiplication) and
// the CIOS (Coarsely Integrated Operand Scanning) word-level form that
// Algorithm 2 parallelizes on the GPU. A MontgomeryContext is bound to one
// odd modulus n and precomputes:
//   * s       — the limb width of n (all operands are fixed to s limbs),
//   * n0'     — -n^{-1} mod 2^32 (the per-word Montgomery factor),
//   * R^2 mod n — for converting into the Montgomery domain,
//   * a fixed-width kernel (src/mpint/fixed_kernels.h) when s is one of
//     the instantiated Paillier widths — the stack-allocated, compile-time-
//     width MontMul/MontSqr (BMI2/ADX asm where the CPU has both) that
//     makes MontMul/ModPow run without heap traffic. Odd widths (and
//     FLB_FIXED_KERNELS=0) keep the generic radix-2^32 path, which doubles
//     as the bit-exactness oracle.
//
// ModPow uses sliding-window exponentiation (paper §IV-A3: complexity drops
// from e to log_{2^b} e multiplications for window width b). With a fixed
// kernel the whole exponentiation loop runs on flat limb buffers; only the
// final result is boxed back into a BigInt. One exponent walker drives the
// generic, fixed-width and lane loops, so all three issue the same MontMul
// sequence.
//
// Batches (ForEachLaneTask with ModPowRows or HornerRows) run eight rows
// in lock-step on the AVX-512 IFMA lane kernel when this CPU has one for
// the modulus width — the CPU form of the batch parallelism HAFLO and
// FLBooster's Algorithm 2 exploit on GPUs — and per row otherwise: one
// exponent for all rows (sliding window), an exponent per row (fixed
// window up to the group's longest), and Horner packing of groups of rows.
//
// Algorithm 2's parallel form (ghe::ParallelMontMul) distributes this CIOS
// recurrence's limbs across device threads; tests assert bit-exact agreement.
// The GHE batch bodies call this context, not the parallel form.

#ifndef FLB_CRYPTO_MONTGOMERY_H_
#define FLB_CRYPTO_MONTGOMERY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/result.h"
#include "src/mpint/bigint.h"
#include "src/mpint/fixed_kernels.h"

namespace flb::common {
class ThreadPool;
}  // namespace flb::common

namespace flb::crypto {

using mpint::BigInt;

class MontgomeryContext {
 public:
  // The modulus must be odd and >= 3 (Montgomery's method requires
  // gcd(n, R) = 1 with R a power of two). `use_fixed_kernels` selects the
  // fixed-width kernel when the modulus width has one (pass false to force
  // the generic path, e.g. for differential benchmarks); FLB_FIXED_KERNELS=0
  // force-disables process-wide. Results are bit-identical either way.
  static Result<MontgomeryContext> Create(const BigInt& modulus,
                                          bool use_fixed_kernels = true);
  // Create with explicit kernels: `kernel` must be a table entry for the
  // modulus's limb width (mpint::fixed::FindKernel), or nullptr for the
  // generic path; `lanes` a lane entry of that width
  // (mpint::fixed::FindLaneKernel) or nullptr, and it needs a `kernel`.
  // Create passes the entries the CPU dispatches to; tests pass each
  // table's entry, or none, to check them against the generic oracle.
  static Result<MontgomeryContext> CreateWithKernel(
      const BigInt& modulus, const mpint::fixed::KernelOps* kernel,
      const mpint::fixed::LaneOps* lanes = nullptr);

  // Copies carry over the counter value; the context itself is immutable
  // after Create, so copies are safe to share across host threads.
  MontgomeryContext(const MontgomeryContext& other) { *this = other; }
  MontgomeryContext(MontgomeryContext&& other) noexcept { *this = other; }
  MontgomeryContext& operator=(const MontgomeryContext& other) {
    if (this != &other) {
      n_ = other.n_;
      s_ = other.s_;
      n0_inv_ = other.n0_inv_;
      n0_inv64_ = other.n0_inv64_;
      kernel_ = other.kernel_;
      lanes_ = other.lanes_;
      lane_k0_ = other.lane_k0_;
      lane_words_ = other.lane_words_;
      r_mod_n_ = other.r_mod_n_;
      r2_mod_n_ = other.r2_mod_n_;
      r_words_ = other.r_words_;
      r2_words_ = other.r2_words_;
      one_words_ = other.one_words_;
      mont_mul_count_.store(other.mont_mul_count_.load(),
                            std::memory_order_relaxed);
    }
    return *this;
  }
  MontgomeryContext& operator=(MontgomeryContext&& other) noexcept {
    return *this = other;
  }

  const BigInt& modulus() const { return n_; }
  // Limb width s: every Montgomery-domain value is exactly s limbs.
  size_t num_limbs() const { return s_; }
  // -n^{-1} mod 2^32.
  uint32_t n0_inv() const { return n0_inv_; }
  // The fixed-width kernel width backing this context, or 0 when MontMul
  // and ModPow run on the generic radix-2^32 path.
  size_t fixed_kernel_width() const {
    return kernel_ != nullptr ? kernel_->limbs : 0;
  }
  // The lane kernel width backing ModPowRows, or 0 when batches run per row.
  size_t lane_kernel_width() const {
    return lanes_ != nullptr ? lanes_->limbs : 0;
  }

  // Montgomery-domain conversions. Inputs must be < n.
  BigInt ToMont(const BigInt& a) const;
  BigInt FromMont(const BigInt& a) const;
  // Montgomery form of 1 (R mod n) — the neutral element for MontMul chains
  // such as fixed-base exponentiation tables.
  const BigInt& MontOne() const { return r_mod_n_; }

  // Computes a*b*R^{-1} mod n for Montgomery-domain a, b (each < n).
  BigInt MontMul(const BigInt& a, const BigInt& b) const;

  // Fixed-width limb-vector form of MontMul. a, b are s-limb little-endian
  // arrays; the result is written to out (s limbs; out may alias a or b).
  // Dispatches to the fixed-width kernel when one is bound, else to the
  // generic CIOS. Exposed so src/ghe and the batch paths can drive it
  // directly on flat (structure-of-arrays) rows.
  void MontMulWords(const uint32_t* a, const uint32_t* b, uint32_t* out) const;
  // Montgomery squaring on flat limbs: out = a*a*R^{-1} mod n.
  void MontSqrWords(const uint32_t* a, uint32_t* out) const;
  // (a * b) mod n entirely on flat s-limb rows (ToMont/MontMul/FromMont
  // without BigInt boxing). out may alias a or b.
  void ModMulWords(const uint32_t* a, const uint32_t* b, uint32_t* out) const;

  // The generic radix-2^32 CIOS loop — the exact recurrence the GPU kernel
  // parallelizes and the bit-exactness oracle the fixed-width kernels are
  // fuzzed against. Does not bump the MontMul counter.
  void MontMulWordsGeneric(const uint32_t* a, const uint32_t* b,
                           uint32_t* out) const;

  // Algorithm 1 from the paper: the "basic" (non-word-scanning) Montgomery
  // product A*B*R^{-1} mod n computed with full-width BigInt ops. Kept as a
  // differential-testing oracle and for bench_montgomery.
  BigInt MontMulBasic(const BigInt& a, const BigInt& b) const;

  // (a * b) mod n for ordinary-domain values.
  BigInt ModMul(const BigInt& a, const BigInt& b) const;

  // a^e mod n by sliding-window exponentiation over MontMul.
  // `window_bits` in [1, 8]; 0 selects a width based on e's size.
  BigInt ModPow(const BigInt& base, const BigInt& exp,
                int window_bits = 0) const;

  // ---- Lane batches ---------------------------------------------------------
  // Rows a lane group runs in lock-step.
  static constexpr size_t kLanes = mpint::fixed::kLanes;

  // Replaces each of the `count` consecutive num_limbs()-limb rows at `rows`
  // (each < n) by row^exp mod n. Full groups of kLanes rows run in lock-step
  // on the lane kernel when one is bound; the remaining rows, or every row
  // without a lane kernel, run ModPow one by one. Either way the rows come
  // out byte-identical to ModPow's and mont_mul_count() advances by the
  // per-row total.
  void ModPowRows(uint32_t* rows, size_t count, const BigInt& exp) const;
  // The same with row i raised to its own exponent exps[i]. A full lane
  // group runs a fixed-window schedule up to its longest exponent, each
  // lane multiplying by the table entry its own digit selects; bytes and
  // mont_mul_count() again match per-row ModPow's.
  void ModPowRows(uint32_t* rows, size_t count, const BigInt* exps) const;

  // Horner packing of the `count` rows at `terms` (each < n), cut into
  // groups of `slots` consecutive rows, the last possibly shorter: out row
  // g becomes prod_j (t_j * factor)^(2^(j * shift_bits)) mod n over group
  // g's rows t_0, t_1, ..., with factor < n. Eight consecutive full groups
  // run as one lane group; the rest run per row on MontMulWords, the
  // oracle. mont_mul_count() advances by the per-row schedule,
  // 2 + (k - 1) * (shift_bits + 2) for a group of k rows; bringing `factor`
  // into the Montgomery domain is not counted.
  void HornerRows(const uint32_t* terms, size_t count, size_t slots,
                  int shift_bits, const BigInt& factor, uint32_t* out) const;

  // Runs fn(first, count) on `pool` over a batch of `rows` rows: one task
  // per full lane group (rows [8t, 8t + 8)) when a lane kernel is bound,
  // then one task per remaining row, so each task hands its rows to
  // ModPowRows or HornerRows in one call. Returns the error of the first
  // failing task in row order, as common::ParallelForEachStatus does.
  Status ForEachLaneTask(
      common::ThreadPool& pool, size_t rows,
      const std::function<Status(size_t first, size_t count)>& fn) const;

  // Number of MontMul invocations since construction (mutable counter used
  // by the cost model and the GPU simulator's instruction accounting).
  // Relaxed atomic: one context is shared by all host pool workers, and the
  // sum of per-thread increments is order-independent. The fixed-width
  // ModPow accumulates locally and adds once per call; totals match the
  // generic path MontMul-for-MontMul.
  uint64_t mont_mul_count() const {
    return mont_mul_count_.load(std::memory_order_relaxed);
  }
  void ResetCounters() const {
    mont_mul_count_.store(0, std::memory_order_relaxed);
  }

 private:
  MontgomeryContext() = default;

  // Sliding-window ModPow on flat limb buffers via the fixed kernel;
  // bit-identical to (and MontMul-count-identical with) the generic loop.
  BigInt ModPowFixed(const BigInt& base, const BigInt& exp,
                     int window_bits) const;
  // The same schedule for kLanes rows at once on the lane kernel, in place.
  void ModPowLanes(uint32_t* rows, const BigInt& exp, int window_bits) const;
  // kLanes rows, row l raised to exps[l], on the lane kernel, in place.
  void ModPowLanes(uint32_t* rows, const BigInt* exps) const;
  // One row through ModPow, in place.
  void ModPowRow(uint32_t* row, const BigInt& exp) const;
  // kLanes full Horner groups of `slots` rows on the lane kernel.
  void HornerLanes(const uint32_t* terms, size_t slots, int shift_bits,
                   const BigInt& factor, uint32_t* out) const;
  // Lane l of z = (row at rows + l * stride) * by * R'^{-1}, almost-
  // Montgomery; each row < n, `by` < 2n.
  void LoadLanes(const uint32_t* rows, size_t stride,
                 const mpint::fixed::LaneDigit* by,
                 mpint::fixed::LaneDigit* z) const;
  // Leaves the lane domain: row l (at rows + l * s) = lane l of v * R'^{-1}
  // mod n, canonical. Overwrites v and the d-digit `scratch`.
  void StoreLanes(mpint::fixed::LaneDigit* v, mpint::fixed::LaneDigit* scratch,
                  uint32_t* rows) const;
  // MontMulWords without the counter.
  void MontMulUncounted(const uint32_t* a, const uint32_t* b,
                        uint32_t* out) const;

  BigInt n_;
  size_t s_ = 0;
  uint32_t n0_inv_ = 0;
  uint64_t n0_inv64_ = 0;
  const mpint::fixed::KernelOps* kernel_ = nullptr;  // null = generic path
  const mpint::fixed::LaneOps* lanes_ = nullptr;     // null = per-row batches
  uint64_t lane_k0_ = 0;                             // -n^{-1} mod 2^52
  // Radix-2^52 digits (lanes_->digits each) of n, R'^2 mod n and R' mod n,
  // R' = 2^(52 * digits): the lane domain's modulus and Montgomery constants.
  std::vector<uint64_t> lane_words_;
  BigInt r_mod_n_;   // R mod n    (Montgomery form of 1)
  BigInt r2_mod_n_;  // R^2 mod n
  // Flat s-limb copies for the kernel paths (avoid re-boxing per call).
  std::vector<uint32_t> r_words_;    // R mod n
  std::vector<uint32_t> r2_words_;   // R^2 mod n
  std::vector<uint32_t> one_words_;  // 1
  mutable std::atomic<uint64_t> mont_mul_count_{0};
};

// Picks the sliding-window width the way HAC 14.85's table does: wider
// windows for longer exponents.
int ChooseWindowBits(int exp_bits);

}  // namespace flb::crypto

#endif  // FLB_CRYPTO_MONTGOMERY_H_

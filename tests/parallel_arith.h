// Limb-parallel basic arithmetic — the paper's §IV-A1 text, transcribed.
//
// "When performing the addition or subtraction of two multi-precision
//  integers, we store the overflow result in the thread locally and then
//  propagate the overflow result to other threads for the carry and borrow
//  operations via inter-thread communication. When performing
//  multiplication ... we multiply the limbs with the limbs in other threads
//  one by one, aggregate and propagate the result ... In addition, we
//  replace complex division and rest operations with multiple subtraction
//  and multiplication operations. The quotient is obtained by dividing two
//  multi-precision integers using more significant words. After that, we
//  subtract the product of the quotient and the denominator from the
//  numerator. ... This process is repeated until the numerator is smaller
//  than the denominator."
//
// Each function is a host-side transcription of that decomposition: threads
// own contiguous limb slices, carries/borrows crossing slice boundaries are
// counted as inter-thread communications, and results are asserted
// bit-exact against the BigInt reference in parallel_arith_test.cc. Only
// that test uses them: GheEngine prices ghe.add/sub/mul/div from its own
// limb formulas, not from these counts.

#ifndef FLB_TESTS_PARALLEL_ARITH_H_
#define FLB_TESTS_PARALLEL_ARITH_H_

#include "src/common/result.h"
#include "src/ghe/parallel_montgomery.h"
#include "src/mpint/bigint.h"

namespace flb::ghe {

using mpint::BigInt;

// a + b with both operands viewed as s-limb words distributed over
// `num_threads` slices (num_threads must divide s; the result may carry
// into limb s).
Result<BigInt> ParallelAdd(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats);

// a - b (requires a >= b), same decomposition, borrows communicated.
Result<BigInt> ParallelSub(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats);

// a * b: each thread multiplies its slice of a by every limb of b and the
// partial rows are aggregated with carry propagation.
Result<BigInt> ParallelMul(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats);

// a = q*b + r by the paper's subtract-multiply scheme: estimate the
// quotient from the operands' most significant words, subtract q*b, repair
// an overshoot by one addition, repeat until the numerator is below the
// denominator. Error if b == 0.
Result<std::pair<BigInt, BigInt>> ParallelDivMod(const BigInt& a,
                                                 const BigInt& b, size_t s,
                                                 int num_threads,
                                                 ParallelMontStats* stats);

}  // namespace flb::ghe

#endif  // FLB_TESTS_PARALLEL_ARITH_H_

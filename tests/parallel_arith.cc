#include "tests/parallel_arith.h"

#include <algorithm>

#include "src/common/check.h"

namespace flb::ghe {

namespace {

Status CheckDecomposition(const BigInt& a, const BigInt& b, size_t s,
                          int num_threads) {
  if (s == 0 || num_threads <= 0 || s % static_cast<size_t>(num_threads) != 0) {
    return Status::InvalidArgument(
        "parallel arith: thread count must divide the limb count");
  }
  if (a.WordCount() > s || b.WordCount() > s) {
    return Status::InvalidArgument("parallel arith: operand exceeds s limbs");
  }
  return Status::OK();
}

// Top (up to) 64 significant bits of v.
uint64_t Top64(const BigInt& v, int* exponent) {
  const int bits = v.BitLength();
  const int shift = std::max(0, bits - 64);
  *exponent = shift;
  return BigInt::ShiftRight(v, shift).LowU64();
}

}  // namespace

Result<BigInt> ParallelAdd(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats) {
  FLB_RETURN_IF_ERROR(CheckDecomposition(a, b, s, num_threads));
  const size_t x = s / num_threads;
  std::vector<uint32_t> out(s + 1, 0);
  uint64_t carry = 0;
  for (int thread = 0; thread < num_threads; ++thread) {
    // Each thread sums its slice; the carry out of the slice is handed to
    // the next thread (one inter-thread communication when nonzero).
    for (size_t j = 0; j < x; ++j) {
      const size_t w = static_cast<size_t>(thread) * x + j;
      const uint64_t sum =
          static_cast<uint64_t>(a.word(w)) + b.word(w) + carry;
      out[w] = static_cast<uint32_t>(sum);
      carry = sum >> 32;
      if (stats != nullptr) ++stats->limb_ops;
    }
    if (stats != nullptr && thread + 1 < num_threads && carry != 0) {
      ++stats->inter_thread_comms;
    }
  }
  out[s] = static_cast<uint32_t>(carry);
  return BigInt::FromWords(std::move(out));
}

Result<BigInt> ParallelSub(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats) {
  FLB_RETURN_IF_ERROR(CheckDecomposition(a, b, s, num_threads));
  if (a < b) {
    return Status::OutOfRange("ParallelSub: would underflow");
  }
  const size_t x = s / num_threads;
  std::vector<uint32_t> out(s, 0);
  int64_t borrow = 0;
  for (int thread = 0; thread < num_threads; ++thread) {
    for (size_t j = 0; j < x; ++j) {
      const size_t w = static_cast<size_t>(thread) * x + j;
      int64_t diff = static_cast<int64_t>(a.word(w)) -
                     static_cast<int64_t>(b.word(w)) - borrow;
      if (diff < 0) {
        diff += int64_t{1} << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      out[w] = static_cast<uint32_t>(diff);
      if (stats != nullptr) ++stats->limb_ops;
    }
    if (stats != nullptr && thread + 1 < num_threads && borrow != 0) {
      ++stats->inter_thread_comms;
    }
  }
  FLB_DCHECK(borrow == 0);
  return BigInt::FromWords(std::move(out));
}

Result<BigInt> ParallelMul(const BigInt& a, const BigInt& b, size_t s,
                           int num_threads, ParallelMontStats* stats) {
  FLB_RETURN_IF_ERROR(CheckDecomposition(a, b, s, num_threads));
  const size_t x = s / num_threads;
  // Each thread owns a slice of a and produces a partial product row
  // against every limb of b ("multiply the limbs with the limbs in other
  // threads one by one"); rows are aggregated into the shared accumulator
  // with carries crossing slice boundaries.
  std::vector<uint32_t> acc(2 * s, 0);
  for (int thread = 0; thread < num_threads; ++thread) {
    for (size_t j = 0; j < x; ++j) {
      const size_t i = static_cast<size_t>(thread) * x + j;
      const uint64_t ai = a.word(i);
      if (ai == 0) continue;
      uint64_t carry = 0;
      for (size_t k = 0; k < s; ++k) {
        const uint64_t cur = static_cast<uint64_t>(acc[i + k]) +
                             ai * b.word(k) + carry;
        acc[i + k] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
        if (stats != nullptr) {
          ++stats->limb_ops;
          // A partial product against a limb owned by another thread is
          // the paper's "limbs in other threads" communication.
          if (k / x != static_cast<size_t>(thread)) {
            ++stats->inter_thread_comms;
          }
        }
      }
      size_t pos = i + s;
      while (carry != 0) {
        const uint64_t cur = static_cast<uint64_t>(acc[pos]) + carry;
        acc[pos] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
        ++pos;
      }
    }
  }
  return BigInt::FromWords(std::move(acc));
}

Result<std::pair<BigInt, BigInt>> ParallelDivMod(const BigInt& a,
                                                 const BigInt& b, size_t s,
                                                 int num_threads,
                                                 ParallelMontStats* stats) {
  if (b.IsZero()) {
    return Status::ArithmeticError("ParallelDivMod: division by zero");
  }
  FLB_RETURN_IF_ERROR(CheckDecomposition(a, b, s, num_threads));

  BigInt quotient;
  BigInt remainder = a;
  int b_exp = 0;
  const uint64_t b_top = Top64(b, &b_exp);
  // The paper's loop: estimate a quotient chunk from the most significant
  // words, multiply, subtract, repair an overshoot, repeat.
  while (remainder >= b) {
    int r_exp = 0;
    const uint64_t r_top = Top64(remainder, &r_exp);
    // q ~= (r_top / (b_top+1)) * 2^(r_exp - b_exp); the +1 biases toward an
    // underestimate so the subtraction rarely overshoots.
    BigInt q_est;
    const uint64_t ratio = r_top / (b_top + 1);
    const int shift = r_exp - b_exp;
    if (ratio > 0) {
      q_est = shift >= 0 ? BigInt::ShiftLeft(BigInt(ratio), shift)
                         : BigInt::ShiftRight(BigInt(ratio), -shift);
    } else if (shift >= 1) {
      // The top words are too close to divide (r_top < b_top+1) but the
      // numerator is still `shift` bits longer: 2^(shift-1) is a safe
      // underestimate that keeps the chunk count ~linear in the bit gap.
      q_est = BigInt::PowerOfTwo(shift - 1);
    }
    if (q_est.IsZero()) q_est = BigInt(1);

    FLB_ASSIGN_OR_RETURN(
        BigInt prod, ParallelMul(q_est, b, s, num_threads, stats));
    // "If the result of subtraction overflows, then we recover it by
    // addition": an overshoot is repaired by stepping the estimate down.
    while (prod > remainder) {
      q_est = BigInt::ShiftRight(q_est, 1);
      if (q_est.IsZero()) q_est = BigInt(1);
      FLB_ASSIGN_OR_RETURN(prod,
                           ParallelMul(q_est, b, s, num_threads, stats));
      if (q_est.IsOne() && prod > remainder) break;
    }
    if (prod > remainder) break;  // remainder < b, loop exit below
    FLB_ASSIGN_OR_RETURN(
        remainder, ParallelSub(remainder, prod, s, num_threads, stats));
    FLB_ASSIGN_OR_RETURN(
        quotient, ParallelAdd(quotient, q_est, s, num_threads, stats));
  }
  return std::make_pair(std::move(quotient), std::move(remainder));
}

}  // namespace flb::ghe

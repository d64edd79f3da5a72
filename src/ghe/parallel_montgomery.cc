#include "src/ghe/parallel_montgomery.h"

#include <vector>

#include "src/common/check.h"

namespace flb::ghe {

int LargestValidThreadCount(size_t s, int max_threads) {
  for (int t = std::min<int>(max_threads, static_cast<int>(s)); t >= 1; --t) {
    if (s % static_cast<size_t>(t) == 0) return t;
  }
  return 1;
}

Result<ParallelMontStats> ParallelMontMul(const uint32_t* a, const uint32_t* b,
                                          const uint32_t* n, uint32_t n0_inv,
                                          size_t s, int num_threads,
                                          uint32_t* out) {
  if (s == 0) return Status::InvalidArgument("ParallelMontMul: s == 0");
  if (num_threads <= 0 || s % static_cast<size_t>(num_threads) != 0) {
    return Status::InvalidArgument(
        "ParallelMontMul: thread count must divide the limb count");
  }
  const size_t x = s / num_threads;  // words per thread
  ParallelMontStats stats;

  // t is the shared working accumulator (s+2 limbs). On the device each
  // thread keeps its own x-limb slice of t in registers; slice boundaries
  // are where inter-thread communication happens.
  std::vector<uint32_t> t(s + 2, 0);

  // Outer loop: one iteration per word of b (Algorithm 2's combined i/j
  // loops — thread i broadcasts its j-th word b_i[j]).
  for (size_t gi = 0; gi < s; ++gi) {
    const uint64_t bi = b[gi];
    // ---- Multiplication step: t += a * b[gi] -------------------------------
    // Every thread multiplies its slice of a; the carry out of each slice is
    // communicated to the next thread.
    uint64_t carry = 0;
    for (int thread = 0; thread < num_threads; ++thread) {
      for (size_t j = 0; j < x; ++j) {
        const size_t w = static_cast<size_t>(thread) * x + j;
        const uint64_t cur = static_cast<uint64_t>(t[w]) + bi * a[w] + carry;
        t[w] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
        ++stats.limb_ops;
      }
      if (thread + 1 < num_threads && carry != 0) ++stats.inter_thread_comms;
    }
    {
      const uint64_t cur = static_cast<uint64_t>(t[s]) + carry;
      t[s] = static_cast<uint32_t>(cur);
      t[s + 1] = static_cast<uint32_t>(cur >> 32);
    }

    // ---- Reduction step: m = t[0] * n0' (computed by thread 0, then
    // broadcast); t += m * n; shift right one word. ---------------------------
    const uint32_t m = t[0] * n0_inv;
    ++stats.limb_ops;
    if (num_threads > 1) ++stats.inter_thread_comms;  // broadcast of m

    uint64_t cur = static_cast<uint64_t>(t[0]) + static_cast<uint64_t>(m) * n[0];
    carry = cur >> 32;
    ++stats.limb_ops;
    FLB_DCHECK(static_cast<uint32_t>(cur) == 0,
               "reduction must zero the low word");
    for (int thread = 0; thread < num_threads; ++thread) {
      const size_t lo = thread == 0 ? 1 : static_cast<size_t>(thread) * x;
      const size_t hi = static_cast<size_t>(thread + 1) * x;
      for (size_t w = lo; w < hi; ++w) {
        cur = static_cast<uint64_t>(t[w]) + static_cast<uint64_t>(m) * n[w] +
              carry;
        // The one-word right shift is fused here: results land at w-1, which
        // for w == thread*x belongs to the previous thread (one
        // communication per boundary).
        t[w - 1] = static_cast<uint32_t>(cur);
        carry = cur >> 32;
        ++stats.limb_ops;
        if (w == static_cast<size_t>(thread) * x && thread > 0) {
          ++stats.inter_thread_comms;
        }
      }
      if (thread + 1 < num_threads && carry != 0) ++stats.inter_thread_comms;
    }
    cur = static_cast<uint64_t>(t[s]) + carry;
    t[s - 1] = static_cast<uint32_t>(cur);
    t[s] = t[s + 1] + static_cast<uint32_t>(cur >> 32);
    t[s + 1] = 0;
  }

  // ---- Final conditional subtraction (lines 18-22 of Algorithm 2) ----------
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = s; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    int64_t borrow = 0;
    for (int thread = 0; thread < num_threads; ++thread) {
      for (size_t j = 0; j < x; ++j) {
        const size_t w = static_cast<size_t>(thread) * x + j;
        int64_t diff = static_cast<int64_t>(t[w]) - n[w] - borrow;
        if (diff < 0) {
          diff += int64_t{1} << 32;
          borrow = 1;
        } else {
          borrow = 0;
        }
        out[w] = static_cast<uint32_t>(diff);
        ++stats.limb_ops;
      }
      if (thread + 1 < num_threads && borrow != 0) ++stats.inter_thread_comms;
    }
  } else {
    for (size_t i = 0; i < s; ++i) out[i] = t[i];
  }
  return stats;
}

}  // namespace flb::ghe

#include "src/crypto/montgomery.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace flb::crypto {

namespace {

// -n^{-1} mod 2^32 by Newton–Hensel lifting: for odd n, x_{k+1} = x_k*(2 -
// n*x_k) doubles the number of correct low bits each step.
uint32_t NegInverseMod2p32(uint32_t n0) {
  uint32_t x = n0;  // correct to 3 bits for odd n0 (n0*n0 ≡ 1 mod 8)
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  return static_cast<uint32_t>(0u - x);
}

// Largest width the flat-scratch fast paths keep on the stack (a 4096-bit
// key's n^2); wider contexts fall back to one heap scratch per call.
constexpr size_t kMaxStackLimbs = 256;

// Slots of the sliding-window schedule: the accumulator, then the odd
// powers base^(2k+1) at kBase + k, then (windows wider than 1) base^2.
constexpr size_t kAcc = 0;
constexpr size_t kBase = 1;

size_t WindowSlots(int w) {
  return w == 1 ? 2 : 2 + (size_t{1} << (w - 1));
}

// ModPow's exponent schedule for exp > 0 and window width w, written once so
// the generic, fixed-width and lane loops issue the same MontMul sequence
// and so count the same MontMuls. Slot kBase holds the base in Montgomery
// form on entry, kAcc holds the result on exit. The callables work on slot
// indices: mul(d, x, y) and sqr(d, x) are the MontMuls (d may alias an
// input), copy(d, x) and one(d) (the Montgomery form of 1) are not.
template <typename Mul, typename Sqr, typename Copy, typename One>
void WalkSlidingWindow(const BigInt& exp, int w, Mul&& mul, Sqr&& sqr,
                       Copy&& copy, One&& one) {
  const int exp_bits = exp.BitLength();
  if (w == 1) {
    // Plain left-to-right square-and-multiply.
    copy(kAcc, kBase);
    for (int i = exp_bits - 2; i >= 0; --i) {
      sqr(kAcc, kAcc);
      if (exp.GetBit(i)) mul(kAcc, kAcc, kBase);
    }
    return;
  }
  // Odd powers by repeated multiplication with base^2.
  const size_t table_size = size_t{1} << (w - 1);
  const size_t squared = kBase + table_size;
  sqr(squared, kBase);
  for (size_t k = 1; k < table_size; ++k) {
    mul(kBase + k, kBase + k - 1, squared);
  }
  one(kAcc);
  int i = exp_bits - 1;
  while (i >= 0) {
    if (!exp.GetBit(i)) {
      sqr(kAcc, kAcc);
      --i;
      continue;
    }
    // Widest window [i .. j] ending in a set bit, at most w bits.
    int j = std::max(i - w + 1, 0);
    while (!exp.GetBit(j)) ++j;
    uint32_t window_value = 0;
    for (int b = i; b >= j; --b) {
      window_value = (window_value << 1) | (exp.GetBit(b) ? 1u : 0u);
    }
    for (int b = i; b >= j; --b) sqr(kAcc, kAcc);
    mul(kAcc, kAcc, kBase + (window_value >> 1));
    i = j - 1;
  }
}

// MontMuls ModPow(base, exp) counts: none for exp = 0, else ToMont, the
// sliding-window schedule and FromMont. Lane groups that run another
// schedule add this per row, so mont_mul_count() reads the same either way.
uint64_t ModPowMontMuls(const BigInt& exp) {
  if (exp.IsZero()) return 0;
  uint64_t muls = 2;
  WalkSlidingWindow(
      exp, ChooseWindowBits(exp.BitLength()),
      [&](size_t, size_t, size_t) { ++muls; }, [&](size_t, size_t) { ++muls; },
      [](size_t, size_t) {}, [](size_t) {});
  return muls;
}

// Lane AMMs of a fixed-window schedule over exponents of at most `bits`
// (>= 1) bits with w-bit windows: table entries base^2 .. base^(2^w - 1),
// then w squarings and one multiply for each window below the top one.
uint64_t FixedWindowAmms(int bits, int w) {
  const auto windows = static_cast<uint64_t>((bits + w - 1) / w);
  return ((uint64_t{1} << w) - 2) + (windows - 1) * static_cast<uint64_t>(w + 1);
}

// The window width in [1, 7] that needs the fewest lane AMMs.
int FixedWindowBits(int bits) {
  int best = 1;
  for (int w = 2; w <= 7; ++w) {
    if (FixedWindowAmms(bits, w) < FixedWindowAmms(bits, best)) best = w;
  }
  return best;
}

// Bits [pos, pos + w) of exp, for w < 32.
uint32_t WindowDigit(const BigInt& exp, int pos, int w) {
  const auto limb = static_cast<size_t>(pos / mpint::kLimbBits);
  const uint64_t pair =
      exp.word(limb) | (static_cast<uint64_t>(exp.word(limb + 1)) << 32);
  return static_cast<uint32_t>(pair >> (pos % mpint::kLimbBits)) &
         ((1u << w) - 1);
}

// Every lane of the d-digit operand z takes the same digits.
void Broadcast(const uint64_t* digits, size_t d, mpint::fixed::LaneDigit* z) {
  for (size_t j = 0; j < d; ++j) {
    std::fill(z[j].lane, z[j].lane + mpint::fixed::kLanes, digits[j]);
  }
}

// True when the s-limb row is >= n (s = n's limb count).
bool RowAtLeast(const uint32_t* row, const std::vector<uint32_t>& n) {
  for (size_t i = n.size(); i-- > 0;) {
    if (row[i] != n[i]) return row[i] > n[i];
  }
  return true;
}

// row -= n for a row >= n.
void SubtractRow(uint32_t* row, const std::vector<uint32_t>& n) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < n.size(); ++i) {
    const uint64_t diff = uint64_t{row[i]} - n[i] - borrow;
    row[i] = static_cast<uint32_t>(diff);
    borrow = diff >> 63;
  }
}

}  // namespace

int ChooseWindowBits(int exp_bits) {
  if (exp_bits <= 24) return 1;
  if (exp_bits <= 80) return 3;
  if (exp_bits <= 240) return 4;
  if (exp_bits <= 672) return 5;
  return 6;
}

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus,
                                                    bool use_fixed_kernels) {
  // One table lookup per key: every MontMul/ModPow on this context then
  // runs the compile-time-width kernel, and same-exponent batches the lane
  // kernel. Unsupported widths keep the generic path (FindKernel returns
  // null) and per-row batches (FindLaneKernel returns null).
  const mpint::fixed::KernelOps* kernel =
      use_fixed_kernels && mpint::fixed::KernelsEnabled()
          ? mpint::fixed::FindKernel(modulus.WordCount())
          : nullptr;
  const mpint::fixed::LaneOps* lanes =
      kernel != nullptr ? mpint::fixed::FindLaneKernel(modulus.WordCount())
                        : nullptr;
  return CreateWithKernel(modulus, kernel, lanes);
}

Result<MontgomeryContext> MontgomeryContext::CreateWithKernel(
    const BigInt& modulus, const mpint::fixed::KernelOps* kernel,
    const mpint::fixed::LaneOps* lanes) {
  if (modulus < BigInt(3)) {
    return Status::InvalidArgument("Montgomery modulus must be >= 3");
  }
  if (modulus.IsEven()) {
    return Status::InvalidArgument("Montgomery modulus must be odd");
  }
  MontgomeryContext ctx;
  ctx.n_ = modulus;
  ctx.s_ = modulus.WordCount();
  if (kernel != nullptr && kernel->limbs != ctx.s_) {
    return Status::InvalidArgument("fixed kernel width differs from modulus");
  }
  if (lanes != nullptr && (kernel == nullptr || lanes->limbs != ctx.s_)) {
    return Status::InvalidArgument(
        "lane kernel needs a fixed kernel of the modulus width");
  }
  ctx.n0_inv_ = NegInverseMod2p32(modulus.word(0));
  const BigInt r = BigInt::PowerOfTwo(static_cast<int>(ctx.s_) * mpint::kLimbBits);
  ctx.r_mod_n_ = r % modulus;
  ctx.r2_mod_n_ = BigInt::Mul(ctx.r_mod_n_, ctx.r_mod_n_) % modulus;
  ctx.r_words_ = ctx.r_mod_n_.ToFixedWords(ctx.s_);
  ctx.r2_words_ = ctx.r2_mod_n_.ToFixedWords(ctx.s_);
  ctx.one_words_ = BigInt(1).ToFixedWords(ctx.s_);
  ctx.kernel_ = kernel;
  if (kernel != nullptr) {
    const uint64_t n64 = static_cast<uint64_t>(modulus.word(0)) |
                         (static_cast<uint64_t>(modulus.word(1)) << 32);
    ctx.n0_inv64_ = mpint::fixed::NegInverseMod2p64(n64);
  }
  ctx.lanes_ = lanes;
  if (lanes != nullptr) {
    ctx.lane_k0_ = ctx.n0_inv64_ & ((uint64_t{1} << 52) - 1);
    const size_t d = lanes->digits;
    const BigInt r1 = BigInt::PowerOfTwo(static_cast<int>(52 * d)) % modulus;
    const BigInt r2 = BigInt::Mul(r1, r1) % modulus;
    std::vector<mpint::fixed::LaneDigit> digits(d);
    ctx.lane_words_.resize(3 * d);
    size_t at = 0;
    for (const BigInt* v : {&modulus, &r2, &r1}) {
      mpint::fixed::RowToLane(v->ToFixedWords(ctx.s_).data(), ctx.s_,
                              digits.data(), d, 0);
      for (size_t j = 0; j < d; ++j) ctx.lane_words_[at++] = digits[j].lane[0];
    }
  }
  return ctx;
}

void MontgomeryContext::MontMulWordsGeneric(const uint32_t* a,
                                            const uint32_t* b,
                                            uint32_t* out) const {
  const size_t s = s_;
  const std::vector<uint32_t>& n = n_.words();
  // t has s+2 limbs; CIOS interleaves multiplication and reduction so the
  // working buffer never exceeds s+2 words (Koç–Acar–Kaliski).
  std::vector<uint32_t> t(s + 2, 0);
  for (size_t i = 0; i < s; ++i) {
    // Multiplication step: t += a * b[i].
    uint64_t carry = 0;
    const uint64_t bi = b[i];
    for (size_t j = 0; j < s; ++j) {
      const uint64_t cur = static_cast<uint64_t>(t[j]) + bi * a[j] + carry;
      t[j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    uint64_t cur = static_cast<uint64_t>(t[s]) + carry;
    t[s] = static_cast<uint32_t>(cur);
    t[s + 1] = static_cast<uint32_t>(cur >> 32);

    // Reduction step: m makes the low word of t vanish (mod 2^32).
    const uint32_t m = t[0] * n0_inv_;
    cur = static_cast<uint64_t>(t[0]) + static_cast<uint64_t>(m) * n[0];
    carry = cur >> 32;
    for (size_t j = 1; j < s; ++j) {
      cur = static_cast<uint64_t>(t[j]) + static_cast<uint64_t>(m) * n[j] +
            carry;
      t[j - 1] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    cur = static_cast<uint64_t>(t[s]) + carry;
    t[s - 1] = static_cast<uint32_t>(cur);
    t[s] = t[s + 1] + static_cast<uint32_t>(cur >> 32);
  }

  // Final conditional subtraction: the loop guarantees t < 2n.
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = s; i-- > 0;) {
      const uint32_t ni = i < n.size() ? n[i] : 0;
      if (t[i] != ni) {
        ge = t[i] > ni;
        break;
      }
    }
  }
  if (ge) {
    int64_t borrow = 0;
    for (size_t i = 0; i < s; ++i) {
      const uint32_t ni = i < n.size() ? n[i] : 0;
      int64_t diff = static_cast<int64_t>(t[i]) - ni - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(mpint::kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      out[i] = static_cast<uint32_t>(diff);
    }
  } else {
    std::copy(t.begin(), t.begin() + s, out);
  }
}

void MontgomeryContext::MontMulUncounted(const uint32_t* a, const uint32_t* b,
                                         uint32_t* out) const {
  if (kernel_ != nullptr) {
    kernel_->mont_mul(out, a, b, n_.words().data(), n0_inv64_);
  } else {
    MontMulWordsGeneric(a, b, out);
  }
}

void MontgomeryContext::MontMulWords(const uint32_t* a, const uint32_t* b,
                                     uint32_t* out) const {
  mont_mul_count_.fetch_add(1, std::memory_order_relaxed);
  MontMulUncounted(a, b, out);
}

void MontgomeryContext::MontSqrWords(const uint32_t* a, uint32_t* out) const {
  mont_mul_count_.fetch_add(1, std::memory_order_relaxed);
  if (kernel_ != nullptr) {
    kernel_->mont_sqr(out, a, n_.words().data(), n0_inv64_);
  } else {
    MontMulWordsGeneric(a, a, out);
  }
}

void MontgomeryContext::ModMulWords(const uint32_t* a, const uint32_t* b,
                                    uint32_t* out) const {
  // ToMont(a), ToMont(b), MontMul, FromMont — the exact op sequence (and
  // MontMul count) of ModMul, minus the per-step BigInt boxing.
  uint32_t stack[2 * kMaxStackLimbs];
  std::vector<uint32_t> heap;
  uint32_t* ta;
  if (s_ <= kMaxStackLimbs) {
    ta = stack;
  } else {
    heap.resize(2 * s_);
    ta = heap.data();
  }
  uint32_t* tb = ta + s_;
  MontMulWords(a, r2_words_.data(), ta);
  MontMulWords(b, r2_words_.data(), tb);
  MontMulWords(ta, tb, ta);
  MontMulWords(ta, one_words_.data(), out);
}

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  FLB_DCHECK(a < n_ && b < n_, "MontMul operands must be < n");
  const std::vector<uint32_t> aw = a.ToFixedWords(s_);
  const std::vector<uint32_t> bw = b.ToFixedWords(s_);
  std::vector<uint32_t> out(s_);
  MontMulWords(aw.data(), bw.data(), out.data());
  return BigInt::FromWords(std::move(out));
}

BigInt MontgomeryContext::MontMulBasic(const BigInt& a, const BigInt& b) const {
  // Algorithm 1: T = A*B; M = T*N' mod R; U = (T + M*N)/R; subtract N once
  // if needed. N' here is the full-width -n^{-1} mod R.
  const int r_bits = static_cast<int>(s_) * mpint::kLimbBits;
  const BigInt r = BigInt::PowerOfTwo(r_bits);
  auto n_inv = BigInt::ModInverse(n_, r);
  FLB_CHECK(n_inv.ok(), "modulus not invertible mod R");
  const BigInt n_prime = BigInt::Sub(r, n_inv.value());  // -n^{-1} mod R
  const BigInt t = BigInt::Mul(a, b);
  const BigInt m = BigInt::TruncateBits(BigInt::Mul(t, n_prime), r_bits);
  BigInt u = BigInt::ShiftRight(BigInt::Add(t, BigInt::Mul(m, n_)), r_bits);
  if (u >= n_) u = BigInt::Sub(u, n_);
  return u;
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return MontMul(a, r2_mod_n_);
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  return MontMul(a, BigInt(1));
}

BigInt MontgomeryContext::ModMul(const BigInt& a, const BigInt& b) const {
  return FromMont(MontMul(ToMont(a), ToMont(b)));
}

BigInt MontgomeryContext::ModPowFixed(const BigInt& base, const BigInt& exp,
                                      int w) const {
  const size_t s = s_;
  const uint32_t* nw = n_.words().data();
  const mpint::fixed::KernelOps* k = kernel_;
  // The whole exponentiation runs on flat buffers, one s-limb row per
  // schedule slot; the counter is bumped once at the end so the hot loop
  // carries no atomic traffic.
  std::vector<uint32_t> buf(WindowSlots(w) * s);
  const auto slot = [&](size_t i) { return buf.data() + i * s; };
  uint64_t muls = 2;  // ToMont and FromMont
  const std::vector<uint32_t> bw = base.ToFixedWords(s);
  k->mont_mul(slot(kBase), bw.data(), r2_words_.data(), nw, n0_inv64_);
  WalkSlidingWindow(
      exp, w,
      [&](size_t z, size_t x, size_t y) {
        k->mont_mul(slot(z), slot(x), slot(y), nw, n0_inv64_);
        ++muls;
      },
      [&](size_t z, size_t x) {
        k->mont_sqr(slot(z), slot(x), nw, n0_inv64_);
        ++muls;
      },
      [&](size_t z, size_t x) { std::copy(slot(x), slot(x) + s, slot(z)); },
      [&](size_t z) { std::copy(r_words_.begin(), r_words_.end(), slot(z)); });
  k->mont_mul(slot(kAcc), slot(kAcc), one_words_.data(), nw, n0_inv64_);
  mont_mul_count_.fetch_add(muls, std::memory_order_relaxed);
  return BigInt::FromWords(std::vector<uint32_t>(slot(kAcc), slot(kAcc) + s));
}

BigInt MontgomeryContext::ModPow(const BigInt& base, const BigInt& exp,
                                 int window_bits) const {
  if (exp.IsZero()) return BigInt(1) % n_;
  const BigInt b = base >= n_ ? base % n_ : base;
  const int w = window_bits > 0 ? std::min(window_bits, 8)
                                : ChooseWindowBits(exp.BitLength());
  if (kernel_ != nullptr) return ModPowFixed(b, exp, w);

  // Generic path: BigInt slots, every MontMul counted by MontMul itself.
  std::vector<BigInt> slot(WindowSlots(w));
  slot[kBase] = ToMont(b);
  WalkSlidingWindow(
      exp, w,
      [&](size_t z, size_t x, size_t y) {
        slot[z] = MontMul(slot[x], slot[y]);
      },
      [&](size_t z, size_t x) { slot[z] = MontMul(slot[x], slot[x]); },
      [&](size_t z, size_t x) { slot[z] = slot[x]; },
      [&](size_t z) { slot[z] = r_mod_n_; });
  return FromMont(slot[kAcc]);
}

// Rows enter the lane domain by one almost-Montgomery product (with R'^2
// mod n, or with factor * R'^2 to multiply by factor on the way in) and
// leave it by one with 1. In between every value stays < 2n, so only the
// result needs the final subtraction.
void MontgomeryContext::LoadLanes(const uint32_t* rows, size_t stride,
                                  const mpint::fixed::LaneDigit* by,
                                  mpint::fixed::LaneDigit* z) const {
  const size_t d = lanes_->digits;
  for (size_t l = 0; l < kLanes; ++l) {
    mpint::fixed::RowToLane(rows + l * stride, s_, z, d, l);
  }
  lanes_->amm_mul(z, z, by, lane_words_.data(), lane_k0_);
}

void MontgomeryContext::StoreLanes(mpint::fixed::LaneDigit* v,
                                   mpint::fixed::LaneDigit* scratch,
                                   uint32_t* rows) const {
  const size_t d = lanes_->digits;
  std::fill(scratch, scratch + d, mpint::fixed::LaneDigit{});
  std::fill(scratch[0].lane, scratch[0].lane + kLanes, uint64_t{1});
  lanes_->amm_mul(v, v, scratch, lane_words_.data(), lane_k0_);
  for (size_t l = 0; l < kLanes; ++l) {
    uint32_t* row = rows + l * s_;
    mpint::fixed::LaneToRow(v, d, l, row, s_);
    if (RowAtLeast(row, n_.words())) SubtractRow(row, n_.words());
  }
}

void MontgomeryContext::ModPowLanes(uint32_t* rows, const BigInt& exp,
                                    int w) const {
  using mpint::fixed::LaneDigit;
  const size_t d = lanes_->digits;
  const uint64_t* m = lane_words_.data();
  const uint64_t* r2 = m + d;
  const uint64_t* r1 = m + 2 * d;
  // One d-digit lane operand per schedule slot, plus one for constants.
  const size_t slots = WindowSlots(w);
  std::vector<LaneDigit> buf((slots + 1) * d);
  const auto slot = [&](size_t i) { return buf.data() + i * d; };
  LaneDigit* konst = slot(slots);
  Broadcast(r2, d, konst);
  LoadLanes(rows, s_, konst, slot(kBase));
  uint64_t muls = 2;  // into and out of the lane domain
  WalkSlidingWindow(
      exp, w,
      [&](size_t z, size_t x, size_t y) {
        lanes_->amm_mul(slot(z), slot(x), slot(y), m, lane_k0_);
        ++muls;
      },
      [&](size_t z, size_t x) {
        lanes_->amm_sqr(slot(z), slot(x), m, lane_k0_);
        ++muls;
      },
      [&](size_t z, size_t x) { std::copy(slot(x), slot(x) + d, slot(z)); },
      [&](size_t z) { Broadcast(r1, d, slot(z)); });
  StoreLanes(slot(kAcc), konst, rows);
  mont_mul_count_.fetch_add(kLanes * muls, std::memory_order_relaxed);
}

void MontgomeryContext::ModPowRow(uint32_t* row, const BigInt& exp) const {
  const BigInt r =
      ModPow(BigInt::FromWords(std::vector<uint32_t>(row, row + s_)), exp);
  const std::vector<uint32_t> rw = r.ToFixedWords(s_);
  std::copy(rw.begin(), rw.end(), row);
}

void MontgomeryContext::ModPowRows(uint32_t* rows, size_t count,
                                   const BigInt& exp) const {
  size_t i = 0;
  if (lanes_ != nullptr && !exp.IsZero()) {
    const int w = ChooseWindowBits(exp.BitLength());
    for (; i + kLanes <= count; i += kLanes) ModPowLanes(rows + i * s_, exp, w);
  }
  for (; i < count; ++i) ModPowRow(rows + i * s_, exp);
}

void MontgomeryContext::ModPowLanes(uint32_t* rows, const BigInt* exps) const {
  using mpint::fixed::LaneDigit;
  int bits = 0;
  uint64_t muls = 0;
  for (size_t l = 0; l < kLanes; ++l) {
    bits = std::max(bits, exps[l].BitLength());
    muls += ModPowMontMuls(exps[l]);
  }
  mont_mul_count_.fetch_add(muls, std::memory_order_relaxed);
  if (bits == 0) {
    // ModPow(x, 0) is 1 for every x.
    for (size_t l = 0; l < kLanes; ++l) {
      std::copy(one_words_.begin(), one_words_.end(), rows + l * s_);
    }
    return;
  }
  const size_t d = lanes_->digits;
  const uint64_t* m = lane_words_.data();
  const uint64_t* r2 = m + d;
  const uint64_t* r1 = m + 2 * d;
  const int w = FixedWindowBits(bits);
  const size_t entries = size_t{1} << w;
  // Entry k holds each lane's base^k, then come the accumulator and the
  // operand each window multiplies by.
  std::vector<LaneDigit> buf((entries + 2) * d);
  const auto entry = [&](size_t k) { return buf.data() + k * d; };
  LaneDigit* acc = entry(entries);
  LaneDigit* pick = entry(entries + 1);
  Broadcast(r2, d, pick);
  LoadLanes(rows, s_, pick, entry(1));
  Broadcast(r1, d, entry(0));
  if (entries > 2) lanes_->amm_sqr(entry(2), entry(1), m, lane_k0_);
  for (size_t k = 3; k < entries; ++k) {
    lanes_->amm_mul(entry(k), entry(k - 1), entry(1), m, lane_k0_);
  }
  // Lane l copies the entry its own digit of window i names.
  const auto select = [&](int i, LaneDigit* z) {
    for (size_t l = 0; l < kLanes; ++l) {
      const LaneDigit* t = entry(WindowDigit(exps[l], i * w, w));
      for (size_t j = 0; j < d; ++j) z[j].lane[l] = t[j].lane[l];
    }
  };
  const int windows = (bits + w - 1) / w;
  select(windows - 1, acc);
  for (int i = windows - 2; i >= 0; --i) {
    for (int b = 0; b < w; ++b) lanes_->amm_sqr(acc, acc, m, lane_k0_);
    select(i, pick);
    lanes_->amm_mul(acc, acc, pick, m, lane_k0_);
  }
  StoreLanes(acc, pick, rows);
}

void MontgomeryContext::ModPowRows(uint32_t* rows, size_t count,
                                   const BigInt* exps) const {
  size_t i = 0;
  if (lanes_ != nullptr) {
    for (; i + kLanes <= count; i += kLanes) {
      ModPowLanes(rows + i * s_, exps + i);
    }
  }
  for (; i < count; ++i) ModPowRow(rows + i * s_, exps[i]);
}

void MontgomeryContext::HornerLanes(const uint32_t* terms, size_t slots,
                                    int shift_bits, const BigInt& factor,
                                    uint32_t* out) const {
  using mpint::fixed::LaneDigit;
  const size_t d = lanes_->digits;
  const uint64_t* m = lane_words_.data();
  const uint64_t* r2 = m + d;
  std::vector<LaneDigit> buf(3 * d);
  LaneDigit* by = buf.data();
  LaneDigit* acc = by + d;
  LaneDigit* term = acc + d;
  // factor * R'^2 by two products with R'^2: one product by it multiplies
  // a row by factor and enters the lane domain.
  Broadcast(r2, d, term);
  const std::vector<uint32_t> fw = factor.ToFixedWords(s_);
  LoadLanes(fw.data(), 0, term, by);
  lanes_->amm_mul(by, by, term, m, lane_k0_);
  // Lane l packs group l: its rows sit slots * s_ limbs after group l - 1's.
  const size_t stride = slots * s_;
  LoadLanes(terms + (slots - 1) * s_, stride, by, acc);
  for (size_t j = slots - 1; j-- > 0;) {
    for (int b = 0; b < shift_bits; ++b) {
      lanes_->amm_sqr(acc, acc, m, lane_k0_);
    }
    LoadLanes(terms + j * s_, stride, by, term);
    lanes_->amm_mul(acc, acc, term, m, lane_k0_);
  }
  StoreLanes(acc, term, out);
  const uint64_t per_group =
      2 + (slots - 1) * (static_cast<uint64_t>(shift_bits) + 2);
  mont_mul_count_.fetch_add(kLanes * per_group, std::memory_order_relaxed);
}

void MontgomeryContext::HornerRows(const uint32_t* terms, size_t count,
                                   size_t slots, int shift_bits,
                                   const BigInt& factor, uint32_t* out) const {
  const size_t s = s_;
  const size_t groups = (count + slots - 1) / slots;
  size_t g = 0;
  if (lanes_ != nullptr) {
    for (; g + kLanes <= groups && (g + kLanes) * slots <= count; g += kLanes) {
      HornerLanes(terms + g * slots * s, slots, shift_bits, factor,
                  out + g * s);
    }
  }
  if (g == groups) return;
  // factor * R^2: one MontMul by it multiplies a row by factor and enters
  // the Montgomery domain.
  std::vector<uint32_t> by = factor.ToFixedWords(s);
  std::vector<uint32_t> term(s);
  MontMulUncounted(by.data(), r2_words_.data(), by.data());
  MontMulUncounted(by.data(), r2_words_.data(), by.data());
  for (; g < groups; ++g) {
    const uint32_t* t = terms + g * slots * s;
    const size_t top = std::min(slots, count - g * slots) - 1;
    uint32_t* acc = out + g * s;
    MontMulWords(t + top * s, by.data(), acc);
    for (size_t j = top; j-- > 0;) {
      for (int b = 0; b < shift_bits; ++b) MontSqrWords(acc, acc);
      MontMulWords(t + j * s, by.data(), term.data());
      MontMulWords(acc, term.data(), acc);
    }
    MontMulWords(acc, one_words_.data(), acc);  // leave the Montgomery domain
  }
}

Status MontgomeryContext::ForEachLaneTask(
    common::ThreadPool& pool, size_t rows,
    const std::function<Status(size_t first, size_t count)>& fn) const {
  const size_t groups = lanes_ != nullptr ? rows / kLanes : 0;
  const size_t tail = groups * kLanes;
  return common::ParallelForEachStatus(
      pool, groups + (rows - tail), [&](size_t t) {
        return t < groups ? fn(kLanes * t, kLanes) : fn(tail + t - groups, 1);
      });
}

}  // namespace flb::crypto

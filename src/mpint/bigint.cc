#include "src/mpint/bigint.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"
#include "src/mpint/fixed_kernels.h"

namespace flb::mpint {

namespace {

// Karatsuba pays off once schoolbook's O(n^2) limb products dominate the
// recursion overhead; 40 limbs (~1280 bits) is a safe crossover for 32-bit
// limbs (validated by bench_mpint's threshold sweep).
constexpr size_t kKaratsubaThreshold = 40;

}  // namespace

// Pins the modeled HE path's hot functions (AddModInPlace, AddInPlace, Mul,
// DivMod, operator%) and the real path's GCD core to cache-line boundaries,
// so code added elsewhere in the link cannot shift their loops and move wall
// time.
#define FLB_HOT_ALIGNED __attribute__((aligned(64)))

BigInt::BigInt(uint64_t v) {
  if (v == 0) return;
  limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromWords(std::vector<uint32_t> words) {
  BigInt out;
  out.limbs_ = std::move(words);
  out.Normalize();
  return out;
}

BigInt BigInt::PowerOfTwo(int k) {
  FLB_CHECK(k >= 0);
  BigInt out;
  out.limbs_.assign(k / kLimbBits + 1, 0);
  out.limbs_.back() = 1u << (k % kLimbBits);
  return out;
}

BigInt BigInt::Random(Rng& rng, int bits) {
  FLB_CHECK(bits >= 0);
  if (bits == 0) return BigInt();
  const size_t words = (bits + kLimbBits - 1) / kLimbBits;
  std::vector<uint32_t> w = rng.NextWords(words);
  const int top_bits = bits % kLimbBits;
  if (top_bits != 0) w.back() &= (1u << top_bits) - 1;
  return FromWords(std::move(w));
}

BigInt BigInt::RandomBelow(Rng& rng, const BigInt& bound) {
  FLB_CHECK(!bound.IsZero(), "RandomBelow: bound must be positive");
  const int bits = bound.BitLength();
  // Rejection sampling keeps the distribution exactly uniform; expected
  // iterations < 2 because 2^bits < 2*bound.
  for (;;) {
    BigInt candidate = Random(rng, bits);
    if (candidate < bound) return candidate;
  }
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  const uint32_t top = limbs_.back();
  return static_cast<int>(limbs_.size() - 1) * kLimbBits +
         (kLimbBits - std::countl_zero(top));
}

bool BigInt::GetBit(int i) const {
  if (i < 0) return false;
  const size_t limb = static_cast<size_t>(i) / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

uint64_t BigInt::LowU64() const {
  uint64_t v = word(0);
  v |= static_cast<uint64_t>(word(1)) << 32;
  return v;
}

Result<uint64_t> BigInt::ToU64() const {
  if (limbs_.size() > 2) {
    return Status::OutOfRange("BigInt does not fit in 64 bits: " + ToHex());
  }
  return LowU64();
}

int BigInt::Compare(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  const std::vector<uint32_t>& x = a.limbs_;
  const std::vector<uint32_t>& y = b.limbs_;
  const size_t n = std::max(x.size(), y.size());
  BigInt out;
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t sum = carry + (i < x.size() ? x[i] : 0) +
                         (i < y.size() ? y[i] : 0);
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  FLB_CHECK(a.Compare(b) >= 0, "BigInt::Sub would underflow (unsigned)");
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) -
                   static_cast<int64_t>(b.word(i)) - borrow;
    if (diff < 0) {
      diff += static_cast<int64_t>(kLimbBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  FLB_DCHECK(borrow == 0);
  out.Normalize();
  return out;
}

namespace {

// Schoolbook product of two limb vectors into `out` (size x+y, zeroed).
void MulSchoolbook(const uint32_t* x, size_t xn, const uint32_t* y, size_t yn,
                   uint32_t* out) {
  for (size_t i = 0; i < xn; ++i) {
    uint64_t carry = 0;
    const uint64_t xi = x[i];
    for (size_t j = 0; j < yn; ++j) {
      const uint64_t cur = static_cast<uint64_t>(out[i + j]) + xi * y[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> kLimbBits;
    }
    out[i + yn] = static_cast<uint32_t>(carry);
  }
}

}  // namespace

FLB_HOT_ALIGNED BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  const size_t xn = a.limbs_.size(), yn = b.limbs_.size();
  if (std::min(xn, yn) < kKaratsubaThreshold) {
    BigInt out;
    out.limbs_.assign(xn + yn, 0);
    MulSchoolbook(a.limbs_.data(), xn, b.limbs_.data(), yn, out.limbs_.data());
    out.Normalize();
    return out;
  }
  // Karatsuba: split at half of the smaller operand's width.
  const size_t half = std::min(xn, yn) / 2;
  BigInt a_lo = FromWords({a.limbs_.begin(),
                           a.limbs_.begin() + std::min(half, xn)});
  BigInt a_hi = FromWords({a.limbs_.begin() + std::min(half, xn),
                           a.limbs_.end()});
  BigInt b_lo = FromWords({b.limbs_.begin(),
                           b.limbs_.begin() + std::min(half, yn)});
  BigInt b_hi = FromWords({b.limbs_.begin() + std::min(half, yn),
                           b.limbs_.end()});
  BigInt z0 = Mul(a_lo, b_lo);
  BigInt z2 = Mul(a_hi, b_hi);
  BigInt z1 = Mul(Add(a_lo, a_hi), Add(b_lo, b_hi));
  z1 = Sub(Sub(z1, z0), z2);
  const int shift = static_cast<int>(half) * kLimbBits;
  return Add(Add(ShiftLeft(z2, 2 * shift), ShiftLeft(z1, shift)), z0);
}

BigInt BigInt::ShiftLeft(const BigInt& a, int bits) {
  FLB_CHECK(bits >= 0);
  if (a.IsZero() || bits == 0) return a;
  const size_t limb_shift = static_cast<size_t>(bits) / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> kLimbBits);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::ShiftRight(const BigInt& a, int bits) {
  FLB_CHECK(bits >= 0);
  if (a.IsZero() || bits == 0) return a;
  const size_t limb_shift = static_cast<size_t>(bits) / kLimbBits;
  const int bit_shift = bits % kLimbBits;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1])
           << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::TruncateBits(const BigInt& a, int bits) {
  FLB_CHECK(bits >= 0);
  const size_t full_limbs = static_cast<size_t>(bits) / kLimbBits;
  const int rem_bits = bits % kLimbBits;
  if (full_limbs >= a.limbs_.size()) return a;
  std::vector<uint32_t> w(a.limbs_.begin(),
                          a.limbs_.begin() + full_limbs + (rem_bits ? 1 : 0));
  if (rem_bits != 0 && !w.empty()) w.back() &= (1u << rem_bits) - 1;
  return FromWords(std::move(w));
}

FLB_HOT_ALIGNED Result<std::pair<BigInt, BigInt>> BigInt::DivMod(
    const BigInt& a, const BigInt& b) {
  if (b.IsZero()) {
    return Status::ArithmeticError("division by zero");
  }
  const int cmp = a.Compare(b);
  if (cmp < 0) return std::make_pair(BigInt(), a);
  if (cmp == 0) return std::make_pair(BigInt(1), BigInt());

  // Single-limb divisor: straightforward 64/32 division.
  if (b.limbs_.size() == 1) {
    const uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << kLimbBits) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    return std::make_pair(std::move(q), BigInt(rem));
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, which bounds the per-step quotient-digit error to 2.
  const int shift = std::countl_zero(b.limbs_.back());
  BigInt u = ShiftLeft(a, shift);
  BigInt v = ShiftLeft(b, shift);
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() >= n ? u.limbs_.size() - n : 0;
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // u has m+n+1 limbs

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_top = v.limbs_[n - 1];
  const uint64_t v_next = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate the quotient digit from the top two limbs of the current
    // window against the top limb of v.
    const uint64_t numer =
        (static_cast<uint64_t>(u.limbs_[j + n]) << kLimbBits) |
        u.limbs_[j + n - 1];
    uint64_t qhat = numer / v_top;
    uint64_t rhat = numer % v_top;
    while (qhat >= kLimbBase ||
           qhat * v_next >
               ((rhat << kLimbBits) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kLimbBase) break;
    }
    // Multiply-and-subtract qhat*v from the window u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t prod = qhat * v.limbs_[i] + carry;
      carry = prod >> kLimbBits;
      int64_t diff = static_cast<int64_t>(u.limbs_[i + j]) -
                     static_cast<int64_t>(prod & kLimbMask) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kLimbBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t diff = static_cast<int64_t>(u.limbs_[j + n]) -
                   static_cast<int64_t>(carry) - borrow;
    if (diff < 0) {
      // qhat was one too large: add v back once and decrement.
      diff += static_cast<int64_t>(kLimbBase);
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) +
                             v.limbs_[i] + add_carry;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> kLimbBits;
      }
      diff += static_cast<int64_t>(add_carry);
      diff &= static_cast<int64_t>(kLimbMask);
    }
    u.limbs_[j + n] = static_cast<uint32_t>(diff);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Normalize();
  u.limbs_.resize(n);
  u.Normalize();
  return std::make_pair(std::move(q), ShiftRight(u, shift));
}

Result<BigInt> BigInt::Div(const BigInt& a, const BigInt& b) {
  FLB_ASSIGN_OR_RETURN(auto qr, DivMod(a, b));
  return std::move(qr.first);
}

Result<BigInt> BigInt::Mod(const BigInt& a, const BigInt& b) {
  FLB_ASSIGN_OR_RETURN(auto qr, DivMod(a, b));
  return std::move(qr.second);
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  auto r = BigInt::Div(a, b);
  FLB_CHECK(r.ok(), r.status().ToString());
  return std::move(r).value();
}

FLB_HOT_ALIGNED BigInt operator%(const BigInt& a, const BigInt& b) {
  auto r = BigInt::Mod(a, b);
  FLB_CHECK(r.ok(), r.status().ToString());
  return std::move(r).value();
}

// ---- Binary GCD core --------------------------------------------------------
//
// Bernstein–Yang divsteps ("Fast constant-time gcd computation and modular
// inversion", 2019) in the variable-time form of libsecp256k1's modinv64,
// widened from its fixed 5 words to the operands' width. Values are signed
// radix-2^62 words: every word in [0, 2^62) except the top one, which
// carries the sign. Each outer iteration runs 62 divsteps on the low words
// alone, collects them into a 2x2 transition matrix scaled by 2^62, and
// applies it to the full-width f and g and, for an inverse, to the Bézout
// coefficients d and e modulo the odd modulus. Like the sliding-window
// ModPow, it runs in variable time.

namespace {

using I128 = __int128;
using U128 = unsigned __int128;

constexpr uint64_t kMask62 = ~uint64_t{0} >> 2;

// The matrix of 62 divsteps, times 2^62: f' = (u f + v g) / 2^62 and
// g' = (q f + r g) / 2^62, with |u| + |v| <= 2^62 and |q| + |r| <= 2^62.
struct Transition {
  int64_t u, v, q, r;
};

int64_t Low62(I128 x) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) & kMask62);
}

// Runs 62 divsteps on the low words f0 (odd) and g0 of f and g, starting
// from eta = -delta, and returns the new eta. Runs of zero bits in g are
// taken in one shift, and up to 6 (or 4) low bits of g are cancelled by one
// multiple of f.
int64_t DivSteps62(int64_t eta, uint64_t f0, uint64_t g0, Transition* t) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0, g = g0;
  int left = 62;
  for (;;) {
    // The sentinel bits stop the count at the divsteps left.
    const int zeros = std::countr_zero(g | (~uint64_t{0} << left));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    left -= zeros;
    if (left == 0) break;
    // g is odd. With eta < 0 the divstep swaps: (f, g) <- (g, -f).
    uint64_t w = 0;
    if (eta < 0) {
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = 0 - tmp;
      tmp = u;
      u = q;
      q = 0 - tmp;
      tmp = v;
      v = r;
      r = 0 - tmp;
      // -g / f mod 2^6 (f (f^2 - 2) is -1/f mod 2^6), over at most eta + 1
      // bits so that no swap falls inside the cancelled run.
      const int limit = static_cast<int>(std::min<int64_t>(eta + 1, left));
      const uint64_t mask = (~uint64_t{0} >> (64 - limit)) & 63;
      w = (f * g * (f * f - 2)) & mask;
    } else {
      // -g / f mod 2^4: f + 8 * (bit 2 of f + 1) is 1/f mod 2^4.
      const int limit = static_cast<int>(std::min<int64_t>(eta + 1, left));
      const uint64_t mask = (~uint64_t{0} >> (64 - limit)) & 15;
      w = f + (((f + 1) & 4) << 1);
      w = ((0 - w) * g) & mask;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t->u = static_cast<int64_t>(u);
  t->v = static_cast<int64_t>(v);
  t->q = static_cast<int64_t>(q);
  t->r = static_cast<int64_t>(r);
  return eta;
}

// [f, g] <- t [f, g] / 2^62 over the low `len` words; the division is
// exact.
void UpdateFg(int len, int64_t* f, int64_t* g, const Transition& t) {
  I128 cf = I128{t.u} * f[0] + I128{t.v} * g[0];
  I128 cg = I128{t.q} * f[0] + I128{t.r} * g[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += I128{t.u} * f[i] + I128{t.v} * g[i];
    cg += I128{t.q} * f[i] + I128{t.r} * g[i];
    f[i - 1] = Low62(cf);
    g[i - 1] = Low62(cg);
    cf >>= 62;
    cg >>= 62;
  }
  f[len - 1] = static_cast<int64_t>(cf);
  g[len - 1] = static_cast<int64_t>(cg);
}

// [d, e] <- t [d, e] / 2^62 mod m over n words, each kept in (-2m, m): the
// multiples md, me of m make the low 62 bits zero (m_inv62 = m^-1 mod
// 2^62), and adding u or q (v or r) for a negative d (e) keeps the range.
void UpdateDe(int n, int64_t* d, int64_t* e, const Transition& t,
              const int64_t* m, uint64_t m_inv62) {
  const int64_t sd = d[n - 1] >> 63, se = e[n - 1] >> 63;
  int64_t md = (t.u & sd) + (t.v & se);
  int64_t me = (t.q & sd) + (t.r & se);
  I128 cd = I128{t.u} * d[0] + I128{t.v} * e[0];
  I128 ce = I128{t.q} * d[0] + I128{t.r} * e[0];
  md -= static_cast<int64_t>(
      (m_inv62 * static_cast<uint64_t>(cd) + static_cast<uint64_t>(md)) &
      kMask62);
  me -= static_cast<int64_t>(
      (m_inv62 * static_cast<uint64_t>(ce) + static_cast<uint64_t>(me)) &
      kMask62);
  cd += I128{m[0]} * md;
  ce += I128{m[0]} * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < n; ++i) {
    cd += I128{t.u} * d[i] + I128{t.v} * e[i] + I128{m[i]} * md;
    ce += I128{t.q} * d[i] + I128{t.r} * e[i] + I128{m[i]} * me;
    d[i - 1] = Low62(cd);
    e[i - 1] = Low62(ce);
    cd >>= 62;
    ce >>= 62;
  }
  d[n - 1] = static_cast<int64_t>(cd);
  e[n - 1] = static_cast<int64_t>(ce);
}

// x as n signed radix-2^62 words (x < 2^(62 n - 1)).
void ToWords62(const BigInt& x, int64_t* out, int n) {
  const std::vector<uint32_t>& w = x.words();
  U128 acc = 0;
  int bits = 0;
  size_t next = 0;
  for (int i = 0; i < n; ++i) {
    for (; bits < 62 && next < w.size(); bits += kLimbBits) {
      acc |= U128{w[next++]} << bits;
    }
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(acc) & kMask62);
    acc >>= 62;
    bits = std::max(bits - 62, 0);
  }
}

// |v| of n signed radix-2^62 words in any carry state; *negative tells the
// sign. Overwrites v.
BigInt Magnitude62(int64_t* v, int n, bool* negative) {
  const auto carry = [&] {
    for (int i = 0; i + 1 < n; ++i) {
      v[i + 1] += v[i] >> 62;
      v[i] = static_cast<int64_t>(static_cast<uint64_t>(v[i]) & kMask62);
    }
  };
  carry();
  *negative = v[n - 1] < 0;
  if (*negative) {
    for (int i = 0; i < n; ++i) v[i] = -v[i];
    carry();
  }
  std::vector<uint32_t> w;
  w.reserve(static_cast<size_t>(n) * 2 + 1);
  U128 acc = 0;
  int bits = 0;
  for (int i = 0; i < n; ++i) {
    acc |= U128{static_cast<uint64_t>(v[i])} << bits;  // the top may hold 63
    for (bits += 62; bits >= kLimbBits; bits -= kLimbBits) {
      w.push_back(static_cast<uint32_t>(acc));
      acc >>= kLimbBits;
    }
  }
  for (; acc != 0; acc >>= kLimbBits) w.push_back(static_cast<uint32_t>(acc));
  return BigInt::FromWords(std::move(w));
}

// Runs divsteps on f (odd) and g, n words each, until g = 0, and returns the
// number of words f still spans; f is then +-gcd(f, g). f and g shrink by a
// word whenever both top words are sign only. With d and e (0 and 1 on
// entry) it keeps d g0 = f and e g0 = g modulo m, the starting f.
[[gnu::noinline]] FLB_HOT_ALIGNED int DivStepsToZero(
    int n, int64_t* f, int64_t* g, int64_t* d, int64_t* e, const int64_t* m,
    uint64_t m_inv62) {
  int len = n;
  int64_t eta = -1;  // eta = -delta; delta starts at 1
  for (;;) {
    Transition t{};
    eta = DivSteps62(eta, static_cast<uint64_t>(f[0]),
                     static_cast<uint64_t>(g[0]), &t);
    if (d != nullptr) UpdateDe(n, d, e, t, m, m_inv62);
    UpdateFg(len, f, g, t);
    if (g[0] == 0) {
      int64_t rest = 0;
      for (int i = 1; i < len; ++i) rest |= g[i];
      if (rest == 0) return len;
    }
    const int64_t fn = f[len - 1], gn = g[len - 1];
    if (len >= 2 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      // Fold the sign (0 or -1) into the word below.
      f[len - 2] |= static_cast<int64_t>(static_cast<uint64_t>(fn) << 62);
      g[len - 2] |= static_cast<int64_t>(static_cast<uint64_t>(gn) << 62);
      --len;
    }
  }
}

// gcd(f, g) for odd f. With `inverse`, g < f, and when the gcd is 1
// *inverse becomes g^-1 mod f.
BigInt OddGcd(const BigInt& f, const BigInt& g, BigInt* inverse) {
  // 62 n >= bits + 2 holds d and e in (-2f, f) with a sign bit.
  const int n = (std::max(f.BitLength(), g.BitLength()) + 2 + 61) / 62;
  std::vector<int64_t> words(static_cast<size_t>(inverse ? 5 : 2) * n, 0);
  int64_t* fw = words.data();
  int64_t* gw = fw + n;
  ToWords62(f, fw, n);
  ToWords62(g, gw, n);
  if (inverse == nullptr) {
    bool negative = false;
    return Magnitude62(fw, DivStepsToZero(n, fw, gw, nullptr, nullptr,
                                          nullptr, 0),
                       &negative);
  }
  int64_t* d = gw + n;
  int64_t* e = d + n;
  int64_t* m = e + n;
  e[0] = 1;
  std::copy(fw, fw + n, m);
  const uint64_t m_inv62 = 0 - fixed::NegInverseMod2p64(f.LowU64());
  const int len = DivStepsToZero(n, fw, gw, d, e, m, m_inv62);
  bool f_negative = false, d_negative = false;
  BigInt gcd = Magnitude62(fw, len, &f_negative);
  if (!gcd.IsOne()) return gcd;
  // d g = f = +-1 (mod f0), so the inverse is +-d, and |d| < 2 f0.
  BigInt x = Magnitude62(d, n, &d_negative);
  if (x >= f) x = BigInt::Sub(x, f);
  if (f_negative != d_negative && !x.IsZero()) x = BigInt::Sub(f, x);
  *inverse = std::move(x);
  return gcd;
}

Status NotCoprime() {
  return Status::ArithmeticError("ModInverse: values are not coprime");
}

int TrailingZeroBits(const BigInt& a) {
  const std::vector<uint32_t>& w = a.words();
  size_t i = 0;
  while (w[i] == 0) ++i;
  return static_cast<int>(i) * kLimbBits + std::countr_zero(w[i]);
}

}  // namespace

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  // gcd(a, b) = 2^min(za, zb) gcd(a / 2^za, b / 2^zb).
  const int za = TrailingZeroBits(a), zb = TrailingZeroBits(b);
  return ShiftLeft(OddGcd(ShiftRight(a, za), ShiftRight(b, zb), nullptr),
                   std::min(za, zb));
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  return Mul(a, b) / Gcd(a, b);
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& n) {
  if (n < BigInt(2)) {
    return Status::InvalidArgument("ModInverse: modulus must be >= 2");
  }
  const BigInt x = a % n;
  BigInt inv;
  if (n.IsOdd()) {
    if (!OddGcd(n, x, &inv).IsOne()) return NotCoprime();
    return inv;
  }
  // Even n needs odd x. With y = n^-1 mod x, n y - 1 = t x for an integer
  // 0 <= t < n, and x (n - t) = 1 + n (x - y) = 1 (mod n).
  if (x.IsEven()) return NotCoprime();
  if (x.IsOne()) return x;
  BigInt y;
  if (!OddGcd(x, n % x, &y).IsOne()) return NotCoprime();
  return Sub(n, Sub(Mul(n, y), BigInt(1)) / x);
}

FLB_HOT_ALIGNED void BigInt::AddModInPlace(const BigInt& b, const BigInt& n) {
  // n = 0 takes the fallback too, whose % fails the FLB_CHECK.
  if (Compare(n) >= 0 || b.Compare(n) >= 0) {
    *this = Add(*this, b) % n;
    return;
  }
  // Both below n, so the sum is below 2n and needs at most one subtraction
  // of n. The add runs over the longer operand's limbs only: short
  // (small-magnitude) residues stay cheap. Limb i of b is read before limb
  // i of *this is written, so b may alias *this.
  const size_t width = n.limbs_.size();
  const size_t b_size = b.limbs_.size();
  const size_t m = std::max(limbs_.size(), b_size);
  limbs_.resize(m, 0);
  const uint32_t* y = b.limbs_.data();  // after the resize, for aliasing
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < b_size; ++i) {
    const uint64_t sum = carry + limbs_[i] + y[i];
    limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  for (; carry != 0 && i < m; ++i) {
    const uint64_t sum = carry + limbs_[i];
    limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  if (carry != 0 && m < width) {
    limbs_.push_back(1);
    carry = 0;
  }
  // Without a carry the sum is normalized and Compare sees its true size;
  // a carry out of n's width is absorbed by the subtraction's final borrow.
  if (carry != 0 || Compare(n) >= 0) {
    uint64_t borrow = 0;
    for (size_t j = 0; j < width; ++j) {
      const uint64_t diff =
          static_cast<uint64_t>(limbs_[j]) - n.limbs_[j] - borrow;
      limbs_[j] = static_cast<uint32_t>(diff);
      borrow = diff >> 63;
    }
  }
  Normalize();
}

FLB_HOT_ALIGNED void BigInt::AddInPlace(const BigInt& b) {
  // Both operands are normalized, so the sum is too: its top limb is at
  // least b's or *this's nonzero top, unless the carry leaves it, and then
  // the carry becomes the new top limb.
  const size_t b_size = b.limbs_.size();
  if (limbs_.size() < b_size) limbs_.resize(b_size, 0);
  const uint32_t* y = b.limbs_.data();  // after the resize, for aliasing
  uint64_t carry = 0;
  size_t i = 0;
  for (; i < b_size; ++i) {
    const uint64_t sum = carry + limbs_[i] + y[i];
    limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  for (; carry != 0 && i < limbs_.size(); ++i) {
    const uint64_t sum = carry + limbs_[i];
    limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  if (carry != 0) limbs_.push_back(1);
}

Result<BigInt> BigInt::ModMul(const BigInt& a, const BigInt& b,
                              const BigInt& n) {
  if (n.IsZero()) return Status::ArithmeticError("ModMul: modulus is zero");
  return Mod(Mul(a, b), n);
}

Result<BigInt> BigInt::ModPow(const BigInt& a, const BigInt& e,
                              const BigInt& n) {
  if (n.IsZero()) return Status::ArithmeticError("ModPow: modulus is zero");
  if (n.IsOne()) return BigInt();
  FLB_ASSIGN_OR_RETURN(BigInt base, Mod(a, n));
  BigInt result(1);
  const int bits = e.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    FLB_ASSIGN_OR_RETURN(result, ModMul(result, result, n));
    if (e.GetBit(i)) {
      FLB_ASSIGN_OR_RETURN(result, ModMul(result, base, n));
    }
  }
  return result;
}

std::vector<uint32_t> BigInt::ToFixedWords(size_t n) const {
  std::vector<uint32_t> out(n, 0);
  const size_t copy = std::min(n, limbs_.size());
  std::copy(limbs_.begin(), limbs_.begin() + copy, out.begin());
  return out;
}

}  // namespace flb::mpint

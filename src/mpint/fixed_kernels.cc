#include "src/mpint/fixed_kernels.h"

#include <cstring>
#include <iterator>

#include "src/common/env.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace flb::mpint::fixed {

namespace {

#if defined(__SIZEOF_INT128__)
constexpr bool kHasInt128 = true;
#else
constexpr bool kHasInt128 = false;
#endif
static_assert(kHasInt128, "fixed-width kernels require unsigned __int128");

using u128 = unsigned __int128;

// Pins each dispatched kernel to a cache-line boundary so its hot loops sit
// at the same offset whatever the linker places before it.
#define FLB_KERNEL_ALIGNED __attribute__((aligned(64)))

// ---- Portable table ---------------------------------------------------------

// Compose N little-endian 32-bit limbs into N/2 64-bit words.
template <size_t N>
inline void Compose64(const uint32_t* x, uint64_t* y) {
  for (size_t i = 0; i < N / 2; ++i) {
    y[i] = static_cast<uint64_t>(x[2 * i]) |
           (static_cast<uint64_t>(x[2 * i + 1]) << 32);
  }
}

// Decompose N/2 64-bit words back into N little-endian 32-bit limbs.
template <size_t N>
inline void Decompose64(const uint64_t* x, uint32_t* y) {
  for (size_t i = 0; i < N / 2; ++i) {
    y[2 * i] = static_cast<uint32_t>(x[i]);
    y[2 * i + 1] = static_cast<uint32_t>(x[i] >> 32);
  }
}

// CIOS Montgomery multiplication at compile-time width: the exact
// Koç–Acar–Kaliski recurrence of MontgomeryContext::MontMulWordsGeneric,
// word-scanned in radix 2^64. R = 2^(32N) either way, so the canonical
// result is identical.
template <size_t N>
FLB_KERNEL_ALIGNED void MontMulN(uint32_t* z, const uint32_t* x,
                                 const uint32_t* y, const uint32_t* mod,
                                 uint64_t n0_inv64) {
  static_assert(N % 2 == 0, "fixed kernels require an even limb count");
  constexpr size_t H = N / 2;
  uint64_t a[H], b[H], n[H], t[H + 2];
  Compose64<N>(x, a);
  Compose64<N>(y, b);
  Compose64<N>(mod, n);
  for (size_t i = 0; i < H + 2; ++i) t[i] = 0;
  for (size_t i = 0; i < H; ++i) {
    // Multiplication step: t += a * b[i].
    u128 carry = 0;
    const uint64_t bi = b[i];
    for (size_t j = 0; j < H; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(t[H]) + carry;
    t[H] = static_cast<uint64_t>(cur);
    t[H + 1] = static_cast<uint64_t>(cur >> 64);

    // Reduction step: m makes the low word of t vanish (mod 2^64).
    const uint64_t m = t[0] * n0_inv64;
    cur = static_cast<u128>(t[0]) + static_cast<u128>(m) * n[0];
    carry = cur >> 64;
    for (size_t j = 1; j < H; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    cur = static_cast<u128>(t[H]) + carry;
    t[H - 1] = static_cast<uint64_t>(cur);
    t[H] = t[H + 1] + static_cast<uint64_t>(cur >> 64);
  }

  // Final conditional subtraction: the loop guarantees t < 2n.
  bool ge = t[H] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = H; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  uint64_t r[H];
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < H; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
      r[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
  } else {
    for (size_t i = 0; i < H; ++i) r[i] = t[i];
  }
  Decompose64<N>(r, z);
}

// Portable squaring is MontMul with both operands equal; only the BMI2/ADX
// table has a dedicated squaring kernel.
template <size_t N>
FLB_KERNEL_ALIGNED void MontSqrN(uint32_t* z, const uint32_t* x,
                                 const uint32_t* mod, uint64_t n0_inv64) {
  MontMulN<N>(z, x, x, mod, n0_inv64);
}

template <size_t N>
constexpr KernelOps MakeOps() {
  KernelOps ops;
  ops.limbs = N;
  ops.mont_mul = &MontMulN<N>;
  ops.mont_sqr = &MontSqrN<N>;
  return ops;
}

// One instantiation per limb count on the Paillier hot path. A key of
// 2^k bits needs contexts at 2^k/32 limbs (n, p^2, q^2) and 2^k/16 limbs
// (n^2); covering 64..4096-bit keys gives the power-of-two ladder 2..256.
// Other contexts at the same widths (PSI's RSA primes) dispatch for free.
constexpr KernelOps kPortableTable[] = {
    MakeOps<2>(),  MakeOps<4>(),  MakeOps<8>(),   MakeOps<16>(),
    MakeOps<32>(), MakeOps<64>(), MakeOps<128>(), MakeOps<256>(),
};

// ---- BMI2/ADX table (x86-64) ------------------------------------------------
//
// The kernels copy their operands into local 64-bit word arrays with memcpy
// (on little-endian x86-64 a uint32_t row *is* its 64-bit word row), run the
// asm on those locals only, and memcpy the result out. Sanitizers cannot see
// memory accesses inside asm, so keeping every asm operand kernel-local
// leaves all accesses to caller memory visible to ASan/TSan; the
// differential tests check the asm itself.

#if defined(__x86_64__)
#define FLB_HAVE_BMI2_ADX_KERNELS 1

// t[0..len) += x[0..len) * y for len >= 1; returns the carry-out word (the
// amount owed to t[len]). t + x*y < 2^(64(len+1)), so the carry fits one
// word. Two carry chains run interleaved: adcx folds each product's low
// word into t (CF), adox folds the previous product's high word in (OF).
// Loop control uses only lea/jrcxz/jmp, which leave both flags intact:
// first len/4 four-word blocks, then len%4 single words.
inline uint64_t MulAddRow(uint64_t* t, const uint64_t* x, size_t len,
                          uint64_t y) {
  size_t count = len / 4;
  const size_t rem = len % 4;
  uint64_t hi, lo, hi2;
  __asm__ __volatile__(
      "xorl %k[hi], %k[hi]\n\t"  // hi = 0; clears CF and OF
      "jmp 2f\n\t"
      ".p2align 5\n"
      "1:\n\t"
      "mulx (%[x]), %[lo], %[hi2]\n\t"
      "adcx (%[t]), %[lo]\n\t"
      "adox %[hi], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "mulx 8(%[x]), %[lo], %[hi]\n\t"
      "adcx 8(%[t]), %[lo]\n\t"
      "adox %[hi2], %[lo]\n\t"
      "movq %[lo], 8(%[t])\n\t"
      "mulx 16(%[x]), %[lo], %[hi2]\n\t"
      "adcx 16(%[t]), %[lo]\n\t"
      "adox %[hi], %[lo]\n\t"
      "movq %[lo], 16(%[t])\n\t"
      "mulx 24(%[x]), %[lo], %[hi]\n\t"
      "adcx 24(%[t]), %[lo]\n\t"
      "adox %[hi2], %[lo]\n\t"
      "movq %[lo], 24(%[t])\n\t"
      "leaq 32(%[x]), %[x]\n\t"
      "leaq 32(%[t]), %[t]\n\t"
      "leaq -1(%%rcx), %%rcx\n"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n"
      "3:\n\t"
      "movq %[rem], %%rcx\n\t"
      "jmp 5f\n\t"
      ".p2align 4\n"
      "4:\n\t"
      "mulx (%[x]), %[lo], %[hi2]\n\t"
      "adcx (%[t]), %[lo]\n\t"
      "adox %[hi], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "movq %[hi2], %[hi]\n\t"
      "leaq 8(%[x]), %[x]\n\t"
      "leaq 8(%[t]), %[t]\n\t"
      "leaq -1(%%rcx), %%rcx\n"
      "5:\n\t"
      "jrcxz 6f\n\t"
      "jmp 4b\n"
      "6:\n\t"
      "movl $0, %k[lo]\n\t"  // mov, not xor: the flags still hold carries
      "adcx %[lo], %[hi]\n\t"
      "adox %[lo], %[hi]\n\t"
      : [t] "+r"(t), [x] "+r"(x), "+c"(count), [hi] "=&r"(hi), [lo] "=&r"(lo),
        [hi2] "=&r"(hi2)
      : "d"(y), [rem] "r"(rem)
      : "cc", "memory");
  return hi;
}

// t[0..2h) = 2*t[0..2h) + sum_i x[i]^2 * 2^(128i): the doubling runs on the
// CF chain (adcx w, w) and the squares on the OF chain. Both chains end at
// zero because the result is x^2 < 2^(128h).
inline void DoubleAddDiagonal(uint64_t* t, const uint64_t* x, size_t h) {
  size_t count = h;
  uint64_t sq_lo, sq_hi, w, xi;
  __asm__ __volatile__(
      "xorl %k[w], %k[w]\n\t"  // clears CF and OF
      "jmp 2f\n\t"
      ".p2align 5\n"
      "1:\n\t"
      "movq (%[x]), %%rdx\n\t"
      "mulx %%rdx, %[lo], %[hi]\n\t"
      "movq (%[t]), %[w]\n\t"
      "adcx %[w], %[w]\n\t"
      "adox %[lo], %[w]\n\t"
      "movq %[w], (%[t])\n\t"
      "movq 8(%[t]), %[w]\n\t"
      "adcx %[w], %[w]\n\t"
      "adox %[hi], %[w]\n\t"
      "movq %[w], 8(%[t])\n\t"
      "leaq 8(%[x]), %[x]\n\t"
      "leaq 16(%[t]), %[t]\n\t"
      "leaq -1(%%rcx), %%rcx\n"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n"
      "3:\n\t"
      : [t] "+r"(t), [x] "+r"(x), "+c"(count), [lo] "=&r"(sq_lo),
        [hi] "=&r"(sq_hi), [w] "=&r"(w), "=&d"(xi)
      :
      : "cc", "memory");
}

// Montgomery reduction of the 2H-word t (< n*R), as in GMP's redc_1: row i
// adds m*n at word i (m = t[i]*n0') so that word vanishes, and its carry
// word, owed to word i+H, is parked in the vanished word i. Every m reads a
// word below H, which no carry is owed to, so parking changes no m; one add
// of the parked carries t[0..H) into t[H..2H) after the last row settles
// them all. One conditional subtraction then writes t*R^{-1} mod n to z.
template <size_t H>
inline void RedcRows(uint64_t* t, const uint64_t* n, uint64_t n0_inv64,
                     uint32_t* z) {
  for (size_t i = 0; i < H; ++i) {
    t[i] = MulAddRow(t + i, n, H, t[i] * n0_inv64);
  }
  // r = top*2^(64H) + t[H..2H) + t[0..H) < 2n.
  uint64_t* r = t + H;
  uint64_t top = 0;
  for (size_t i = 0; i < H; ++i) {
    const u128 sum = static_cast<u128>(r[i]) + t[i] + top;
    r[i] = static_cast<uint64_t>(sum);
    top = static_cast<uint64_t>(sum >> 64);
  }
  // Subtract n once when r >= n.
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (size_t i = H; i-- > 0;) {
      if (r[i] != n[i]) {
        ge = r[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < H; ++i) {
      const u128 diff = static_cast<u128>(r[i]) - n[i] - borrow;
      r[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
  }
  std::memcpy(z, r, H * sizeof(uint64_t));
}

template <size_t N>
FLB_KERNEL_ALIGNED void MontMulAdx(uint32_t* z, const uint32_t* x,
                                   const uint32_t* y, const uint32_t* mod,
                                   uint64_t n0_inv64) {
  static_assert(N % 2 == 0, "fixed kernels require an even limb count");
  constexpr size_t H = N / 2;
  alignas(64) uint64_t a[H], b[H], n[H], t[2 * H];
  std::memcpy(a, x, sizeof(a));
  std::memcpy(b, y, sizeof(b));
  std::memcpy(n, mod, sizeof(n));
  // Product rows: t = a*b, row i adding a*b[i] at word i.
  std::memset(t, 0, H * sizeof(uint64_t));
  for (size_t i = 0; i < H; ++i) t[i + H] = MulAddRow(t + i, a, H, b[i]);
  RedcRows<H>(t, n, n0_inv64, z);
}

template <size_t N>
FLB_KERNEL_ALIGNED void MontSqrAdx(uint32_t* z, const uint32_t* x,
                                   const uint32_t* mod, uint64_t n0_inv64) {
  static_assert(N % 2 == 0, "fixed kernels require an even limb count");
  constexpr size_t H = N / 2;
  alignas(64) uint64_t a[H], n[H], t[2 * H];
  std::memcpy(a, x, sizeof(a));
  std::memcpy(n, mod, sizeof(n));
  // Half cross-products: row i adds a[i+1..H)*a[i] at word 2i+1 and owns
  // its carry word i+H. Words 0 and 2H-1 are never written by a row.
  std::memset(t, 0, H * sizeof(uint64_t));
  t[2 * H - 1] = 0;
  for (size_t i = 0; i + 1 < H; ++i) {
    t[i + H] = MulAddRow(t + 2 * i + 1, a + i + 1, H - 1 - i, a[i]);
  }
  DoubleAddDiagonal(t, a, H);
  RedcRows<H>(t, n, n0_inv64, z);
}

template <size_t N>
constexpr KernelOps MakeAdx() {
  KernelOps ops;
  ops.limbs = N;
  ops.mont_mul = &MontMulAdx<N>;
  ops.mont_sqr = &MontSqrAdx<N>;
  return ops;
}

constexpr KernelOps kAdxTable[] = {
    MakeAdx<2>(),  MakeAdx<4>(),  MakeAdx<8>(),   MakeAdx<16>(),
    MakeAdx<32>(), MakeAdx<64>(), MakeAdx<128>(), MakeAdx<256>(),
};

// ---- 8-lane radix-2^52 table (AVX-512 IFMA) ---------------------------------
//
// Intrinsics in functions compiled for avx512f+avx512ifma only, reached
// through FindLaneKernel after the CPU check, so the library itself needs
// no -m flag. Unlike the BMI2/ADX asm, every load and store is an ordinary
// compiler-visible access, so ASan and TSan check the kernels like any
// other code.

#define FLB_HAVE_IFMA_LANES 1
#define FLB_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

constexpr uint64_t kDigitMask = (uint64_t{1} << 52) - 1;

// As many digits as 32*limbs + 2 bits need, so that 4m < R' = 2^(52D).
constexpr size_t LaneDigits(size_t limbs) { return (32 * limbs + 2 + 51) / 52; }

// Accumulators t[k] are unnormalized 64-bit lanes: every madd52 adds less
// than 2^52, and a position collects at most 2D terms in the product phase
// and 2D in the reduction, so t[k] < (4D + 2) * 2^52 < 2^61 for D <= 79.

// v >> 52 per lane. The zero-masked form is the same instruction; GCC 12's
// unmasked intrinsic trips -Wuninitialized on its undefined pass-through.
FLB_IFMA_TARGET inline __m512i DigitCarry(__m512i v) {
  return _mm512_maskz_srli_epi64(static_cast<__mmask8>(0xFF), v, 52);
}

// Montgomery reduction of the 2D-digit lane product t, as in RedcRows: step
// i adds q*m at digit i (q = t[i]*k0 mod 2^52) so that digit's low 52 bits
// vanish and moves its carry into t[i+1]. The result t[D..2D) < 2m is
// normalized into z.
template <size_t D>
FLB_IFMA_TARGET inline void RedcLanes(__m512i* t, LaneDigit* z,
                                      const uint64_t* m, uint64_t k0) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0v = _mm512_set1_epi64(static_cast<long long>(k0));
  for (size_t i = 0; i < D; ++i) {
    __m512i* ti = t + i;
    const __m512i q = _mm512_madd52lo_epu64(zero, ti[0], k0v);
    __m512i prev = _mm512_set1_epi64(static_cast<long long>(m[0]));
    const __m512i low = _mm512_madd52lo_epu64(ti[0], prev, q);
    ti[1] = _mm512_add_epi64(ti[1], DigitCarry(low));
    for (size_t j = 1; j < D; ++j) {
      const __m512i mj = _mm512_set1_epi64(static_cast<long long>(m[j]));
      ti[j] = _mm512_madd52hi_epu64(_mm512_madd52lo_epu64(ti[j], mj, q), prev,
                                    q);
      prev = mj;
    }
    ti[D] = _mm512_madd52hi_epu64(ti[D], prev, q);
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  __m512i carry = zero;
  for (size_t j = 0; j < D; ++j) {
    const __m512i v = _mm512_add_epi64(t[D + j], carry);
    carry = DigitCarry(v);
    _mm512_store_si512(z + j, _mm512_and_si512(v, mask));
  }
}

// Product rows: t += x * y[i] at digit i, each position taking the low half
// of x[j]*y[i] and the high half of x[j-1]*y[i] in one read-modify-write.
template <size_t D>
FLB_IFMA_TARGET FLB_KERNEL_ALIGNED void AmmMulLanes(LaneDigit* z,
                                                    const LaneDigit* x,
                                                    const LaneDigit* y,
                                                    const uint64_t* m,
                                                    uint64_t k0) {
  __m512i t[2 * D];
  for (size_t k = 0; k < 2 * D; ++k) t[k] = _mm512_setzero_si512();
  for (size_t i = 0; i < D; ++i) {
    __m512i* ti = t + i;
    const __m512i yi = _mm512_load_si512(y + i);
    __m512i prev = _mm512_load_si512(x);
    ti[0] = _mm512_madd52lo_epu64(ti[0], prev, yi);
    for (size_t j = 1; j < D; ++j) {
      const __m512i xj = _mm512_load_si512(x + j);
      ti[j] = _mm512_madd52hi_epu64(_mm512_madd52lo_epu64(ti[j], xj, yi), prev,
                                    yi);
      prev = xj;
    }
    ti[D] = _mm512_madd52hi_epu64(ti[D], prev, yi);
  }
  RedcLanes<D>(t, z, m, k0);
}

// Squaring: the cross products x[i]*x[j], i < j, once; then every position
// doubled and the diagonal x[i]^2 added before the same reduction.
template <size_t D>
FLB_IFMA_TARGET FLB_KERNEL_ALIGNED void AmmSqrLanes(LaneDigit* z,
                                                    const LaneDigit* x,
                                                    const uint64_t* m,
                                                    uint64_t k0) {
  __m512i t[2 * D];
  for (size_t k = 0; k < 2 * D; ++k) t[k] = _mm512_setzero_si512();
  for (size_t i = 0; i + 1 < D; ++i) {
    __m512i* ti = t + i;
    const __m512i xi = _mm512_load_si512(x + i);
    __m512i prev = _mm512_load_si512(x + i + 1);
    ti[i + 1] = _mm512_madd52lo_epu64(ti[i + 1], prev, xi);
    for (size_t j = i + 2; j < D; ++j) {
      const __m512i xj = _mm512_load_si512(x + j);
      ti[j] = _mm512_madd52hi_epu64(_mm512_madd52lo_epu64(ti[j], xj, xi), prev,
                                    xi);
      prev = xj;
    }
    ti[D] = _mm512_madd52hi_epu64(ti[D], prev, xi);
  }
  for (size_t i = 0; i < D; ++i) {
    const __m512i xi = _mm512_load_si512(x + i);
    t[2 * i] = _mm512_madd52lo_epu64(_mm512_add_epi64(t[2 * i], t[2 * i]), xi,
                                     xi);
    t[2 * i + 1] = _mm512_madd52hi_epu64(
        _mm512_add_epi64(t[2 * i + 1], t[2 * i + 1]), xi, xi);
  }
  RedcLanes<D>(t, z, m, k0);
}

template <size_t N>
constexpr LaneOps MakeLanes() {
  constexpr size_t D = LaneDigits(N);
  LaneOps ops;
  ops.limbs = N;
  ops.digits = D;
  ops.amm_mul = &AmmMulLanes<D>;
  ops.amm_sqr = &AmmSqrLanes<D>;
  return ops;
}

// The n / p^2 / q^2 widths of 1024- and 2048-bit keys and n^2 of 1024-bit
// keys (and so 2048-bit moduli generally).
constexpr LaneOps kLaneTable[] = {MakeLanes<32>(), MakeLanes<64>(),
                                  MakeLanes<128>()};

#endif  // defined(__x86_64__)

template <typename Ops, size_t K>
const Ops* Lookup(const Ops (&table)[K], size_t limbs) {
  for (const Ops& ops : table) {
    if (ops.limbs == limbs) return &ops;
  }
  return nullptr;
}

}  // namespace

bool CpuHasBmi2Adx() {
#if defined(FLB_HAVE_BMI2_ADX_KERNELS)
  // CPUID leaf 7, EBX bits 8 (BMI2) and 19 (ADX): the bits behind
  // __builtin_cpu_supports("bmi2"/"adx"), read directly because older Clang
  // releases reject the "adx" feature string.
  static const bool has = [] {
    if (__get_cpuid_max(0, nullptr) < 7) return false;
    unsigned eax, ebx, ecx, edx;
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    return ((ebx >> 8) & 1) != 0 && ((ebx >> 19) & 1) != 0;
  }();
  return has;
#else
  return false;
#endif
}

const KernelOps* FindKernel(size_t limbs) {
  return FindKernel(limbs, CpuHasBmi2Adx() ? KernelIsa::kBmi2Adx
                                           : KernelIsa::kPortable);
}

const KernelOps* FindKernel(size_t limbs, KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return Lookup(kPortableTable, limbs);
    case KernelIsa::kBmi2Adx:
#if defined(FLB_HAVE_BMI2_ADX_KERNELS)
      if (CpuHasBmi2Adx()) return Lookup(kAdxTable, limbs);
#endif
      return nullptr;
  }
  return nullptr;
}

bool CpuHasAvx512Ifma() {
#if defined(FLB_HAVE_IFMA_LANES)
  static const bool has = [] {
    unsigned eax, ebx, ecx, edx;
    if (__get_cpuid_max(0, nullptr) < 7) return false;
    // The OS must save the ZMM state: CPUID.1:ECX bit 27 (OSXSAVE), then
    // XCR0 bits 1-2 (SSE, AVX) and 5-7 (opmask, ZMM_Hi256, Hi16_ZMM).
    __cpuid(1, eax, ebx, ecx, edx);
    if (((ecx >> 27) & 1) == 0) return false;
    unsigned xcr0_lo, xcr0_hi;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    if ((xcr0_lo & 0xE6u) != 0xE6u) return false;
    // CPUID leaf 7, EBX bits 16 (AVX512F) and 21 (AVX512_IFMA).
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    return ((ebx >> 16) & 1) != 0 && ((ebx >> 21) & 1) != 0;
  }();
  return has;
#else
  return false;
#endif
}

const LaneOps* FindLaneKernel(size_t limbs) {
#if defined(FLB_HAVE_IFMA_LANES)
  if (CpuHasAvx512Ifma()) return Lookup(kLaneTable, limbs);
#endif
  (void)limbs;
  return nullptr;
}

void RowToLane(const uint32_t* row, size_t limbs, LaneDigit* v, size_t digits,
               size_t lane) {
  u128 acc = 0;  // pending bits, the lowest first
  size_t bits = 0, next = 0;
  for (size_t j = 0; j < digits; ++j) {
    for (; bits < 52 && next < limbs; bits += 32) {
      acc |= static_cast<u128>(row[next++]) << bits;
    }
    v[j].lane[lane] = static_cast<uint64_t>(acc) & ((uint64_t{1} << 52) - 1);
    acc >>= 52;
    bits = bits > 52 ? bits - 52 : 0;
  }
}

void LaneToRow(const LaneDigit* v, size_t digits, size_t lane, uint32_t* row,
               size_t limbs) {
  u128 acc = 0;
  size_t bits = 0, next = 0;
  for (size_t i = 0; i < limbs; ++i) {
    for (; bits < 32 && next < digits; bits += 52) {
      acc |= static_cast<u128>(v[next++].lane[lane]) << bits;
    }
    row[i] = static_cast<uint32_t>(acc);
    acc >>= 32;
    bits = bits > 32 ? bits - 32 : 0;
  }
}

std::vector<size_t> SupportedWidths() {
  std::vector<size_t> widths;
  widths.reserve(std::size(kPortableTable));
  for (const KernelOps& ops : kPortableTable) widths.push_back(ops.limbs);
  return widths;
}

uint64_t NegInverseMod2p64(uint64_t n0) {
  uint64_t x = n0;  // correct to 3 bits for odd n0 (n0*n0 ≡ 1 mod 8)
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return 0u - x;
}

bool KernelsEnabled() {
  static const bool enabled = common::Env::Flag("FLB_FIXED_KERNELS", true);
  return enabled;
}

}  // namespace flb::mpint::fixed

// Fixed-width Montgomery kernels for the modular-arithmetic hot path.
//
// The generic BigInt/MontgomeryContext path (src/mpint/bigint.cc,
// src/crypto/montgomery.cc) works on heap-backed radix-2^32 limb vectors:
// every MontMul in a 1024/2048/4096-bit Paillier operation pays dynamic
// sizing, allocation, and a runtime trip count on the platform's single
// hottest loop. Following the mcl low_func idiom (SNIPPETS.md Snippet 1),
// this header exposes tables of compile-time-width MontMul/MontSqr kernels
// over flat uint32_t[N] rows, looked up once per modulus.
//
// Two tables are compiled in (fixed_kernels.cc):
//   * portable — a radix-2^64 CIOS on unsigned __int128 multiplies; the only
//     table on CPUs without BMI2/ADX and the reference the fast table is
//     tested against;
//   * BMI2/ADX (x86-64) — one inline-asm multiply-accumulate row built on
//     mulx with two independent carry chains (adcx on CF, adox on OF);
//     MontMul runs product rows then REDC rows, and a dedicated MontSqr
//     computes the half cross-products once, doubles them and adds the
//     diagonal before the REDC rows.
// FindKernel picks the BMI2/ADX table when the running CPU reports both
// features (checked once per process), else the portable one.
//
// Bit-exactness: Montgomery multiplication with R = 2^(32*N) computes a
// unique canonical representative a*b*R^{-1} mod n < n, whatever the word
// size or operation order inside the kernel (N is even for every
// instantiated width). Every kernel therefore produces byte-for-byte the
// results of the generic path; tests/fixed_width_test.cc fuzzes both
// tables against the radix-2^32 oracle across all supported widths.
//
// Placement: every dispatched kernel is 64-byte aligned and the asm loop
// heads are .p2align'ed, so edits elsewhere in the binary cannot shift the
// hot loops across cache-line or fetch-block boundaries.
//
// A third, multi-operand table runs eight rows at once: an almost-
// Montgomery multiply and square in radix 2^52 on AVX-512 IFMA
// (vpmadd52luq/vpmadd52huq), one batch row per 64-bit lane with the digits
// interleaved across lanes (LaneDigit). It serves eight-row batches
// (crypto::MontgomeryContext::ModPowRows and HornerRows) and is found only
// when the CPU and OS support AVX-512F and AVX512_IFMA.

#ifndef FLB_MPINT_FIXED_KERNELS_H_
#define FLB_MPINT_FIXED_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flb::mpint::fixed {

// Dispatch record for one supported limb width N. Both pointers operate on
// little-endian uint32_t arrays of exactly N limbs and permit `z` to alias
// any input; `mod` must be odd. n0_inv64 is -mod^{-1} mod 2^64
// (NegInverseMod2p64).
struct KernelOps {
  size_t limbs = 0;
  // z[N] = x*y*R^{-1} mod `mod`, R = 2^(32N); inputs < mod, output < mod.
  void (*mont_mul)(uint32_t* z, const uint32_t* x, const uint32_t* y,
                   const uint32_t* mod, uint64_t n0_inv64) = nullptr;
  // z[N] = x*x*R^{-1} mod `mod`.
  void (*mont_sqr)(uint32_t* z, const uint32_t* x, const uint32_t* mod,
                   uint64_t n0_inv64) = nullptr;
};

// The kernel tables compiled into the library.
enum class KernelIsa {
  kPortable,  // unsigned __int128 CIOS; runs everywhere
  kBmi2Adx,   // x86-64 mulx/adcx/adox rows; needs BMI2 and ADX
};

// True when this is an x86-64 build and the CPU reports both BMI2 and ADX.
// Evaluated once per process.
bool CpuHasBmi2Adx();

// The entry for `limbs` 32-bit limbs in the table this CPU dispatches to
// (BMI2/ADX when CpuHasBmi2Adx(), else portable), or nullptr when that width
// has no instantiation (callers keep the generic path).
const KernelOps* FindKernel(size_t limbs);

// The entry for `limbs` in the `isa` table, or nullptr when that width has
// none or this build or CPU cannot run that table.
const KernelOps* FindKernel(size_t limbs, KernelIsa isa);

// Every width with a kernel instantiation, ascending (for tests/benches).
// Both tables cover the same widths.
std::vector<size_t> SupportedWidths();

// ---- 8-lane radix-2^52 table (AVX-512 IFMA) ---------------------------------

// Rows a lane kernel runs in lock-step.
inline constexpr size_t kLanes = 8;

// One radix-2^52 digit position of eight rows: lane l holds row l's digit.
// A lane operand of D digits is D consecutive LaneDigits.
struct alignas(64) LaneDigit {
  uint64_t lane[kLanes];
};

// Dispatch record for one modulus width. With R' = 2^(52*digits) and
// 4m < R', both kernels compute, per lane, an almost-Montgomery product
// x*y*R'^{-1} mod m plus possibly one m: inputs < 2m give an output < 2m,
// so chains of them need no subtraction in between. Digits of inputs are
// < 2^52 and outputs come back normalized the same way. `m` is the modulus
// as `digits` radix-2^52 digits (shared by all lanes), k0 is -m^{-1} mod
// 2^52, and z may alias any input.
struct LaneOps {
  size_t limbs = 0;   // modulus width in 32-bit limbs
  size_t digits = 0;  // ceil((32*limbs + 2) / 52)
  void (*amm_mul)(LaneDigit* z, const LaneDigit* x, const LaneDigit* y,
                  const uint64_t* m, uint64_t k0) = nullptr;
  void (*amm_sqr)(LaneDigit* z, const LaneDigit* x, const uint64_t* m,
                  uint64_t k0) = nullptr;
};

// True when this is an x86-64 build, the CPU reports AVX-512F and
// AVX512_IFMA (CPUID leaf 7, EBX bits 16 and 21) and the OS saves the ZMM
// state (XGETBV). Evaluated once per process.
bool CpuHasAvx512Ifma();

// The lane entry for `limbs` 32-bit limbs, or nullptr when that width has
// none (32, 64 and 128 limbs are instantiated) or the CPU lacks
// CpuHasAvx512Ifma().
const LaneOps* FindLaneKernel(size_t limbs);

// Radix conversion between a little-endian row of `limbs` 32-bit limbs and
// lane `lane` of a `digits`-digit lane operand. RowToLane zero-fills the
// digits above the row; LaneToRow keeps the low 32*limbs bits and expects
// normalized digits.
void RowToLane(const uint32_t* row, size_t limbs, LaneDigit* v, size_t digits,
               size_t lane);
void LaneToRow(const LaneDigit* v, size_t digits, size_t lane, uint32_t* row,
               size_t limbs);

// -n^{-1} mod 2^64 for odd n (Newton–Hensel lifting; the radix-2^64
// Montgomery factor mirroring crypto's radix-2^32 NegInverseMod2p32).
uint64_t NegInverseMod2p64(uint64_t n0);

// True unless the FLB_FIXED_KERNELS environment variable is set to "0" —
// the process-wide kill switch for A/B runs and debugging. Consulted by
// MontgomeryContext::Create, which then binds neither a fixed-width nor a
// lane kernel; results are bit-identical either way, only speed changes.
bool KernelsEnabled();

}  // namespace flb::mpint::fixed

#endif  // FLB_MPINT_FIXED_KERNELS_H_

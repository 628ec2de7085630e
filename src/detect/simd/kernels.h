// SIMD kernels for the residual-view peeling hot loops (DESIGN.md
// §"SIMD kernels & dispatch").
//
// Every kernel operates on CsrPeeler's slot-aligned residual-view arrays
// (PeelScratch::view_*): flat, contiguous, member-dense — exactly the
// shape SIMD rewards. The kernels come in per-ISA tables selected at
// runtime (isa.h); the scalar table is the parity referee every other
// table is cross-checked against (tests/simd_kernel_test.cc).
//
// FP contract, kernel by kernel:
//   * gather_slot_mass performs the identical two IEEE multiplications
//     per element as the scalar loop it replaces ((w · scale) · colw, no
//     FMA contraction), elementwise and independently — bit-exact at
//     every ISA level, which is why the peeling hot path can deploy it
//     without weakening the ensemble's bit-parity gates.
//   * next_alive is integer — trivially exact.
// No kernel reassociates floating-point additions: the in-order peeling
// mass accumulation stays scalar, so every kernel is bit-exact.
#ifndef ENSEMFDET_DETECT_SIMD_KERNELS_H_
#define ENSEMFDET_DETECT_SIMD_KERNELS_H_

#include <cstdint>

#include "detect/simd/isa.h"

namespace ensemfdet {
namespace simd {

/// One ISA level's kernel implementations. Function pointers rather than
/// virtuals: the table is a POD resolved once, calls are direct through
/// a register, and the scalar table can be named statically by tests.
struct KernelTable {
  /// Dense weight gather over the slot-aligned view:
  ///   out[i] = (weight[i] * scale) * col_weight[merchant_packed[i] - packed_base]
  /// for every i in [0, n) — alive or not; dead-slot outputs are garbage
  /// the peel loops never read, and computing unconditionally keeps the
  /// kernel branch-free. Two separate multiplications per element in
  /// slot order, bit-identical to the scalar expression.
  void (*gather_slot_mass)(const double* weight,
                           const int32_t* merchant_packed,
                           int32_t packed_base, const double* col_weight,
                           double scale, int64_t n, double* out);

  /// First index >= from with alive[i] != 0, or n when none remains.
  /// The alive-bitmap scan of the peel init and block-removal loops.
  int64_t (*next_alive)(const uint8_t* alive, int64_t n, int64_t from);

  IsaLevel level;
};

/// The table for `level`, falling back to the highest available table at
/// or below it (a binary built without AVX-512 support answers the AVX2
/// table for kAvx512, and so on down to scalar — which always exists).
const KernelTable& KernelsFor(IsaLevel level);

/// The table for ActiveIsaLevel() — what the peeling hot loops call.
const KernelTable& ActiveKernels();

/// Null when the corresponding TU was compiled without target support —
/// the build ceiling DetectedIsaLevel() clamps to. (Defined in the
/// per-ISA TUs; exposed here for the dispatcher and isa-report.)
const KernelTable* Avx2KernelsOrNull();
const KernelTable* Avx512KernelsOrNull();
const KernelTable& ScalarKernels();

}  // namespace simd
}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_SIMD_KERNELS_H_

// Per-ISA trait structs the generic kernel bodies (kernel_impl.h) are
// instantiated over — the pgaccel avx_traits.hpp pattern. Each trait
// exposes the same tiny vocabulary:
//
//   kLanes          doubles per vector (gather width)
//   kBytesPerBlock  alive-bitmap bytes scanned per step
//   GatherMass      (w * scale) * col_weight[idx - base], elementwise
//   NonZeroByteMask bitmask of nonzero bytes in one block (bit i = byte i)
//   Broadcast/Store splat a double / store one vector
//
// Only the TU compiled with matching -m flags defines each trait (the
// __AVX2__ / __AVX512F__ guards), so this header is safe to include from
// the scalar TU too.
#ifndef ENSEMFDET_DETECT_SIMD_SIMD_TRAITS_H_
#define ENSEMFDET_DETECT_SIMD_SIMD_TRAITS_H_

#include <cstdint>

#if defined(__AVX2__) || (defined(__AVX512F__) && defined(__AVX512BW__))
#include <immintrin.h>
#endif

namespace ensemfdet {
namespace simd {

#if defined(__AVX2__)

struct Avx2Traits {
  static constexpr int kLanes = 4;
  static constexpr int kBytesPerBlock = 32;

  using VecD = __m256d;

  // out = (weight * scale) * col_weight[packed - base], four slots at a
  // time. Two separate vector multiplies — no FMA — so each lane is
  // bit-identical to the scalar expression.
  static inline VecD GatherMass(const double* weight,
                                const int32_t* merchant_packed,
                                int32_t packed_base, const double* col_weight,
                                VecD scale, int64_t i) {
    __m128i packed = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(merchant_packed + i));
    __m128i idx = _mm_sub_epi32(packed, _mm_set1_epi32(packed_base));
    // Masked gather with an explicit zero source: the plain gather
    // intrinsic leaves its source operand undefined, which trips gcc's
    // -Wuninitialized inside the intrinsic header.
    VecD colw = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), col_weight, idx,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), sizeof(double));
    VecD w = _mm256_loadu_pd(weight + i);
    return _mm256_mul_pd(_mm256_mul_pd(w, scale), colw);
  }

  // Bit b set iff alive[i + b] != 0, for the 32 bytes of one block.
  static inline uint32_t NonZeroByteMask(const uint8_t* alive, int64_t i) {
    __m256i block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(alive + i));
    __m256i is_zero = _mm256_cmpeq_epi8(block, _mm256_setzero_si256());
    return ~static_cast<uint32_t>(_mm256_movemask_epi8(is_zero));
  }

  static inline VecD Broadcast(double x) { return _mm256_set1_pd(x); }
  static inline void Store(double* p, VecD v) { _mm256_storeu_pd(p, v); }
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__)

struct Avx512Traits {
  static constexpr int kLanes = 8;
  static constexpr int kBytesPerBlock = 64;

  using VecD = __m512d;

  static inline VecD GatherMass(const double* weight,
                                const int32_t* merchant_packed,
                                int32_t packed_base, const double* col_weight,
                                VecD scale, int64_t i) {
    __m256i packed = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(merchant_packed + i));
    __m256i idx = _mm256_sub_epi32(packed, _mm256_set1_epi32(packed_base));
    // Masked gather with an explicit zero source (see Avx2Traits).
    VecD colw = _mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                         static_cast<__mmask8>(0xff), idx,
                                         col_weight, sizeof(double));
    VecD w = _mm512_loadu_pd(weight + i);
    return _mm512_mul_pd(_mm512_mul_pd(w, scale), colw);
  }

  // Bit b set iff alive[i + b] != 0, for the 64 bytes of one block.
  static inline uint64_t NonZeroByteMask(const uint8_t* alive, int64_t i) {
    __m512i block =
        _mm512_loadu_si512(reinterpret_cast<const void*>(alive + i));
    return _mm512_test_epi8_mask(block, block);
  }

  static inline VecD Broadcast(double x) { return _mm512_set1_pd(x); }
  static inline void Store(double* p, VecD v) { _mm512_storeu_pd(p, v); }
};

#endif  // __AVX512F__ && __AVX512BW__

}  // namespace simd
}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_SIMD_SIMD_TRAITS_H_

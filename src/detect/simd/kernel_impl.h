// Generic kernel bodies, templated over a trait struct (simd_traits.h).
// Each per-ISA TU instantiates these with its own traits and per-file
// -m flags; the bodies themselves stay ISA-agnostic. Tails shorter than
// a vector/block run the same scalar expressions the scalar referee
// uses, so the bit-exact kernels stay bit-exact at every size.
#ifndef ENSEMFDET_DETECT_SIMD_KERNEL_IMPL_H_
#define ENSEMFDET_DETECT_SIMD_KERNEL_IMPL_H_

#include <cstdint>

namespace ensemfdet {
namespace simd {

template <typename Traits>
void GatherSlotMassImpl(const double* weight, const int32_t* merchant_packed,
                        int32_t packed_base, const double* col_weight,
                        double scale, int64_t n, double* out) {
  const typename Traits::VecD vscale = Traits::Broadcast(scale);
  int64_t i = 0;
  for (; i + Traits::kLanes <= n; i += Traits::kLanes) {
    Traits::Store(out + i,
                  Traits::GatherMass(weight, merchant_packed, packed_base,
                                     col_weight, vscale, i));
  }
  for (; i < n; ++i) {
    out[i] =
        (weight[i] * scale) * col_weight[merchant_packed[i] - packed_base];
  }
}

template <typename Traits>
int64_t NextAliveImpl(const uint8_t* alive, int64_t n, int64_t from) {
  int64_t i = from;
  if (i < 0) i = 0;
  // Unaligned head up to the first full block.
  for (; i < n && (i % Traits::kBytesPerBlock) != 0; ++i) {
    if (alive[i] != 0) return i;
  }
  for (; i + Traits::kBytesPerBlock <= n; i += Traits::kBytesPerBlock) {
    auto mask = Traits::NonZeroByteMask(alive, i);
    if (mask != 0) return i + __builtin_ctzll(static_cast<uint64_t>(mask));
  }
  for (; i < n; ++i) {
    if (alive[i] != 0) return i;
  }
  return n;
}

}  // namespace simd
}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_SIMD_KERNEL_IMPL_H_

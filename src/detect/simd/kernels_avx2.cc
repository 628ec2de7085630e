// AVX2 kernel table. This TU is compiled with -mavx2 when the toolchain
// supports it (per-file flag in CMakeLists.txt); otherwise __AVX2__ is
// unset and Avx2KernelsOrNull() returns nullptr, clamping the build
// ceiling (isa.cc BuiltIsaLevel).
#include "detect/simd/kernels.h"

#if defined(__AVX2__)
#include "detect/simd/kernel_impl.h"
#include "detect/simd/simd_traits.h"
#endif

namespace ensemfdet {
namespace simd {

#if defined(__AVX2__)

const KernelTable* Avx2KernelsOrNull() {
  static const KernelTable table = {
      GatherSlotMassImpl<Avx2Traits>,
      NextAliveImpl<Avx2Traits>,
      IsaLevel::kAvx2,
  };
  return &table;
}

#else

const KernelTable* Avx2KernelsOrNull() { return nullptr; }

#endif

}  // namespace simd
}  // namespace ensemfdet

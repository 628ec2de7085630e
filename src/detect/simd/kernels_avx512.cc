// AVX-512 kernel table (F+BW+DQ+VL). Compiled with the -mavx512* flags
// when the toolchain supports them; otherwise the guards leave
// Avx512KernelsOrNull() returning nullptr and the build ceiling clamps
// to AVX2 or scalar.
#include "detect/simd/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include "detect/simd/kernel_impl.h"
#include "detect/simd/simd_traits.h"
#endif

namespace ensemfdet {
namespace simd {

#if defined(__AVX512F__) && defined(__AVX512BW__)

const KernelTable* Avx512KernelsOrNull() {
  static const KernelTable table = {
      GatherSlotMassImpl<Avx512Traits>,
      NextAliveImpl<Avx512Traits>,
      IsaLevel::kAvx512,
  };
  return &table;
}

#else

const KernelTable* Avx512KernelsOrNull() { return nullptr; }

#endif

}  // namespace simd
}  // namespace ensemfdet

// The scalar kernel table: the parity referee. These loops are the
// definition of correct — every vector table is cross-checked against
// them (tests/simd_kernel_test.cc), and gather_slot_mass here uses the
// exact expression the peeling hot loop used before vectorization.
#include "detect/simd/kernels.h"

namespace ensemfdet {
namespace simd {

namespace {

void ScalarGatherSlotMass(const double* weight, const int32_t* merchant_packed,
                          int32_t packed_base, const double* col_weight,
                          double scale, int64_t n, double* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] =
        (weight[i] * scale) * col_weight[merchant_packed[i] - packed_base];
  }
}

int64_t ScalarNextAlive(const uint8_t* alive, int64_t n, int64_t from) {
  int64_t i = from < 0 ? 0 : from;
  for (; i < n; ++i) {
    if (alive[i] != 0) return i;
  }
  return n;
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      ScalarGatherSlotMass,
      ScalarNextAlive,
      IsaLevel::kScalar,
  };
  return table;
}

}  // namespace simd
}  // namespace ensemfdet

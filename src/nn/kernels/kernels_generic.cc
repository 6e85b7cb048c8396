// Generic portable-vector kernels: 4 float lanes via GCC vector
// extensions, compiled with the project's baseline flags (SSE2 on
// x86-64; NEON-sized on aarch64). Always available, no CPU gate.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/annotations.h"
#include "nn/kernels/kernels.h"

#define KDSEL_VEC_WIDTH 4
#define KDSEL_VEC_VARIANT Variant::kGeneric
#define KDSEL_VEC_NAME "generic"
#define KDSEL_VEC_FMA 0

namespace kdsel::nn::kernels {
namespace generic {
#include "nn/kernels/kernels_vec.inc"
}  // namespace generic

namespace detail {
const Ops* GenericOps() { return &generic::kOps; }
}  // namespace detail

}  // namespace kdsel::nn::kernels

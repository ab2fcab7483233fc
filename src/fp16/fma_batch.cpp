#include "fp16/fma_batch.hpp"

#include <algorithm>

namespace redmule::fp16 {

// One plain loop over contiguous arrays that the compiler vectorises (also
// at the baseline x86-64 ISA). The per-lane work is the scalar fast path of
// Float16::fma with its branches turned into masks.
bool fma_batch_kernel(const FmaLanes& v) {
  const double* __restrict x = v.x;
  const double* __restrict w = v.w;
  const double* __restrict acc = v.acc;
  Float16* __restrict out = v.out;
  double* __restrict out64 = v.out64;
  uint8_t* __restrict ok = v.ok;
  const unsigned n = v.n;  // a local: the byte stores to ok may alias v
  unsigned bad = 0;
  for (unsigned i = 0; i < n; ++i) {
    uint16_t bits;
    const unsigned good = detail::fast_pack_rne(x[i] * w[i] + acc[i], &bits, &out64[i]);
    out[i] = Float16::from_bits(bits);
    ok[i] = static_cast<uint8_t>(good);
    bad |= good ^ 1u;
  }
  return bad == 0;
}

void fma_batch(FmaBatchKernel kernel, const FmaBatch& b) {
  const unsigned l = b.lanes;
  for (unsigned i = 0; i < b.rows; ++i) {
    // Inactive rows multiply by +0: their lanes stay finite scratch.
    const double w = b.active[i] != 0 ? detail::normal_to_double(b.w[i]) : 0.0;
    std::fill_n(b.w64 + static_cast<size_t>(i) * l, l, w);
  }
  const bool fast = fast_fma_enabled();
  const bool all_ok =
      fast && kernel(FmaLanes{b.rows * l, b.x64, b.w64, b.acc64, b.out, b.out64, b.ok});

  for (unsigned i = 0; i < b.rows; ++i) {
    if (b.active[i] == 0) continue;
    bool normal_or_zero = true;
    if (!all_ok || b.eligible[i] == 0) {
      const bool redo_all = !fast || b.eligible[i] == 0;
      for (size_t k = static_cast<size_t>(i) * l; k < static_cast<size_t>(i + 1) * l; ++k) {
        if (!redo_all && b.ok[k] != 0) continue;
        const Float16 z = Float16::fma(b.x[k], b.w[i], b.acc[k]);
        b.out[k] = z;
        b.out64[k] = detail::normal_to_double(z);
        normal_or_zero &= detail::is_normal_or_zero(z);
      }
    }
    b.out_normal_or_zero[i] = normal_or_zero ? 1 : 0;
  }
}

bool to_fma_operands(const Float16* src, unsigned n, double* out64) {
  bool normal_or_zero = true;
  for (unsigned i = 0; i < n; ++i) {
    out64[i] = detail::normal_to_double(src[i]);
    normal_or_zero &= detail::is_normal_or_zero(src[i]);
  }
  return normal_or_zero;
}

}  // namespace redmule::fp16

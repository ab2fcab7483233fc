/// \file fma_batch.hpp
/// \brief Whole-array FP16 FMA step: every lane of the FMA array in one
///        branch-free binary64 kernel over contiguous arrays.
///
/// The array's H*L FMAs are laid out as H rows (array columns) of L lanes
/// that share one broadcast multiplicand w per row. Operands arrive both as
/// FP16 encodings and as exact binary64 images (converted once, when a value
/// is latched or produced), so a cycle only multiplies, adds and packs. The
/// kernel is the Float16::fma fast path applied to every lane at once -- the
/// same arithmetic and the same detail::fast_pack_rne(), hence the same
/// accepted operand set and the same bits (see the proof in float16.hpp).
/// Lanes it cannot take (an operand outside normal-or-zero, a nonzero result
/// outside the fp16 normal range) are recomputed one by one with
/// Float16::fma, whose soft-core fallback makes them bit-exact too.
#pragma once

#include <cstdint>

#include "fp16/float16.hpp"

namespace redmule::fp16 {

/// The arithmetic kernel's view: \c n lanes in contiguous arrays.
struct FmaLanes {
  unsigned n = 0;
  const double* x = nullptr;    ///< multiplicand images
  const double* w = nullptr;    ///< multiplicand images (w broadcast per lane)
  const double* acc = nullptr;  ///< addend images
  Float16* out = nullptr;       ///< result encodings
  double* out64 = nullptr;      ///< exact binary64 images of the results
  uint8_t* ok = nullptr;        ///< 1 where the result is normal or zero
};

/// The arithmetic kernel: rounds x * w + acc to FP16 (RNE) in every lane and
/// writes out/out64/ok. Returns true when every lane is ok. Assumes
/// normal-or-zero operands (the caller re-does lanes of rows that are not);
/// never calls the soft core and has no per-lane branch. Lanes with
/// ok == 0 hold unspecified values.
bool fma_batch_kernel(const FmaLanes& lanes);

using FmaBatchKernel = bool (*)(const FmaLanes& lanes);

/// One whole-array step over \c rows rows of \c lanes lanes (per-lane
/// arrays are row-major, rows * lanes values; per-row arrays have rows
/// entries). Inactive rows are computed as scratch and left unspecified.
struct FmaBatch {
  unsigned rows = 0;
  unsigned lanes = 0;
  // Per lane.
  const Float16* x = nullptr;
  const double* x64 = nullptr;    ///< binary64 images of x
  const Float16* acc = nullptr;
  const double* acc64 = nullptr;  ///< binary64 images of acc
  double* w64 = nullptr;          ///< scratch: w broadcast per lane
  Float16* out = nullptr;
  double* out64 = nullptr;        ///< exact binary64 images of out
  uint8_t* ok = nullptr;          ///< scratch
  // Per row.
  const Float16* w = nullptr;              ///< broadcast multiplicand
  const uint8_t* active = nullptr;         ///< row issues this cycle
  /// Every x lane, w and every acc lane of the row is normal or zero; the
  /// binary64 images are only trusted when this is set.
  const uint8_t* eligible = nullptr;
  /// Output: every result lane of the row is normal or zero.
  uint8_t* out_normal_or_zero = nullptr;
};

/// Runs \p kernel (fma_batch_kernel; tests pass others) over all lanes, then
/// recomputes with Float16::fma every lane of an active row that the kernel
/// declined or whose row is not eligible, and sets out_normal_or_zero for
/// the active rows. With the fast path disabled
/// (set_fast_fma_enabled(false)) the kernel is skipped and every lane takes
/// the soft core.
void fma_batch(FmaBatchKernel kernel, const FmaBatch& b);

/// Converts \p n encodings to their binary64 images for an FMA operand;
/// returns whether every value is normal or zero (the images of the others
/// are placeholders and must not be used).
bool to_fma_operands(const Float16* src, unsigned n, double* out64);

}  // namespace redmule::fp16

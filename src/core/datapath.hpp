/// \file datapath.hpp
/// \brief RedMulE's semi-systolic FMA array (paper Fig. 2b/2d).
///
/// L rows by H columns of FP16 FMA units. Within a row, column c passes its
/// result to column c+1 through P+1 pipeline stages; the last column feeds
/// back into the first one (accumulation input), so a row keeps
/// H*(P+1) partial dot products ("j-slots") in flight at all times.
///
/// The model simulates every pipeline register with real FP16 arithmetic and
/// carries (tile, traversal, j-slot) tags alongside the data. The tags are
/// redundant with the schedule -- the hardware has none -- but let the model
/// assert, every cycle, that operands meet exactly when the schedule says
/// they must. A scheduling bug therefore aborts instead of silently
/// computing garbage.
///
/// Storage is a flat, slot-major ring of P+2 stages; a stage holds one slot
/// per column side by side, and a head index moves each cycle instead of
/// data. All H*L FMAs of a cycle run in one batched binary64 kernel over
/// contiguous arrays (fp16/fma_batch.hpp); every slot keeps the exact
/// binary64 image of its FP16 values next to their encodings, so only
/// results are packed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "fp16/float16.hpp"
#include "fp16/fma_batch.hpp"

namespace redmule::core {

/// Identity of one in-flight partial result.
struct PipeTag {
  uint64_t tile = 0;    ///< global tile sequence number
  uint32_t trav = 0;    ///< feedback traversal index t (n-chunk)
  uint32_t tau = 0;     ///< j-slot index within the tile (0 .. j_slots-1)
  bool last_traversal = false;  ///< completes a Z element when true

  bool operator==(const PipeTag&) const = default;
};

/// Per-column FP16 operand registers (one row of L lanes per column) in the
/// form the FMA kernel consumes: the encodings, their binary64 images and
/// whether every lane is normal or zero. The engine's X operand registers;
/// each row is converted once, when it is latched.
class OperandRegs {
 public:
  OperandRegs(unsigned rows, unsigned lanes);

  unsigned rows() const { return static_cast<unsigned>(normal_or_zero_.size()); }
  unsigned lanes() const { return lanes_; }

  /// Writable encodings of row \p i; call convert(i) after filling them.
  fp16::Float16* bits(unsigned i) { return bits_.data() + static_cast<size_t>(i) * lanes_; }
  const fp16::Float16* bits(unsigned i) const {
    return bits_.data() + static_cast<size_t>(i) * lanes_;
  }
  const double* f64(unsigned i) const {
    return f64_.data() + static_cast<size_t>(i) * lanes_;
  }
  bool normal_or_zero(unsigned i) const { return normal_or_zero_[i] != 0; }
  /// Refreshes row \p i's binary64 images and eligibility from its encodings.
  void convert(unsigned i);
  /// All rows +0.
  void clear();

 private:
  unsigned lanes_;
  std::vector<fp16::Float16> bits_;
  std::vector<double> f64_;
  std::vector<uint8_t> normal_or_zero_;
};

class Datapath {
 public:
  explicit Datapath(const Geometry& g);

  /// Issue descriptor for one column in the current cycle.
  struct ColumnIssue {
    bool active = false;
    PipeTag tag;
    bool first_traversal = false;        ///< accumulate from init, not feedback
    fp16::Float16 w;                     ///< broadcast W element
    /// The engine's X operand registers (H rows of L lanes); column c reads
    /// row c. Every active column of a cycle points at the same registers.
    const OperandRegs* x = nullptr;
    /// First-traversal accumulator initialization (L lanes, engine-owned):
    /// the streamed Y elements for the Z = Y + X*W extension. Null means
    /// zeros (Z = X*W).
    const fp16::Float16* init_acc = nullptr;
  };

  /// Finished Z-row chunk emerging from the last column.
  struct Capture {
    PipeTag tag;
    std::span<const fp16::Float16> values;  ///< one Z element per row (size L)
  };

  /// Advances the array by one (unstalled) cycle. \p issues has exactly H
  /// entries. Returns the capture output if a last-traversal entry emerged,
  /// else null. The capture and its span point into the pipeline and stay
  /// valid until the next advance() or reset().
  const Capture* advance(std::span<const ColumnIssue> issues);

  /// Clears all pipeline state (soft clear).
  void reset();

  const Geometry& geometry() const { return geom_; }
  /// Total FMA operations performed (including padded lanes), for the
  /// power model's activity factor.
  uint64_t fma_ops() const { return fma_ops_; }
  /// True if no valid data is in flight.
  bool drained() const;

 private:
  /// Per-slot metadata index: one slot per column per stage.
  size_t slot(unsigned stage, unsigned c) const {
    return static_cast<size_t>(stage) * geom_.h + c;
  }
  /// First lane of stage \p stage. A stage stores H+1 rows of L lanes: the
  /// feed row (column 0's accumulation input, filled each cycle) and then
  /// columns 0..H-1, so the accumulation inputs of all H columns are one
  /// contiguous run of H*L lanes starting at the feed row.
  size_t stage_lane(unsigned stage) const {
    return static_cast<size_t>(stage) * (geom_.h + 1) * geom_.l;
  }
  /// First lane of column \p c's values in \p stage.
  size_t lane(unsigned stage, unsigned c) const {
    return stage_lane(stage) + static_cast<size_t>(c + 1) * geom_.l;
  }

  Geometry geom_;
  /// fma_latency() + 1 stages: an entry issued at cycle t is written to
  /// stage t mod stages_ and read back as its column's registered output at
  /// cycle t + fma_latency(), while that cycle writes a different stage.
  unsigned stages_;
  unsigned head_ = 0;  ///< stage the next advance() writes
  // Per slot (stage-major, one per column).
  std::vector<uint8_t> valid_;
  std::vector<PipeTag> tags_;
  std::vector<uint8_t> normal_or_zero_;  ///< every lane is normal or zero
  // Per lane (stage-major, feed row + H columns of L lanes per stage).
  std::vector<fp16::Float16> bits_;
  std::vector<double> f64_;  ///< exact binary64 image of bits_
  // Per-cycle scratch, sized once.
  std::vector<double> w64_;              ///< W broadcast per lane
  std::vector<uint8_t> ok_;              ///< kernel lane flags
  std::vector<fp16::Float16> w_;         ///< per column
  std::vector<uint8_t> eligible_;        ///< per column
  Capture capture_;
  uint64_t fma_ops_ = 0;
};

}  // namespace redmule::core

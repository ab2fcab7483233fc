#include "core/datapath.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

OperandRegs::OperandRegs(unsigned rows, unsigned lanes)
    : lanes_(lanes),
      bits_(static_cast<size_t>(rows) * lanes),
      f64_(static_cast<size_t>(rows) * lanes),
      normal_or_zero_(rows, 1) {}

void OperandRegs::convert(unsigned i) {
  normal_or_zero_[i] = fp16::to_fma_operands(bits(i), lanes_,
                                             f64_.data() + static_cast<size_t>(i) * lanes_);
}

void OperandRegs::clear() {
  std::fill(bits_.begin(), bits_.end(), Float16{});
  std::fill(f64_.begin(), f64_.end(), 0.0);
  std::fill(normal_or_zero_.begin(), normal_or_zero_.end(), 1);
}

Datapath::Datapath(const Geometry& g)
    : geom_(g), stages_(g.fma_latency() + 1) {
  g.validate();
  const size_t slots = static_cast<size_t>(stages_) * g.h;
  valid_.assign(slots, 0);
  tags_.assign(slots, PipeTag{});
  normal_or_zero_.assign(slots, 1);
  bits_.assign(stage_lane(stages_), Float16{});
  f64_.assign(stage_lane(stages_), 0.0);
  w64_.assign(static_cast<size_t>(g.h) * g.l, 0.0);
  ok_.assign(static_cast<size_t>(g.h) * g.l, 0);
  w_.assign(g.h, Float16{});
  eligible_.assign(g.h, 0);
}

void Datapath::reset() {
  std::fill(valid_.begin(), valid_.end(), 0);
  std::fill(tags_.begin(), tags_.end(), PipeTag{});
  std::fill(normal_or_zero_.begin(), normal_or_zero_.end(), 1);
  std::fill(bits_.begin(), bits_.end(), Float16{});
  std::fill(f64_.begin(), f64_.end(), 0.0);
  head_ = 0;
  fma_ops_ = 0;
}

bool Datapath::drained() const {
  // Stage head_ holds the outputs the last advance() already consumed.
  for (unsigned s = 0; s < stages_; ++s) {
    if (s == head_) continue;
    for (unsigned c = 0; c < geom_.h; ++c)
      if (valid_[slot(s, c)] != 0) return false;
  }
  return true;
}

const Datapath::Capture* Datapath::advance(std::span<const ColumnIssue> issues) {
  const unsigned h = geom_.h;
  const unsigned l = geom_.l;
  REDMULE_ASSERT(issues.size() == h);

  // The registered output of every column (its entry issued fma_latency
  // cycles ago) sits in stage `out`; this cycle's issues go to stage `in`.
  const unsigned in = head_;
  const unsigned out = in + 1 == stages_ ? 0 : in + 1;
  head_ = out;

  // Per column: check the schedule tags against the accumulation input --
  // previous column's output, the feedback path for column 0, or the
  // first-traversal init -- and decide whether the row is kernel-eligible.
  const OperandRegs* x = nullptr;
  unsigned n_active = 0;
  for (unsigned c = 0; c < h; ++c) {
    const ColumnIssue& issue = issues[c];
    const size_t dst = slot(in, c);
    valid_[dst] = issue.active ? 1 : 0;
    if (!issue.active) continue;
    ++n_active;
    tags_[dst] = issue.tag;
    REDMULE_ASSERT(issue.x != nullptr && (x == nullptr || x == issue.x));
    x = issue.x;
    REDMULE_ASSERT(x->rows() == h && x->lanes() == l);

    bool acc_ok;
    if (c > 0) {
      const size_t src = slot(out, c - 1);
      REDMULE_ASSERT_MSG(valid_[src] != 0, "upstream column bubble at issue time");
      REDMULE_ASSERT_MSG(tags_[src] == issue.tag, "systolic schedule misaligned");
      acc_ok = normal_or_zero_[src] != 0;
    } else {
      // Column 0 reads the feed row, filled here from its source.
      Float16* feed = bits_.data() + stage_lane(out);
      double* feed64 = f64_.data() + stage_lane(out);
      if (!issue.first_traversal) {
        const size_t src = slot(out, h - 1);
        const PipeTag& fb = tags_[src];
        REDMULE_ASSERT_MSG(valid_[src] != 0, "feedback bubble at issue time");
        REDMULE_ASSERT_MSG(fb.tile == issue.tag.tile && fb.trav + 1 == issue.tag.trav &&
                               fb.tau == issue.tag.tau,
                           "feedback schedule misaligned");
        std::copy_n(bits_.data() + lane(out, h - 1), l, feed);
        std::copy_n(f64_.data() + lane(out, h - 1), l, feed64);
        acc_ok = normal_or_zero_[src] != 0;
      } else if (issue.init_acc != nullptr) {
        std::copy_n(issue.init_acc, l, feed);
        acc_ok = fp16::to_fma_operands(feed, l, feed64);
      } else {
        std::fill_n(feed, l, Float16{});
        std::fill_n(feed64, l, 0.0);
        acc_ok = true;
      }
    }
    w_[c] = issue.w;
    eligible_[c] =
        x->normal_or_zero(c) && fp16::detail::is_normal_or_zero(issue.w) && acc_ok ? 1 : 0;
  }

  // Every FMA of the cycle in one kernel call over contiguous arrays: X
  // registers row-major, accumulation inputs from the feed row on, results
  // and their flags into this cycle's slots (whose valid bits say which
  // rows are active).
  if (n_active > 0) {
    fp16::FmaBatch b;
    b.rows = h;
    b.lanes = l;
    b.x = x->bits(0);
    b.x64 = x->f64(0);
    b.acc = bits_.data() + stage_lane(out);
    b.acc64 = f64_.data() + stage_lane(out);
    b.w64 = w64_.data();
    b.out = bits_.data() + lane(in, 0);
    b.out64 = f64_.data() + lane(in, 0);
    b.ok = ok_.data();
    b.w = w_.data();
    b.active = valid_.data() + slot(in, 0);
    b.eligible = eligible_.data();
    b.out_normal_or_zero = normal_or_zero_.data() + slot(in, 0);
    fp16::fma_batch(&fp16::fma_batch_kernel, b);
    fma_ops_ += static_cast<uint64_t>(n_active) * l;
  }

  // A last-traversal entry emerging from the final column is a finished
  // chunk of Z destined for the Z-buffer. Stage `out` is only overwritten by
  // the next advance(), which bounds the span's lifetime.
  const size_t last = slot(out, h - 1);
  if (valid_[last] == 0 || !tags_[last].last_traversal) return nullptr;
  capture_.tag = tags_[last];
  capture_.values = std::span<const Float16>(bits_.data() + lane(out, h - 1), l);
  return &capture_;
}

}  // namespace redmule::core

#include "core/engine.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

RedmuleEngine::RedmuleEngine(const Geometry& g, mem::Hci& hci)
    : geom_(g),
      hci_(hci),
      datapath_(g),
      xbuf_(g),
      ybuf_(g),
      wbuf_(g),
      zbuf_(g),
      streamer_(g, hci, xbuf_, ybuf_, wbuf_, zbuf_),
      x_regs_(g.h, g.l),
      y_init_(g.l) {
  g.validate();
  // The streamer must fit a whole (possibly 16-bit-misaligned) line into one
  // shallow access: j_slots/2 words of payload + 1 word for misalignment.
  REDMULE_REQUIRE(g.j_slots() / 2 + 1 <= hci.config().shallow_words,
                  "HCI shallow port too narrow for this geometry");
  REDMULE_REQUIRE(g.j_slots() <= 32,
                  "cycle model supports up to 32 j-slots (use the analytical "
                  "model for wider geometries)");
  steps_.resize(g.h);
  issues_.resize(g.h);
}

void RedmuleEngine::reg_write(uint32_t offset, uint32_t value) {
  const bool triggered = regfile_.write(offset, value);
  if (offset == kRegSoftClear) {
    // Abort any running job and clear all state.
    state_ = Fsm::kIdle;
    datapath_.reset();
    xbuf_.reset();
    ybuf_.reset();
    wbuf_.reset();
    zbuf_.reset();
    streamer_.soft_clear();
    done_event_ = false;
    return;
  }
  if (triggered) start_job();
}

void RedmuleEngine::reset() {
  state_ = Fsm::kIdle;
  regfile_.reset();
  datapath_.reset();
  xbuf_.reset();
  ybuf_.reset();
  wbuf_.reset();
  zbuf_.reset();
  streamer_.reset();
  job_ = Job{};
  tiling_.reset();
  ac_ = 0;
  total_span_ = 0;
  n_tiles_ = 0;
  done_event_ = false;
  x_regs_.clear();
  std::fill(y_init_.begin(), y_init_.end(), Float16{});
  std::fill(steps_.begin(), steps_.end(), ColStep{});
  std::fill(issues_.begin(), issues_.end(), Datapath::ColumnIssue{});
  cur_stats_ = JobStats{};
  last_stats_ = JobStats{};
}

RedmuleEngine::State RedmuleEngine::save_state() const {
  REDMULE_REQUIRE(is_idle(), "engine snapshot requires an idle accelerator");
  State s;
  s.regfile = regfile_;
  s.cur_stats = cur_stats_;
  s.last_stats = last_stats_;
  s.done_event = done_event_;
  s.streamer = streamer_.save_state();
  return s;
}

void RedmuleEngine::restore_state(const State& s) {
  reset();
  regfile_ = s.regfile;
  cur_stats_ = s.cur_stats;
  last_stats_ = s.last_stats;
  done_event_ = s.done_event;
  streamer_.restore_state(s.streamer);
}

bool RedmuleEngine::take_done_event() {
  const bool e = done_event_;
  done_event_ = false;
  return e;
}

void RedmuleEngine::start_job() {
  job_ = regfile_.job();
  job_.validate();
  tiling_.emplace(job_, geom_);
  regfile_.on_job_started();
  datapath_.reset();
  streamer_.start(job_);
  ac_ = 0;
  n_tiles_ = tiling_->tiles();
  total_span_ = n_tiles_ * tiling_->n_chunks * geom_.j_slots();
  x_regs_.clear();
  std::fill(steps_.begin(), steps_.end(), ColStep{});
  std::fill(issues_.begin(), issues_.end(), Datapath::ColumnIssue{});
  cur_stats_ = JobStats{};
  cur_stats_.macs = job_.macs();
  state_ = Fsm::kRunning;
}

void RedmuleEngine::finish_job() {
  streamer_.stop();
  cur_stats_.fma_ops = datapath_.fma_ops();
  last_stats_ = cur_stats_;
  regfile_.on_job_finished();
  done_event_ = true;
  state_ = Fsm::kIdle;
}

bool RedmuleEngine::try_advance() {
  const unsigned h = geom_.h;
  const unsigned l = geom_.l;
  const unsigned js = geom_.j_slots();
  const unsigned lat = geom_.fma_latency();
  const Tiling& tl = *tiling_;

  // --- Phase 1: decode and check every requirement; stall on any miss
  // (global HWPE enable, nothing moves on a stall). The schedule counters
  // only step in phase 2, so a stalled cycle decodes the same step again.
  for (unsigned c = 0; c < h; ++c) {
    ColStep& st = steps_[c];
    st.active = ac_ >= static_cast<uint64_t>(c) * lat && st.tile < n_tiles_;
    if (!st.active) continue;
    st.n = st.trav * h + c;
    st.padded = st.n >= job_.n;

    if (!st.padded) {
      // The W element is consumed from the column's shift register every
      // cycle of the traversal window.
      st.wline = wbuf_.front_if(c, st.tile, st.trav);
      if (st.wline == nullptr) return false;
      // The X operand registers load from the X-buffer at tau == 0 only;
      // afterwards the line may be retired (the operands are held locally).
      if (st.tau == 0 && xbuf_.find_ready(st.tile, st.n / js) == nullptr) return false;
    }
    // Accumulation input: column 0 injects Y on the first traversal.
    if (job_.accumulate && c == 0 && st.trav == 0 &&
        ybuf_.find_ready(st.tile, 0) == nullptr)
      return false;
    // Z capture-buffer reservation at the start of a tile's last traversal
    // in the final column; the capture itself begins fma_latency later.
    if (c == h - 1 && st.trav == tl.n_chunks - 1 && st.tau == 0 &&
        !zbuf_.can_open_tile())
      return false;
  }

  // --- Phase 2: all operands present; perform latches, pops, and the
  // datapath step, then step the schedule counters of the issuing columns.
  for (unsigned c = 0; c < h; ++c) {
    ColStep& st = steps_[c];
    Datapath::ColumnIssue& issue = issues_[c];
    if (!st.active) {
      issue = Datapath::ColumnIssue{};  // observers see no stale operands
      continue;
    }

    if (st.tau == 0) {
      // Operand-register load: latch the X elements for this traversal.
      Float16* regs = x_regs_.bits(c);
      if (st.padded) {
        std::fill(regs, regs + l, Float16{});
      } else {
        const uint32_t q = st.n / js;
        XGroup* grp = xbuf_.find_ready(st.tile, q);
        REDMULE_ASSERT(grp != nullptr);
        const unsigned off = st.n - q * js;
        for (unsigned r = 0; r < l; ++r) regs[r] = grp->rows[r][off];
        // Retire the line group once its last operand load happened.
        ++grp->uses;
        const uint32_t n0 = q * js;
        const uint32_t expected = std::min<uint32_t>(js, job_.n - n0);
        if (grp->uses == expected) xbuf_.pop_front();
      }
      x_regs_.convert(c);
    }

    issue.active = true;
    issue.tag = PipeTag{st.tile, st.trav, st.tau, st.trav == tl.n_chunks - 1};
    issue.first_traversal = st.trav == 0;
    issue.x = &x_regs_;
    issue.init_acc = nullptr;
    if (job_.accumulate && c == 0 && st.trav == 0) {
      XGroup* ygrp = ybuf_.find_ready(st.tile, 0);
      REDMULE_ASSERT(ygrp != nullptr);
      for (unsigned r = 0; r < l; ++r) y_init_[r] = ygrp->rows[r][st.tau];
      issue.init_acc = y_init_.data();
      if (st.tau == js - 1) ybuf_.pop_front();  // Y tile fully injected
    }
    // Padded columns broadcast +0: a stale W element from an earlier cycle
    // (possibly Inf/NaN) must not leak into their FMAs.
    issue.w = Float16{};
    if (!st.padded) {
      REDMULE_ASSERT(st.wline != nullptr);
      issue.w = st.wline->elems[st.tau];
      if (st.tau == js - 1) wbuf_.pop(c);  // line fully broadcast
    }
    if (c == h - 1 && st.trav == tl.n_chunks - 1 && st.tau == 0)
      zbuf_.open_tile(st.tile);

    if (++st.tau == js) {
      st.tau = 0;
      if (++st.trav == tl.n_chunks) {
        st.trav = 0;
        ++st.tile;
      }
    }
  }

  const Datapath::Capture* cap = datapath_.advance(issues_);
  if (observer_active_) observer_(ac_, issues_, cap);
  if (cap != nullptr) {
    zbuf_.capture(cap->tag.tile, cap->tag.tau, cap->values);
    if (cap->tag.tau == js - 1) {  // tile fully captured: emit row stores
      const unsigned mt = static_cast<unsigned>(cap->tag.tile / tl.k_tiles);
      const unsigned kt = static_cast<unsigned>(cap->tag.tile % tl.k_tiles);
      zbuf_.close_tile(cap->tag.tile, job_.z_ptr, job_, mt, kt);
    }
  }
  ++ac_;
  return true;
}

void RedmuleEngine::tick() {
  if (state_ == Fsm::kRunning) {
    ++cur_stats_.cycles;
    if (ac_ < total_span_ + geom_.j_slots()) {
      if (try_advance())
        ++cur_stats_.advance_cycles;
      else
        ++cur_stats_.stall_cycles;
    }
    // Job completes when the schedule ran out, the array drained, and every
    // Z store left the cluster.
    if (ac_ >= total_span_ + geom_.j_slots() && datapath_.drained() &&
        zbuf_.drained() && streamer_.idle()) {
      finish_job();
    }
  }
  streamer_.tick();
}

void RedmuleEngine::commit() { streamer_.commit(); }

}  // namespace redmule::core

#include "core/datapath.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace redmule::core {
namespace {

using fp16::f16;
using fp16::Float16;

/// Latches \p values into row \p c of \p regs (the engine's tau == 0 load).
void latch(OperandRegs& regs, unsigned c, const std::vector<Float16>& values) {
  std::copy(values.begin(), values.end(), regs.bits(c));
  regs.convert(c);
}

/// Drives a single column through a full traversal-0 schedule by hand and
/// checks the pipeline latency and arithmetic.
TEST(Datapath, SingleColumnLatency) {
  Geometry g{1, 2, 3};  // H=1, L=2, P=3: latency 4, j_slots 4
  Datapath dp(g);
  OperandRegs x(1, 2);
  std::vector<Datapath::ColumnIssue> issues(1);

  // Issue 4 ops (tau 0..3) of the only traversal (tag last_traversal).
  for (uint32_t tau = 0; tau < 4; ++tau) {
    auto& is = issues[0];
    is.active = true;
    is.tag = PipeTag{0, 0, tau, true};
    is.first_traversal = true;
    is.w = f16(2.0);
    latch(x, 0, {f16(1.0 + tau), f16(10.0 + tau)});
    is.x = &x;
    EXPECT_EQ(dp.advance(issues), nullptr);  // nothing emerges during fill
  }
  // Drain: captures appear exactly fma_latency cycles after each issue.
  issues[0].active = false;
  for (uint32_t tau = 0; tau < 4; ++tau) {
    const Datapath::Capture* cap = dp.advance(issues);
    ASSERT_NE(cap, nullptr) << tau;
    EXPECT_EQ(cap->tag.tau, tau);
    ASSERT_EQ(cap->values.size(), 2u);
    EXPECT_EQ(cap->values[0].to_double(), 2.0 * (1.0 + tau));
    EXPECT_EQ(cap->values[1].to_double(), 2.0 * (10.0 + tau));
  }
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 4u * 2u);
}

TEST(Datapath, ResetClearsState) {
  Geometry g{1, 1, 0};
  Datapath dp(g);
  OperandRegs x(1, 1);
  latch(x, 0, {f16(1.0)});
  std::vector<Datapath::ColumnIssue> issues(1);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  issues[0].x = &x;
  dp.advance(issues);
  EXPECT_FALSE(dp.drained());
  dp.reset();
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 0u);
}

TEST(Datapath, ResetEqualsConstructed) {
  // A reset datapath mid-schedule must behave exactly like a fresh one: same
  // drained state, zero ops, and the same outputs and capture timing for the
  // same issue sequence (the ring head restarts too).
  Geometry g{2, 3, 1};  // H=2, L=3, latency 2
  OperandRegs x(2, 3);
  latch(x, 0, {f16(1.5), f16(-2.0), f16(0.25)});
  latch(x, 1, {f16(3.0), f16(0.5), f16(-1.0)});
  auto run = [&](Datapath& dp) {
    std::vector<Datapath::ColumnIssue> issues(2);
    std::vector<std::vector<uint16_t>> captured;
    for (unsigned ac = 0; ac < 8; ++ac) {
      for (unsigned c = 0; c < 2; ++c) {
        auto& is = issues[c];
        const int local = static_cast<int>(ac) - 2 * static_cast<int>(c);
        if (local < 0 || local >= 4) {
          is = Datapath::ColumnIssue{};
          continue;
        }
        is.active = true;
        is.tag = PipeTag{0, 0, static_cast<uint32_t>(local), true};
        is.first_traversal = true;
        is.w = f16(1.0 + local);
        is.x = &x;
      }
      if (const Datapath::Capture* cap = dp.advance(issues)) {
        std::vector<uint16_t> bits;
        for (const Float16 v : cap->values) bits.push_back(v.bits());
        captured.push_back(bits);
      }
    }
    return captured;
  };

  Datapath fresh(g);
  Datapath reused(g);
  std::vector<Datapath::ColumnIssue> junk(2);
  junk[0].active = true;
  junk[0].first_traversal = true;
  junk[0].w = f16(7.0);
  junk[0].x = &x;
  reused.advance(junk);  // leave a valid entry and a moved ring head behind
  EXPECT_FALSE(reused.drained());
  reused.reset();
  EXPECT_TRUE(reused.drained());
  EXPECT_EQ(reused.fma_ops(), 0u);
  EXPECT_TRUE(fresh.drained());
  EXPECT_EQ(fresh.fma_ops(), 0u);

  const auto a = run(fresh);
  const auto b = run(reused);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(fresh.fma_ops(), reused.fma_ops());
  EXPECT_TRUE(reused.drained());
}

TEST(Datapath, MisalignedScheduleAborts) {
  // Feeding column 1 before column 0's result is ready must trip the
  // self-checking tags (death test: the model refuses to compute garbage).
  Geometry g{2, 1, 0};  // two columns, latency 1
  Datapath dp(g);
  OperandRegs x(2, 1);
  latch(x, 1, {f16(1.0)});
  std::vector<Datapath::ColumnIssue> issues(2);
  issues[1].active = true;  // column 1 with no upstream data
  issues[1].tag = PipeTag{0, 0, 0, false};
  issues[1].w = f16(1.0);
  issues[1].x = &x;
  EXPECT_DEATH(dp.advance(issues), "upstream column bubble");
}

/// Full row pipeline: H=2 columns, P=0 (latency 1), L=1, j_slots=2.
/// Schedule: col c active at ac in [c, 2*n_chunks + c), tau = (ac-c) % 2.
TEST(Datapath, TwoColumnAccumulationWithFeedback) {
  Geometry g{2, 1, 0};
  Datapath dp(g);
  // Z[0][j] over N=4 (two traversals): x = [1, 2, 3, 4],
  // W = [[5, 6], [7, 8], [9, 10], [11, 12]] (n x j).
  const double xs[4] = {1, 2, 3, 4};
  const double w[4][2] = {{5, 6}, {7, 8}, {9, 10}, {11, 12}};
  // Expected: z[j] = sum_n x[n]*w[n][j].
  const double ez0 = 1 * 5 + 2 * 7 + 3 * 9 + 4 * 11;
  const double ez1 = 1 * 6 + 2 * 8 + 3 * 10 + 4 * 12;

  OperandRegs x(2, 1);
  std::vector<Datapath::ColumnIssue> issues(2);
  std::vector<double> captured(2, -1);
  const unsigned n_chunks = 2, js = 2;
  for (unsigned ac = 0; ac < n_chunks * js + js; ++ac) {
    for (unsigned c = 0; c < 2; ++c) {
      auto& is = issues[c];
      const int local = static_cast<int>(ac) - static_cast<int>(c);
      if (local < 0 || local >= static_cast<int>(n_chunks * js)) {
        is = Datapath::ColumnIssue{};
        continue;
      }
      const unsigned trav = static_cast<unsigned>(local) / js;
      const unsigned tau = static_cast<unsigned>(local) % js;
      const unsigned n = trav * 2 + c;
      is.active = true;
      is.tag = PipeTag{0, trav, tau, trav == n_chunks - 1};
      is.first_traversal = trav == 0;
      is.w = f16(w[n][tau]);
      latch(x, c, {f16(xs[n])});
      is.x = &x;
    }
    if (const Datapath::Capture* cap = dp.advance(issues))
      captured[cap->tag.tau] = cap->values[0].to_double();
  }
  EXPECT_EQ(captured[0], ez0);
  EXPECT_EQ(captured[1], ez1);
  EXPECT_TRUE(dp.drained());
}

TEST(Datapath, FmaOpsCountsAllLanes) {
  Geometry g{1, 4, 0};
  Datapath dp(g);
  OperandRegs x(1, 4);
  latch(x, 0, std::vector<Float16>(4, f16(1.0)));
  std::vector<Datapath::ColumnIssue> issues(1);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  issues[0].x = &x;
  dp.advance(issues);
  EXPECT_EQ(dp.fma_ops(), 4u);  // one issue x L rows
}

TEST(Datapath, IneligibleLaneFallsBackAlone) {
  // One subnormal operand lane -- an X register or a streamed Y element --
  // makes its row ineligible for the batch kernel: that lane must get the
  // soft core's result, every other lane the fast path's. The subnormal
  // lanes are chosen so that treating the subnormal as zero would change the
  // result.
  const Float16 sub = Float16::from_bits(0x0155);
  struct Case {
    std::vector<Float16> x, init;
    unsigned lane;
  };
  const Case cases[] = {
      {{f16(1.25), sub, f16(-3.0), f16(0.75)}, {f16(0.5), f16(0.0), f16(-1.0), f16(4.0)}, 1},
      {{f16(1.25), f16(2.0), Float16::from_bits(0x0400), f16(0.75)},
       {f16(0.5), f16(0.5), sub, f16(4.0)},
       2},
  };
  const Float16 w = f16(1.0);
  for (const Case& k : cases) {
    Geometry g{1, 4, 0};  // H=1, L=4, latency 1
    Datapath dp(g);
    OperandRegs x(1, 4);
    latch(x, 0, k.x);
    std::vector<Datapath::ColumnIssue> issues(1);
    issues[0].active = true;
    issues[0].tag = PipeTag{0, 0, 0, true};
    issues[0].first_traversal = true;
    issues[0].w = w;
    issues[0].x = &x;
    issues[0].init_acc = k.init.data();
    EXPECT_EQ(dp.advance(issues), nullptr);
    issues[0].active = false;
    const Datapath::Capture* cap = dp.advance(issues);
    ASSERT_NE(cap, nullptr);
    ASSERT_EQ(cap->values.size(), 4u);
    for (unsigned r = 0; r < 4; ++r) {
      const Float16 soft = Float16::fma_soft(k.x[r], w, k.init[r]);
      const Float16 expect = r == k.lane ? soft : Float16::fma(k.x[r], w, k.init[r]);
      EXPECT_EQ(cap->values[r].bits(), expect.bits()) << k.lane << " " << r;
      EXPECT_EQ(cap->values[r].bits(), soft.bits()) << k.lane << " " << r;
    }
    // Dropping the subnormal (the kernel's view of it) would be visible.
    auto flush = [](Float16 v) { return v.is_subnormal() ? Float16{} : v; };
    const Float16 flushed = Float16::fma_soft(flush(k.x[k.lane]), w, flush(k.init[k.lane]));
    EXPECT_NE(cap->values[k.lane].bits(), flushed.bits());
  }
}

TEST(Datapath, SubnormalPartialSumFallsBackDownstream) {
  // Column 0 produces a subnormal partial sum in one lane (soft core); the
  // slot's normal-or-zero flag must then route column 1's row around the
  // kernel, so the chain still equals the soft core's lane by lane.
  Geometry g{2, 3, 0};  // H=2, L=3, latency 1
  Datapath dp(g);
  const std::vector<Float16> x0 = {f16(2.0), Float16::from_bits(0x0400), f16(-0.5)};
  const std::vector<Float16> x1 = {f16(1.0), Float16::from_bits(0x0400), f16(0.25)};
  const Float16 w0 = f16(0.5), w1 = f16(1.0);
  OperandRegs x(2, 3);
  latch(x, 0, x0);
  latch(x, 1, x1);
  EXPECT_TRUE(x.normal_or_zero(0));

  std::vector<Datapath::ColumnIssue> issues(2);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, true};
  issues[0].first_traversal = true;
  issues[0].w = w0;
  issues[0].x = &x;
  EXPECT_EQ(dp.advance(issues), nullptr);
  issues[1] = issues[0];
  issues[1].w = w1;
  issues[0] = Datapath::ColumnIssue{};
  EXPECT_EQ(dp.advance(issues), nullptr);
  issues[1] = Datapath::ColumnIssue{};
  const Datapath::Capture* cap = dp.advance(issues);
  ASSERT_NE(cap, nullptr);
  for (unsigned r = 0; r < 3; ++r) {
    const Float16 z0 = Float16::fma_soft(x0[r], w0, Float16{});
    EXPECT_EQ(z0.is_subnormal(), r == 1) << r;
    EXPECT_EQ(cap->values[r].bits(), Float16::fma_soft(x1[r], w1, z0).bits()) << r;
  }
  // Reading the subnormal partial sum as zero would be visible.
  EXPECT_NE(cap->values[1].bits(), Float16::fma_soft(x1[1], w1, Float16{}).bits());
}

TEST(Datapath, CaptureSpanHoldsEmergingValues) {
  // The capture span addresses the pipeline itself: it must hold exactly the
  // values that emerged this cycle and stay intact until the next advance.
  Geometry g{1, 3, 1};  // H=1, L=3, latency 2
  Datapath dp(g);
  OperandRegs x(1, 3);
  latch(x, 0, {f16(1.0), f16(-2.0), f16(4.0)});
  std::vector<Datapath::ColumnIssue> issues(1);
  issues[0].active = true;
  issues[0].first_traversal = true;
  issues[0].x = &x;
  for (uint32_t tau = 0; tau < 2; ++tau) {
    issues[0].tag = PipeTag{0, 0, tau, true};
    issues[0].w = f16(3.0 + tau);
    EXPECT_EQ(dp.advance(issues), nullptr);
  }
  issues[0].active = false;
  for (uint32_t tau = 0; tau < 2; ++tau) {
    const Datapath::Capture* cap = dp.advance(issues);
    ASSERT_NE(cap, nullptr);
    EXPECT_EQ(cap->tag, (PipeTag{0, 0, tau, true}));
    ASSERT_EQ(cap->values.size(), 3u);
    const double w = 3.0 + tau;
    EXPECT_EQ(cap->values[0].to_double(), 1.0 * w);
    EXPECT_EQ(cap->values[1].to_double(), -2.0 * w);
    EXPECT_EQ(cap->values[2].to_double(), 4.0 * w);
  }
  EXPECT_EQ(dp.advance(issues), nullptr);
  EXPECT_TRUE(dp.drained());
}

}  // namespace
}  // namespace redmule::core

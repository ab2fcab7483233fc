// Self-tests of the benchmark's own rules: the tail-percentile rule, failure
// counting (an injected hash mismatch must count and fail the run), and the
// metric catalogue (every metric BENCHMARK.json names is produced, with its
// unit, by real runs of the workloads).
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// --- Tail rule ---------------------------------------------------------------

TEST(TailRule, KeepsAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000, 99.0), 99.0);  // exactly 10 beyond
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(tail_percentile(999, 99.0), 98.0);   // p99 would leave 9
  EXPECT_EQ(tail_percentile(20, 99.0), 50.0);
  EXPECT_EQ(tail_percentile(19, 99.0), 0.0);     // not even the median
  EXPECT_EQ(tail_percentile(100000, 95.0), 95.0);  // never above the target
  for (size_t n = 1; n <= 3000; ++n) {
    const double p = tail_percentile(n, 99.9);
    if (p == 0.0) {
      EXPECT_LT(samples_beyond(n, 50.0), kMinBeyond) << n;
      continue;
    }
    EXPECT_GE(samples_beyond(n, p), kMinBeyond) << "n=" << n << " p=" << p;
  }
}

TEST(TailRule, SummaryUsesNearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const TimedSummary s = summarize(v, 99.0);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(TailRule, GroupedSummaryIgnoresOneDisturbedGroup) {
  std::vector<std::vector<double>> groups(3);
  for (int g = 0; g < 3; ++g)
    for (int i = 1; i <= 200; ++i)
      groups[g].push_back(g == 1 ? 10.0 * i : static_cast<double>(i));
  const GroupedSummary s = summarize_groups(groups, 99.0);
  EXPECT_EQ(s.groups, 3u);
  EXPECT_EQ(s.n, 600u);
  EXPECT_EQ(s.tail_pct, 95.0);  // 200 samples per group support p95
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.tail, 190.0);
  EXPECT_GE(s.min_beyond, kMinBeyond);
}

// --- Failure counting --------------------------------------------------------

TEST(FailRatio, CountsErrorsAndMismatches) {
  Tally t;
  const Expected want{0xabc, 100, 10};
  EXPECT_TRUE(t.record(Observed{true, 0xabc, 100}, want));
  EXPECT_FALSE(t.record(Observed{true, 0xabd, 100}, want));  // wrong hash
  EXPECT_FALSE(t.record(Observed{true, 0xabc, 101}, want));  // wrong cycles
  EXPECT_FALSE(t.record(Observed{false, 0, 0}, want));       // refused
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_EQ(t.mismatches, 2u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.75);
  EXPECT_FALSE(t.correct());
}

ClosedLoopPlan tiny_plan() {
  ClosedLoopPlan plan;
  plan.specs = {"gemm:m=16,n=16,k=16,seed=1", "gemm:m=8,n=12,k=8,seed=2"};
  plan.warmup = {plan.specs[1]};
  plan.tail_target_pct = 50.0;
  plan.probe_spec = plan.specs[0];
  plan.overhead_jobs = 2;
  return plan;
}

RunOptions tiny_options(bool trace) {
  RunOptions o;
  o.workload = "selftest";
  o.seconds = 0.001;  // the first pass always completes
  o.trace = trace;
  o.out_dir = ::testing::TempDir();
  return o;
}

TEST(FailRatio, InjectedHashMismatchFailsTheRun) {
  const ClosedLoopPlan plan = tiny_plan();
  OracleTable oracle = compute_oracle(plan.specs);
  const Outcome clean = run_closed_loop(tiny_options(false), plan, oracle);
  EXPECT_TRUE(clean.tally.correct());
  EXPECT_EQ(clean.tally.failed, 0u);

  oracle.at(plan.specs[0]).z_hash ^= 0x1;  // one flipped bit in specs[0]
  const Outcome bad = run_closed_loop(tiny_options(false), plan, oracle);
  EXPECT_FALSE(bad.tally.correct());
  EXPECT_GE(bad.tally.mismatches, 1u);
  EXPECT_EQ(bad.tally.mismatches, bad.tally.failed);
  EXPECT_GT(bad.tally.fail_ratio(), 0.0);
  EXPECT_EQ(bad.tally.errors, 0u);
  // The corrupted job also misses the latency objective.
  EXPECT_LT(bad.report.find("slo_ok_ratio")->value, 1.0);
}

// --- Metric catalogue ----------------------------------------------------------

std::vector<MetricSpec> benchmark_json_section(const std::string& section) {
  std::ifstream f(PERFBENCH_BENCHMARK_JSON);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const size_t at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return {};
  const std::string body = text.substr(at, text.find(']', at) - at);
  const std::regex entry(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::vector<MetricSpec> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it)
    out.push_back({(*it)[1], (*it)[2]});
  return out;
}

void expect_same(const std::vector<MetricSpec>& a, const std::vector<MetricSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].unit, b[i].unit) << a[i].name;
  }
}

TEST(Catalogue, MatchesBenchmarkJson) {
  expect_same(benchmark_json_section("end_to_end"), end_to_end_metrics());
  expect_same(benchmark_json_section("per_layer"), per_layer_metrics());
}

TEST(Catalogue, ResultLineRefusesMissingOrMisunitedMetrics) {
  Report r;
  r.add("a", 1.5, "ms", Kind::kTimed);
  EXPECT_EQ(r.result_line(true, 3, 0, {{"a", "ms"}}),
            R"({"correct": true, "attempted": 3, "failed": 0, )"
            R"("metrics": {"a": {"value": 1.5, "unit": "ms"}}})");
  EXPECT_THROW(r.result_line(true, 3, 0, {{"b", "ms"}}), std::logic_error);
  EXPECT_THROW(r.result_line(true, 3, 0, {{"a", "s"}}), std::logic_error);
}

void expect_all_metrics(const Outcome& out, const std::vector<MetricSpec>& want) {
  for (const MetricSpec& m : want) {
    const Record* r = out.report.find(m.name);
    ASSERT_NE(r, nullptr) << m.name;
    EXPECT_EQ(r->unit, m.unit) << m.name;
  }
  EXPECT_NO_THROW(out.report.result_line(true, 1, 0, want));
}

TEST(Catalogue, ClosedLoopProducesEveryMetric) {
  const ClosedLoopPlan plan = tiny_plan();
  const OracleTable oracle = compute_oracle(plan.specs);
  const Outcome plain = run_closed_loop(tiny_options(false), plan, oracle);
  expect_all_metrics(plain, end_to_end_metrics());
  const Outcome traced = run_closed_loop(tiny_options(true), plan, oracle);
  EXPECT_TRUE(traced.fatal.empty()) << traced.fatal;
  expect_all_metrics(traced, per_layer_metrics());
  // Exact records agree between the traced and the untraced run.
  for (const char* exact : {"sim_cycles", "sim_macs_per_cycle",
                            "core.advance_cycles", "core.fma_useful_ratio"})
    EXPECT_EQ(plain.report.find(exact)->value, traced.report.find(exact)->value)
        << exact;
}

TEST(Catalogue, ServeMixProducesEveryMetric) {
  RunOptions o = tiny_options(false);
  o.workload = "serve_mix";
  o.seconds = 1.0;
  const Outcome plain = run_serve_mix(o);
  EXPECT_TRUE(plain.tally.correct());
  expect_all_metrics(plain, end_to_end_metrics());
  o.trace = true;
  const Outcome traced = run_serve_mix(o);
  EXPECT_TRUE(traced.tally.correct());
  EXPECT_TRUE(traced.fatal.empty()) << traced.fatal;
  expect_all_metrics(traced, per_layer_metrics());
  EXPECT_EQ(plain.report.find("sim_cycles")->value,
            traced.report.find("sim_cycles")->value);
}

}  // namespace
}  // namespace perfbench

// train_ae: the paper's 640-128^4-8-128^4-640 autoencoder as warm network
// training steps, one caller with one job in flight, one Service worker.
// One weight seed per run (so every job after the set-up's first B=1 and
// B=16 steps forks a cached template) and a fresh input seed per job slot,
// alternating B=1 and B=16 (the Fig. 4d end points).
#include <string>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using redmule::Xoshiro256;

namespace {

/// Jobs per pass: alternating B=1 / B=16, each with its own input seed.
constexpr size_t kJobs = 4;
constexpr double kPaperBatchGain = 16.0;  ///< "almost 16x" per sample

std::string step_spec(uint32_t batch, uint64_t seed, uint64_t input_seed) {
  return "network:batch=" + std::to_string(batch) +
         ",seed=" + std::to_string(seed) +
         ",input_seed=" + std::to_string(input_seed) + ",warm=1";
}

ClosedLoopPlan make_plan(uint64_t seed) {
  Xoshiro256 rng(seed * 0xD1B54A32D192ED03ull + 7);
  const uint64_t weight_seed = 1 + rng.next_below(1000000);
  ClosedLoopPlan plan;
  for (size_t i = 0; i < kJobs; ++i)
    plan.specs.push_back(step_spec(i % 2 == 0 ? 1 : 16, weight_seed,
                                   1 + rng.next_below(1000000)));
  plan.warmup = {plan.specs[0], plan.specs[1]};
  plan.tail_target_pct = 75.0;  // ~60 steps per 20 s window
  plan.slo_ms = 5000.0;
  plan.probe_spec = step_spec(16, weight_seed, 1);
  plan.overhead_jobs = 2;
  plan.min_jobs = 40;  // the p75 tail needs 40 steps
  return plan;
}

}  // namespace

Outcome run_train_ae(const RunOptions& opts) {
  const ClosedLoopPlan plan = make_plan(opts.seed);
  const OracleTable oracle = compute_oracle(plan.specs);
  const double b1 = static_cast<double>(oracle.at(plan.specs[0]).cycles);
  const double b16 = static_cast<double>(oracle.at(plan.specs[1]).cycles);
  const double gain = b1 * 16.0 / b16;
  Outcome out = run_closed_loop(opts, plan, oracle);
  out.report.add("anchor.ae_b1_cycles", b1, "cycles", Kind::kExact,
                 "one B=1 training step");
  out.report.add("anchor.ae_b16_cycles", b16, "cycles", Kind::kExact,
                 "one B=16 training step");
  out.report.add("anchor.ae_b16_per_sample_gain", gain, "x", Kind::kExact,
                 "paper: almost 16x; gap " +
                     fmt_double((gain / kPaperBatchGain - 1) * 100) + "%");
  return out;
}

}  // namespace perfbench

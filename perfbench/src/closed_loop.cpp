#include <memory>
#include <stdexcept>

#include "api/service.hpp"
#include "api/workload.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = redmule::api;

void SimTotals::add(const redmule::core::JobStats& s, unsigned n_fmas) {
  ++jobs;
  cycles += s.cycles;
  macs += s.macs;
  advance += s.advance_cycles;
  stall += s.stall_cycles;
  fma_ops += s.fma_ops;
  fma_slots += s.cycles * n_fmas;
}

namespace {

std::string jobs_note(const SimTotals& t) {
  return "over " + std::to_string(t.jobs) + " jobs";
}

double ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace

void add_sim_records(Report& r, const SimTotals& t) {
  const std::string note = jobs_note(t);
  r.add("sim_cycles", static_cast<double>(t.cycles), "cycles", Kind::kExact,
        note);
  r.add("sim_macs_per_cycle", ratio(t.macs, t.cycles), "MAC/cycle",
        Kind::kExact, note);
  r.add("core.advance_cycles", static_cast<double>(t.advance), "cycles",
        Kind::kExact, note);
  r.add("core.stall_cycles", static_cast<double>(t.stall), "cycles",
        Kind::kExact, note);
  r.add("core.utilization", ratio(t.macs, t.fma_slots), "ratio", Kind::kExact,
        "useful MACs / (cycles * FMAs), " + note);
  r.add("core.fma_useful_ratio", ratio(t.macs, t.fma_ops), "ratio",
        Kind::kExact, "useful MACs / FMA issues, " + note);
}

void add_layer_records(Report& r, const LayerCounters& c, const SimTotals& t) {
  const std::string note = jobs_note(t);
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  r.add("mem.hci.log_conflict_stalls", d(c.hci_log_conflict_stalls), "cycles",
        Kind::kExact, note);
  r.add("mem.hci.shallow_stalls", d(c.hci_shallow_stalls), "cycles",
        Kind::kExact, note);
  r.add("mem.dma.busy_cycles", d(c.dma_busy_cycles), "cycles", Kind::kExact,
        note);
  r.add("mem.dma.stall_cycles", d(c.dma_stall_cycles), "cycles", Kind::kExact,
        note);
  r.add("mem.dma.bytes", d(c.dma_bytes), "B", Kind::kExact, note);
  r.add("mem.l2.resident_bytes", d(c.l2_resident_bytes), "B", Kind::kExact,
        "largest after any job, " + note);
  r.add("sim.skipped_module_ticks", d(c.skipped_module_ticks), "count",
        Kind::kExact, note);
  r.add("sim.fast_forwarded_cycles", d(c.fast_forwarded_cycles), "cycles",
        Kind::kExact, note);
}

void add_timed_records(Report& r, const TimedMetrics& m, const HostGauge& g) {
  const double f = g.factor();
  const auto both = [&](const std::string& name, double raw, double factor,
                        bool is_rate, const std::string& unit,
                        const std::string& note) {
    r.add(name, is_rate ? raw / factor : raw * factor, unit, Kind::kTimed,
          factor == 1.0 ? note
                        : note + ", host-normalised (x" + fmt_double(f) + ")");
    r.add(name + ".raw", raw, unit, Kind::kTimed, note);
  };
  both("setup_s", m.setup_s, f, false, "s", m.setup_note);
  const double rf = m.host_bound_rates ? f : 1.0;
  both("jobs_per_s", m.jobs_per_s, rf, true, "1/s", m.jobs_note);
  both("sim_cycles_per_s", m.sim_cycles_per_s, rf, true, "cycles/s",
       "simulated cycles per host second, " + m.jobs_note);
  both("latency_p50_ms", m.latency_p50_ms, f, false, "ms", m.latency_p50_note);
  both("latency_tail_ms", m.latency_tail_ms, f, false, "ms",
       m.latency_tail_note);
  r.add("host.speed_factor", f, "ratio", Kind::kTimed,
        "nominal / median reference slice, " + std::to_string(g.samples()) +
            " slices");
  r.add("host.reference_slice_us", g.median_slice_us(), "us", Kind::kTimed,
        "median; nominal " + fmt_double(HostGauge::kNominalSliceNs / 1e3));
}

void add_service_records(Report& r, const api::ServiceStats& s) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  const std::string note = "ServiceStats after the timed window";
  r.add("api.clusters_constructed", d(s.clusters_constructed), "count",
        Kind::kTimed, note);
  r.add("api.cluster_reuses", d(s.cluster_reuses), "count", Kind::kTimed, note);
  r.add("api.template_forks", d(s.template_forks), "count", Kind::kTimed, note);
  r.add("api.template_misses", d(s.template_misses), "count", Kind::kTimed,
        note);
  r.add("api.rejected", d(s.rejected), "count", Kind::kTimed, note);
  r.add("api.shed", d(s.shed), "count", Kind::kTimed, note);
}

namespace {

class ClosedLoop {
 public:
  ClosedLoop(const RunOptions& opts, const ClosedLoopPlan& plan,
             const OracleTable& oracle)
      : opts_(opts), plan_(plan), oracle_(oracle) {
    if (opts.trace) tr_ = &tracer_;
    cfg_.n_threads = 1;
    for (const std::string& s : plan.specs)
      n_fmas_.push_back(api::WorkloadRegistry::global()
                            .create(s)
                            ->requirements()
                            .geometry.n_fmas());
  }

  Outcome run() {
    setup();
    timed_window();
    stats_ = svc_->stats();
    report_pass_records();
    if (opts_.trace) {
      report_per_layer();
      export_trace(tracer_, trace_path(opts_), out_.report, &out_.fatal);
    } else {
      report_end_to_end();
    }
    svc_.reset();
    return std::move(out_);
  }

 private:
  struct JobRun {
    uint64_t job = 0;
    api::WorkloadResult result;
    int64_t submit_ns = 0;  ///< right before Service::submit
    double latency_ms = 0;  ///< workload creation to JobHandle::get return
    bool correct = false;
  };

  /// Creates, submits and waits for one job, decorated and traced when
  /// \p traced; checks it against the oracle.
  JobRun run_job(const std::string& spec, bool traced, const char* root_name,
                 uint64_t parent);
  void setup();
  void timed_window();
  void report_pass_records();
  void report_end_to_end();
  void report_per_layer();
  double trace_overhead();

  const RunOptions& opts_;
  const ClosedLoopPlan& plan_;
  const OracleTable& oracle_;
  Tracer tracer_;
  Tracer* tr_ = nullptr;
  LayerLog log_;
  api::ServiceConfig cfg_;
  std::vector<unsigned> n_fmas_;
  std::unique_ptr<api::Service> svc_;
  uint64_t next_job_ = 1;
  Outcome out_;

  std::vector<double> setup_s_;
  std::vector<std::vector<double>> pass_latency_ms_;  ///< per whole pass
  std::vector<double> pass_s_;                        ///< per whole pass
  std::vector<double> submit_to_run_us_;
  std::vector<double> run_us_;
  uint64_t timed_attempted_ = 0;
  uint64_t slo_ok_ = 0;
  uint64_t cycles_done_ = 0;
  SimTotals pass_;
  LayerCounters pass_layers_;
  /// A slice after the job that ends 50 ms after the last one (~4% of the
  /// window, excluded from the pass times).
  HostGauge gauge_{50'000'000};
  api::ServiceStats stats_;
};

ClosedLoop::JobRun ClosedLoop::run_job(const std::string& spec, bool traced,
                                       const char* root_name, uint64_t parent) {
  JobRun jr;
  jr.job = next_job_++;
  Tracer* t = traced ? tr_ : nullptr;
  const int64_t start = now_ns();
  const uint64_t root = t != nullptr ? t->begin(root_name, parent, jr.job) : 0;
  if (t != nullptr) t->set_job_root(jr.job, root);
  auto w = api::WorkloadRegistry::global().create(spec);
  if (t != nullptr)
    w = perfbench::traced(std::move(w), spec_kind(spec), jr.job, t, &log_);
  api::JobHandle h;
  jr.submit_ns = now_ns();
  {
    ScopedSpan s(t, "api.submit", root, jr.job);
    h = svc_->submit(std::move(w));
  }
  jr.result = h.get();
  jr.latency_ms = ns_to_ms(now_ns() - start);
  if (t != nullptr) t->end(root);
  jr.correct = out_.tally.record(
      Observed{jr.result.ok(), jr.result.z_hash, jr.result.stats.cycles},
      oracle_.at(spec));
  return jr;
}

void ClosedLoop::setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc_.reset();  // the previous set-up's service goes before the next one
    ScopedSpan span(tr_, "setup");
    const int64_t t0 = now_ns();
    {
      ScopedSpan c(tr_, "setup.service", span.id());
      svc_ = std::make_unique<api::Service>(cfg_);
    }
    for (const std::string& spec : plan_.warmup)
      run_job(spec, opts_.trace, "setup.warmup", span.id());
    setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    gauge_.sample();
  }
}

void ClosedLoop::timed_window() {
  const size_t k = plan_.specs.size();
  const int64_t w0 = now_ns();
  const int64_t deadline = w0 + static_cast<int64_t>(opts_.seconds * 1e9);
  int64_t pass_start = w0;
  int64_t gauge_ns = 0;  // reference slices inside the current pass
  // The first pass always completes, so the exact first-pass records exist
  // whatever the host speed; the window then ends at a pass boundary.
  for (size_t i = 0;; ++i) {
    const size_t slot = i % k;
    if (slot == 0) pass_latency_ms_.emplace_back();
    JobRun jr = run_job(plan_.specs[slot], opts_.trace, "job", 0);
    ++timed_attempted_;
    pass_latency_ms_.back().push_back(jr.latency_ms);
    if (jr.correct && jr.latency_ms <= plan_.slo_ms) ++slo_ok_;
    if (jr.result.ok()) cycles_done_ += jr.result.stats.cycles;
    JobLayers l;
    const bool have_layers = opts_.trace && log_.get(jr.job, &l);
    if (have_layers) {
      submit_to_run_us_.push_back(ns_to_us(l.run_start_ns - jr.submit_ns));
      run_us_.push_back(ns_to_us(l.run_end_ns - l.run_start_ns));
    }
    if (i < k) {
      pass_.add(jr.result.stats, n_fmas_[slot]);
      if (have_layers) pass_layers_.merge(l.counters);
    }
    if (gauge_.due()) {
      const int64_t g0 = now_ns();
      gauge_.sample();
      gauge_ns += now_ns() - g0;
    }
    if (slot + 1 < k) continue;
    const int64_t t = now_ns();
    pass_s_.push_back(static_cast<double>(t - pass_start - gauge_ns) / 1e9);
    pass_start = t;
    gauge_ns = 0;
    // Whole passes only: every job of the pass is sampled equally often
    // (train_ae's median sits between its B=1 and B=16 modes, which an odd
    // sample would flip).
    if (t >= deadline && timed_attempted_ >= plan_.min_jobs) break;
  }
}

void ClosedLoop::report_pass_records() { add_sim_records(out_.report, pass_); }

void ClosedLoop::report_end_to_end() {
  // Every pass runs the same jobs, so per-pass rates compare directly; their
  // median ignores a stretch of the run the host disturbed.
  std::vector<double> jobs_rate, cycle_rate;
  for (const double ps : pass_s_) {
    jobs_rate.push_back(static_cast<double>(plan_.specs.size()) / ps);
    cycle_rate.push_back(static_cast<double>(pass_.cycles) / ps);
  }
  // Latency groups: consecutive runs of whole passes.
  std::vector<std::vector<double>> groups(
      std::min(plan_.latency_groups, pass_latency_ms_.size()));
  for (size_t p = 0; p < pass_latency_ms_.size(); ++p) {
    auto& g = groups[p * groups.size() / pass_latency_ms_.size()];
    g.insert(g.end(), pass_latency_ms_[p].begin(), pass_latency_ms_[p].end());
  }
  const GroupedSummary lat = summarize_groups(groups, plan_.tail_target_pct);
  const std::string passes = "median of " + std::to_string(pass_s_.size()) +
                             " passes of " +
                             std::to_string(plan_.specs.size()) + " jobs";
  TimedMetrics m;
  m.setup_s = median(setup_s_);
  m.setup_note = "median of " + std::to_string(kSetupReps) + " set-ups";
  m.jobs_per_s = median(jobs_rate);
  m.jobs_note = passes;
  m.sim_cycles_per_s = median(cycle_rate);
  m.latency_p50_ms = lat.p50;
  m.latency_p50_note = "workload creation to JobHandle::get, median of " +
                       std::to_string(lat.groups) + " group medians (" +
                       std::to_string(lat.n) + " jobs)";
  m.latency_tail_ms = lat.tail;
  m.latency_tail_note = lat.tail_note();
  add_timed_records(out_.report, m, gauge_);
  Report& r = out_.report;
  r.add("slo_ok_ratio",
        static_cast<double>(slo_ok_) / static_cast<double>(timed_attempted_),
        "ratio", Kind::kTimed,
        "correct within " + fmt_double(plan_.slo_ms) + " ms");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB", Kind::kTimed, "VmHWM");
}

double ClosedLoop::trace_overhead() {
  const size_t n = std::min(plan_.overhead_jobs, plan_.specs.size());
  std::vector<double> plain, traced;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool on : {false, true}) {
      const int64_t t0 = now_ns();
      for (size_t i = 0; i < n; ++i)
        run_job(plan_.specs[i], on, "overhead.job", 0);
      (on ? traced : plain).push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return median(traced) / median(plain);
}

void ClosedLoop::report_per_layer() {
  Report& r = out_.report;
  const TimedSummary s2r = summarize(submit_to_run_us_, plan_.tail_target_pct);
  r.add("api.submit_to_run_us_p50", s2r.p50, "us", Kind::kTimed,
        "queue wait + provisioning, median of " + std::to_string(s2r.n));
  r.add("api.submit_to_run_us_tail", s2r.tail, "us", Kind::kTimed,
        "p" + fmt_double(s2r.tail_pct) + " of " + std::to_string(s2r.n) +
            ", " + std::to_string(s2r.beyond) + " beyond");
  r.add("api.run_us_p50", median(run_us_), "us", Kind::kTimed,
        "Workload::run/run_staged span, median of " +
            std::to_string(run_us_.size()));
  add_service_records(r, stats_);
  add_layer_records(r, pass_layers_, pass_);

  r.add("bench.trace_overhead", trace_overhead(), "ratio", Kind::kTimed,
        "traced / untraced wall time of the first " +
            std::to_string(std::min(plan_.overhead_jobs, plan_.specs.size())) +
            " jobs, median of 3 alternating rounds");
  probe_provisioning(plan_.probe_spec, tr_, r);
  probe_cluster(tr_, r);
}

}  // namespace

Outcome run_closed_loop(const RunOptions& opts, const ClosedLoopPlan& plan,
                        const OracleTable& oracle) {
  return ClosedLoop(opts, plan, oracle).run();
}

}  // namespace perfbench

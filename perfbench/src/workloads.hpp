/// \file workloads.hpp
/// \brief The three benchmark workloads and the closed-loop driver two of
///        them share.
///
///  - gemm_stream: closed loop, one caller, one Service worker, monolithic
///    gemm jobs over seeded shapes (host time in core + mem::Hci).
///  - train_ae: closed loop, one caller, one Service worker, warm paper
///    autoencoder training steps alternating B=1 / B=16 (host time in
///    cluster runners + DMA/L2).
///  - serve_mix: open loop of seeded Poisson arrivals over a unix socket to
///    an in-process serve::Server (serve + api overhead, template cache hits
///    and misses, memory growth).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "trace.hpp"

namespace perfbench {

Outcome run_gemm_stream(const RunOptions& opts);
Outcome run_train_ae(const RunOptions& opts);
Outcome run_serve_mix(const RunOptions& opts);

/// One pass of a closed-loop workload; the timed window cycles through it.
struct ClosedLoopPlan {
  std::vector<std::string> specs;
  /// Jobs submitted during set-up (pooled-cluster construction, template
  /// staging); their results are checked but not timed.
  std::vector<std::string> warmup;
  /// Target percentile of the latency tail (lowered by the tail rule when
  /// a group cannot support it), and how many consecutive groups of whole
  /// passes the latency sample is split into (see summarize_groups).
  double tail_target_pct = 99.0;
  size_t latency_groups = 1;
  /// A correct job meets the latency objective when it completes within
  /// this many milliseconds.
  double slo_ms = 1000.0;
  /// Spec whose cluster config the provisioning probe times.
  std::string probe_spec;
  /// Jobs from the head of the pass the traced run replays with and without
  /// tracing to measure the tracing overhead.
  size_t overhead_jobs = 8;
  /// The window runs whole passes until --seconds have passed and at least
  /// this many jobs completed (a slow host still gets a supported tail).
  size_t min_jobs = 0;
};

/// Runs \p plan: oracle, set-up (repeated, median reported), the timed
/// closed loop, then the end-to-end metrics (untraced) or the per-layer
/// metrics, probes and Chrome trace (traced). \p oracle must cover every
/// spec of the plan.
Outcome run_closed_loop(const RunOptions& opts, const ClosedLoopPlan& plan,
                        const OracleTable& oracle);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Exact simulated totals over a fixed job list (a closed loop's first pass,
/// or a serve_mix schedule).
struct SimTotals {
  uint64_t jobs = 0;
  uint64_t cycles = 0;
  uint64_t macs = 0;
  uint64_t advance = 0;
  uint64_t stall = 0;
  uint64_t fma_ops = 0;
  uint64_t fma_slots = 0;  ///< sum of cycles * FMAs of each job's geometry

  void add(const redmule::core::JobStats& s, unsigned n_fmas);
};

/// sim_cycles, sim_macs_per_cycle and core.* (exact) over \p t.
void add_sim_records(Report& r, const SimTotals& t);
/// mem.* and sim.* (exact) over the same job list.
void add_layer_records(Report& r, const LayerCounters& c, const SimTotals& t);
/// The host-timed end-to-end metrics of one run, before normalisation.
struct TimedMetrics {
  double setup_s = 0.0;
  std::string setup_note;
  double jobs_per_s = 0.0;
  std::string jobs_note;
  /// False for an open loop: its rates are set by the arrival schedule, not
  /// by the host, so they are reported as measured.
  bool host_bound_rates = true;
  double sim_cycles_per_s = 0.0;
  double latency_p50_ms = 0.0;
  std::string latency_p50_note;
  double latency_tail_ms = 0.0;
  std::string latency_tail_note;
};
/// Adds \p m host-normalised by \p g (see HostGauge), each also as
/// <name>.raw, plus the gauge's own records.
void add_timed_records(Report& r, const TimedMetrics& m, const HostGauge& g);
/// api.* counters from ServiceStats after the timed window.
void add_service_records(Report& r, const redmule::api::ServiceStats& s);

}  // namespace perfbench

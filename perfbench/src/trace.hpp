/// \file trace.hpp
/// \brief In-memory span recorder for the traced run, the Chrome Trace Event
///        export, and the Workload decorator that times calls into
///        api::Workload and reads the cluster's layer counters.
///
/// Spans are recorded from the benchmark's own files around calls into the
/// program's public functions (Service::submit, JobHandle::get, the serve
/// wire round trip, Workload::run/run_staged/stage_template, the probes'
/// ClusterPool/state/driver/runner calls). Each span carries a name, start
/// and end on the process-wide steady clock, its parent span and the job it
/// belongs to. A span's self time is its duration minus the part of it its
/// children cover.
///
/// Off (untraced runs), nothing here is installed: workloads are submitted
/// undecorated and no span is recorded.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/workload.hpp"
#include "common.hpp"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t job = 0;     ///< 0 = not tied to a job (set-up, probes)
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;     ///< small per-thread index
};

class Tracer {
 public:
  /// Opens a span now; returns its id. Thread-safe.
  uint64_t begin(const std::string& name, uint64_t parent, uint64_t job);
  /// Closes span \p id now.
  void end(uint64_t id);
  /// Records a span whose bounds were measured elsewhere.
  uint64_t add(const std::string& name, uint64_t parent, uint64_t job,
               int64_t start_ns, int64_t end_ns);

  /// Moves span \p id to [start_ns, end_ns] (spans opened ahead of the
  /// moment they are measured, so children can name them as parent).
  void set_bounds(uint64_t id, int64_t start_ns, int64_t end_ns);

  /// Registers \p span as the span a job's in-program spans hang under.
  void set_job_root(uint64_t job, uint64_t span);
  uint64_t job_root(uint64_t job) const;

  std::vector<Span> spans() const;

 private:
  uint32_t thread_index();

  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, size_t> open_;  ///< span id -> index
  std::unordered_map<uint64_t, uint64_t> job_roots_;
  std::unordered_map<size_t, uint32_t> tids_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name, uint64_t parent = 0,
             uint64_t job = 0)
      : t_(t), id_(t != nullptr ? t->begin(name, parent, job) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  uint64_t id_;
};

/// Self time of every span (same order as \p spans), and the number of
/// children that stick out of their parent's interval.
struct SelfTimes {
  std::vector<int64_t> self_ns;
  size_t misnested = 0;
  size_t negative = 0;
};
SelfTimes self_times(const std::vector<Span>& spans);

/// Writes \p spans as Chrome Trace Event JSON (complete "X" events, args
/// carry span/parent/job ids and self time); opens in Perfetto.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const SelfTimes& self);

/// Writes the Chrome trace of \p tracer to \p path and adds the span count,
/// the nesting check and each span name's median self time to \p report.
/// Sets \p fatal when a span sticks out of its parent or has negative self
/// time.
void export_trace(const Tracer& tracer, const std::string& path, Report& report,
                  std::string* fatal);
/// <out_dir>/trace-<workload>-seed<seed>.json
std::string trace_path(const RunOptions& opts);

/// Exact per-job counters of the layers below the workload, read from the
/// cluster before and after Workload::run/run_staged.
struct LayerCounters {
  uint64_t hci_log_conflict_stalls = 0;
  uint64_t hci_shallow_stalls = 0;
  uint64_t dma_busy_cycles = 0;
  uint64_t dma_stall_cycles = 0;
  uint64_t dma_bytes = 0;
  uint64_t l2_resident_bytes = 0;  ///< after the run (max when merged)
  uint64_t skipped_module_ticks = 0;
  uint64_t fast_forwarded_cycles = 0;

  void merge(const LayerCounters& o);
};

/// What the decorator saw of one job inside the program.
struct JobLayers {
  std::string kind;        ///< spec kind (gemm / tiled / network)
  int64_t run_start_ns = 0;
  int64_t run_end_ns = 0;
  int64_t stage_ns = 0;    ///< stage_template span (template misses), else 0
  LayerCounters counters;
};

/// Thread-safe job id -> JobLayers store filled by TracedWorkload.
class LayerLog {
 public:
  void put(uint64_t job, JobLayers l);
  bool get(uint64_t job, JobLayers* out) const;

 private:
  mutable std::mutex m_;
  std::unordered_map<uint64_t, JobLayers> jobs_;
};

/// Forwards every api::Workload call to \p inner, timing run / run_staged /
/// stage_template as spans under the job's root span and logging the
/// cluster's layer counters around the run. Results are untouched.
std::unique_ptr<redmule::api::Workload> traced(
    std::unique_ptr<redmule::api::Workload> inner, std::string kind,
    uint64_t job, Tracer* tracer, LayerLog* log);

/// Registers the spec kind "traced" on the global WorkloadRegistry:
///   traced:job=<id>,inner=<kind>;<key>=<value>;...
/// creates the inner spec "<kind>:<key>=<value>,..." and wraps it with
/// traced(). The serving front-end creates workloads from spec strings, so
/// this is how the traced serve run reaches the in-server calls.
void register_traced_kind(Tracer* tracer, LayerLog* log);
/// The traced spec string for \p spec (a plain "<kind>:k=v,..." spec).
std::string traced_spec(const std::string& spec, uint64_t job);
/// Kind prefix of a spec string ("gemm" for "gemm:m=8,...").
std::string spec_kind(const std::string& spec);

}  // namespace perfbench

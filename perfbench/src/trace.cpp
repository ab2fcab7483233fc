#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "cluster/cluster.hpp"

namespace perfbench {

using redmule::api::ClusterRequirements;
using redmule::api::Error;
using redmule::api::RunContext;
using redmule::api::Workload;
using redmule::api::WorkloadResult;

// --- Tracer -----------------------------------------------------------------

uint32_t Tracer::thread_index() {
  const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto it = tids_.find(h);
  if (it != tids_.end()) return it->second;
  const uint32_t idx = static_cast<uint32_t>(tids_.size()) + 1;
  tids_[h] = idx;
  return idx;
}

uint64_t Tracer::begin(const std::string& name, uint64_t parent, uint64_t job) {
  const int64_t t = now_ns();
  std::lock_guard<std::mutex> l(m_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.job = job;
  s.name = name;
  s.start_ns = t;
  s.end_ns = t;
  s.tid = thread_index();
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(uint64_t id) {
  const int64_t t = now_ns();
  std::lock_guard<std::mutex> l(m_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = t;
  open_.erase(it);
}

uint64_t Tracer::add(const std::string& name, uint64_t parent, uint64_t job,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> l(m_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.job = job;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.tid = thread_index();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::set_bounds(uint64_t id, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> l(m_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].start_ns = start_ns;
  spans_[id - 1].end_ns = end_ns;
}

void Tracer::set_job_root(uint64_t job, uint64_t span) {
  std::lock_guard<std::mutex> l(m_);
  job_roots_[job] = span;
}

uint64_t Tracer::job_root(uint64_t job) const {
  std::lock_guard<std::mutex> l(m_);
  const auto it = job_roots_.find(job);
  return it == job_roots_.end() ? 0 : it->second;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> l(m_);
  return spans_;
}

// --- Self time and export ---------------------------------------------------

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  out.self_ns.resize(spans.size());
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent);
    if (spans[i].parent == 0 || it == by_id.end()) continue;
    const Span& p = spans[it->second];
    if (spans[i].start_ns < p.start_ns || spans[i].end_ns > p.end_ns)
      ++out.misnested;
    children[it->second].push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i])
      iv.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                      std::min(spans[c].end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out.self_ns[i] = (s.end_ns - s.start_ns) - covered;
    if (out.self_ns[i] < 0) ++out.negative;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const SelfTimes& self) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "  {\"name\": \"" << json_escape(s.name)
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
      << ", \"ts\": " << fmt_double(ns_to_us(s.start_ns - t0))
      << ", \"dur\": " << fmt_double(ns_to_us(s.end_ns - s.start_ns))
      << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
      << ", \"job\": " << s.job
      << ", \"self_us\": " << fmt_double(ns_to_us(self.self_ns[i])) << "}}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

void export_trace(const Tracer& tracer, const std::string& path, Report& report,
                  std::string* fatal) {
  const std::vector<Span> spans = tracer.spans();
  const SelfTimes st = self_times(spans);
  write_chrome_trace(path, spans, st);
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i)
    by_name[spans[i].name].push_back(ns_to_us(st.self_ns[i]));
  for (const auto& [name, v] : by_name)
    report.add("self." + name + "_us_p50", median(v), "us", Kind::kTimed,
               "self time, median of " + std::to_string(v.size()) + " spans");
  report.add("trace.spans", static_cast<double>(spans.size()), "count",
             Kind::kTimed, path);
  report.add("trace.misnested", static_cast<double>(st.misnested), "count",
             Kind::kExact, "spans outside their parent's interval");
  if ((st.misnested != 0 || st.negative != 0) && fatal->empty())
    *fatal = std::to_string(st.misnested) + " misnested spans, " +
             std::to_string(st.negative) + " with negative self time";
}

std::string trace_path(const RunOptions& opts) {
  return opts.out_dir + "/trace-" + opts.workload + "-seed" +
         std::to_string(opts.seed) + ".json";
}

// --- Layer counters ---------------------------------------------------------

void LayerCounters::merge(const LayerCounters& o) {
  hci_log_conflict_stalls += o.hci_log_conflict_stalls;
  hci_shallow_stalls += o.hci_shallow_stalls;
  dma_busy_cycles += o.dma_busy_cycles;
  dma_stall_cycles += o.dma_stall_cycles;
  dma_bytes += o.dma_bytes;
  l2_resident_bytes = std::max(l2_resident_bytes, o.l2_resident_bytes);
  skipped_module_ticks += o.skipped_module_ticks;
  fast_forwarded_cycles += o.fast_forwarded_cycles;
}

void LayerLog::put(uint64_t job, JobLayers l) {
  std::lock_guard<std::mutex> g(m_);
  jobs_[job] = std::move(l);
}

bool LayerLog::get(uint64_t job, JobLayers* out) const {
  std::lock_guard<std::mutex> g(m_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  *out = it->second;
  return true;
}

namespace {

LayerCounters read_counters(const redmule::cluster::Cluster& cl) {
  LayerCounters c;
  c.hci_log_conflict_stalls = cl.hci().log_conflict_stalls();
  c.hci_shallow_stalls = cl.hci().shallow_stalls();
  c.dma_busy_cycles = cl.dma().busy_cycles();
  c.dma_stall_cycles = cl.dma().stall_cycles();
  c.dma_bytes = cl.dma().bytes_in() + cl.dma().bytes_out();
  c.l2_resident_bytes = cl.l2().resident_bytes();
  c.skipped_module_ticks = cl.sim().skipped_module_ticks();
  c.fast_forwarded_cycles = cl.sim().fast_forwarded_cycles();
  return c;
}

LayerCounters delta(const LayerCounters& before, const LayerCounters& after) {
  LayerCounters d;
  d.hci_log_conflict_stalls =
      after.hci_log_conflict_stalls - before.hci_log_conflict_stalls;
  d.hci_shallow_stalls = after.hci_shallow_stalls - before.hci_shallow_stalls;
  d.dma_busy_cycles = after.dma_busy_cycles - before.dma_busy_cycles;
  d.dma_stall_cycles = after.dma_stall_cycles - before.dma_stall_cycles;
  d.dma_bytes = after.dma_bytes - before.dma_bytes;
  d.l2_resident_bytes = after.l2_resident_bytes;
  d.skipped_module_ticks =
      after.skipped_module_ticks - before.skipped_module_ticks;
  d.fast_forwarded_cycles =
      after.fast_forwarded_cycles - before.fast_forwarded_cycles;
  return d;
}

class TracedWorkload : public Workload {
 public:
  TracedWorkload(std::unique_ptr<Workload> inner, std::string kind,
                 uint64_t job, Tracer* tracer, LayerLog* log)
      : inner_(std::move(inner)),
        kind_(std::move(kind)),
        job_(job),
        tracer_(tracer),
        log_(log) {}

  std::string name() const override { return inner_->name(); }
  ClusterRequirements requirements() const override {
    return inner_->requirements();
  }
  Error validate() const override { return inner_->validate(); }
  WorkloadResult run(redmule::cluster::Cluster& cl, RunContext& ctx) override {
    return timed_run(cl, ctx, false);
  }
  std::string template_key() const override { return inner_->template_key(); }
  void stage_template(redmule::cluster::Cluster& cl) const override {
    const int64_t t0 = now_ns();
    inner_->stage_template(cl);
    const int64_t t1 = now_ns();
    tracer_->add("api.stage_template", tracer_->job_root(job_), job_, t0, t1);
    stage_ns_ = t1 - t0;
  }
  WorkloadResult run_staged(redmule::cluster::Cluster& cl,
                            RunContext& ctx) override {
    return timed_run(cl, ctx, true);
  }
  bool warm_by_default() const override { return inner_->warm_by_default(); }

 private:
  WorkloadResult timed_run(redmule::cluster::Cluster& cl, RunContext& ctx,
                           bool staged) {
    const LayerCounters before = read_counters(cl);
    const int64_t t0 = now_ns();
    WorkloadResult r = staged ? inner_->run_staged(cl, ctx) : inner_->run(cl, ctx);
    const int64_t t1 = now_ns();
    tracer_->add(staged ? "api.run_staged" : "api.run", tracer_->job_root(job_),
                 job_, t0, t1);
    JobLayers l;
    l.kind = kind_;
    l.run_start_ns = t0;
    l.run_end_ns = t1;
    l.stage_ns = stage_ns_;
    l.counters = delta(before, read_counters(cl));
    log_->put(job_, std::move(l));
    return r;
  }

  std::unique_ptr<Workload> inner_;
  std::string kind_;
  uint64_t job_;
  Tracer* tracer_;
  LayerLog* log_;
  /// Written by stage_template (const in the contract) on the worker that
  /// then runs the job; read in timed_run on the same thread.
  mutable int64_t stage_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> traced(std::unique_ptr<Workload> inner,
                                 std::string kind, uint64_t job,
                                 Tracer* tracer, LayerLog* log) {
  return std::make_unique<TracedWorkload>(std::move(inner), std::move(kind),
                                          job, tracer, log);
}

std::string spec_kind(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

std::string traced_spec(const std::string& spec, uint64_t job) {
  std::string inner = spec;
  const size_t colon = inner.find(':');
  if (colon != std::string::npos) inner[colon] = ';';
  std::replace(inner.begin(), inner.end(), ',', ';');
  return "traced:job=" + std::to_string(job) + ",inner=" + inner;
}

void register_traced_kind(Tracer* tracer, LayerLog* log) {
  redmule::api::WorkloadRegistry::global().add(
      "traced",
      [tracer, log](const redmule::api::SpecArgs& args)
          -> std::unique_ptr<Workload> {
        const uint64_t job = args.u64("job", 0);
        std::string inner = args.str("inner", "");
        args.require_all_consumed("traced");
        const size_t semi = inner.find(';');
        if (semi != std::string::npos) inner[semi] = ':';
        std::replace(inner.begin(), inner.end(), ';', ',');
        auto w = redmule::api::WorkloadRegistry::global().create(inner);
        return traced(std::move(w), spec_kind(inner), job, tracer, log);
      });
}

}  // namespace perfbench

#include "common.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/service.hpp"
#include "api/workload.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Timing summaries -------------------------------------------------------

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
size_t nearest_rank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

size_t samples_beyond(size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(size_t n, double target) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                       90.0, 80.0, 75.0, 50.0};
  for (double p : kLadder)
    if (p <= target && samples_beyond(n, p) >= kMinBeyond) return p;
  return 0.0;
}

TimedSummary summarize(std::vector<double> samples, double target_pct) {
  TimedSummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail_pct = tail_percentile(s.n, target_pct);
  if (s.tail_pct > 0.0) {
    s.tail = percentile_sorted(samples, s.tail_pct);
    s.beyond = samples_beyond(s.n, s.tail_pct);
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

GroupedSummary summarize_groups(const std::vector<std::vector<double>>& groups,
                                double target_pct) {
  GroupedSummary g;
  size_t smallest = SIZE_MAX;
  for (const auto& v : groups) {
    if (v.empty()) continue;
    ++g.groups;
    g.n += v.size();
    smallest = std::min(smallest, v.size());
  }
  if (g.groups == 0) return g;
  g.tail_pct = tail_percentile(smallest, target_pct);
  g.min_beyond = g.tail_pct > 0.0 ? samples_beyond(smallest, g.tail_pct) : 0;
  std::vector<double> p50s, tails;
  for (std::vector<double> v : groups) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    p50s.push_back(percentile_sorted(v, 50.0));
    if (g.tail_pct > 0.0) tails.push_back(percentile_sorted(v, g.tail_pct));
  }
  g.p50 = median(p50s);
  g.tail = median(tails);
  return g;
}

std::string GroupedSummary::tail_note() const {
  return "p" + fmt_double(tail_pct) + ", median of " + std::to_string(groups) +
         " groups (" + std::to_string(n) + " samples), >= " +
         std::to_string(min_beyond) + " beyond in each";
}

// --- Host speed -------------------------------------------------------------

namespace {
constexpr uint32_t kGaugeTableWords = 1u << 20;  // 4 MiB
constexpr int kGaugeSliceSteps = 20000;
}  // namespace

HostGauge::HostGauge(int64_t interval_ns)
    : interval_ns_(interval_ns), table_(kGaugeTableWords) {
  uint64_t s = 0x9E3779B97F4A7C15ull;
  for (uint32_t& x : table_) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = static_cast<uint32_t>(s);
  }
}

void HostGauge::sample() {
  constexpr uint32_t kMask = kGaugeTableWords - 1;
  const int64_t t0 = now_ns();
  uint32_t pc = 0;
  uint32_t acc = 1;
  for (int i = 0; i < kGaugeSliceSteps; ++i) {
    const uint32_t ins = table_[pc];
    switch (ins & 7) {
      case 0: acc += ins; break;
      case 1: acc ^= ins >> 3; break;
      case 2: acc *= 3; break;
      case 3: table_[(pc + acc) & kMask] += acc; break;
      case 4: acc = (acc >> 1) | (acc << 31); break;
      case 5: sink_ += acc; break;
      case 6: acc -= ins; break;
      default: acc += table_[acc & kMask];
    }
    pc = (pc * 2654435761u + acc) & kMask;
  }
  last_ns_ = now_ns();
  slices_ns_.push_back(static_cast<double>(last_ns_ - t0));
}

double HostGauge::factor() const {
  return slices_ns_.empty() ? 1.0 : kNominalSliceNs / median(slices_ns_);
}

double HostGauge::median_slice_us() const { return median(slices_ns_) / 1e3; }

// --- Correctness ------------------------------------------------------------

bool Tally::record(const Observed& got, const Expected& want) {
  ++attempted;
  if (!got.ok) {
    ++errors;
    ++failed;
    return false;
  }
  if (got.z_hash != want.z_hash || got.cycles != want.cycles) {
    ++mismatches;
    ++failed;
    return false;
  }
  return true;
}

OracleTable compute_oracle(const std::vector<std::string>& specs) {
  OracleTable table;
  for (const std::string& spec : specs) {
    if (table.count(spec) != 0) continue;
    auto w = redmule::api::WorkloadRegistry::global().create(spec);
    const redmule::api::WorkloadResult r =
        redmule::api::Service::run_one(*w, {}, /*keep_outputs=*/false);
    if (!r.ok())
      throw std::runtime_error("oracle run of `" + spec +
                               "` failed: " + r.error.message);
    table[spec] = Expected{r.z_hash, r.stats.cycles, r.stats.macs};
  }
  return table;
}

// --- Metric catalogue -------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"sim_cycles_per_s", "cycles/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"slo_ok_ratio", "ratio"},
      {"peak_rss_mib", "MiB"},
      {"sim_cycles", "cycles"},
      {"sim_macs_per_cycle", "MAC/cycle"},
  };
  return kList;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kList = [] {
    std::vector<MetricSpec> l = {
        {"api.submit_to_run_us_p50", "us"},
        {"api.submit_to_run_us_tail", "us"},
        {"api.run_us_p50", "us"},
        {"api.provision_reset_us", "us"},
        {"api.provision_fork_us", "us"},
        {"api.provision_miss_us", "us"},
        {"api.clusters_constructed", "count"},
        {"api.cluster_reuses", "count"},
        {"api.template_forks", "count"},
        {"api.template_misses", "count"},
        {"api.rejected", "count"},
        {"api.shed", "count"},
        {"state.snapshot_us", "us"},
        {"state.restore_us", "us"},
        {"state.image_resident_bytes", "B"},
        {"cluster.driver_ns_per_cycle", "ns/cycle"},
        {"cluster.network_ns_per_cycle", "ns/cycle"},
    };
    for (const char* b : {"B1", "B16"}) {
      for (const char* ph : {"fw", "dX", "dW"})
        for (const char* part : {"compute", "dma_wait", "offload"})
          l.push_back({std::string("cluster.") + b + "." + ph + "." + part +
                           "_cycles",
                       "cycles"});
      l.push_back({std::string("cluster.") + b + ".total_cycles", "cycles"});
    }
    const std::vector<MetricSpec> tail = {
        {"core.advance_cycles", "cycles"},
        {"core.stall_cycles", "cycles"},
        {"core.utilization", "ratio"},
        {"core.fma_useful_ratio", "ratio"},
        {"mem.hci.log_conflict_stalls", "cycles"},
        {"mem.hci.shallow_stalls", "cycles"},
        {"mem.dma.busy_cycles", "cycles"},
        {"mem.dma.stall_cycles", "cycles"},
        {"mem.dma.bytes", "B"},
        {"mem.l2.resident_bytes", "B"},
        {"sim.skipped_module_ticks", "count"},
        {"sim.fast_forwarded_cycles", "cycles"},
        {"bench.trace_overhead", "ratio"},
    };
    l.insert(l.end(), tail.begin(), tail.end());
    return l;
  }();
  return kList;
}

// --- Report -----------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit,
                 Kind kind, const std::string& note) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    records_[it->second] = Record{name, value, unit, kind, note};
    return;
  }
  index_[name] = records_.size();
  records_.push_back(Record{name, value, unit, kind, note});
}

const Record* Report::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &records_[it->second];
}

void Report::print(FILE* out, const std::string& heading) const {
  std::fprintf(out, "--- %s\n", heading.c_str());
  for (const Record& r : records_)
    std::fprintf(out, "%-40s = %s %s [%s]%s%s\n", r.name.c_str(),
                 fmt_double(r.value).c_str(), r.unit.c_str(),
                 r.kind == Kind::kExact ? "exact" : "timed",
                 r.note.empty() ? "" : " ", r.note.c_str());
}

std::string Report::result_line(bool correct, uint64_t attempted,
                                uint64_t failed,
                                const std::vector<MetricSpec>& wanted) const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : wanted) {
    const Record* r = find(m.name);
    if (r == nullptr)
      throw std::logic_error("metric `" + m.name + "` was not measured");
    if (r->unit != m.unit)
      throw std::logic_error("metric `" + m.name + "` measured in `" +
                             r->unit + "`, catalogue says `" + m.unit + "`");
    if (!std::isfinite(r->value))
      throw std::logic_error("metric `" + m.name + "` is not finite");
    o << (first ? "" : ", ") << '"' << m.name
      << "\": {\"value\": " << fmt_double(r->value) << ", \"unit\": \""
      << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

std::string Report::records_json() const {
  std::ostringstream o;
  o << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    o << "    {\"name\": \"" << json_escape(r.name) << "\", \"value\": "
      << (std::isfinite(r.value) ? fmt_double(r.value) : "null")
      << ", \"unit\": \"" << json_escape(r.unit) << "\", \"kind\": \""
      << (r.kind == Kind::kExact ? "exact" : "timed") << "\", \"note\": \""
      << json_escape(r.note) << "\"}" << (i + 1 < records_.size() ? "," : "")
      << "\n";
  }
  o << "  ]";
  return o.str();
}

std::string fmt_double(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o;
}

// --- Host stamp -------------------------------------------------------------

HostStamp host_stamp(const std::string& revision) {
  HostStamp h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos)
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.revision = revision.empty() ? "unavailable" : revision;
  return h;
}

std::string host_json(const HostStamp& h) {
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << json_escape(h.cpu_model)
    << "\", \"nproc\": " << h.nproc << ", \"compiler\": \""
    << json_escape(h.compiler) << "\", \"build_type\": \""
    << json_escape(h.build_type) << "\", \"revision\": \""
    << json_escape(h.revision) << "\"}";
  return o.str();
}

double peak_rss_mib() {
  std::ifstream st("/proc/self/status");
  for (std::string line; std::getline(st, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

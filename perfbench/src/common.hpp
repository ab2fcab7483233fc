/// \file common.hpp
/// \brief Shared pieces of the perfbench workloads: clocks, the timing
///        summary rule, correctness bookkeeping against the run_one oracle,
///        the metric catalogue and the report printer.
///
/// Every number the benchmark prints is a Record tagged either *exact*
/// (simulated cycles, bytes, MACs, counts, hashes: must repeat bit for bit
/// for the same seed) or *timed* (host time: judged by median and quartiles
/// across runs). Timed records say which summary they are and over how many
/// samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host nanoseconds on the steady clock (one epoch for the whole process,
/// so spans from different threads share a time base).
int64_t now_ns();
inline double ns_to_us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- Timing summaries -------------------------------------------------------

/// Nearest-rank percentile of \p sorted (ascending, non-empty), p in (0,100].
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t samples_beyond(size_t n, double p);

/// The tail rule: the highest percentile of the ladder {99.9, 99.5, 99, 98,
/// 95, 90, 80, 75, 50} not above \p target that still has at least
/// kMinBeyond samples beyond it. 0 when even the median lacks them.
inline constexpr size_t kMinBeyond = 10;
double tail_percentile(size_t n, double target);

/// Median plus the tail percentile the sample supports.
struct TimedSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when n cannot support any tail
  double tail = 0.0;
  size_t beyond = 0;      ///< samples beyond tail_pct
};
TimedSummary summarize(std::vector<double> samples, double target_pct);

double median(std::vector<double> v);

/// A timing sample split into consecutive groups (stretches of the run):
/// p50 and tail are the medians of the groups' own p50 and tail, so one
/// disturbed stretch of the run moves neither. The tail percentile is the
/// one the smallest group supports under the tail rule.
struct GroupedSummary {
  size_t n = 0;       ///< samples over all groups
  size_t groups = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
  size_t min_beyond = 0;  ///< samples beyond tail_pct in the smallest group
  /// "p<pct> ... median of <g> groups of >= <m> samples, <b> beyond each"
  std::string tail_note() const;
};
GroupedSummary summarize_groups(const std::vector<std::vector<double>>& groups,
                                double target_pct);

// --- Host speed -------------------------------------------------------------

/// Host-speed gauge. On a shared host the simulator's speed moves by tens of
/// percent between runs as neighbours come and go. The gauge times a fixed
/// reference kernel -- data-dependent branches and dependent loads over a
/// 4 MiB table, so it competes for the same caches as the simulator -- in
/// short slices interleaved with the workload, and factor() is the nominal
/// slice time over the run's median slice time (below 1 on a slower host).
/// Timed end-to-end metrics are reported host-normalised with it: times are
/// multiplied by the factor, rates divided by it. The reference kernel is
/// the benchmark's own code, so a change to the simulator never moves it.
class HostGauge {
 public:
  /// Slices are due every \p interval_ns.
  explicit HostGauge(int64_t interval_ns);
  /// Runs one reference slice (~2 ms on the reference host).
  void sample();
  bool due() const { return now_ns() - last_ns_ >= interval_ns_; }
  double factor() const;
  double median_slice_us() const;
  size_t samples() const { return slices_ns_.size(); }

  /// Median slice time on the reference host (see README.md).
  static constexpr double kNominalSliceNs = 2.0e6;

 private:
  int64_t interval_ns_;
  std::vector<uint32_t> table_;
  std::vector<double> slices_ns_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;
};

// --- Correctness ------------------------------------------------------------

/// What Service::run_one says a job must produce.
struct Expected {
  uint64_t z_hash = 0;
  uint64_t cycles = 0;
  uint64_t macs = 0;
};

/// One job's observed outcome.
struct Observed {
  bool ok = false;       ///< the service/server reported success
  uint64_t z_hash = 0;
  uint64_t cycles = 0;
};

/// Failure accounting: a job fails when it errors, is refused, or returns a
/// hash or cycle count that differs from the oracle.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  ///< ok jobs whose hash or cycles were wrong
  uint64_t errors = 0;      ///< jobs the service/server did not complete ok

  /// Records one attempt; returns true when it was correct.
  bool record(const Observed& got, const Expected& want);
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Spec string -> oracle outcome. Keys are spec strings without any per-job
/// trace tag; values come from Service::run_one on a fresh cluster, computed
/// before the timed window starts.
using OracleTable = std::unordered_map<std::string, Expected>;
OracleTable compute_oracle(const std::vector<std::string>& specs);

// --- Records and the metric catalogue ---------------------------------------

enum class Kind { kExact, kTimed };

struct Record {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kTimed;
  std::string note;  ///< summary rule / sample count / provenance
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints, and the per-layer
/// metrics every traced run prints (the two lists of BENCHMARK.json).
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           Kind kind, const std::string& note = "");
  const Record* find(const std::string& name) const;

  /// Human-readable lines: "name = value unit [exact|timed] note".
  void print(FILE* out, const std::string& heading) const;
  /// The contract's last stdout line: exactly correct/attempted/failed/metrics,
  /// metrics being exactly \p wanted. Throws when one is missing or carries
  /// another unit.
  std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                          const std::vector<MetricSpec>& wanted) const;
  /// All records as a JSON array (name/value/unit/kind/note).
  std::string records_json() const;

 private:
  std::vector<Record> records_;
  std::map<std::string, size_t> index_;
};

/// Shortest decimal text that reads back to exactly \p v.
std::string fmt_double(double v);
std::string json_escape(const std::string& s);

// --- Host and build stamp ---------------------------------------------------

struct HostStamp {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string revision;  ///< "unavailable" outside a git checkout
};
HostStamp host_stamp(const std::string& revision);
std::string host_json(const HostStamp& h);

/// Process peak resident set (VmHWM) in MiB; 0 when /proc is unreadable.
double peak_rss_mib();

// --- Run options shared by every workload -----------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";      ///< records, Chrome trace, unix socket
  std::string revision;
};

/// What a workload run hands back to main().
struct Outcome {
  Report report;
  Tally tally;
  /// Phase of the run that failed outright (exception text); empty when ok.
  std::string fatal;
};

}  // namespace perfbench

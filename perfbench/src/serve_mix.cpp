// serve_mix: an open loop of seeded Poisson arrivals over one unix-socket
// connection to an in-process serve::Server (2 workers, at most 2
// connections: the load connection and a serve::Client for warm-up and the
// tracing-overhead replay).
//
// Mix: 70% tiny gemm (8..16 per dimension), 10% gemm 32^3 / tiled 64^3,
// 20% small warm networks whose weight seed follows a Zipf law over 1000
// seeds, so the template cache both hits (fork) and misses (stage +
// publish) and grows with every distinct seed. Latency runs from each job's
// scheduled send time to its RESULT frame.
//
// The load generator speaks the wire protocol (serve/frame.hpp) on a
// non-blocking serve::Socket from one thread: serve::Client::wait() only
// returns the tag it was asked for, so it can neither send on schedule while
// waiting nor timestamp results that complete out of submission order,
// which two workers produce.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <poll.h>
#include <unistd.h>

#include "api/workload.hpp"
#include "common/rng.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = redmule::api;
namespace serve = redmule::serve;
using redmule::Xoshiro256;

namespace {

/// Arrival rate: about a tenth of the two workers' capacity on the
/// reference host (see README.md): long jobs still make short ones queue
/// now and then, but a host slowed by its neighbours does not push the
/// queue toward saturation, which multiplied latency between runs.
constexpr double kRatePerS = 100.0;
constexpr unsigned kWorkers = 2;
constexpr size_t kTinyCatalogue = 48;
constexpr uint64_t kMediumSeeds = 8;
constexpr size_t kNetworkSeeds = 1000;
constexpr double kZipfExponent = 1.0;
constexpr uint64_t kInputSeeds = 2;
/// Job kinds are dealt in seeded order from blocks of 40 holding exactly
/// 28 tiny gemm (70%), 2 gemm 32^3 + 2 tiled 64^3 (10%) and 8 networks
/// (20%), so every run sees the same mix and only the order varies. The
/// tiny share keeps the overall median inside the tiny jobs' mode: at 60%
/// and 65% it sat on the knee where tiny jobs start to queue behind long
/// ones, and moved by a quarter or flipped between the modes run to run.
enum class JobKind : uint8_t { kTiny, kGemm32, kTiled64, kNetwork };
constexpr size_t kBlock = 40;
constexpr size_t kTinyPerBlock = 28;
constexpr size_t kGemm32PerBlock = 2;
constexpr size_t kTiled64PerBlock = 2;  // the other 8 are networks
constexpr double kTailTargetPct = 95.0;
/// Latency is summarised per four-second window of the schedule (~400 jobs:
/// the tail rule supports p95 in every window, never p98) and reported as
/// the median over the windows, so a stretch of the run stalled by the host
/// does not set it.
constexpr double kLatencyWindowS = 4.0;
constexpr double kSloMs = 50.0;
constexpr size_t kOverheadJobs = 64;
/// Minimum idle time before the next send for a HostGauge slice (~1 ms).
constexpr int64_t kGaugeGapNs = 3'000'000;
/// How long the generator waits for stragglers after the last send.
constexpr int64_t kDrainNs = 60'000'000'000;
/// Job ids of the overhead replay start here (schedule tags stay below).
constexpr uint64_t kReplayJobBase = 1ull << 40;

struct Job {
  int64_t at_ns = 0;  ///< scheduled send time, from the window start
  std::string spec;
};

struct Schedule {
  std::vector<Job> jobs;
  std::vector<std::string> warmup;
  size_t distinct_weight_seeds = 0;
};

std::string network_spec(uint64_t seed, uint64_t input_seed) {
  return "network:batch=4,in=64,hidden=32-8-32,seed=" + std::to_string(seed) +
         ",input_seed=" + std::to_string(input_seed) + ",warm=1";
}

Schedule make_schedule(uint64_t seed, double seconds) {
  Xoshiro256 rng(seed * 0xA0761D6478BD642Full + 3);
  std::vector<std::string> tiny;
  for (size_t i = 0; i < kTinyCatalogue; ++i)
    tiny.push_back("gemm:m=" + std::to_string(8 + rng.next_below(9)) +
                   ",n=" + std::to_string(8 + rng.next_below(9)) +
                   ",k=" + std::to_string(8 + rng.next_below(9)) +
                   ",seed=" + std::to_string(1 + rng.next_below(1000000)));
  // Zipf over ranks, ranks mapped to weight seeds by a seeded permutation.
  std::vector<double> cdf(kNetworkSeeds);
  double acc = 0.0;
  for (size_t r = 0; r < kNetworkSeeds; ++r)
    cdf[r] = acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  std::vector<uint64_t> seed_of_rank(kNetworkSeeds);
  for (size_t r = 0; r < kNetworkSeeds; ++r) seed_of_rank[r] = r + 1;
  for (size_t i = kNetworkSeeds; i > 1; --i)
    std::swap(seed_of_rank[i - 1], seed_of_rank[rng.next_below(i)]);

  Schedule s;
  std::set<uint64_t> weight_seeds;
  // Arrival times: a Poisson process at kRatePerS conditioned on its count,
  // i.e. round(rate * seconds) uniform times, sorted. The fixed count keeps
  // the exact totals (sim_cycles) from moving with the seed.
  const size_t n_jobs = static_cast<size_t>(std::llround(kRatePerS * seconds));
  std::vector<double> times(n_jobs);
  for (double& at : times) at = rng.next_double() * seconds;
  std::sort(times.begin(), times.end());
  std::vector<JobKind> block(kBlock, JobKind::kNetwork);
  std::fill(block.begin(), block.begin() + kTinyPerBlock, JobKind::kTiny);
  std::fill(block.begin() + kTinyPerBlock,
            block.begin() + kTinyPerBlock + kGemm32PerBlock, JobKind::kGemm32);
  std::fill(block.begin() + kTinyPerBlock + kGemm32PerBlock,
            block.begin() + kTinyPerBlock + kGemm32PerBlock + kTiled64PerBlock,
            JobKind::kTiled64);
  std::vector<JobKind> kinds(n_jobs);
  for (size_t i = 0; i < n_jobs; ++i) {
    if (i % kBlock == 0)
      for (size_t b = kBlock; b > 1; --b)
        std::swap(block[b - 1], block[rng.next_below(b)]);
    kinds[i] = block[i % kBlock];
  }
  // Weight-seed ranks by stratified sampling of the Zipf law (one uniform
  // draw per stratum, strata shuffled): the distinct-seed count, and with it
  // the template cache's memory, then barely moves with the seed.
  const size_t n_networks = static_cast<size_t>(
      std::count(kinds.begin(), kinds.end(), JobKind::kNetwork));
  std::vector<double> quantiles(n_networks);
  for (size_t i = 0; i < n_networks; ++i)
    quantiles[i] = (static_cast<double>(i) + rng.next_double()) /
                   static_cast<double>(n_networks);
  for (size_t i = n_networks; i > 1; --i)
    std::swap(quantiles[i - 1], quantiles[rng.next_below(i)]);
  size_t next_network = 0;
  for (size_t i = 0; i < n_jobs; ++i) {
    Job j;
    j.at_ns = static_cast<int64_t>(times[i] * 1e9);
    const std::string medium_seed =
        std::to_string(1 + rng.next_below(kMediumSeeds));
    if (kinds[i] == JobKind::kTiny) {
      j.spec = tiny[rng.next_below(kTinyCatalogue)];
    } else if (kinds[i] == JobKind::kGemm32) {
      j.spec = "gemm:m=32,n=32,k=32,seed=" + medium_seed;
    } else if (kinds[i] == JobKind::kTiled64) {
      j.spec = "tiled:m=64,n=64,k=64,seed=" + medium_seed;
    } else {
      const double v = quantiles[next_network++] * acc;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), v) - cdf.begin());
      const uint64_t ws = seed_of_rank[std::min(rank, kNetworkSeeds - 1)];
      weight_seeds.insert(ws);
      j.spec = network_spec(ws, 1 + rng.next_below(kInputSeeds));
    }
    s.jobs.push_back(std::move(j));
  }
  s.distinct_weight_seeds = weight_seeds.size();
  // Warm-up: every kind of the mix resolves to one cluster config, so one
  // tiny job per worker constructs the pooled clusters. Templates are left
  // to the window: staging them per weight seed is part of the workload.
  s.warmup = {tiny.front(), tiny.front()};
  return s;
}

/// The open-loop side of one connection, driven by one thread: SUBMIT
/// frames go out at their scheduled times and terminal frames are read and
/// timestamped as they arrive, multiplexed with ppoll() on a non-blocking
/// socket.
class LoadConnection {
 public:
  explicit LoadConnection(const std::string& address)
      : sock_(serve::Socket::connect_to(address)) {
    const auto hello =
        serve::frame_of(serve::MsgType::kHello, serve::HelloMsg{"perfbench-load"});
    sock_.write_all(hello.data(), hello.size());
    uint8_t hdr[4];
    std::vector<uint8_t> body;
    for (;;) {  // blocking handshake, then non-blocking for the window
      if (!sock_.read_exact(hdr, sizeof(hdr)))
        throw std::runtime_error("server closed during HELLO");
      fb_.feed(hdr, sizeof(hdr));
      const uint32_t len = static_cast<uint32_t>(hdr[0]) |
                           static_cast<uint32_t>(hdr[1]) << 8 |
                           static_cast<uint32_t>(hdr[2]) << 16 |
                           static_cast<uint32_t>(hdr[3]) << 24;
      if (len > serve::kDefaultMaxFrameBytes)
        throw std::runtime_error("oversized frame during HELLO");
      body.resize(len);
      if (len != 0) sock_.read_exact(body.data(), len);
      fb_.feed(body.data(), len);
      const std::optional<serve::Frame> f = fb_.next();
      if (!f) throw std::runtime_error("short frame during HELLO");
      if (f->type == serve::MsgType::kHelloAck) break;
      if (f->type == serve::MsgType::kError)
        throw std::runtime_error("server refused: " +
                                 serve::decode_error(*f).message);
    }
    sock_.set_nonblocking(true);
  }

  /// Queues a SUBMIT; flush() sends it.
  void submit(uint64_t tag, const std::string& spec) {
    serve::SubmitMsg m;
    m.tag = tag;
    m.spec = spec;
    const auto bytes = serve::frame_of(serve::MsgType::kSubmit, m);
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  /// Writes as much queued output as the socket takes; false when the peer
  /// is gone.
  bool flush() {
    while (sent_ < out_.size()) {
      const serve::IoResult r = sock_.write_some(out_.data() + sent_,
                                                 out_.size() - sent_);
      if (r.fatal) return false;
      if (r.n == 0) break;
      sent_ += r.n;
    }
    if (sent_ == out_.size()) {
      out_.clear();
      sent_ = 0;
    }
    return true;
  }

  /// Reads whatever arrived and hands each complete frame to \p on_frame;
  /// false when the peer closed.
  template <class Fn>
  bool drain(Fn&& on_frame) {
    for (;;) {
      while (std::optional<serve::Frame> f = fb_.next()) on_frame(*f);
      uint8_t buf[1 << 16];
      const serve::IoResult r = sock_.read_some(buf, sizeof(buf));
      if (r.closed || r.fatal) return false;
      if (r.n == 0) return true;
      fb_.feed(buf, r.n);
    }
  }

  /// Blocks until the socket is readable (or writable, with output queued)
  /// or \p timeout_ns passes.
  void wait(int64_t timeout_ns) {
    pollfd p{sock_.fd(), static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)),
             0};
    const int64_t t = std::max<int64_t>(timeout_ns, 0);
    const timespec ts{static_cast<time_t>(t / 1'000'000'000),
                      static_cast<long>(t % 1'000'000'000)};
    (void)::ppoll(&p, 1, &ts, nullptr);
  }

 private:
  serve::Socket sock_;
  serve::FrameBuffer fb_;
  std::vector<uint8_t> out_;
  size_t sent_ = 0;
};

struct Arrival {
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  bool terminal = false;
  bool ok = false;
  serve::ResultMsg result;
};

class ServeMix {
 public:
  ServeMix(const RunOptions& opts, Schedule sched, const OracleTable& oracle)
      : opts_(opts), sched_(std::move(sched)), oracle_(oracle) {
    if (opts.trace) {
      tr_ = &tracer_;
      register_traced_kind(tr_, &log_);
    }
    address_ = "unix:" + opts.out_dir + "/serve-" + std::to_string(::getpid()) +
               ".sock";
    cfg_.address = address_;
    cfg_.name = "perfbench-serve";
    cfg_.service.n_threads = kWorkers;
    cfg_.max_sessions = 2;
  }

  Outcome run() {
    setup();
    timed_window();
    stats_ = server_->service().stats();
    server_stats_ = server_->stats();
    report_schedule_records();
    if (opts_.trace) {
      report_per_layer();
      export_trace(tracer_, trace_path(opts_), out_.report, &out_.fatal);
    } else {
      report_end_to_end();
    }
    load_.reset();
    client_.reset();
    server_->stop();
    server_.reset();
    return std::move(out_);
  }

 private:
  void setup();
  void timed_window();
  void report_schedule_records();
  void report_end_to_end();
  void report_per_layer();
  double trace_overhead();
  void check_warmup(const std::string& spec, const serve::Client::Outcome& o);

  const RunOptions& opts_;
  Schedule sched_;
  const OracleTable& oracle_;
  Tracer tracer_;
  Tracer* tr_ = nullptr;
  LayerLog log_;
  std::string address_;
  serve::ServerConfig cfg_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> client_;
  std::unique_ptr<LoadConnection> load_;
  Outcome out_;

  std::vector<double> setup_s_;
  std::vector<Arrival> arrivals_;
  int64_t window_start_ns_ = 0;
  double window_s_ = 0.0;
  api::ServiceStats stats_;
  serve::ServerStats server_stats_;
  /// Slices every 500 ms, only in idle gaps of the generator: a slice
  /// blinds the generator for ~2 ms, so results arriving then are
  /// timestamped late (~0.4% of the window).
  HostGauge gauge_{500'000'000};
};

void ServeMix::check_warmup(const std::string& spec,
                            const serve::Client::Outcome& o) {
  out_.tally.record(Observed{o.ok(), o.result.z_hash, o.result.cycles},
                    oracle_.at(spec));
}

void ServeMix::setup() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    load_.reset();
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
    ScopedSpan span(tr_, "setup");
    const int64_t t0 = now_ns();
    {
      ScopedSpan s(tr_, "setup.server", span.id());
      server_ = std::make_unique<serve::Server>(cfg_);
      server_->start();
    }
    {
      ScopedSpan s(tr_, "setup.connect", span.id());
      client_ = std::make_unique<serve::Client>(
          serve::ClientConfig{server_->address(), "perfbench-control", 60000});
      load_ = std::make_unique<LoadConnection>(server_->address());
    }
    {
      // One warm-up job at a time: with several in flight the two workers
      // raced for them, and set-up time depended on which worker got which
      // job (a worker that misses the config constructs it on its first
      // job of the window, ~30 us).
      ScopedSpan s(tr_, "setup.warmup", span.id());
      for (const std::string& spec : sched_.warmup)
        check_warmup(spec, client_->run(spec));
    }
    setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    gauge_.sample();
  }
}

void ServeMix::timed_window() {
  const size_t n = sched_.jobs.size();
  arrivals_.assign(n, Arrival{});
  std::vector<uint64_t> root(n, 0);
  std::vector<uint64_t> roundtrip(n, 0);
  if (tr_ != nullptr) {
    // Open the job spans ahead of time so the in-server spans can name
    // them as parent; their bounds are filled in once measured.
    for (size_t j = 0; j < n; ++j) {
      root[j] = tr_->add("job", 0, j + 1, 0, 0);
      roundtrip[j] = tr_->add("serve.roundtrip", root[j], j + 1, 0, 0);
      tr_->set_job_root(j + 1, roundtrip[j]);
    }
  }
  std::vector<std::string> wire(n);
  for (size_t j = 0; j < n; ++j)
    wire[j] = tr_ != nullptr ? traced_spec(sched_.jobs[j].spec, j + 1)
                             : sched_.jobs[j].spec;

  window_start_ns_ = now_ns();
  const int64_t t0 = window_start_ns_;
  size_t next = 0;
  size_t terminal = 0;
  const auto on_frame = [&](const serve::Frame& f) {
    const int64_t t = now_ns();
    uint64_t tag = 0;
    serve::ResultMsg result;
    const bool ok = f.type == serve::MsgType::kResult;
    if (ok) {
      result = serve::decode_result(f);
      tag = result.tag;
    } else if (f.type == serve::MsgType::kError) {
      tag = serve::decode_error(f).tag;
      if (tag == 0) throw std::runtime_error("session error from the server");
    }
    if (tag == 0 || tag > n || arrivals_[tag - 1].terminal) return;  // PROGRESS
    Arrival& a = arrivals_[tag - 1];
    a.recv_ns = t;
    a.terminal = true;
    a.ok = ok;
    a.result = result;
    ++terminal;
  };
  int64_t give_up = 0;
  try {
    while (terminal < n) {
      const int64_t now = now_ns();
      while (next < n && t0 + sched_.jobs[next].at_ns <= now) {
        arrivals_[next].send_ns = now;
        load_->submit(next + 1, wire[next]);
        ++next;
      }
      if (!load_->flush() || !load_->drain(on_frame)) break;
      // Host-speed slices only where the next send is far enough away that
      // a slice cannot make it late.
      if (gauge_.due() &&
          (next == n || t0 + sched_.jobs[next].at_ns - now_ns() > kGaugeGapNs))
        gauge_.sample();
      if (next == n) {
        if (give_up == 0) give_up = now_ns() + kDrainNs;
        if (now_ns() > give_up) break;
      }
      load_->wait(next < n ? t0 + sched_.jobs[next].at_ns - now_ns()
                           : 100'000'000);
    }
  } catch (const std::exception& e) {
    out_.fatal = std::string("load connection: ") + e.what();
  }
  int64_t last = t0;
  for (const Arrival& a : arrivals_) last = std::max(last, a.recv_ns);
  window_s_ = static_cast<double>(last - t0) / 1e9;

  if (tr_ != nullptr)
    for (size_t j = 0; j < n; ++j) {
      const Arrival& a = arrivals_[j];
      const int64_t end = a.terminal ? a.recv_ns : a.send_ns;
      tr_->set_bounds(root[j], t0 + sched_.jobs[j].at_ns, end);
      tr_->set_bounds(roundtrip[j], a.send_ns, end);
    }
}

void ServeMix::report_schedule_records() {
  SimTotals totals;
  for (size_t j = 0; j < arrivals_.size(); ++j) {
    const Arrival& a = arrivals_[j];
    const Expected& want = oracle_.at(sched_.jobs[j].spec);
    out_.tally.record(Observed{a.terminal && a.ok, a.result.z_hash,
                               a.result.cycles},
                      want);
    redmule::core::JobStats s;
    s.cycles = want.cycles;
    s.macs = want.macs;
    if (a.ok) {
      s.advance_cycles = a.result.advance_cycles;
      s.stall_cycles = a.result.stall_cycles;
      s.fma_ops = a.result.fma_ops;
    }
    totals.add(s, 32);  // every serve_mix job runs the default 4x8x3 geometry
  }
  add_sim_records(out_.report, totals);
  out_.report.add("serve_mix.jobs_scheduled",
                  static_cast<double>(sched_.jobs.size()), "count",
                  Kind::kExact, "Poisson arrivals at " +
                                    fmt_double(kRatePerS) + " jobs/s");
  out_.report.add("serve_mix.distinct_weight_seeds",
                  static_cast<double>(sched_.distinct_weight_seeds), "count",
                  Kind::kExact, "network templates the cache must hold");
  std::vector<double> lag;
  for (size_t j = 0; j < arrivals_.size(); ++j)
    lag.push_back(ns_to_ms(arrivals_[j].send_ns -
                           (window_start_ns_ + sched_.jobs[j].at_ns)));
  const TimedSummary l = summarize(lag, kTailTargetPct);
  out_.report.add("bench.gen_lag_ms_tail", l.tail, "ms", Kind::kTimed,
                  "generator lateness, p" + fmt_double(l.tail_pct) + " of " +
                      std::to_string(l.n));
}

void ServeMix::report_end_to_end() {
  Report& r = out_.report;
  std::vector<std::vector<double>> groups(static_cast<size_t>(
      std::max(1.0, std::floor(opts_.seconds / kLatencyWindowS))));
  std::map<std::string, std::vector<double>> lat_by_kind;
  uint64_t ok = 0;
  uint64_t slo_ok = 0;
  uint64_t cycles = 0;
  for (size_t j = 0; j < arrivals_.size(); ++j) {
    const Arrival& a = arrivals_[j];
    if (!a.terminal) continue;
    const double ms =
        ns_to_ms(a.recv_ns - (window_start_ns_ + sched_.jobs[j].at_ns));
    groups[std::min(groups.size() - 1,
                    static_cast<size_t>(static_cast<double>(sched_.jobs[j].at_ns) /
                                        (kLatencyWindowS * 1e9)))]
        .push_back(ms);
    lat_by_kind[spec_kind(sched_.jobs[j].spec)].push_back(ms);
    if (!a.ok) continue;
    ++ok;
    cycles += a.result.cycles;
    const Expected& want = oracle_.at(sched_.jobs[j].spec);
    if (a.result.z_hash == want.z_hash && a.result.cycles == want.cycles &&
        ms <= kSloMs)
      ++slo_ok;
  }
  const GroupedSummary s = summarize_groups(groups, kTailTargetPct);
  TimedMetrics m;
  m.setup_s = median(setup_s_);
  m.setup_note = "median of " + std::to_string(kSetupReps) + " set-ups";
  m.jobs_per_s = static_cast<double>(ok) / window_s_;
  m.jobs_note = std::to_string(ok) + " jobs completed in " +
                fmt_double(window_s_) +
                " s (open loop: tracks the arrival rate until saturation)";
  m.sim_cycles_per_s = static_cast<double>(cycles) / window_s_;
  m.host_bound_rates = false;
  m.latency_p50_ms = s.p50;
  m.latency_p50_note = "scheduled send to RESULT, median of " +
                       std::to_string(s.groups) + " window medians (" +
                       std::to_string(s.n) + " jobs)";
  m.latency_tail_ms = s.tail;
  m.latency_tail_note = s.tail_note();
  add_timed_records(r, m, gauge_);
  for (const auto& [kind, v] : lat_by_kind)
    r.add("latency_p50_ms." + kind, median(v), "ms", Kind::kTimed,
          "median of " + std::to_string(v.size()));
  r.add("slo_ok_ratio",
        static_cast<double>(slo_ok) / static_cast<double>(arrivals_.size()),
        "ratio", Kind::kTimed,
        "correct within " + fmt_double(kSloMs) + " ms of the scheduled send");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB", Kind::kTimed, "VmHWM");
}

double ServeMix::trace_overhead() {
  const size_t n = std::min(kOverheadJobs, sched_.jobs.size());
  std::vector<double> plain, traced;
  uint64_t job = kReplayJobBase;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool on : {false, true}) {
      const int64_t t0 = now_ns();
      for (size_t j = 0; j < n; ++j) {
        const std::string& spec = sched_.jobs[j].spec;
        const uint64_t id = ++job;
        ScopedSpan span(on ? tr_ : nullptr, "overhead.job", 0, id);
        if (on) tr_->set_job_root(id, span.id());
        const serve::Client::Outcome o =
            client_->run(on ? traced_spec(spec, id) : spec);
        check_warmup(spec, o);
      }
      (on ? traced : plain).push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return median(traced) / median(plain);
}

void ServeMix::report_per_layer() {
  Report& r = out_.report;
  std::vector<double> s2r, run, roundtrip, self, stage;
  std::map<std::string, std::vector<double>> run_by_kind;
  LayerCounters layers;
  SimTotals jobs;
  for (size_t j = 0; j < arrivals_.size(); ++j) {
    const Arrival& a = arrivals_[j];
    JobLayers l;
    if (!a.terminal || !log_.get(j + 1, &l)) continue;
    const double rt = ns_to_us(a.recv_ns - a.send_ns);
    const double ru = ns_to_us(l.run_end_ns - l.run_start_ns);
    s2r.push_back(ns_to_us(l.run_start_ns - a.send_ns));
    run.push_back(ru);
    run_by_kind[l.kind].push_back(ru);
    roundtrip.push_back(rt);
    self.push_back(rt - ru);
    if (l.stage_ns > 0) stage.push_back(ns_to_us(l.stage_ns));
    layers.merge(l.counters);
    ++jobs.jobs;
  }
  const TimedSummary s = summarize(s2r, kTailTargetPct);
  r.add("api.submit_to_run_us_p50", s.p50, "us", Kind::kTimed,
        "client send to Workload::run: serve inbound + queue wait + "
        "provisioning, median of " + std::to_string(s.n));
  r.add("api.submit_to_run_us_tail", s.tail, "us", Kind::kTimed,
        "p" + fmt_double(s.tail_pct) + " of " + std::to_string(s.n) + ", " +
            std::to_string(s.beyond) + " beyond");
  r.add("api.run_us_p50", median(run), "us", Kind::kTimed,
        "Workload::run/run_staged span, all kinds");
  for (const auto& [kind, v] : run_by_kind)
    r.add("api.run_us_p50." + kind, median(v), "us", Kind::kTimed,
          "median of " + std::to_string(v.size()));
  r.add("api.stage_us_p50", median(stage), "us", Kind::kTimed,
        "stage_template span on template misses, median of " +
            std::to_string(stage.size()));
  const uint64_t tmpl = stats_.template_forks + stats_.template_misses;
  r.add("api.template_hit_ratio",
        tmpl == 0 ? 0.0
                  : static_cast<double>(stats_.template_forks) /
                        static_cast<double>(tmpl),
        "ratio", Kind::kTimed, "forks / (forks + misses)");
  add_service_records(r, stats_);
  add_layer_records(r, layers, jobs);

  const TimedSummary rts = summarize(roundtrip, kTailTargetPct);
  r.add("serve.roundtrip_us_p50", rts.p50, "us", Kind::kTimed,
        "SUBMIT sent to RESULT received, median of " + std::to_string(rts.n));
  r.add("serve.roundtrip_us_tail", rts.tail, "us", Kind::kTimed,
        "p" + fmt_double(rts.tail_pct) + " of " + std::to_string(rts.n));
  r.add("serve.self_us_p50", median(self), "us", Kind::kTimed,
        "round trip minus the in-server Workload::run span");
  r.add("serve.frames_in", static_cast<double>(server_stats_.frames_in),
        "count", Kind::kTimed, "ServerStats");
  r.add("serve.frames_out", static_cast<double>(server_stats_.frames_out),
        "count", Kind::kTimed, "ServerStats");
  r.add("serve.protocol_errors",
        static_cast<double>(server_stats_.protocol_errors), "count",
        Kind::kTimed, "ServerStats");

  r.add("bench.trace_overhead", trace_overhead(), "ratio", Kind::kTimed,
        "traced / untraced serve::Client round trips of the first " +
            std::to_string(std::min(kOverheadJobs, sched_.jobs.size())) +
            " jobs, median of 3 alternating rounds");
  probe_provisioning(network_spec(1, 1), tr_, r);
  probe_cluster(tr_, r);
}

}  // namespace

Outcome run_serve_mix(const RunOptions& opts) {
  Schedule sched = make_schedule(opts.seed, opts.seconds);
  std::vector<std::string> specs;
  for (const Job& j : sched.jobs) specs.push_back(j.spec);
  specs.insert(specs.end(), sched.warmup.begin(), sched.warmup.end());
  const OracleTable oracle = compute_oracle(specs);
  return ServeMix(opts, std::move(sched), oracle).run();
}

}  // namespace perfbench

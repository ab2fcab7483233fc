#include "probes.hpp"

#include <stdexcept>

#include "api/pool.hpp"
#include "api/workload.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace perfbench {

namespace api = redmule::api;
namespace cl = redmule::cluster;
namespace wl = redmule::workloads;
using redmule::Xoshiro256;

namespace {

constexpr int kProvisionReps = 9;
constexpr int kMissReps = 5;
constexpr int kStateReps = 9;
constexpr int kDriverReps = 3;
constexpr int kNetworkReps = 2;

/// Times \p fn once as a span named \p name; returns host microseconds.
template <class Fn>
double timed_us(Tracer* tracer, const char* name, uint64_t parent, Fn&& fn) {
  ScopedSpan span(tracer, name, parent);
  const int64_t t0 = now_ns();
  fn();
  return ns_to_us(now_ns() - t0);
}

std::string reps_note(int n) { return "median of " + std::to_string(n) + " calls"; }

}  // namespace

void probe_provisioning(const std::string& config_spec, Tracer* tracer,
                        Report& report) {
  ScopedSpan root(tracer, "probe.provisioning");
  const auto w = api::WorkloadRegistry::global().create(config_spec);
  const cl::ClusterConfig cfg =
      api::resolve_cluster_config(cl::ClusterConfig{}, w->requirements());
  const bool has_template = !w->template_key().empty();
  const api::ClusterPool::StageFn stage =
      has_template ? api::ClusterPool::StageFn(
                         [&w](cl::Cluster& c) { w->stage_template(c); })
                   : api::ClusterPool::StageFn([](cl::Cluster&) {});
  const std::string key_base =
      has_template ? w->template_key() : std::string("perfbench-reset-image");

  api::ClusterPool pool;
  const double construct_us =
      timed_us(tracer, "probe.pool.acquire", root.id(), [&] { pool.acquire(cfg); });
  std::vector<double> reset, miss, fork;
  for (int i = 0; i < kProvisionReps; ++i)
    reset.push_back(timed_us(tracer, "probe.pool.acquire", root.id(),
                             [&] { pool.acquire(cfg); }));
  // Each miss publishes a fresh key: stage + snapshot + publish round trip.
  for (int i = 0; i < kMissReps; ++i)
    miss.push_back(timed_us(tracer, "probe.pool.acquire_template", root.id(), [&] {
      pool.acquire_template(cfg, key_base + "#miss" + std::to_string(i), stage);
    }));
  api::ClusterPool::Acquired forked;
  for (int i = 0; i < kProvisionReps; ++i)
    fork.push_back(timed_us(tracer, "probe.pool.acquire_template", root.id(), [&] {
      forked = pool.acquire_template(cfg, key_base + "#miss0", stage);
    }));
  if (!forked.forked)
    throw std::logic_error("provisioning probe: repeated key did not fork");

  report.add("api.provision_construct_us", construct_us, "us", Kind::kTimed,
             "one call");
  report.add("api.provision_reset_us", median(reset), "us", Kind::kTimed,
             reps_note(kProvisionReps));
  report.add("api.provision_miss_us", median(miss), "us", Kind::kTimed,
             reps_note(kMissReps) + (has_template ? "" : ", empty template"));
  report.add("api.provision_fork_us", median(fork), "us", Kind::kTimed,
             reps_note(kProvisionReps) + (has_template ? "" : ", empty template"));

  {
    std::vector<double> snap, rest;
    redmule::state::ClusterImage img;
    for (int i = 0; i < kStateReps; ++i)
      snap.push_back(timed_us(tracer, "probe.state.snapshot", root.id(),
                              [&] { img = redmule::state::snapshot(*forked.cl); }));
    for (int i = 0; i < kStateReps; ++i)
      rest.push_back(timed_us(tracer, "probe.state.restore", root.id(), [&] {
        redmule::state::restore(*forked.cl, img);
      }));
    report.add("state.snapshot_us", median(snap), "us", Kind::kTimed,
               reps_note(kStateReps));
    report.add("state.restore_us", median(rest), "us", Kind::kTimed,
               reps_note(kStateReps));
    report.add("state.image_resident_bytes",
               static_cast<double>(img.l2.resident_bytes()), "B", Kind::kExact,
               "L2 pages held by the template image");
  }
}

namespace {

struct PhaseSplit {
  uint64_t compute = 0;
  uint64_t dma_wait = 0;
  uint64_t total = 0;
};

}  // namespace

void probe_cluster(Tracer* tracer, Report& report) {
  ScopedSpan root(tracer, "probe.cluster");

  // --- RedmuleDriver::gemm on the paper's square anchors -------------------
  {
    cl::ClusterConfig cfg;
    const wl::GemmShape big{"", 128, 128, 128};
    while (static_cast<uint64_t>(cfg.tcdm.size_bytes()) < big.bytes() + 4096)
      cfg.tcdm.words_per_bank *= 2;
    cl::Cluster cluster(cfg);
    cl::RedmuleDriver drv(cluster);
    std::vector<double> ns_per_cycle;
    for (int rep = 0; rep < kDriverReps; ++rep) {
      int64_t host = 0;
      uint64_t cycles = 0;
      for (const uint32_t d : {96u, 128u}) {
        drv.reset();
        Xoshiro256 rng(d);
        const auto x = wl::random_matrix(d, d, rng);
        const auto wm = wl::random_matrix(d, d, rng);
        const int64_t t0 = now_ns();
        cl::RedmuleDriver::GemmResult r;
        {
          ScopedSpan s(tracer, "probe.driver.gemm", root.id());
          r = drv.gemm(x, wm);
        }
        host += now_ns() - t0;
        cycles += r.stats.cycles;
        if (rep == 0) {
          const std::string n = "anchor.gemm" + std::to_string(d);
          report.add(n + ".cycles", static_cast<double>(r.stats.cycles),
                     "cycles", Kind::kExact, "default 4x8x3 geometry");
          report.add(n + ".macs_per_cycle", r.stats.macs_per_cycle(),
                     "MAC/cycle", Kind::kExact,
                     "paper: 31.6 MAC/cycle (98.8% of 32)");
        }
      }
      ns_per_cycle.push_back(static_cast<double>(host) /
                             static_cast<double>(cycles));
    }
    report.add("cluster.driver_ns_per_cycle", median(ns_per_cycle), "ns/cycle",
               Kind::kTimed, "median of " + std::to_string(kDriverReps) +
                                 " runs of 96^3 + 128^3");
  }

  // --- NetworkRunner::training_step_staged at B=1 and B=16 ----------------
  std::vector<double> ns_per_cycle(kNetworkReps, 0.0);
  std::vector<int64_t> host(kNetworkReps, 0);
  std::vector<uint64_t> cycles(kNetworkReps, 0);
  uint64_t total_b1 = 0;
  uint64_t total_b16 = 0;
  for (const uint32_t batch : {1u, 16u}) {
    api::NetworkTrainingSpec spec;
    spec.net.batch = batch;
    spec.seed = 1;
    spec.input_seed = 1;
    const api::NetworkTrainingWorkload w(spec);
    cl::Cluster cluster(
        api::resolve_cluster_config(cl::ClusterConfig{}, w.requirements()));
    w.stage_template(cluster);
    const redmule::state::ClusterImage staged =
        redmule::state::snapshot(cluster);
    const std::string b = "cluster.B" + std::to_string(batch);
    for (int rep = 0; rep < kNetworkReps; ++rep) {
      redmule::state::restore(cluster, staged);
      cl::RedmuleDriver drv(cluster);
      Xoshiro256 rng(spec.seed);
      wl::NetworkGraph net = wl::NetworkGraph::autoencoder(spec.net, rng);
      Xoshiro256 input_rng(spec.input_seed);
      const auto x = wl::random_matrix(net.input_dim(), batch, input_rng);
      cl::NetworkRunner runner(cluster, drv);
      const int64_t t0 = now_ns();
      cl::NetworkRunner::TrainingResult r;
      {
        ScopedSpan s(tracer, "probe.network.training_step_staged", root.id());
        r = runner.training_step_staged(net, x, x, spec.lr);
      }
      host[rep] += now_ns() - t0;
      cycles[rep] += r.stats.total_cycles;
      if (rep != 0) continue;
      PhaseSplit split[3];
      for (const cl::NetworkGemmStats& g : r.stats.gemms) {
        PhaseSplit& p = split[static_cast<int>(g.phase)];
        p.compute += g.tiled.compute_cycles;
        p.dma_wait += g.tiled.dma_wait_cycles;
        p.total += g.tiled.total_cycles;
      }
      const char* names[3] = {"fw", "dX", "dW"};
      for (int ph = 0; ph < 3; ++ph) {
        const std::string n = b + "." + names[ph] + ".";
        const PhaseSplit& p = split[ph];
        report.add(n + "compute_cycles", static_cast<double>(p.compute),
                   "cycles", Kind::kExact, "engine cycles of the tile jobs");
        report.add(n + "dma_wait_cycles", static_cast<double>(p.dma_wait),
                   "cycles", Kind::kExact, "pipeline idle on DMA");
        report.add(n + "offload_cycles",
                   static_cast<double>(p.total - p.compute - p.dma_wait),
                   "cycles", Kind::kExact, "total - compute - dma_wait");
      }
      report.add(b + ".total_cycles", static_cast<double>(r.stats.total_cycles),
                 "cycles", Kind::kExact, "whole training step");
      (batch == 1 ? total_b1 : total_b16) = r.stats.total_cycles;
    }
  }
  for (int rep = 0; rep < kNetworkReps; ++rep)
    ns_per_cycle[rep] =
        static_cast<double>(host[rep]) / static_cast<double>(cycles[rep]);
  report.add("cluster.network_ns_per_cycle", median(ns_per_cycle), "ns/cycle",
             Kind::kTimed, "median of " + std::to_string(kNetworkReps) +
                               " runs of B=1 + B=16 steps");
  const double gain = static_cast<double>(total_b1) * 16.0 /
                      static_cast<double>(total_b16);
  report.add("anchor.ae_b16_per_sample_gain", gain, "x", Kind::kExact,
             "paper: almost 16x; gap " +
                 fmt_double((gain / 16.0 - 1.0) * 100.0) + "%");
}

}  // namespace perfbench

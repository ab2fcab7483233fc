/// \file probes.hpp
/// \brief Layer probes of the traced run: timed calls into ClusterPool,
///        state::snapshot/restore, RedmuleDriver::gemm and
///        NetworkRunner::training_step_staged, plus the exact per-phase
///        cycle splits of the paper's autoencoder training step.
#pragma once

#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Provisioning and snapshot probes on the cluster config of \p config_spec
/// (a workload spec string). When the spec supports warm-start templates its
/// own stage_template() is the staged state; otherwise the template is the
/// reset cluster (staging is a no-op), which still times snapshot, publish
/// and fork on that config. Adds api.provision_* and state.* records.
void probe_provisioning(const std::string& config_spec, Tracer* tracer,
                        Report& report);

/// RedmuleDriver::gemm on 96^3 and 128^3 and NetworkRunner
/// training_step_staged at B=1 and B=16 on the paper autoencoder: host ns per
/// simulated cycle, the per-phase compute / DMA-wait / offload splits, and
/// the paper anchors (MAC/cycle, B=1 -> B=16 per-sample gain). Adds
/// cluster.* and anchor.* records.
void probe_cluster(Tracer* tracer, Report& report);

}  // namespace perfbench

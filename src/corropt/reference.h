// Pre-refactor deployment engine, kept as the test and benchmark oracle for
// run_deployment (DESIGN.md §11). Not part of any runtime library: it builds
// into `lgsim_reference` together with fabric/naive_metrics.cc, and only
// fabric_test, corropt_test and bench_deploy link that.
#pragma once

#include "corropt/corropt.h"

namespace lgsim::corropt {

/// run_deployment as it was before the incremental engine and the pod-local
/// optimizer: the same corruption stream, RNG draws and fabric transitions,
/// but one global (loss desc, link asc) backlog re-checked in full at every
/// repair, and every sample recomputed by NaiveFabricMetrics and per-link
/// scans. Its result must be bit-identical to run_deployment's for any
/// valid config.
DeploymentResult reference_deployment(const DeploymentConfig& cfg);

/// True if every counter and every bit of every sample field agree.
bool bit_identical(const DeploymentResult& a, const DeploymentResult& b);

}  // namespace lgsim::corropt

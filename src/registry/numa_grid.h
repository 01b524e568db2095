// NUMA sweep grids for the run-driver layer (paper Section 4,
// Tables 16-27).
//
// A grid spec like "nodes=1,2,4:k=1,4,8,16" names the cross product of
// virtual node counts and remote-weight divisors K. Each grid point is
// one value of the ordinary `numa` tunable ("nodes=2,k=8"), which the
// scheduler factories read with parse_numa (scheduler_configs.h) to
// build the simulated Topology. `smq_run --numa-grid` expands a sweep
// into one suite run per (scheduler, point) through sweep_suite
// (suite_runner.h); the Table 16-27 suites (suites.h) pin the same
// tunable per run, so both report their NUMA columns from one reader.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace smq {

struct NumaOptions;

/// Parse "nodes=1,2,4:k=1,4,8,16" into the `numa` tunable value of each
/// point of the cross product (nodes-major order). Either dimension may
/// be omitted — "k=1,8,64" sweeps K over 2 nodes, "nodes=2,4" sweeps
/// node counts at K=1 (the non-NUMA algorithm; every point pins K so the
/// recorded analytic E always matches the run). nodes<=1 entries
/// collapse to a single UMA point "nodes=1,k=1": K has no effect without
/// a topology, so crossing them with the K dimension would only
/// re-measure identical runs. Throws std::invalid_argument on malformed
/// specs or empty dimensions.
std::vector<std::string> parse_numa_grid(std::string_view spec);

/// The analytic expected internal (same-node) fraction E of `numa` at
/// `threads` threads — Section 4's metric, 1.0 without a topology.
/// `exclude_own_queue` as in Topology::expected_internal_fraction (true
/// for SMQ's steal victims).
double expected_internal_fraction(const NumaOptions& numa, unsigned threads,
                                  bool exclude_own_queue);

}  // namespace smq

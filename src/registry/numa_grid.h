// NUMA sweep grids for the run-driver layer (paper Section 4,
// Tables 16-27).
//
// A grid spec like "nodes=1,2,4:k=1,4,8,16" names the cross product of
// virtual node counts and remote-weight divisors K; the driver runs its
// scheduler x threads sweep once per grid point, rebuilding the
// simulated Topology each time through the ordinary `numa` tunable
// (scheduler_configs.h). The parser backs `smq_run --numa-grid`; the
// Table 16-27 suites (suites.h) pin the same `numa` tunable per run.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "registry/params.h"

namespace smq {

/// One point of a NUMA sweep. nodes <= 1 is the UMA row (K then has no
/// effect: no topology is built).
struct NumaGridPoint {
  unsigned nodes = 0;
  double k = 1.0;
  bool k_set = false;  // false => leave K to the scheduler's default

  /// Whether this point asks for a simulated topology at all.
  bool active() const noexcept { return nodes > 1; }

  /// The value of the `numa` tunable selecting this point.
  std::string spec() const;

  /// Compact display form, e.g. "2/8" (nodes/K) or "-" for UMA.
  std::string label() const;
};

/// Parse "nodes=1,2,4:k=1,4,8,16" into the cross product (nodes-major
/// order). Either dimension may be omitted — "k=1,8,64" sweeps K over
/// 2 nodes, "nodes=2,4" sweeps node counts at K=1 (the non-NUMA
/// algorithm; every parsed point pins K explicitly so the recorded
/// analytic E always matches the run). nodes<=1 entries collapse to a
/// single UMA point: K has no effect without a topology, so crossing
/// them with the K dimension would only re-measure identical runs.
/// Throws std::invalid_argument on malformed specs or empty dimensions.
std::vector<NumaGridPoint> parse_numa_grid(std::string_view spec);

/// Rewrite `params`' `numa` tunable to select `point` (erasing any
/// conflicting `numa-k`).
void apply_numa_point(ParamMap& params, const NumaGridPoint& point);

/// The analytic expected internal (same-node) fraction E for this point
/// at `threads` threads — Section 4's metric, 1.0 for UMA points.
double expected_internal_fraction(const NumaGridPoint& point,
                                  unsigned threads);

}  // namespace smq

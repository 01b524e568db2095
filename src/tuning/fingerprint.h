// Workload fingerprints: the graph-class key of the `--sched auto` rows.
//
// The paper's winning scheduler config depends on graph class (road vs
// social vs uniform-random), algorithm, and thread count. A fingerprint
// condenses a Graph's out-degree distribution into the three scalars
// that separate those classes, plus the GraphClass label derived from
// them.
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/graph.h"

namespace smq::tuning {

/// Coarse graph taxonomy mirroring the paper's benchmark families:
/// road networks (bounded degree, long diameter), social/web graphs
/// (power-law degrees), and uniform-random graphs (concentrated
/// degrees, short diameter).
enum class GraphClass { kRoad, kUniform, kSocial };

std::string_view to_string(GraphClass cls) noexcept;

struct WorkloadFingerprint {
  double avg_degree = 0.0;
  std::uint64_t max_degree = 0;
  /// Coefficient of variation of out-degrees (stddev / mean): ~0 for
  /// lattices, <1 for Erdos-Renyi, >>1 for power-law graphs.
  double degree_cv = 0.0;
  GraphClass cls = GraphClass::kUniform;
};

/// Classify from degree-distribution shape alone (exposed separately so
/// boundary tests don't need to build graphs for every corner).
GraphClass classify_degrees(double avg_degree, std::uint64_t max_degree,
                            double degree_cv) noexcept;

/// Compute the fingerprint in one O(V) pass over the offsets array;
/// the adjacency itself is never touched, so a mapped multi-GB graph
/// does not page in.
WorkloadFingerprint fingerprint_graph(const Graph& g);

}  // namespace smq::tuning

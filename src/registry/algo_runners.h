// Templated algorithm runners shared by every dispatch path.
//
// Each run_*_algo<S>() runs one registered workload under a scheduler of
// *any* concrete type modelling PriorityScheduler and validates against
// the sequential oracle. Both dispatch paths drive the scheduler the same
// way: the executor acquires one `sched.handle(tid)` per thread per run,
// so
//  * the algorithm registry instantiates these with S = AnyScheduler,
//    whose handle() crosses the HandleView virtual boundary — one
//    acquisition per thread, then one virtual per handle call of
//    --batch-size tasks;
//  * the static dispatch table (static_dispatch.h) instantiates them
//    with the concrete scheduler types, whose native handles inline.
// Both paths share the exact oracle-comparison and checksum logic and
// can never drift apart.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/astar.h"
#include "algorithms/bfs.h"
#include "algorithms/boruvka.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/params.h"
#include "sched/executor.h"
#include "sched/scheduler_traits.h"

namespace smq {

inline std::uint64_t distance_checksum(const std::vector<std::uint64_t>& dist) {
  std::uint64_t checksum = 0;
  for (const std::uint64_t d : dist) {
    if (d != DistanceArray::kUnreached) checksum += d;
  }
  return checksum;
}

inline VertexId checked_vertex(const GraphInstance& g, const char* what,
                               std::int64_t v) {
  if (v < 0 || static_cast<std::uint64_t>(v) >= g.graph->num_vertices()) {
    throw std::invalid_argument(std::string(what) + " vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(g.graph->num_vertices()) + ")");
  }
  return static_cast<VertexId>(v);
}

inline VertexId source_of(const GraphInstance& g, const ParamMap& params) {
  return checked_vertex(
      g, "source",
      params.get_int("source", static_cast<std::int64_t>(g.default_source)));
}

inline VertexId target_of(const GraphInstance& g, const ParamMap& params) {
  return checked_vertex(
      g, "target",
      params.get_int("target", static_cast<std::int64_t>(g.default_target)));
}

/// The executor knobs every workload accepts, read from the shared
/// ParamMap (`--batch-size N` on the command line).
inline ExecutorOptions executor_options(const ParamMap& params) {
  ExecutorOptions exec;
  const std::int64_t batch = params.get_int("batch-size", 1);
  exec.batch_size = batch < 1 ? 1 : static_cast<std::size_t>(batch);
  return exec;
}

inline PageRankOptions pagerank_options(const ParamMap& params) {
  PageRankOptions opts;
  opts.damping = params.get_double("damping", 0.85);
  opts.tolerance = params.get_double("tolerance", 1e-4);
  return opts;
}

/// Exact-distance validation shared by sssp and bfs: the oracle payload
/// is the full distance vector.
inline AlgoResult validate_distances(ShortestPathResult result,
                                     const AlgoReference* ref) {
  AlgoResult out;
  out.run = result.run;
  out.answer = distance_checksum(result.distances);
  if (ref != nullptr && ref->oracle != nullptr) {
    const auto& expected =
        *static_cast<const std::vector<std::uint64_t>*>(ref->oracle.get());
    out.validated = true;
    out.valid = result.distances == expected;
  }
  return out;
}

// ---- one runner per registered algorithm ----------------------------------

template <PriorityScheduler S>
AlgoResult run_sssp_algo(const GraphInstance& g, S& sched, unsigned threads,
                         const ParamMap& params, const AlgoReference* ref) {
  return validate_distances(
      parallel_sssp(*g.graph, source_of(g, params), sched, threads,
                    executor_options(params)),
      ref);
}

template <PriorityScheduler S>
AlgoResult run_bfs_algo(const GraphInstance& g, S& sched, unsigned threads,
                        const ParamMap& params, const AlgoReference* ref) {
  return validate_distances(
      parallel_bfs(*g.graph, source_of(g, params), sched, threads,
                   executor_options(params)),
      ref);
}

template <PriorityScheduler S>
AlgoResult run_astar_algo(const GraphInstance& g, S& sched, unsigned threads,
                          const ParamMap& params, const AlgoReference* ref) {
  const AStarResult result =
      parallel_astar(*g.graph, source_of(g, params), target_of(g, params),
                     sched, threads, g.weight_scale, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  out.answer = result.distance;
  if (ref != nullptr && ref->oracle != nullptr) {
    out.validated = true;
    out.valid =
        result.distance == *static_cast<const std::uint64_t*>(ref->oracle.get());
  }
  return out;
}

template <PriorityScheduler S>
AlgoResult run_pagerank_algo(const GraphInstance& g, S& sched, unsigned threads,
                             const ParamMap& params, const AlgoReference* ref) {
  const PageRankOptions opts = pagerank_options(params);
  const PageRankResult result = parallel_pagerank(
      *g.graph, sched, threads, opts, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  double sum = 0;
  for (const double r : result.ranks) sum += r;
  out.answer = static_cast<std::uint64_t>(sum);
  if (ref != nullptr && ref->oracle != nullptr) {
    const auto& expected =
        *static_cast<const std::vector<double>*>(ref->oracle.get());
    // Residuals below `tolerance` stay unpushed, so per-vertex ranks can
    // legitimately differ by a small multiple of it.
    const double eps = std::max(1e-9, opts.tolerance * 100);
    out.validated = true;
    out.valid = result.ranks.size() == expected.size();
    for (std::size_t v = 0; out.valid && v < expected.size(); ++v) {
      out.valid = std::abs(result.ranks[v] - expected[v]) <= eps;
    }
  }
  return out;
}

template <PriorityScheduler S>
AlgoResult run_boruvka_algo(const GraphInstance& g, S& sched, unsigned threads,
                            const ParamMap& params, const AlgoReference* ref) {
  const MstResult result =
      parallel_boruvka(*g.graph, sched, threads, executor_options(params));
  AlgoResult out;
  out.run = result.run;
  out.answer = result.total_weight;
  if (ref != nullptr && ref->oracle != nullptr) {
    out.validated = true;
    out.valid = result.total_weight ==
                *static_cast<const std::uint64_t*>(ref->oracle.get());
  }
  return out;
}

/// Name-keyed dispatch over the runners above, for callers that already
/// hold a concrete scheduler (the static dispatch table). Returns false
/// when `algo` is not a registered algorithm name.
template <PriorityScheduler S>
bool run_algo_by_name(std::string_view algo, const GraphInstance& g, S& sched,
                      unsigned threads, const ParamMap& params,
                      const AlgoReference* ref, AlgoResult& out) {
  if (algo == "sssp") {
    out = run_sssp_algo(g, sched, threads, params, ref);
  } else if (algo == "bfs") {
    out = run_bfs_algo(g, sched, threads, params, ref);
  } else if (algo == "astar") {
    out = run_astar_algo(g, sched, threads, params, ref);
  } else if (algo == "pagerank") {
    out = run_pagerank_algo(g, sched, threads, params, ref);
  } else if (algo == "boruvka") {
    out = run_boruvka_algo(g, sched, threads, params, ref);
  } else {
    return false;
  }
  return true;
}

}  // namespace smq

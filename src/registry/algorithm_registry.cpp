#include "registry/algorithm_registry.h"

#include <string>
#include <utility>
#include <vector>

#include "registry/algo_runners.h"
#include "support/timer.h"

namespace smq {

namespace {

/// Executor tunables every workload accepts; appended to each entry so
/// `smq_run --list` self-describes the batched hot path.
const std::vector<Tunable> kExecutorTunables = {
    {"batch-size", "1",
     "tasks per executor scheduler call (one dispatch + one pending-counter "
     "update per batch)"},
};

std::vector<Tunable> with_executor_tunables(std::vector<Tunable> tunables) {
  tunables.insert(tunables.end(), kExecutorTunables.begin(),
                  kExecutorTunables.end());
  return tunables;
}

void register_builtins(AlgorithmRegistry& reg) {
  reg.add({
      .name = "sssp",
      .description = "single-source shortest paths (label-correcting)",
      .tunables = with_executor_tunables({{"source", "0", "source vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            SequentialSsspResult seq =
                sequential_sssp(*g.graph, source_of(g, params));
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.settled;
            ref.reference_answer = distance_checksum(seq.distances);
            ref.oracle = std::make_shared<std::vector<std::uint64_t>>(
                std::move(seq.distances));
            return ref;
          },
      .run = run_sssp_algo<AnyScheduler>,
  });

  reg.add({
      .name = "bfs",
      .description = "breadth-first search (unit-weight SSSP, priority = "
                     "level)",
      .tunables = with_executor_tunables({{"source", "0", "source vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            SequentialBfsResult seq =
                sequential_bfs(*g.graph, source_of(g, params));
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.visited;
            ref.reference_answer = distance_checksum(seq.levels);
            ref.oracle = std::make_shared<std::vector<std::uint64_t>>(
                std::move(seq.levels));
            return ref;
          },
      .run = run_bfs_algo<AnyScheduler>,
  });

  reg.add({
      .name = "astar",
      .description = "point-to-point A* (admissible planar heuristic; "
                     "Dijkstra without coordinates)",
      .tunables =
          with_executor_tunables({{"source", "0", "source vertex"},
                                  {"target", "V-1", "target vertex"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            Timer timer;
            const SequentialAStarResult seq =
                sequential_astar(*g.graph, source_of(g, params),
                                 target_of(g, params), g.weight_scale);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.expanded;
            ref.reference_answer = seq.distance;
            ref.oracle = std::make_shared<std::uint64_t>(seq.distance);
            return ref;
          },
      .run = run_astar_algo<AnyScheduler>,
  });

  reg.add({
      .name = "pagerank",
      .description = "residual-priority PageRank (priority = quantized "
                     "residual magnitude)",
      .tunables = with_executor_tunables(
          {{"damping", "0.85", "damping factor"},
           {"tolerance", "1e-4", "residual scheduling threshold"}}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap& params) {
            PageRankOptions opts = pagerank_options(params);
            // Tighter oracle so validation slack is dominated by the
            // parallel run's own tolerance, not the oracle's.
            PageRankOptions oracle_opts = opts;
            oracle_opts.tolerance = opts.tolerance / 10;
            Timer timer;
            SequentialPageRankResult seq =
                sequential_pagerank(*g.graph, oracle_opts, 1000);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks =
                static_cast<std::uint64_t>(seq.iterations) *
                g.graph->num_vertices();
            double sum = 0;
            for (const double r : seq.ranks) sum += r;
            ref.reference_answer = static_cast<std::uint64_t>(sum);
            ref.oracle = std::make_shared<std::vector<double>>(
                std::move(seq.ranks));
            return ref;
          },
      .run = run_pagerank_algo<AnyScheduler>,
  });

  reg.add({
      .name = "boruvka",
      .description = "parallel Boruvka minimum spanning forest "
                     "(priority = component degree)",
      .tunables = with_executor_tunables({}),
      .make_reference =
          [](const GraphInstance& g, const ParamMap&) {
            Timer timer;
            const SequentialMstResult seq = sequential_kruskal(*g.graph);
            AlgoReference ref;
            ref.seconds = timer.seconds();
            ref.reference_tasks = seq.edges_in_forest;
            ref.reference_answer = seq.total_weight;
            ref.oracle = std::make_shared<std::uint64_t>(seq.total_weight);
            return ref;
          },
      .run = run_boruvka_algo<AnyScheduler>,
  });
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* reg = [] {
    auto* r = new AlgorithmRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

}  // namespace smq

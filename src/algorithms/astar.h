// A* point-to-point shortest path (paper Section 5).
//
// Priority = g(v) + h(v) where h is the equirectangular-approximation
// distance to the destination, scaled by the road generator's
// weight-per-unit-distance so that h never overestimates (admissible).
// With relaxed schedulers the search runs to quiescence: tasks whose
// f-value cannot beat the best known destination distance are pruned as
// wasted work, so scheduler rank quality directly controls how much of
// the search frontier is explored beyond the optimum.
#pragma once

#include <cmath>
#include <span>

#include "algorithms/relax.h"
#include "graph/graph.h"
#include "sched/executor.h"
#include "sched/scheduler_traits.h"

namespace smq {

/// Admissible heuristic: scaled planar distance to `target`.
class EquirectangularHeuristic {
 public:
  EquirectangularHeuristic(const Graph& graph, VertexId target,
                           double weight_scale)
      : coords_(&graph.coordinates()),
        target_(target),
        scale_(weight_scale) {}

  std::uint64_t operator()(VertexId v) const noexcept {
    if (coords_->empty()) return 0;  // degrades to Dijkstra
    const double dx = coords_->x[v] - coords_->x[target_];
    const double dy = coords_->y[v] - coords_->y[target_];
    return static_cast<std::uint64_t>(std::sqrt(dx * dx + dy * dy) * scale_);
  }

 private:
  const Coordinates* coords_;
  VertexId target_;
  double scale_;
};

struct AStarResult {
  std::uint64_t distance = DistanceArray::kUnreached;
  RunResult run;
};

template <PriorityScheduler S>
AStarResult parallel_astar(const Graph& graph, VertexId source,
                           VertexId target, S& sched, unsigned num_threads,
                           double weight_scale = 100.0,
                           const ExecutorOptions& exec = {}) {
  const EquirectangularHeuristic h(graph, target, weight_scale);
  DistanceArray g_val(graph.num_vertices());
  g_val.store(source, 0);
  // A source that is its own target is answered at distance 0; the
  // seed is then pruned like any task that cannot beat the incumbent.
  std::atomic<std::uint64_t> best_target{
      source == target ? 0 : DistanceArray::kUnreached};

  const Task seed{h(source), source};
  RunResult run = run_parallel(
      sched, std::span<const Task>(&seed, 1),
      [&](Task task, auto& ctx) {
        const auto v = static_cast<VertexId>(task.payload);
        // Recover g from f: h(v) is deterministic per vertex.
        const std::uint64_t f = task.priority;
        const std::uint64_t g = f - h(v);
        if (g_val.load(v) < g ||
            f >= best_target.load(std::memory_order_relaxed)) {
          ctx.mark_wasted();
          return;
        }
        for (const Graph::Neighbor& n : graph.neighbors(v)) {
          const std::uint64_t ng = g + n.weight;
          if (!g_val.relax_min(n.to, ng)) continue;
          if (n.to == target) {
            // CAS-min the incumbent; no push needed for the target.
            std::uint64_t cur = best_target.load(std::memory_order_relaxed);
            while (ng < cur &&
                   !best_target.compare_exchange_weak(
                       cur, ng, std::memory_order_relaxed)) {
            }
            continue;
          }
          const std::uint64_t nf = ng + h(n.to);
          if (nf < best_target.load(std::memory_order_relaxed)) {
            ctx.push(Task{nf, n.to});
          }
        }
      },
      num_threads, exec);

  return AStarResult{best_target.load(std::memory_order_relaxed), run};
}

/// Exact sequential A*: oracle + reference task count (expanded nodes).
struct SequentialAStarResult {
  std::uint64_t distance = DistanceArray::kUnreached;
  std::uint64_t expanded = 0;
};

SequentialAStarResult sequential_astar(const Graph& graph, VertexId source,
                                       VertexId target,
                                       double weight_scale = 100.0);

}  // namespace smq

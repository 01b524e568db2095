#include "tuning/auto_select.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace smq::tuning {

// Measured with `smq_run --batch-size 64 --reps 1 --threads 1,4`,
// five interleaved runs of smq against smq at p-steal 1/16, mq-opt at
// (B, p) = (16, 1) / (1, 1/16) ("mq-opt-full"), obim at delta-shift 4,
// reld at c 4, mq (C = 4) and pmod at delta-shift 4, on `road
// --vertices 1000000` (road), `rand --vertices 1000000 --edges
// 8000000` (uniform) and `rmat
// --scale 20` (social), 4-core Xeon VM. A row exists only where its
// configuration's best time beat smq's best by more than smq's own
// max-min spread; the fastest such configuration wins. The same runs at
// `--batch-size 1` must not show it losing to smq by more than that
// spread, which moved rand bfs to "from 4t" (pmod at delta-shift 4:
// 2010 ms vs smq 574 ms at 1t there). Every other key runs smq,
// including every 2-3 thread count below a "from 4t" row. obim was left
// out of rmat sssp/astar: it needs 21 GiB and 15 s at 1t there.
// The SMQ could not steal when these bfs rows were measured (see
// ROADMAP). Once it could, the same rule deleted every sssp and astar
// row: at 4t smq beat their pick, mq-opt-full, on all three graphs at
// batch sizes 64 and 1 (best of 5 at batch 64: road sssp 62 vs 94 ms,
// astar 66 vs 86; rand sssp 253 vs 320, astar 98 vs 154; rmat sssp 174
// vs 266, astar 190 vs 253).
std::span<const AutoRow> auto_rows() noexcept {
  static const std::vector<AutoRow> rows{
      {GraphClass::kRoad, "bfs", 1, "pmod", params_of({{"delta-shift", "4"}}),
       "road 1M @1t: 71.8 ms vs smq 131.6 (spread 44.5); "
       "@4t: 41.0 vs 140.7 (spread 36.9)"},
      {GraphClass::kUniform, "bfs", 4, "pmod",
       params_of({{"delta-shift", "4"}}),
       "rand 1M/8M @4t: 56.2 ms vs smq 370.7 ms (smq spread 126.9)"},
      {GraphClass::kSocial, "bfs", 4, "pmod",
       params_of({{"delta-shift", "4"}}),
       "rmat 20 @4t: 59.8 ms vs smq 228.7 ms (smq spread 65.8)"},
  };
  return rows;
}

std::string_view to_string(MatchKind kind) noexcept {
  return kind == MatchKind::kExact ? "exact" : "default";
}

AutoSelection select_scheduler(GraphClass cls, std::string_view algorithm,
                               unsigned threads) {
  threads = std::max(threads, 1u);
  const AutoRow* best = nullptr;
  for (const AutoRow& row : auto_rows()) {
    if (row.cls == cls && row.algorithm == algorithm &&
        row.min_threads <= threads &&
        (best == nullptr || row.min_threads > best->min_threads)) {
      best = &row;
    }
  }
  AutoSelection sel;
  sel.cls = cls;
  std::ostringstream why;
  if (best != nullptr) {
    sel.scheduler = std::string(best->scheduler);
    sel.params = best->params;
    sel.match = MatchKind::kExact;
    why << "row " << to_string(cls) << '/' << algorithm << " from "
        << best->min_threads << "t: " << best->measured;
  } else {
    sel.scheduler = std::string(kDefaultScheduler);
    why << "no " << to_string(cls) << '/' << algorithm << " row at <= "
        << threads << "t; paper default '" << kDefaultScheduler << "'";
  }
  sel.why = why.str();
  return sel;
}

std::optional<AutoSelection> resolve_auto(std::string_view scheduler,
                                          const GraphInstance& graph,
                                          std::string_view algorithm,
                                          unsigned threads) {
  if (scheduler != kAutoSchedulerName) return std::nullopt;
  if (!graph.graph) {
    throw std::invalid_argument("auto scheduler: graph instance has no graph");
  }
  return select_scheduler(fingerprint_graph(*graph.graph).cls, algorithm,
                          threads);
}

std::string describe_selection(const AutoSelection& sel,
                               std::string_view algorithm, unsigned threads) {
  std::ostringstream os;
  os << "auto: " << algorithm << " @ " << threads << "t on "
     << to_string(sel.cls) << " graph -> " << config_label(sel.scheduler, sel.params) << " ["
     << to_string(sel.match) << "] — " << sel.why;
  return os.str();
}

}  // namespace smq::tuning

#include "tuning/auto_select.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace smq::tuning {

namespace {

// Measured with `smq_run --batch-size 64 --reps 1 --threads 1,4`,
// five interleaved runs of smq against smq-p16, mq-opt-full, obim-d4,
// reld-c4, mq-c4 and pmod-d4, on `road --vertices 1000000` (road),
// `rand --vertices 1000000 --edges 8000000` (uniform) and `rmat
// --scale 20` (social), 4-core Xeon VM. A row exists only where its
// preset's best time beat smq's best by more than smq's own max-min
// spread; the fastest such preset wins. The same runs at `--batch-size
// 1` must not show the preset losing to smq by more than that spread,
// which moved rand bfs to "from 4t" (pmod-d4 2010 ms vs smq 574 ms at
// 1t there). Every other key runs smq,
// including every 2-3 thread count below a "from 4t" row. obim-d4 was
// left out of rmat sssp/astar: it needs 21 GiB and 15 s at 1t there.
// The SMQ could not steal when these were measured (see ROADMAP).
constexpr AutoRow kRows[] = {
    {GraphClass::kRoad, "astar", 4, "mq-opt-full",
     "road 1M @4t: 60.5 ms vs smq 151.1 ms (smq spread 59.7)"},
    {GraphClass::kRoad, "bfs", 1, "pmod-d4",
     "road 1M @1t: 71.8 ms vs smq 131.6 (spread 44.5); "
     "@4t: 41.0 vs 140.7 (spread 36.9)"},
    {GraphClass::kRoad, "sssp", 4, "mq-opt-full",
     "road 1M @4t: 81.9 ms vs smq 148.9 ms (smq spread 66.8)"},
    {GraphClass::kUniform, "astar", 4, "mq-opt-full",
     "rand 1M/8M @4t: 106.9 ms vs smq 339.3 ms (smq spread 118.5)"},
    {GraphClass::kUniform, "bfs", 4, "pmod-d4",
     "rand 1M/8M @4t: 56.2 ms vs smq 370.7 ms (smq spread 126.9)"},
    {GraphClass::kUniform, "sssp", 4, "mq-opt-full",
     "rand 1M/8M @4t: 251.3 ms vs smq 787.8 ms (smq spread 349.5)"},
    {GraphClass::kSocial, "astar", 4, "mq-opt-full",
     "rmat 20 @4t: 189.7 ms vs smq 617.6 ms (smq spread 91.2)"},
    {GraphClass::kSocial, "bfs", 4, "pmod-d4",
     "rmat 20 @4t: 59.8 ms vs smq 228.7 ms (smq spread 65.8)"},
    {GraphClass::kSocial, "sssp", 4, "mq-opt-full",
     "rmat 20 @4t: 184.0 ms vs smq 548.4 ms (smq spread 240.1)"},
};

}  // namespace

std::span<const AutoRow> auto_rows() noexcept { return kRows; }

std::string_view to_string(MatchKind kind) noexcept {
  return kind == MatchKind::kExact ? "exact" : "default";
}

AutoSelection select_scheduler(GraphClass cls, std::string_view algorithm,
                               unsigned threads) {
  threads = std::max(threads, 1u);
  const AutoRow* best = nullptr;
  for (const AutoRow& row : kRows) {
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
    sel.preset = std::string(best->preset);
    sel.match = MatchKind::kExact;
    why << "row " << to_string(cls) << '/' << algorithm << " from "
        << best->min_threads << "t: " << best->measured;
  } else {
    sel.preset = std::string(kDefaultPreset);
    why << "no " << to_string(cls) << '/' << algorithm << " row at <= "
        << threads << "t; paper default '" << kDefaultPreset << "'";
  }
  sel.why = why.str();
  return sel;
}

AutoSelection select_scheduler(const GraphInstance& graph,
                               std::string_view algorithm, unsigned threads) {
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
     << to_string(sel.cls) << " graph -> " << sel.preset << " ["
     << to_string(sel.match) << "] — " << sel.why;
  return os.str();
}

}  // namespace smq::tuning

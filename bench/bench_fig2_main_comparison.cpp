// Figure 2 (+ Appendix F, Figures 21-22): the headline comparison.
//
// Each (algorithm, graph) workload is one SuiteDef run through the
// shared suite runner, so every row is checked against the sequential
// oracle and reports work increase and speedup over sequential Dijkstra
// in the same table/JSON as `smq_run --suite`. The contenders are every
// registered multi-threaded scheduler plus a tuned SMQ whose
// parameters mirror the paper's Table 12; the first row, classic MQ
// with C = 4, is the paper's baseline, and its T=1 row is Figure 2's
// normalizer.
//
// The graphs are registry sources standing in for Table 1: USA and WEST
// are `road` graphs, TWITTER and WEB are `rmat` graphs. The registry's
// `rmat` has no quadrant-probability knob to skew WEB with, so WEB is
// the nearest registry graph: TWITTER's scale at a higher edge factor.
//
//   bench_fig2_main_comparison [--full] [--subset TEXT] [--threads N,...]
//       [--reps N] [--json PATH|-] [--vertices N] [--scale S] ...
//
// --full runs all twelve workloads over T = 1,2,4,8 (default: six of
// them at T = 1,8); T=1 is always swept. Graph tunables (--vertices,
// --scale, ...) override every workload's graph; --json PATH writes
// one report per workload to PATH.<suite>.json.
#include <algorithm>
#include <cctype>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "registry/scheduler_registry.h"
#include "registry/suite_runner.h"
#include "registry/suites.h"
#include "support/cli.h"

namespace {

using namespace smq;

struct Workload {
  std::string name;   // e.g. "SSSP USA"
  std::string algo;   // AlgorithmRegistry key
  std::string graph;  // "USA", "WEST", "TWITTER" or "WEB"
  bool quick;         // in the default (non --full) set
};

bool social_graph(const std::string& graph) {
  return graph == "TWITTER" || graph == "WEB";
}

/// The registry source and parameters standing in for a Table 1 graph.
void set_graph(SuiteDef& d, const std::string& graph) {
  if (graph == "USA") {
    d.graph = "road";
    d.graph_params = params_of({{"vertices", "90000"}, {"seed", "101"}});
  } else if (graph == "WEST") {
    d.graph = "road";
    d.graph_params = params_of({{"vertices", "22500"}, {"seed", "202"}});
  } else if (graph == "TWITTER") {
    d.graph = "rmat";
    d.graph_params = params_of(
        {{"scale", "14"}, {"edge-factor", "16"}, {"seed", "303"}});
  } else {
    d.graph = "rmat";
    d.graph_params = params_of(
        {{"scale", "14"}, {"edge-factor", "24"}, {"seed", "404"}});
  }
}

/// Task-specific tuned SMQ parameters, mirroring the paper's Table 12
/// tuning (road SSSP/A* like tiny batches + frequent stealing; social
/// graphs like bigger batches + rare stealing).
ParamMap tuned_smq_params(const Workload& w) {
  const bool social = social_graph(w.graph);
  if (w.algo == "sssp") {
    return params_of({{"p-steal", social ? "1/16" : "1/4"},
                      {"steal-size", social ? "64" : "1"}});
  }
  if (w.algo == "bfs") {
    return params_of({{"p-steal", social ? "1/8" : "1/4"},
                      {"steal-size", social ? "32" : "1"}});
  }
  if (w.algo == "astar") {
    return params_of({{"p-steal", "1/8"}, {"steal-size", "2"}});
  }
  return params_of({{"p-steal", "1/32"}, {"steal-size", "64"}});
}

/// Per-workload OBIM/PMOD delta (paper: tuned per benchmark, Appendix B).
/// Social graphs have short distance ranges (uniform weights in [0,255]
/// over ~5 hops) and want fine deltas; road graphs have deep ranges.
std::string tuned_delta_shift(const Workload& w) {
  if (w.algo == "sssp") return social_graph(w.graph) ? "4" : "8";
  if (w.algo == "bfs") return "0";      // levels are already coarse
  if (w.algo == "boruvka") return "2";  // degree priorities are small
  return "8";
}

SuiteDef make_suite(const Workload& w, const std::vector<unsigned>& threads) {
  SuiteDef d;
  d.name = "fig2-" + w.algo + "-" + w.graph;
  std::transform(d.name.begin(), d.name.end(), d.name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  d.figure = "Figure 2 / Figures 21-22";
  d.description = w.name + ": main scheduler comparison";
  d.algo = w.algo;
  set_graph(d, w.graph);
  d.threads = threads;

  d.runs.push_back({"mq", params_of({{"c", "4"}}), "mq-c4 (baseline)"});
  d.runs.push_back({"smq", tuned_smq_params(w), "smq (tuned)"});
  const bool numa = *std::max_element(threads.begin(), threads.end()) >= 4;
  for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
    // The classic MQ is the baseline row at C = 4; the sequential
    // baseline is every row's reference.
    if (entry.name == "mq" || entry.max_threads == 1) continue;
    SuiteRun run{entry.name, {}, ""};
    if (entry.name == "smq" || entry.name == "mq-opt") {
      if (numa) run.params = params_of({{"numa", "2"}, {"numa-k", "8"}});
      if (entry.name == "smq") run.label = "smq (default)";
    } else if (entry.name == "obim" || entry.name == "pmod") {
      run.params.set("delta-shift", tuned_delta_shift(w));
      run.params.set("chunk-size", "64");
    }
    d.runs.push_back(std::move(run));
  }
  return d;
}

bool contains_icase(std::string haystack, std::string needle) {
  const auto lower = [](std::string& s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
  };
  lower(haystack);
  lower(needle);
  return haystack.find(needle) != std::string::npos;
}

/// One JSON report per workload: PATH(.json) -> PATH.<suite>.json.
std::string suite_json_path(const std::string& path, const std::string& suite) {
  if (path.empty() || path == "-") return path;
  const std::string stem =
      path.ends_with(".json") ? path.substr(0, path.size() - 5) : path;
  return stem + "." + suite + ".json";
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  std::optional<SuiteOptions> opts = parse_suite_options(args, std::cerr);
  if (!opts) return 2;
  // Each workload fixes its own algorithm and graph source.
  opts->algo_override.clear();
  opts->graph_override.clear();

  const bool full = args.has_flag("full");
  std::vector<unsigned> threads = opts->threads;
  if (threads.empty()) {
    threads = full ? std::vector<unsigned>{1, 2, 4, 8}
                   : std::vector<unsigned>{1, 8};
  }
  if (std::find(threads.begin(), threads.end(), 1u) == threads.end()) {
    threads.insert(threads.begin(), 1u);  // the baseline's T=1 row
  }
  opts->threads.clear();  // the suites carry the sweep

  const std::vector<Workload> workloads{
      {"SSSP USA", "sssp", "USA", true},
      {"SSSP WEST", "sssp", "WEST", false},
      {"SSSP TWITTER", "sssp", "TWITTER", true},
      {"SSSP WEB", "sssp", "WEB", false},
      {"BFS USA", "bfs", "USA", true},
      {"BFS WEST", "bfs", "WEST", false},
      {"BFS TWITTER", "bfs", "TWITTER", true},
      {"BFS WEB", "bfs", "WEB", false},
      {"A* USA", "astar", "USA", true},
      {"A* WEST", "astar", "WEST", false},
      {"MST USA", "boruvka", "USA", true},
      {"MST WEST", "boruvka", "WEST", false},
  };
  const std::string subset = args.get("subset");
  const std::string json_path = opts->json_path;

  std::cout << "=== Figure 2 / Figures 21-22: main scheduler comparison ===\n";
  int status = 0;
  for (const Workload& w : workloads) {
    if (subset.empty() ? !(full || w.quick) : !contains_icase(w.name, subset)) {
      continue;
    }
    const SuiteDef suite = make_suite(w, threads);
    opts->json_path = suite_json_path(json_path, suite.name);
    std::cout << '\n';
    const int rc = run_suite(suite, *opts, std::cout, std::cerr);
    if (rc == 2) return 2;
    status = std::max(status, rc);
  }
  std::cout << "\nspeedup is over sequential Dijkstra; the paper's Figure 2 "
               "speedup is the mq-c4\n(baseline) T=1 time divided by a row's "
               "time.\n";
  return status;
}

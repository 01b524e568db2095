// smq_run — the unified run driver over the registry subsystem.
//
// Composes scheduler x algorithm x graph x thread-count at runtime from
// the string-keyed registries, validates every result against the
// sequential oracle, and emits both a paper-style ASCII table and
// machine-readable JSON.
//
//   smq_run --list
//   smq_run --sched smq --algo sssp --graph rand --threads 8
//   smq_run --sched all --algo sssp --graph road --vertices 20000
//           --threads 1,4 --reps 3 --json results.json
//   smq_run --sched smq,mq-opt --batch-size 64 --graph-cache /tmp/graphs
//   smq_run --sched smq,mq --algo sssp --numa 2 --numa-k 8 --json -
//   smq_run --suite fig3_6 --threads 4 --json fig3_6.json
//
// Scheduler/algorithm/graph tunables (see --list) are passed as plain
// --key value options: --sched smq --steal-size 4 --p-steal 1/8
//
// Every sweep is a suite run by registry/suite_runner.h. --suite picks
// one of the paper's figure sweeps (registry/suites.h), which pins its
// scheduler keys and per-run params; the CLI still controls
// graph/threads/reps. --sched a,b[,auto] is expanded by sweep_suite()
// into an unnamed suite with one run per scheduler. The simulated NUMA
// point (Section 4) is two tunables: --numa N virtual nodes and --numa-k
// K; a row that sets --numa reports N, K, the analytic internal fraction
// E and the measured remote-access fraction. The K ablation of Tables
// 16-27 is `--suite table16_23` / `--suite table24_27`.
//
// Every run goes through the executor's one batched loop, behind
// AnyScheduler's erased per-thread handle: --batch-size N (default 1)
// sets the tasks per handle call, and rows are labelled `virtual` at 1
// and `batched` above it. --dispatch static instead instantiates the
// concrete scheduler directly, with no erasure (the hot schedulers —
// see static_dispatch.h; others run erased and say so).
//
// --service drives a query stream through a persistent worker pool
// instead (service/service_driver.h).
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/listing.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "registry/suite_runner.h"
#include "registry/suites.h"
#include "service/service_driver.h"
#include "support/cli.h"
#include "tuning/auto_select.h"

namespace {

using namespace smq;

/// Every flag this driver understands: the built-ins plus every
/// registered tunable of every scheduler, graph source and algorithm.
/// Unknown flags are fatal — a silently ignored "--steal-sice 8"
/// measures the wrong config.
std::vector<std::string> known_flags() {
  std::vector<std::string> known = {
      "help",       "h",         "list",      "suite",    "sched",
      "algo",       "graph",     "threads",   "reps",     "json",
      "no-validate", "dispatch", "batch-size", "graph-cache",
      "service",    "qps",       "queries",   "lanes",    "query-seed"};
  const auto add = [&known](const std::vector<Tunable>& tunables) {
    for (const Tunable& t : tunables) known.push_back(t.name);
  };
  for (const std::string& n : SchedulerRegistry::instance().names()) {
    add(SchedulerRegistry::instance().find(n)->tunables);
  }
  for (const std::string& n : GraphRegistry::instance().names()) {
    add(GraphRegistry::instance().find(n)->tunables);
  }
  for (const std::string& n : AlgorithmRegistry::instance().names()) {
    add(AlgorithmRegistry::instance().find(n)->tunables);
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());
  return known;
}

/// Reject misspelled flags with a nearest-name suggestion. Returns
/// false (after explaining on stderr) when any option is unknown.
bool check_flags(const ArgParser& args) {
  const std::vector<std::string> known = known_flags();
  bool ok = true;
  for (const auto& [key, value] : args.options()) {
    if (!std::binary_search(known.begin(), known.end(), key)) {
      std::cerr << unknown_flag_message(key, known) << "\n";
      ok = false;
    }
  }
  if (!ok) std::cerr << "see smq_run --help and --list\n";
  return ok;
}

void print_suite_listing(std::ostream& os) {
  os << "\nsuites (--suite NAME reproduces the paper artifact):\n";
  for (const SuiteDef& suite : suites()) {
    os << "  " << suite.name << " - " << suite.figure << ": "
       << suite.description << " (" << suite.runs.size() << " configs)\n";
  }
}

/// `smq_run --service`: drive a query stream through a persistent
/// SchedulerService pool instead of one spawn/join sweep per row.
/// Closed loop by default; `--qps R` switches to open-loop Poisson
/// arrivals. Latency percentiles come from the service's lock-free
/// histogram and always include queue wait.
int run_service_mode(const ArgParser& args) {
  ParamMap params = ParamMap::from_args(args);

  std::vector<std::string> sched_names;
  std::vector<unsigned> thread_counts;
  try {
    sched_names = parse_sched_list(args.get("sched", "smq"));
    thread_counts = parse_thread_list(args.get("threads", "4"));
    // Reject a tunable no named key takes or a factory rejects before
    // the graph and the reference are built.
    check_scheduler_flags(sched_names, params);
    for (const std::string& name : sched_names) {
      if (name == tuning::kAutoSchedulerName) continue;
      SchedulerRegistry::instance().find(name)->make(
          1, service_params(name, params));
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const std::string graph_name = args.get("graph", "rand");
  const std::string graph_cache = args.get("graph-cache");
  GraphInstance graph;
  try {
    graph = graph_cache.empty()
                ? GraphRegistry::instance().create(graph_name, params)
                : GraphRegistry::instance().create_cached(graph_name, params,
                                                          graph_cache);
  } catch (const std::exception& e) {
    std::cerr << e.what() << " (see smq_run --list)\n";
    return 2;
  }

  const std::string warn = oversubscription_warning(
      thread_counts, std::thread::hardware_concurrency());
  if (!warn.empty()) std::cerr << warn << "\n";

  const auto num_queries =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("queries", 100)));
  const double qps = args.get_double("qps", 0);
  const std::uint64_t seed = params.get_uint("query-seed", 1);
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 1)));
  const bool validate = !args.has_flag("no-validate");

  ServiceOptions opts;
  opts.lanes = static_cast<unsigned>(args.get_int("lanes", 0));
  opts.batch_size =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch-size", 8)));

  const std::vector<Query> queries =
      make_query_set(graph, num_queries, seed);

  std::cout << "graph: " << graph.name << " (" << graph.graph->num_vertices()
            << " vertices, " << graph.graph->num_edges() << " edges)\n"
            << "mode: service (" << num_queries << " queries, "
            << (qps > 0 ? "poisson @" + TablePrinter::fmt(qps, 0) + " qps"
                        : std::string("closed loop"))
            << ", batch-size " << opts.batch_size << ")\n";

  ServiceReport report;
  report.graph = graph;
  report.params = params;
  report.queries = num_queries;
  report.seed = seed;

  ServiceReference reference;
  if (validate) {
    reference = measure_service_reference(graph, queries, reps);
    report.reference = &reference;
    std::cout << "reference: " << num_queries << " sequential queries, "
              << TablePrinter::fmt(reference.seconds * 1e3) << " ms total\n";
  }
  std::cout << '\n';

  bool any_invalid = false;
  for (const std::string& name : sched_names) {
    for (const unsigned requested : thread_counts) {
      // `auto` resolves once per service (the winning configuration may
      // change with the worker count); the row keeps "auto" as its
      // scheduler and reports the resolved key and params.
      const std::optional<tuning::AutoSelection> pick = tuning::resolve_auto(
          name, graph, service_auto_algorithm(graph), requested);
      const std::string create_name = pick ? pick->scheduler : name;
      const ParamMap run_params =
          pick ? merge_run_params(params, pick->params) : params;
      if (pick) {
        std::cout << tuning::describe_selection(
                         *pick, service_auto_algorithm(graph), requested)
                  << "\n";
      }
      const unsigned threads = service_effective_threads(create_name, requested);
      ServiceRow best;
      for (int rep = 0; rep < reps; ++rep) {
        std::unique_ptr<QueryService> service =
            make_service(create_name, threads, run_params, graph, opts);
        const DriveResult drive = drive_service(*service, queries, qps, seed);
        service->stop();
        ServiceRow row;
        row.scheduler = name;
        if (pick) {
          row.preset = pick->scheduler;
          row.preset_params = pick->params;
          row.auto_match = std::string(tuning::to_string(pick->match));
          row.auto_why = pick->why;
        }
        row.threads = threads;
        row.lanes = service->num_lanes();
        row.batch_size = opts.batch_size;
        row.offered_qps = qps;
        row.reps = reps;
        row.stats = service->worker_stats();
        row.memory_footprint = service->memory_footprint();
        finalize_service_row(row, drive, service->latency_histogram(),
                             report.reference);
        const bool better = rep == 0 ||
                            (row.valid && !best.valid) ||
                            (row.valid == best.valid && row.seconds < best.seconds);
        if (better) best = std::move(row);
      }
      if (best.validated && !best.valid) any_invalid = true;
      report.rows.push_back(std::move(best));
    }
  }

  print_service_table(std::cout, report);
  if (!emit_service_json(report, args.get("json"), std::cout, std::cerr)) {
    return 2;
  }
  if (any_invalid) {
    std::cerr << "\nERROR: at least one service run produced a wrong answer\n";
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);

  if (args.has_flag("help") || args.has_flag("h")) {
    std::cout
        << "usage: smq_run [--list] [--sched NAMES|all] [--suite NAME] "
           "[--algo NAME]\n"
           "               [--graph NAME] [--threads N[,N...]] [--reps N] "
           "[--json PATH|-]\n"
           "               [--no-validate] [--batch-size N] "
           "[--dispatch static]\n"
           "               [--numa N [--numa-k K]] [--graph-cache DIR]\n"
           "               [--service [--qps R] [--queries N] [--lanes N] "
           "[--query-seed S]]\n"
           "               [--<tunable> VALUE ...]\n\n"
           "Runs algorithm x scheduler x threads sweeps over a graph and "
           "prints a table\nplus optional JSON. `--list` shows every "
           "registered scheduler, algorithm,\ngraph source and figure suite "
           "with its tunables. `--suite NAME` runs one of\nthe paper's "
           "figure sweeps through the same runner as `--sched`: the suite\n"
           "pins its scheduler keys and per-run params, which win over "
           "CLI tunables;\n--threads, --reps, --graph, --algo and graph "
           "tunables still apply. "
           "`--batch-size N` sets the tasks per scheduler\ncall (default 1); "
           "`--dispatch static` runs the concrete scheduler without\ntype "
           "erasure; `--graph-cache DIR` caches generated graphs as binary "
           "CSR keyed\nby their parameters so repeated sweeps skip "
           "generation.\n\n"
           "`--numa N` runs on N simulated NUMA nodes and `--numa-k K` sets "
           "the remote\nweight K (see --list); such rows report N, K, the "
           "analytic internal fraction E\nand the measured remote fraction. "
           "`--suite table16_23` and `table24_27` sweep K.\n\n"
           "`--sched auto` picks, per thread count, the compiled-in row for "
           "this (graph\nclass, algorithm) with the largest min_threads <= "
           "threads, or `smq` when\nno row matches (`--list` prints the "
           "rows); every row reports the chosen\nkey, its params and why.\n\n"
           "`--service` runs point-to-point queries through a persistent "
           "worker-pool\nservice instead of one spawn/join run per row: "
           "`--queries N` random (s,t)\npairs (seeded by --query-seed) are "
           "submitted closed-loop, or open-loop at\nPoisson rate `--qps R`; "
           "rows report throughput plus p50/p90/p99 latency\n(queue wait "
           "included) from the service's lock-free histogram.\n";
    return 0;
  }
  if (args.has_flag("list")) {
    print_registry_listing(std::cout);
    print_suite_listing(std::cout);
    return 0;
  }

  if (!check_flags(args)) return 2;

  // ---- service mode ----------------------------------------------------
  // A persistent worker pool serving the query stream; none of the
  // sweep axes below (static dispatch, suites) apply to it.
  if (args.has_flag("service")) {
    if (args.has_flag("suite")) {
      std::cerr << "--service cannot be combined with --suite\n";
      return 2;
    }
    return run_service_mode(args);
  }

  // ---- sweeps -----------------------------------------------------------
  // A figure suite, or the ad-hoc --sched sweep expanded into an unnamed
  // one: either way the shared runner measures, validates and emits.
  if (args.has_flag("suite") && args.has_flag("sched")) {
    std::cerr << "--suite and --sched cannot be combined (the suite names "
                 "its schedulers)\n";
    return 2;
  }
  const std::optional<SuiteOptions> opts =
      parse_suite_options(args, std::cerr);
  if (!opts) return 2;
  SuiteDef suite;
  if (args.has_flag("suite")) {
    const SuiteDef* named = find_suite(args.get("suite"));
    if (named == nullptr) {
      std::cerr << unknown_suite_message(args.get("suite")) << "\n";
      return 2;
    }
    suite = *named;
  } else {
    try {
      suite = sweep_suite(args.get("sched", "smq"));
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  return run_suite(suite, *opts, std::cout, std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "smq_run: " << e.what() << "\n";
    return 2;
  }
}

#include "registry/suite_runner.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_configs.h"
#include "registry/scheduler_registry.h"
#include "registry/static_dispatch.h"
#include "support/cli.h"
#include "support/json_writer.h"
#include "tuning/auto_select.h"

namespace smq {

namespace {

/// One result row of a sweep.
struct SweepRow {
  std::string label;      // display / JSON "scheduler"
  std::string scheduler;  // registry key (JSON "preset" when != label)
  ParamMap row_params;    // the run's own params and auto's (JSON "params")
  unsigned requested_threads = 0;
  unsigned threads = 0;   // effective (clamped) count
  std::string_view dispatch = "virtual";  // dispatch_label() of the run
  AlgoResult result;
  int reps = 1;
  // The NUMA point the run ran at (row_numa) and, for a scheduler that
  // takes `numa-k`, its analytic internal fraction E.
  std::optional<NumaOptions> numa;
  std::optional<double> internal_frac_expected;
  // Set when the run asked for `auto`: `scheduler` and `row_params` hold
  // its pick, and the match kind and the resolver's explanation reach
  // the table and JSON.
  std::optional<tuning::AutoSelection> auto_pick;
};

/// Everything the table and JSON emitters need about one sweep.
struct SweepReport {
  const SuiteDef* suite = nullptr;
  std::string algorithm;
  GraphInstance graph;
  ParamMap params;             // global params (graph + CLI tunables)
  std::string_view dispatch = "virtual";  // dispatch_label() requested
  const AlgoReference* reference = nullptr;  // null without validation
  std::vector<SweepRow> rows;
};

/// Fill `row`'s NUMA columns from the params its run executes with
/// (`run_params`, CLI under row pins), read by parse_numa exactly as the
/// factory reads them. A row whose params set no `numa`, or whose
/// scheduler takes none, stays UMA.
void set_row_numa(SweepRow& row, const SchedulerEntry& entry,
                  const ParamMap& run_params) {
  if (!run_params.has("numa") || !entry.takes("numa")) return;
  row.numa = parse_numa(run_params, row.threads);
  if (!entry.takes("numa-k")) return;  // OBIM/PMOD: nodes only, no K
  // SMQ draws steal victims among the other threads, the queue samplers
  // among all queues, the chooser's own included.
  row.internal_frac_expected = expected_internal_fraction(
      *row.numa, row.threads,
      entry.name == "smq" || entry.name == "smq-skiplist");
}

/// The table's numa cell: "nodes/K" for a multi-node row (nodes alone
/// for a scheduler without K), "-" for UMA.
std::string numa_cell(const SweepRow& row) {
  if (!row.numa || row.numa->nodes <= 1) return "-";
  std::ostringstream cell;
  cell << row.numa->nodes;
  if (row.internal_frac_expected) cell << '/' << row.numa->k;
  return cell.str();
}

void print_sweep_table(std::ostream& os, const SweepReport& report) {
  const AlgoReference* ref = report.reference;
  TablePrinter table({"scheduler", "threads", "dispatch", "numa", "time ms",
                      "tasks", "wasted", "work inc", "speedup", "remote",
                      "valid"});
  for (const SweepRow& row : report.rows) {
    const ThreadStats& stats = row.result.run.stats;
    const double work_inc =
        ref != nullptr && ref->reference_tasks > 0
            ? row.result.run.work_increase(ref->reference_tasks)
            : 0;
    const double speedup = ref != nullptr && row.result.run.seconds > 0
                               ? ref->seconds / row.result.run.seconds
                               : 0;
    // Auto rows show the configuration they resolved to, not just
    // "auto" — the chosen config must be readable off the table.
    const std::string label =
        row.auto_pick ? row.label + ":" + config_label(row.scheduler,
                                                       row.row_params)
                      : row.label;
    table.add_row(
        {label, std::to_string(row.threads), std::string(row.dispatch),
         numa_cell(row),
         TablePrinter::fmt(row.result.run.seconds * 1e3),
         std::to_string(stats.pops), std::to_string(stats.wasted),
         ref != nullptr ? TablePrinter::fmt(work_inc) : "-",
         ref != nullptr ? TablePrinter::fmt(speedup) : "-",
         stats.sampled_accesses > 0 ? TablePrinter::fmt(stats.remote_frac())
                                    : "-",
         row.result.validated ? (row.result.valid ? "yes" : "NO") : "-"});
  }
  table.print(os);
}

void write_sweep_json(std::ostream& os, const SweepReport& report) {
  const AlgoReference* ref = report.reference;
  JsonWriter json(os);
  json.begin_object();
  json.member("tool", "smq_run");
  if (!report.suite->name.empty()) json.member("suite", report.suite->name);
  json.member("algorithm", report.algorithm);
  json.member("dispatch", std::string(report.dispatch));

  json.key("graph").begin_object();
  json.member("name", report.graph.name);
  json.member("vertices",
              static_cast<std::uint64_t>(report.graph.graph->num_vertices()));
  json.member("edges",
              static_cast<std::uint64_t>(report.graph.graph->num_edges()));
  json.end_object();

  json.key("params").begin_object();
  for (const auto& [key, value] : report.params.entries()) {
    json.member(key, value);
  }
  json.end_object();

  if (ref != nullptr) {
    json.key("reference").begin_object();
    json.member("tasks", ref->reference_tasks);
    json.member("answer", ref->reference_answer);
    json.member("seconds", ref->seconds);
    json.end_object();
  }

  json.key("results").begin_array();
  for (const SweepRow& row : report.rows) {
    const ThreadStats& stats = row.result.run.stats;
    json.begin_object();
    json.member("scheduler", row.label);
    if (row.label != row.scheduler) json.member("preset", row.scheduler);
    if (row.auto_pick) {
      json.member("auto", true);
      json.member("auto_match",
                  std::string(tuning::to_string(row.auto_pick->match)));
      json.member("auto_why", row.auto_pick->why);
    }
    if (!row.row_params.entries().empty()) {
      json.key("params").begin_object();
      for (const auto& [key, value] : row.row_params.entries()) {
        json.member(key, value);
      }
      json.end_object();
    }
    json.member("threads", row.threads);
    if (row.threads != row.requested_threads) {
      json.member("requested_threads", row.requested_threads);
    }
    json.member("dispatch", std::string(row.dispatch));
    if (row.numa) json.member("numa_nodes", row.numa->nodes);
    if (row.internal_frac_expected) {
      json.member("numa_k", row.numa->k);
      json.member("internal_frac_expected", *row.internal_frac_expected);
    }
    json.member("seconds", row.result.run.seconds);
    json.member("tasks", stats.pops);
    json.member("wasted", stats.wasted);
    json.member("pushes", stats.pushes);
    json.member("empty_pops", stats.empty_pops);
    json.member("steals", stats.steals);
    if (stats.sampled_accesses > 0) {
      json.member("sampled_accesses", stats.sampled_accesses);
      json.member("remote_accesses", stats.remote_accesses);
      json.member("remote_frac", stats.remote_frac());
    }
    if (ref != nullptr && ref->reference_tasks > 0) {
      json.member("work_increase",
                  row.result.run.work_increase(ref->reference_tasks));
    }
    if (ref != nullptr && ref->seconds > 0 && row.result.run.seconds > 0) {
      json.member("speedup_vs_seq", ref->seconds / row.result.run.seconds);
    }
    json.member("reps", row.reps);
    if (row.result.validated) {
      json.member("valid", row.result.valid);
    }
    json.member("answer", row.result.answer);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

/// Route the report per `json_path`: "" = no JSON, "-" = onto `out`
/// after the table, else a file (noting the write on `out`). Returns
/// false when the file cannot be opened.
bool emit_sweep_json(const SweepReport& report, const std::string& json_path,
                     std::ostream& out, std::ostream& err) {
  if (json_path.empty()) return true;
  if (json_path == "-") {
    write_sweep_json(out, report);
    return true;
  }
  std::ofstream file(json_path);
  if (!file) {
    err << "cannot write " << json_path << "\n";
    return false;
  }
  write_sweep_json(file, report);
  out << "\nwrote " << json_path << "\n";
  return true;
}

/// The sequential oracle with its wall time taken best-of-`reps`: it is
/// the speedup normalizer the CI perf gate compares, so it must not be
/// a single noisy sample.
AlgoReference measure_reference(const AlgorithmEntry& algo,
                                const GraphInstance& graph,
                                const ParamMap& params, int reps) {
  AlgoReference reference = algo.make_reference(graph, params);
  for (int rep = 1; rep < reps; ++rep) {
    const AlgoReference again = algo.make_reference(graph, params);
    if (again.seconds < reference.seconds) reference.seconds = again.seconds;
  }
  return reference;
}

/// Best-of-`reps` measurement of one row under `entry` (registered as
/// `scheduler`): the static-dispatch path when `static_dispatch` is set
/// and the key resolves to a static row, the erased factory otherwise.
/// Prefers valid results, then the fastest wall time. `threads` must
/// already be clamped via effective_threads().
AlgoResult measure_row(const SchedulerEntry& entry, std::string_view scheduler,
                       const AlgorithmEntry& algo, std::string_view algo_name,
                       const GraphInstance& graph, unsigned threads,
                       const ParamMap& run_params, bool static_dispatch,
                       const AlgoReference* ref, int reps) {
  AlgoResult best;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    AlgoResult result;
    std::optional<AlgoResult> static_result;
    if (static_dispatch) {
      static_result = run_static_dispatch(scheduler, algo_name, graph,
                                          threads, run_params, ref);
    }
    if (static_result) {
      result = *static_result;
    } else {
      AnyScheduler sched = entry.make(threads, run_params);
      result = algo.run(graph, sched, threads, run_params, ref);
    }
    const bool better = rep == 0 || (result.valid && !best.valid) ||
                        (result.valid == best.valid &&
                         result.run.seconds < best.run.seconds);
    if (better) best = result;
  }
  return best;
}

/// Whether `scheduler`'s rows run static: `want_static` and the key has
/// a static entry. Notes the erased fallback on `err` otherwise.
bool row_dispatch_static(bool want_static, std::string_view scheduler,
                         std::ostream& err) {
  if (!want_static || has_static_dispatch(scheduler)) return want_static;
  err << "note: no static dispatch entry for '" << scheduler
      << "'; running it erased\n";
  return false;
}

bool is_auto(std::string_view scheduler) {
  return scheduler == tuning::kAutoSchedulerName;
}

}  // namespace

std::optional<bool> parse_static_dispatch(const ArgParser& args,
                                          std::ostream& err) {
  if (!args.has_flag("dispatch")) return false;
  if (args.get("dispatch") == "static") return true;
  err << "--dispatch takes only `static`; the erased path has one loop: "
         "choose its tasks per handle call with --batch-size N (1 = one "
         "task per call)\n";
  return std::nullopt;
}

std::string_view dispatch_label(bool static_dispatch, const ParamMap& params) {
  if (static_dispatch) return "static";
  return params.get_int("batch-size", 1) > 1 ? "batched" : "virtual";
}

ParamMap merge_run_params(const ParamMap& params, const ParamMap& run_params) {
  ParamMap merged = params;
  for (const auto& [key, value] : run_params.entries()) {
    merged.set(key, value);
  }
  return merged;
}

std::vector<std::string> parse_sched_list(std::string_view list) {
  std::vector<std::string> names = split_list(list, ',');
  if (names.size() == 1 && names[0] == "all") {
    return SchedulerRegistry::instance().names();
  }
  std::vector<std::string> known = SchedulerRegistry::instance().names();
  known.emplace_back(tuning::kAutoSchedulerName);
  for (const std::string& name : names) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string msg = "unknown scheduler: " + name;
    const std::string near = nearest_name(name, known);
    if (!near.empty()) msg += " (did you mean '" + near + "'?)";
    throw std::invalid_argument(msg + " (see smq_run --list)");
  }
  return names;
}

void check_scheduler_flags(const std::vector<std::string>& schedulers,
                           const ParamMap& cli_params) {
  const auto registers = [](const auto& registry, const std::string& key) {
    return std::ranges::any_of(registry.entries(), [&key](const auto& entry) {
      return std::ranges::any_of(
          entry.tunables, [&key](const Tunable& t) { return t.name == key; });
    });
  };
  std::vector<std::string> keys = schedulers;
  if (std::ranges::any_of(schedulers, is_auto)) {
    keys.emplace_back(tuning::kDefaultScheduler);
    for (const tuning::AutoRow& row : tuning::auto_rows()) {
      keys.emplace_back(row.scheduler);
    }
  }
  for (const auto& [key, value] : cli_params.entries()) {
    if (registers(GraphRegistry::instance(), key) ||
        registers(AlgorithmRegistry::instance(), key)) {
      continue;
    }
    std::string takers;
    bool taken = false;
    for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
      if (!entry.takes(key)) continue;
      takers += (takers.empty() ? "" : ", ") + entry.name;
      taken = taken || std::ranges::find(keys, entry.name) != keys.end();
    }
    if (!takers.empty() && !taken) {
      throw std::invalid_argument("--" + key + " is taken only by " + takers +
                                  ", which this run does not name (see "
                                  "smq_run --list)");
    }
  }
}

SuiteDef sweep_suite(std::string_view sched_list) {
  SuiteDef suite;
  suite.threads = {4};
  for (const std::string& name : parse_sched_list(sched_list)) {
    suite.runs.push_back({name, {}, name});
  }
  return suite;
}

int run_suite(const SuiteDef& suite, const SuiteOptions& opts,
              std::ostream& out, std::ostream& err) {
  const std::string algo_name =
      opts.algo_override.empty() ? suite.algo : opts.algo_override;
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
  if (algo == nullptr) {
    err << "unknown algorithm: " << algo_name << " (see smq_run --list)\n";
    return 2;
  }

  // Graph: suite defaults under the CLI's overrides.
  const std::string graph_name =
      opts.graph_override.empty() ? suite.graph : opts.graph_override;
  ParamMap params = suite.graph_params;
  for (const auto& [key, value] : opts.cli_params.entries()) {
    params.set(key, value);
  }
  // Reject an unknown scheduler, a malformed NUMA point, a tunable its
  // factory rejects or one no row's key takes before any graph is built:
  // each row's scheduler is built once at one thread.
  try {
    for (const SuiteRun& run : suite.runs) {
      const ParamMap run_params = merge_run_params(params, run.params);
      parse_numa(run_params, 1);
      if (is_auto(run.scheduler)) continue;
      const SchedulerEntry* entry =
          SchedulerRegistry::instance().find(run.scheduler);
      if (entry == nullptr) {
        throw std::invalid_argument("suite " + suite.name +
                                    " names unknown scheduler: " +
                                    run.scheduler);
      }
      entry->make(1, run_params);
    }
    std::vector<std::string> schedulers;
    for (const SuiteRun& run : suite.runs) schedulers.push_back(run.scheduler);
    check_scheduler_flags(schedulers, opts.cli_params);
  } catch (const std::invalid_argument& e) {
    err << e.what() << "\n";
    return 2;
  }
  SweepReport report;
  try {
    report.graph =
        opts.graph_cache.empty()
            ? GraphRegistry::instance().create(graph_name, params)
            : GraphRegistry::instance().create_cached(graph_name, params,
                                                      opts.graph_cache);
  } catch (const std::exception& e) {
    err << e.what() << " (see smq_run --list)\n";
    return 2;
  }
  report.suite = &suite;
  report.algorithm = algo_name;
  report.params = params;
  report.dispatch = dispatch_label(opts.static_dispatch, params);

  const std::vector<unsigned>& thread_counts =
      opts.threads.empty() ? suite.threads : opts.threads;
  const int reps = std::max(1, opts.reps);
  const std::string warn = oversubscription_warning(
      thread_counts, std::thread::hardware_concurrency());
  if (!warn.empty()) err << warn << "\n";

  if (!suite.name.empty()) {
    out << "suite: " << suite.name << " (" << suite.figure << ": "
        << suite.description << ")\n";
  }
  out << "graph: " << report.graph.name << " ("
      << report.graph.graph->num_vertices() << " vertices, "
      << report.graph.graph->num_edges() << " edges)\n"
      << "algorithm: " << algo_name << "\n"
      << "dispatch: " << report.dispatch << " (batch-size "
      << params.get("batch-size", "1") << ")\n";

  AlgoReference reference;
  if (opts.validate) {
    reference = measure_reference(*algo, report.graph, params, reps);
    report.reference = &reference;
    out << "reference: " << reference.reference_tasks << " tasks, "
        << TablePrinter::fmt(reference.seconds * 1e3) << " ms sequential\n";
  }
  out << '\n';

  bool any_invalid = false;
  for (const SuiteRun& run : suite.runs) {
    // Static dispatch covers the hot schedulers only; anything else keeps
    // its uniform erased path (and says so). `auto` decides per row, once
    // its pick is known.
    const bool run_static =
        !is_auto(run.scheduler) &&
        row_dispatch_static(opts.static_dispatch, run.scheduler, err);
    for (const unsigned requested : thread_counts) {
      SweepRow row;
      row.label = suite_run_label(run);
      row.scheduler = run.scheduler;
      row.row_params = run.params;
      // The pick may change with the thread count; the row runs it on
      // the requested path, the same as naming it by hand, its params
      // winning over the CLI's.
      row.auto_pick = tuning::resolve_auto(run.scheduler, report.graph,
                                           algo_name, requested);
      bool row_static = run_static;
      if (row.auto_pick) {
        row.scheduler = row.auto_pick->scheduler;
        row.row_params =
            merge_run_params(row.row_params, row.auto_pick->params);
        row_static =
            row_dispatch_static(opts.static_dispatch, row.scheduler, err);
        out << tuning::describe_selection(*row.auto_pick, algo_name,
                                          requested)
            << "\n";
      }
      const ParamMap run_params = merge_run_params(params, row.row_params);
      const SchedulerEntry& entry =
          *SchedulerRegistry::instance().find(row.scheduler);
      row.requested_threads = requested;
      row.threads = effective_threads(entry, requested);
      set_row_numa(row, entry, run_params);
      row.dispatch = dispatch_label(row_static, run_params);
      row.reps = reps;
      row.result = measure_row(entry, row.scheduler, *algo, algo_name,
                               report.graph, row.threads, run_params,
                               row_static, report.reference, reps);
      if (row.result.validated && !row.result.valid) any_invalid = true;
      report.rows.push_back(std::move(row));
    }
  }

  print_sweep_table(out, report);
  if (!emit_sweep_json(report, opts.json_path, out, err)) return 2;

  if (any_invalid) {
    err << "\nERROR: at least one scheduler produced a wrong answer\n";
    return 1;
  }
  return 0;
}

std::optional<SuiteOptions> parse_suite_options(const ArgParser& args,
                                                std::ostream& err) {
  SuiteOptions opts;
  opts.cli_params = ParamMap::from_args(args);

  const std::optional<bool> want_static = parse_static_dispatch(args, err);
  if (!want_static) return std::nullopt;
  opts.static_dispatch = *want_static;

  if (args.has_flag("threads")) {
    try {
      opts.threads = parse_thread_list(args.get("threads"));
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return std::nullopt;
    }
  }
  opts.reps = static_cast<int>(args.get_int("reps", 1));
  opts.validate = !args.has_flag("no-validate");
  opts.algo_override = args.get("algo");
  opts.graph_override = args.get("graph");
  opts.graph_cache = args.get("graph-cache");
  opts.json_path = args.get("json");
  return opts;
}

}  // namespace smq

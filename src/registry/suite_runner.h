// Shared sweep execution and emission for the run driver and the figure
// suites.
//
// One (scheduler, params, threads) result row and one table/JSON
// emission path, used by both the ad-hoc `smq_run --sched ...` sweep and
// the suite expansion (`smq_run --suite fig3_6`,
// bench_fig2_main_comparison) — "the suite emits the same rows as an
// ad-hoc sweep" is structural, not a convention. run_suite() expands a
// SuiteDef against the registries; run_suite_main() is `smq_run
// --suite`'s complete CLI entry point.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/numa_grid.h"
#include "registry/params.h"
#include "registry/scheduler_registry.h"
#include "registry/suites.h"

namespace smq {

class ArgParser;

/// One result row of a sweep (ad-hoc or suite).
struct SweepRow {
  std::string label;      // display / JSON "scheduler" (unique per row)
  std::string scheduler;  // registry key (JSON "preset" when != label)
  ParamMap row_params;    // per-run overrides (suite grids; empty ad-hoc)
  unsigned requested_threads = 0;
  unsigned threads = 0;   // effective (clamped) count
  std::string_view dispatch = "virtual";  // dispatch_label() of the run
  NumaGridPoint numa;     // this row's grid point (inactive w/o a grid)
  bool numa_grid = false; // row came from a --numa-grid sweep
  AlgoResult result;
  int reps = 1;
  // `--sched auto` provenance: the row ran `scheduler` because the
  // auto rows picked it (label stays "auto"); match kind and the
  // resolver's explanation are surfaced in the table and JSON.
  bool auto_selected = false;
  std::string auto_match;  // "exact" | "default"
  std::string auto_why;
};

/// Everything the table and JSON emitters need about one sweep.
struct SweepReport {
  std::string algorithm;
  GraphInstance graph;
  ParamMap params;             // global params (graph + CLI tunables)
  std::string_view dispatch = "virtual";  // dispatch_label() requested
  std::string numa_grid_spec;  // empty without a grid
  std::string suite;           // suite name; empty for ad-hoc sweeps
  const AlgoReference* reference = nullptr;  // null without validation
  std::vector<SweepRow> rows;
};

/// The paper-style fixed-width table over the report's rows.
void print_sweep_table(std::ostream& os, const SweepReport& report);

/// The machine-readable report (tools/perf_check.py's input format).
void write_sweep_json(std::ostream& os, const SweepReport& report);

/// Route the report per `json_path`: "" = no JSON, "-" = onto `out`
/// after the table, else a file (noting the write on `out`). Returns
/// false when the file cannot be opened.
bool emit_sweep_json(const SweepReport& report, const std::string& json_path,
                     std::ostream& out, std::ostream& err);

/// The sequential oracle with its wall time taken best-of-`reps`: it is
/// the speedup normalizer the CI perf gate compares, so it must not be
/// a single noisy sample.
AlgoReference measure_reference(const AlgorithmEntry& algo,
                                const GraphInstance& graph,
                                const ParamMap& params, int reps);

/// Best-of-`reps` measurement of one sweep row under `entry`
/// (registered as `scheduler`): the static-dispatch path when
/// `static_dispatch` is set and the key resolves to a static row, the
/// erased factory otherwise. Prefers valid results, then the fastest
/// wall time. `threads` must already be clamped via effective_threads().
AlgoResult measure_sweep_row(const SchedulerEntry& entry,
                             std::string_view scheduler,
                             const AlgorithmEntry& algo,
                             std::string_view algo_name,
                             const GraphInstance& graph, unsigned threads,
                             const ParamMap& run_params, bool static_dispatch,
                             const AlgoReference* ref, int reps);

/// `--dispatch static` -> true, no --dispatch -> false. Any other value
/// returns nullopt after pointing at --batch-size on `err`: the erased
/// path has one loop, and its batch size is its only knob.
std::optional<bool> parse_static_dispatch(const ArgParser& args,
                                          std::ostream& err);

/// Whether `scheduler`'s rows run static: `want_static` and the key has
/// a static entry. Notes the erased fallback on `err` otherwise.
bool row_dispatch_static(bool want_static, std::string_view scheduler,
                         std::ostream& err);

/// The "dispatch" label of a run (table column, JSON key, perf-gate row
/// key): `static` for static dispatch, else `batched` when the
/// batch-size in `params` is above 1 and `virtual` at 1.
std::string_view dispatch_label(bool static_dispatch, const ParamMap& params);

struct SuiteOptions {
  std::vector<unsigned> threads;  // empty = the suite's default sweep
  int reps = 1;
  bool validate = true;
  bool static_dispatch = false;  // --dispatch static
  ParamMap cli_params;        // --key value tunables + graph overrides
  std::string algo_override;  // empty = suite default
  std::string graph_override;
  std::string graph_cache;    // --graph-cache DIR; empty = no cache
  std::string json_path;      // --json PATH|-; empty = table only
};

/// Expand `suite` into its preset x threads sweep, validate against the
/// sequential oracle, print the table (and JSON when requested) to
/// `out`. Returns 0 on success, 1 when any row failed validation, 2 on
/// configuration errors.
int run_suite(const SuiteDef& suite, const SuiteOptions& opts,
              std::ostream& out, std::ostream& err);

/// The suite CLI: --threads/--reps/--dispatch/--json/--graph/--algo/
/// --graph-cache/--no-validate plus scheduler and graph tunables.
/// Returns nullopt after explaining a malformed value on `err`.
std::optional<SuiteOptions> parse_suite_options(const ArgParser& args,
                                                std::ostream& err);

/// Full CLI entry point over run_suite() for `smq_run --suite NAME`.
int run_suite_main(std::string_view suite_name, int argc, char** argv);

}  // namespace smq

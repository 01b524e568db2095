// The one sweep runner behind every smq_run sweep and figure suite.
//
// A SuiteDef (suites.h) names (scheduler, per-run params) tuples;
// run_suite() measures each at every thread count, validates it against
// the sequential oracle and prints one table (plus optional JSON). The
// figure suites (`smq_run --suite fig3_6`, bench_fig2_main_comparison)
// and the ad-hoc `smq_run --sched a,b[,auto]` sweep, which sweep_suite()
// expands into an unnamed SuiteDef, go through this one loop, so "a suite
// emits the same rows as an ad-hoc sweep" holds by construction. `auto`
// resolves per thread count through tuning::resolve_auto. A row's NUMA
// columns come from the params it ran with (CLI under the run's pins),
// read by parse_numa as the factories read them.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "registry/params.h"
#include "registry/suites.h"

namespace smq {

class ArgParser;

/// `--dispatch static` -> true, no --dispatch -> false. Any other value
/// returns nullopt after pointing at --batch-size on `err`: the erased
/// path has one loop, and its batch size is its only knob.
std::optional<bool> parse_static_dispatch(const ArgParser& args,
                                          std::ostream& err);

/// The "dispatch" label of a run (table column, JSON key, perf-gate row
/// key): `static` for static dispatch, else `batched` when the
/// batch-size in `params` is above 1 and `virtual` at 1.
std::string_view dispatch_label(bool static_dispatch, const ParamMap& params);

/// The params one suite run executes with: the sweep's `params` under
/// the run's own, which win — they are the suite's sweep axis.
ParamMap merge_run_params(const ParamMap& params, const ParamMap& run_params);

/// A `--sched` list: comma-separated registry keys and `auto`; "all" is
/// every registered scheduler. Throws std::invalid_argument naming the
/// nearest key for an unknown name.
std::vector<std::string> parse_sched_list(std::string_view list);

/// The ad-hoc sweep `--sched sched_list` as an unnamed suite: one run
/// per scheduler at smq_run's default of 4 threads. Throws
/// std::invalid_argument on an unknown scheduler.
SuiteDef sweep_suite(std::string_view sched_list);

/// Throws std::invalid_argument naming the flag when `cli_params` sets a
/// scheduler tunable that none of `schedulers` takes (`auto` stands for
/// every key its rows can pick), so a flag paired with the wrong key
/// never runs that key's defaults in silence. A key some graph source or
/// algorithm registers (`seed`, `batch-size`) is theirs to read.
void check_scheduler_flags(const std::vector<std::string>& schedulers,
                           const ParamMap& cli_params);

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

/// The sweep CLI: --threads/--reps/--dispatch/--json/--graph/--algo/
/// --graph-cache/--no-validate plus scheduler and graph tunables.
/// Returns nullopt after explaining a malformed value on `err`.
std::optional<SuiteOptions> parse_suite_options(const ArgParser& args,
                                                std::ostream& err);

/// Run `suite`'s (scheduler, params) x threads sweep, validate every row
/// against the sequential oracle, print the table (and JSON when
/// requested) to `out`. Rows are best-of-`reps`; the JSON is
/// tools/perf_check.py's input format. Returns 0 on success, 1 when any
/// row failed validation, 2 on configuration errors (an unknown
/// scheduler, graph or algorithm, a malformed tunable, or a scheduler
/// tunable no row's key takes).
int run_suite(const SuiteDef& suite, const SuiteOptions& opts,
              std::ostream& out, std::ostream& err);

}  // namespace smq

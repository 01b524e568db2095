// Figure suites: the paper's ablation studies and NUMA tables as
// declarative sweeps.
//
// A suite names the exact (scheduler key, per-run params) tuples,
// thread counts and default graph that reproduce one figure or table of
// conf_ppopp_PostnikovaKNA22 through the registry runners. Every grid
// point is a registry key with the point's knobs as run params, under
// the label the figure gives it (`obim` at delta-shift 4 and chunk-size
// 64 is "obim-d4/chunk-size=64"; the MQ baseline is `mq` at c = 4,
// "mq-c4 (baseline)"); a NUMA-table row sets `numa` (the node count)
// and `numa-k` (K). `smq_run
// --suite fig3_6` runs a suite through registry/suite_runner.h, the
// same runner an ad-hoc `--sched` sweep goes through — so every
// figure's configuration is enumerable, validated against the
// sequential oracle, and gateable by tools/perf_check.py.
// The expansions are golden-tested in tests/test_suite_expansion.cpp;
// change them deliberately.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "registry/params.h"

namespace smq {

/// One row group of a suite: a registry scheduler key plus the tunables
/// this run pins on top of it.
struct SuiteRun {
  std::string scheduler;  // SchedulerRegistry key
  ParamMap params;        // per-run tunable overrides (win over the CLI)
  std::string label;      // display name; empty = derived from the above
};

struct SuiteDef {
  std::string name;         // CLI key, e.g. "fig3_6"; empty = ad-hoc sweep
  std::string figure;       // the paper artifact, e.g. "Figures 3-6"
  std::string description;  // one-liner for listings
  std::string algo = "sssp";
  std::string graph = "rand";
  ParamMap graph_params;            // graph defaults (CLI overrides win)
  std::vector<unsigned> threads;    // default thread sweep
  std::vector<SuiteRun> runs;
};

/// Every registered suite, in listing order.
const std::vector<SuiteDef>& suites();

const SuiteDef* find_suite(std::string_view name);

std::vector<std::string> suite_names();

/// The display label of a run: its explicit label, else the scheduler
/// key with any per-run params appended ("smq/numa=2/numa-k=8").
std::string suite_run_label(const SuiteRun& run);

/// Error text for an unknown suite name, listing every valid one.
std::string unknown_suite_message(std::string_view name);

}  // namespace smq

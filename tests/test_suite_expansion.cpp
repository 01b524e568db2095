// Golden tests for the figure suites (registry/suites.h): each --suite
// name must expand to the exact key/params/threads tuples of its paper
// figure, under the figure's row labels, every run must name a
// registered scheduler with documented tunables, and the CLI-facing
// parsers (suite lookup, thread sweep spec) must reject garbage
// helpfully. The expansions are
// the reproduction recipe for conf_ppopp_PostnikovaKNA22 — change them
// deliberately, with the figure open.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/suite_runner.h"
#include "registry/suites.h"
#include "support/cli.h"

namespace smq {
namespace {

using Tuple = std::pair<std::string, std::string>;  // (scheduler, key param)

std::vector<Tuple> grid_of(const SuiteDef& suite, const std::string& param,
                           std::size_t from = 1) {
  std::vector<Tuple> grid;
  for (std::size_t i = from; i < suite.runs.size(); ++i) {
    grid.emplace_back(suite.runs[i].scheduler,
                      suite.runs[i].params.get(param));
  }
  return grid;
}

// ---- registry-level invariants --------------------------------------------

TEST(SuiteRegistry, ListsExactlyTheEightPaperSuites) {
  const std::vector<std::string> expected{
      "fig1",     "fig3_6",     "fig7_14",   "fig15_16",
      "fig19_20", "table2_3", "table16_23", "table24_27"};
  EXPECT_EQ(suite_names(), expected);
  for (const std::string& name : expected) {
    EXPECT_NE(find_suite(name), nullptr) << name;
  }
}

TEST(SuiteRegistry, UnknownSuiteIsRejectedWithTheFullListing) {
  EXPECT_EQ(find_suite("fig999"), nullptr);
  EXPECT_EQ(find_suite(""), nullptr);
  const std::string msg = unknown_suite_message("fig999");
  EXPECT_NE(msg.find("fig999"), std::string::npos);
  for (const std::string& name : suite_names()) {
    EXPECT_NE(msg.find(name), std::string::npos)
        << "listing must offer " << name;
  }
}

/// Every suite must stay runnable as the registries evolve: known
/// algorithm and graph source, registered schedulers, per-run params
/// restricted to the scheduler's documented tunables, unique row labels
/// (they are the JSON row key tools/perf_check.py matches on).
TEST(SuiteRegistry, EveryRunNamesARegisteredSchedulerWithDocumentedTunables) {
  for (const SuiteDef& suite : suites()) {
    SCOPED_TRACE(suite.name);
    EXPECT_FALSE(suite.figure.empty());
    EXPECT_FALSE(suite.threads.empty());
    EXPECT_FALSE(suite.runs.empty());
    EXPECT_NE(AlgorithmRegistry::instance().find(suite.algo), nullptr);
    EXPECT_NE(GraphRegistry::instance().find(suite.graph), nullptr);
    std::set<std::string> labels;
    for (const SuiteRun& run : suite.runs) {
      SCOPED_TRACE(run.scheduler);
      const SchedulerEntry* entry =
          SchedulerRegistry::instance().find(run.scheduler);
      ASSERT_NE(entry, nullptr) << "suite names unregistered scheduler";
      EXPECT_TRUE(labels.insert(suite_run_label(run)).second)
          << "duplicate row label: " << suite_run_label(run);
      for (const auto& [key, value] : run.params.entries()) {
        const bool documented =
            std::any_of(entry->tunables.begin(), entry->tunables.end(),
                        [&key = key](const Tunable& t) { return t.name == key; });
        EXPECT_TRUE(documented) << "param '" << key << "' is not a tunable of "
                                << run.scheduler;
        EXPECT_FALSE(value.empty());
      }
    }
  }
}

TEST(SuiteRegistry, RunLabelsDeriveFromSchedulerAndParams) {
  SuiteRun run;
  run.scheduler = "obim";
  run.params.set("delta-shift", "4");
  run.params.set("chunk-size", "64");
  EXPECT_EQ(suite_run_label(run), "obim/chunk-size=64/delta-shift=4");
  run.label = "custom";
  EXPECT_EQ(suite_run_label(run), "custom");
}

// ---- golden expansions ----------------------------------------------------

/// Every speedup figure's first row: the classic MQ (`mq`) pinned at
/// C = 4 under the paper's baseline label.
void expect_mq_baseline(const SuiteRun& run) {
  EXPECT_EQ(run.scheduler, "mq");
  EXPECT_EQ(run.params.entries(), params_of({{"c", "4"}}).entries());
  EXPECT_EQ(suite_run_label(run), "mq-c4 (baseline)");
}

/// An SMQ ablation row's params: p_steal = 1/`denom` at `steal_size`.
ParamMap smq_ablation_params(int denom, const char* steal_size) {
  return params_of({{"p-steal", "1/" + std::to_string(denom)},
                    {"steal-size", steal_size}});
}

TEST(SuiteExpansion, Fig1IsThePStealStealSizeGrid) {
  const SuiteDef* suite = find_suite("fig1");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->algo, "sssp");
  EXPECT_EQ(suite->threads, std::vector<unsigned>{4});
  ASSERT_EQ(suite->runs.size(), 25u);
  expect_mq_baseline(suite->runs[0]);  // the figures' baseline
  std::vector<std::string> labels;
  std::vector<ParamMap> params;
  for (const int denom : {2, 4, 8, 16, 32, 64}) {
    for (const char* size : {"1", "4", "16", "64"}) {
      labels.push_back("smq-p" + std::to_string(denom) +
                       "/steal-size=" + size);
      params.push_back(smq_ablation_params(denom, size));
    }
  }
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    EXPECT_EQ(suite->runs[i].scheduler, "smq") << i;
    EXPECT_EQ(suite->runs[i].params.entries(), params[i - 1].entries()) << i;
    EXPECT_EQ(suite_run_label(suite->runs[i]), labels[i - 1]);
  }
}

TEST(SuiteExpansion, Fig3_6IsTheObimPmodDeltaChunkGrid) {
  const SuiteDef* suite = find_suite("fig3_6");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->threads, std::vector<unsigned>{4});
  ASSERT_EQ(suite->runs.size(), 37u);
  expect_mq_baseline(suite->runs[0]);
  std::vector<Tuple> expected;
  std::vector<std::string> shifts;
  std::vector<std::string> labels;
  for (const std::string scheduler : {"obim", "pmod"}) {
    for (const unsigned shift : {0u, 2u, 4u, 8u, 12u, 16u}) {
      const std::string s = std::to_string(shift);
      for (const char* chunk : {"16", "64", "256"}) {
        expected.emplace_back(scheduler, chunk);
        shifts.push_back(s);
        labels.push_back(scheduler + "-d" + s + "/chunk-size=" + chunk);
      }
    }
  }
  EXPECT_EQ(grid_of(*suite, "chunk-size"), expected);
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    EXPECT_EQ(suite->runs[i].params.get("delta-shift"), shifts[i - 1]) << i;
    EXPECT_EQ(suite->runs[i].params.entries().size(), 2u) << i;
    EXPECT_EQ(suite_run_label(suite->runs[i]), labels[i - 1]);
  }
}

TEST(SuiteExpansion, Fig7_14IsTheStickinessAndBufferDiagonal) {
  const SuiteDef* suite = find_suite("fig7_14");
  ASSERT_NE(suite, nullptr);
  ASSERT_EQ(suite->runs.size(), 13u);
  expect_mq_baseline(suite->runs[0]);
  std::vector<std::string> schedulers;
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    schedulers.push_back(suite->runs[i].scheduler);
  }
  // Stickiness p = 1/1 is the classic MQ, kept under its sweep label.
  EXPECT_EQ(suite_run_label(suite->runs[1]), "mq-tl-p1");
  EXPECT_TRUE(suite->runs[1].params.entries().empty());
  std::vector<std::string> expected(12, "mq-opt");
  expected[0] = "mq";
  EXPECT_EQ(schedulers, expected);
  // The stickiness rows are (1, 1/D) on both sides, labelled mq-tl-p<D>.
  const std::vector<std::string> denoms{"4", "16", "64", "256", "1024"};
  for (std::size_t i = 0; i < denoms.size(); ++i) {
    const SuiteRun& run = suite->runs[2 + i];
    EXPECT_EQ(suite_run_label(run), "mq-tl-p" + denoms[i]);
    EXPECT_EQ(run.params.entries(),
              params_of({{"insert-batch", "1"},
                         {"p-insert", "1/" + denoms[i]},
                         {"delete-batch", "1"},
                         {"p-delete", "1/" + denoms[i]}})
                  .entries());
  }
  // The buffer rows sweep insert = delete batch along the diagonal, at
  // p = 1 on both sides.
  for (std::size_t i = 7; i < suite->runs.size(); ++i) {
    const SuiteRun& run = suite->runs[i];
    EXPECT_EQ(run.params.get("insert-batch"), run.params.get("delete-batch"));
    EXPECT_EQ(run.params.get("p-insert"), "1");
    EXPECT_EQ(run.params.get("p-delete"), "1");
  }
  EXPECT_EQ(suite->runs[7].params.get("insert-batch"), "1");
  EXPECT_EQ(suite->runs[12].params.get("insert-batch"), "1024");
}

TEST(SuiteExpansion, Fig15_16IsTheOptimizationComboStack) {
  const SuiteDef* suite = find_suite("fig15_16");
  ASSERT_NE(suite, nullptr);
  ASSERT_EQ(suite->runs.size(), 5u);
  // The mq-c4 baseline is the combo with no optimization.
  expect_mq_baseline(suite->runs[0]);
  const std::vector<std::string> labels{
      "mq-c4 (baseline)", "mq-tl-p16 (TL/TL)", "mq-opt (B/B)",
      "mq-opt-full (B/TL)", "mq-opt (TL/B)"};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(suite_run_label(suite->runs[i]), labels[i]) << i;
    EXPECT_EQ(suite->runs[i].scheduler, i == 0 ? "mq" : "mq-opt") << i;
  }
  // Each combo spells its (B, p) insert / (B, p) delete on mq-opt; B/B
  // is mq-opt's defaults.
  EXPECT_TRUE(suite->runs[2].params.entries().empty());
  const std::vector<std::pair<std::size_t, std::vector<std::string>>> combos{
      {1, {"1", "1/16", "1", "1/16"}},
      {3, {"16", "1", "1", "1/16"}},
      {4, {"1", "1/16", "16", "1"}}};
  for (const auto& [row, combo] : combos) {
    const SuiteRun& run = suite->runs[row];
    EXPECT_EQ(run.params.get("insert-batch"), combo[0]) << row;
    EXPECT_EQ(run.params.get("p-insert"), combo[1]) << row;
    EXPECT_EQ(run.params.get("delete-batch"), combo[2]) << row;
    EXPECT_EQ(run.params.get("p-delete"), combo[3]) << row;
  }
}

TEST(SuiteExpansion, Fig19_20PairsSkipListAndHeapVariants) {
  const SuiteDef* suite = find_suite("fig19_20");
  ASSERT_NE(suite, nullptr);
  ASSERT_EQ(suite->runs.size(), 31u);
  expect_mq_baseline(suite->runs[0]);
  std::vector<Tuple> expected;
  std::vector<std::string> labels;
  std::vector<ParamMap> params;
  for (const auto& [scheduler, label_prefix] :
       {std::pair{"smq-skiplist", "smq-sl-p"}, std::pair{"smq", "smq-p"}}) {
    for (const int denom : {2, 4, 8, 16, 32}) {
      for (const char* size : {"1", "8", "64"}) {
        expected.emplace_back(scheduler, size);
        labels.push_back(label_prefix + std::to_string(denom) +
                         "/steal-size=" + size);
        params.push_back(smq_ablation_params(denom, size));
      }
    }
  }
  EXPECT_EQ(grid_of(*suite, "steal-size"), expected);
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    EXPECT_EQ(suite->runs[i].params.entries(), params[i - 1].entries()) << i;
    EXPECT_EQ(suite_run_label(suite->runs[i]), labels[i - 1]);
  }
}

TEST(SuiteExpansion, Table2_3IsTheClassicMqCSweep) {
  const SuiteDef* suite = find_suite("table2_3");
  ASSERT_NE(suite, nullptr);
  ASSERT_EQ(suite->runs.size(), 5u);
  const std::vector<std::string> cs{"1", "2", "4", "8", "16"};
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_EQ(suite_run_label(suite->runs[i]), "mq-c" + cs[i]) << i;
    EXPECT_EQ(suite->runs[i].scheduler, "mq") << i;
    EXPECT_EQ(suite->runs[i].params.entries(), params_of({{"c", cs[i]}}).entries())
        << i;
  }
}

/// The NUMA tables' K axis, in the paper's order.
const std::vector<std::string> kNumaKs{"1",  "2",  "4",   "8",  "16",
                                       "32", "64", "128", "256"};

TEST(SuiteExpansion, Table16_23IsTheMqComboNumaGrid) {
  const SuiteDef* suite = find_suite("table16_23");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->algo, "sssp");
  EXPECT_EQ(suite->threads, std::vector<unsigned>{4});
  ASSERT_EQ(suite->runs.size(), 37u);
  expect_mq_baseline(suite->runs[0]);
  EXPECT_FALSE(suite->runs[0].params.has("numa"));
  std::vector<Tuple> expected;
  std::vector<std::string> labels;
  for (const char* combo : {"TL/TL", "TL/B", "B/TL", "B/B"}) {
    for (const std::string& k : kNumaKs) {
      expected.emplace_back("mq-opt", k);
      labels.push_back(std::string(combo) + " K=" + k);
    }
  }
  EXPECT_EQ(grid_of(*suite, "numa-k"), expected);
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    EXPECT_EQ(suite->runs[i].params.get("numa"), "2") << i;
    EXPECT_EQ(suite_run_label(suite->runs[i]), labels[i - 1]);
  }
  // The four blocks are TL/TL, TL/B, B/TL and B/B at p = 1/16 and
  // buffers of 16, spelled (B, p) insert / (B, p) delete.
  const std::vector<std::vector<std::string>> combos{
      {"1", "1/16", "1", "1/16"}, {"1", "1/16", "16", "1"},
      {"16", "1", "1", "1/16"}, {"16", "1", "16", "1"}};
  for (std::size_t block = 0; block < combos.size(); ++block) {
    for (std::size_t i = 0; i < kNumaKs.size(); ++i) {
      const SuiteRun& run = suite->runs[1 + block * kNumaKs.size() + i];
      EXPECT_EQ(run.params.get("insert-batch"), combos[block][0]);
      EXPECT_EQ(run.params.get("p-insert"), combos[block][1]);
      EXPECT_EQ(run.params.get("delete-batch"), combos[block][2]);
      EXPECT_EQ(run.params.get("p-delete"), combos[block][3]);
    }
  }
}

TEST(SuiteExpansion, Table24_27IsTheSmqNumaGrid) {
  const SuiteDef* suite = find_suite("table24_27");
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->algo, "sssp");
  EXPECT_EQ(suite->threads, std::vector<unsigned>{4});
  ASSERT_EQ(suite->runs.size(), 19u);
  expect_mq_baseline(suite->runs[0]);
  std::vector<Tuple> expected;
  for (const char* scheduler : {"smq", "smq-skiplist"}) {
    for (const std::string& k : kNumaKs) {
      expected.emplace_back(scheduler, k);
    }
  }
  EXPECT_EQ(grid_of(*suite, "numa-k"), expected);
  for (std::size_t i = 1; i < suite->runs.size(); ++i) {
    EXPECT_EQ(suite->runs[i].params.entries(),
              params_of({{"numa", "2"}, {"numa-k", kNumaKs[(i - 1) % 9]}})
                  .entries())
        << "SMQ rows pin only the numa point";
  }
}

// ---- sweep-spec CLI parsing -----------------------------------------------

TEST(SweepSpecParsing, ThreadListsParseAndRejectGarbage) {
  EXPECT_EQ(parse_thread_list("1,2,8"), (std::vector<unsigned>{1, 2, 8}));
  EXPECT_EQ(parse_thread_list("4"), std::vector<unsigned>{4});
  EXPECT_THROW(parse_thread_list("0"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("-2"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("abc"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("2x"), std::invalid_argument);
  // Overflow must be rejected, not narrowed: 2^32 + 1 would otherwise
  // wrap to a silent 1-thread sweep.
  EXPECT_THROW(parse_thread_list("4294967297"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(parse_thread_list(""), std::invalid_argument);
  EXPECT_THROW(parse_thread_list(","), std::invalid_argument);
}

// ---- end-to-end through the shared runner ---------------------------------

/// The smallest real suite, run end to end on a tiny graph: every row
/// must validate, and the JSON must carry the suite name plus one
/// uniquely-labelled row per config (the contract perf_check.py and the
/// CI artifact rely on).
TEST(SuiteRunner, Table2_3RunsEndToEndAndEmitsLabelledJson) {
  const SuiteDef* suite = find_suite("table2_3");
  ASSERT_NE(suite, nullptr);
  SuiteOptions opts;
  opts.threads = {2};
  opts.cli_params.set("vertices", "300");
  opts.json_path = "-";  // JSON to `out`, after the table
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_suite(*suite, opts, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"suite\": \"table2_3\""), std::string::npos);
  for (const SuiteRun& run : suite->runs) {
    EXPECT_NE(text.find("\"scheduler\": \"" + suite_run_label(run) + "\""),
              std::string::npos)
        << suite_run_label(run);
  }
  EXPECT_EQ(text.find("\"valid\": false"), std::string::npos)
      << "a row failed oracle validation:\n" << text;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

/// The number `key` holds in the JSON row whose "scheduler" is `label`
/// (the writer puts "scheduler" first in each row); NaN when the row or
/// the key is missing.
double row_number(const std::string& json, const std::string& label,
                  const std::string& key) {
  const std::size_t row = json.find("\"scheduler\": \"" + label + "\"");
  if (row == std::string::npos) return std::nan("");
  const std::size_t next = json.find("\"scheduler\": ", row + 1);
  const std::size_t at = json.find("\"" + key + "\": ", row);
  if (at == std::string::npos || at > next) return std::nan("");
  return std::stod(json.substr(at + key.size() + 4));
}

/// A NUMA-table row pins its topology through the per-run `numa` and
/// `numa-k` params: at 2 threads the two virtual nodes are built, so the
/// scheduler samples steal victims through the weighted sampler and the
/// row's JSON carries the sampled and remote access counts plus the
/// point it ran.
TEST(SuiteRunner, NumaSuiteRowReachesTheScheduler) {
  const SuiteDef* table = find_suite("table24_27");
  ASSERT_NE(table, nullptr);
  SuiteDef suite = *table;
  suite.runs = {suite.runs[4]};  // smq on 2 nodes at K = 8
  ASSERT_EQ(suite.runs[0].params.get("numa"), "2");
  ASSERT_EQ(suite.runs[0].params.get("numa-k"), "8");
  SuiteOptions opts;
  opts.threads = {2};
  opts.cli_params.set("vertices", "2000");
  opts.json_path = "-";
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_suite(suite, opts, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"valid\": true"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"valid\": false"), std::string::npos) << text;
  const std::size_t key = text.find("\"sampled_accesses\": ");
  ASSERT_NE(key, std::string::npos) << "no sampled accesses:\n" << text;
  EXPECT_GT(std::stoull(text.substr(key + 20)), 0u) << text;
  EXPECT_NE(text.find("\"remote_frac\": "), std::string::npos);
  // The NUMA columns come from the run's own params, as on a CLI row:
  // at 2 threads on 2 nodes, SMQ's only steal victim is the other thread,
  // on the other node, so E = 0 and every sampled access is remote.
  const std::string label = "smq/numa=2/numa-k=8";
  EXPECT_EQ(row_number(text, label, "numa_nodes"), 2.0) << text;
  EXPECT_EQ(row_number(text, label, "numa_k"), 8.0) << text;
  EXPECT_NEAR(row_number(text, label, "internal_frac_expected"), 0.0, 1e-9)
      << text;
  EXPECT_EQ(row_number(text, label, "remote_frac"), 1.0) << text;

  // A CLI numa-k must not flatten the K axis: each run pins its own K.
  // At 4 threads each node holds two threads, so K shows in SMQ's
  // victim choice: the K=64 row stays on its node far more than K=1.
  SuiteDef k_axis = *table;
  k_axis.runs = {table->runs[1], table->runs[4], table->runs[7]};
  ASSERT_EQ(k_axis.runs[0].params.get("numa-k"), "1");
  ASSERT_EQ(k_axis.runs[1].params.get("numa-k"), "8");
  ASSERT_EQ(k_axis.runs[2].params.get("numa-k"), "64");
  opts.threads = {4};
  opts.cli_params.set("vertices", "4000");
  opts.cli_params.set("numa-k", "1");
  std::ostringstream k_out;
  ASSERT_EQ(run_suite(k_axis, opts, k_out, err), 0) << err.str();
  const std::string k_text = k_out.str();
  const double uniform =
      row_number(k_text, "smq/numa=2/numa-k=1", "remote_frac");
  const double weighted =
      row_number(k_text, "smq/numa=2/numa-k=64", "remote_frac");
  ASSERT_FALSE(std::isnan(uniform) || std::isnan(weighted)) << k_text;
  EXPECT_LT(weighted, uniform / 2) << k_text;
  EXPECT_EQ(row_number(k_text, "smq/numa=2/numa-k=64", "numa_k"), 64.0)
      << k_text;
  // The analytic E is what the victim sampler measures: 1 - E is the
  // remote fraction of victims drawn among the other three threads.
  for (const char* k : {"1", "8", "64"}) {
    const std::string row = std::string("smq/numa=2/numa-k=") + k;
    const double expected = row_number(k_text, row, "internal_frac_expected");
    const double remote = row_number(k_text, row, "remote_frac");
    EXPECT_NEAR(remote, 1.0 - expected, 0.05) << row << "\n" << k_text;
  }
}

/// CLI tunables flow into suite rows, but a run's own grid params win —
/// otherwise one --steal-size would flatten fig1's sweep axis.
TEST(SuiteRunner, RunGridParamsWinOverCliTunables) {
  const SuiteDef* suite = find_suite("fig15_16");
  ASSERT_NE(suite, nullptr);
  SuiteOptions opts;
  opts.threads = {1};
  opts.cli_params.set("vertices", "200");
  opts.cli_params.set("delete-batch", "1");  // conflicts with TL/B row
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_suite(*suite, opts, out, err), 0) << err.str();
  // The TL/B row pins delete-batch=16 in its grid params; the run
  // completing validly (and the suite exiting 0) shows the row params
  // were applied over the CLI conflict rather than dropped.
  EXPECT_NE(out.str().find("mq-opt (TL/B)"), std::string::npos);
}

// ---- the ad-hoc sweep as an unnamed suite ---------------------------------

TEST(SweepSuite, PlainSweepIsOneUnpinnedRunPerScheduler) {
  const SuiteDef suite = sweep_suite("smq,auto");
  EXPECT_TRUE(suite.name.empty());
  EXPECT_EQ(suite.threads, std::vector<unsigned>{4});
  EXPECT_EQ(grid_of(suite, "numa", 0),
            (std::vector<Tuple>{{"smq", ""}, {"auto", ""}}));
  for (const SuiteRun& run : suite.runs) {
    EXPECT_EQ(suite_run_label(run), run.scheduler);
  }
  EXPECT_EQ(sweep_suite("all").runs.size(),
            SchedulerRegistry::instance().names().size());
}

TEST(SweepSuite, RejectsUnknownSchedulers) {
  try {
    sweep_suite("smq,smq-skiplst");
    ADD_FAILURE() << "unknown scheduler accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'smq-skiplist'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepSuite, PlainSweepJsonHasNoSuiteOrNumaKeys) {
  std::ostringstream err;
  SuiteOptions opts;
  opts.threads = {2};
  opts.cli_params.set("vertices", "300");
  opts.json_path = "-";
  std::ostringstream out;
  ASSERT_EQ(run_suite(sweep_suite("smq,mq"), opts, out, err), 0)
      << err.str();
  const std::string text = out.str();
  EXPECT_EQ(text.find("\"suite\""), std::string::npos) << text;
  EXPECT_EQ(text.find("suite:"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"numa_nodes\""), std::string::npos) << text;
  EXPECT_EQ(text.find("\"numa_k\""), std::string::npos) << text;
  EXPECT_EQ(text.find("\"preset\""), std::string::npos) << text;
  EXPECT_EQ(count_of(text, "\"scheduler\": \"smq\""), 1u);
  EXPECT_EQ(count_of(text, "\"scheduler\": \"mq\""), 1u);
  EXPECT_EQ(count_of(text, "\"valid\": true"), 2u) << text;
}

/// A NUMA point set on the command line reaches the row's JSON as it
/// reaches the scheduler: node count, K and E for the schedulers that
/// take K, the node count alone for OBIM, nothing for a scheduler that
/// takes no `numa`.
TEST(SweepSuite, CliNumaRowsReportThePointTheyRan) {
  std::ostringstream err;
  SuiteOptions opts;
  opts.threads = {2};
  opts.cli_params.set("vertices", "2000");
  opts.cli_params.set("numa", "2");
  opts.cli_params.set("numa-k", "8");
  opts.json_path = "-";
  std::ostringstream out;
  ASSERT_EQ(run_suite(sweep_suite("smq,mq,obim,sequential"), opts, out, err),
            0)
      << err.str();
  const std::string text = out.str();
  for (const char* row : {"smq", "mq"}) {
    SCOPED_TRACE(row);
    EXPECT_EQ(row_number(text, row, "numa_nodes"), 2.0) << text;
    EXPECT_EQ(row_number(text, row, "numa_k"), 8.0) << text;
    const double expected = row_number(text, row, "internal_frac_expected");
    EXPECT_GE(expected, 0.0) << text;
    EXPECT_LE(expected, 1.0) << text;
    // On two nodes the measured remote fraction is 1 - E.
    EXPECT_NEAR(row_number(text, row, "remote_frac"), 1.0 - expected, 0.05)
        << text;
  }
  EXPECT_EQ(row_number(text, "obim", "numa_nodes"), 2.0) << text;
  EXPECT_TRUE(std::isnan(row_number(text, "obim", "numa_k"))) << text;
  EXPECT_TRUE(std::isnan(row_number(text, "sequential", "numa_nodes")))
      << text;
  EXPECT_EQ(count_of(text, "\"valid\": true"), 4u) << text;
}

/// A malformed NUMA point is a configuration error (exit 2) before any
/// row runs, never a silent UMA run.
TEST(SweepSuite, MalformedNumaPointIsAConfigurationError) {
  for (const auto& [key, value] :
       {std::pair{"numa", "2,k=8"}, std::pair{"numa", "banana"},
        std::pair{"numa-k", "0"}}) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    SuiteOptions opts;
    opts.threads = {2};
    opts.cli_params.set("vertices", "300");
    opts.cli_params.set(key, value);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_suite(sweep_suite("mq"), opts, out, err), 2);
    EXPECT_NE(err.str().find(key), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << "ran before rejecting:\n" << out.str();
  }
}

/// So is a tunable its scheduler's factory rejects: a value that does
/// not parse whole, or a count below 1.
TEST(SweepSuite, MalformedTunableIsAConfigurationError) {
  for (const auto& [sched, key, value] :
       {std::tuple{"smq", "p-steal", "banana"},
        std::tuple{"smq", "steal-size", "16x"},
        std::tuple{"mq-opt", "c", "0"},
        std::tuple{"obim", "delta-shift", "1e6"}}) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    SuiteOptions opts;
    opts.threads = {2};
    opts.cli_params.set("vertices", "300");
    opts.cli_params.set(key, value);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_suite(sweep_suite(sched), opts, out, err), 2);
    EXPECT_NE(err.str().find(key), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << "ran before rejecting:\n" << out.str();
  }
}

/// So is a scheduler tunable that none of the sweep's keys takes: it
/// would run the key's defaults in silence. The message names the flag
/// and the keys that take it.
TEST(SweepSuite, FlagNoKeyTakesIsAConfigurationError) {
  for (const auto& [sched, key, value, taker] :
       {std::tuple{"obim", "p-steal", "1/16", "smq"},
        std::tuple{"mq", "insert-batch", "64", "mq-opt"},
        std::tuple{"smq,sequential", "chunk-size", "16", "obim"}}) {
    SCOPED_TRACE(std::string(sched) + " --" + key);
    SuiteOptions opts;
    opts.threads = {1};
    opts.cli_params.set("vertices", "300");
    opts.cli_params.set(key, value);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(run_suite(sweep_suite(sched), opts, out, err), 2);
    EXPECT_NE(err.str().find(std::string("--") + key), std::string::npos)
        << err.str();
    EXPECT_NE(err.str().find(taker), std::string::npos) << err.str();
    EXPECT_TRUE(out.str().empty()) << "ran before rejecting:\n" << out.str();
  }
  // A flag one of the keys takes applies to that key; `auto` takes what
  // its picks (smq, pmod) take; a key a graph source or algorithm reads
  // is theirs.
  EXPECT_NO_THROW(check_scheduler_flags({"mq", "mq-opt"},
                                        params_of({{"insert-batch", "64"}})));
  EXPECT_NO_THROW(check_scheduler_flags(
      {"auto"}, params_of({{"delta-shift", "4"}, {"steal-size", "2"}})));
  EXPECT_THROW(check_scheduler_flags({"auto"}, params_of({{"c", "2"}})),
               std::invalid_argument);
  EXPECT_NO_THROW(check_scheduler_flags(
      {"sequential"},
      params_of({{"seed", "3"}, {"batch-size", "8"}, {"vertices", "300"}})));
}

TEST(SweepSuite, AutoRowsReportARegisteredPresetPerThreadCount) {
  std::ostringstream err;
  SuiteOptions opts;
  opts.threads = {1, 4};
  opts.cli_params.set("vertices", "2000");
  opts.json_path = "-";
  std::ostringstream out;
  ASSERT_EQ(run_suite(sweep_suite("auto"), opts, out, err), 0)
      << err.str();
  const std::string text = out.str();
  EXPECT_EQ(count_of(text, "\"scheduler\": \"auto\""), 2u) << text;
  EXPECT_EQ(count_of(text, "\"auto\": true"), 2u) << text;
  EXPECT_EQ(count_of(text, "\"auto_match\": "), 2u) << text;
  EXPECT_EQ(count_of(text, "\"auto_why\": "), 2u) << text;
  EXPECT_EQ(count_of(text, "\"valid\": true"), 2u) << text;
  const std::string key = "\"preset\": \"";
  std::size_t presets = 0;
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1), ++presets) {
    const std::size_t from = at + key.size();
    const std::string preset = text.substr(from, text.find('"', from) - from);
    EXPECT_NE(SchedulerRegistry::instance().find(preset), nullptr) << preset;
  }
  EXPECT_EQ(presets, 2u) << text;
}

/// A pick with params runs at them, over the CLI's, and shows them: BFS
/// on a road graph picks pmod at delta-shift 4, which the table label
/// and the row's JSON params carry.
TEST(SweepSuite, AutoPickRunsAndReportsItsParams) {
  std::ostringstream err;
  SuiteOptions opts;
  opts.threads = {1};
  opts.algo_override = "bfs";
  opts.graph_override = "road";
  opts.cli_params.set("vertices", "2000");
  opts.cli_params.set("delta-shift", "10");
  opts.json_path = "-";
  std::ostringstream out;
  ASSERT_EQ(run_suite(sweep_suite("auto"), opts, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("-> pmod/delta-shift=4 [exact]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("auto:pmod/delta-shift=4"), std::string::npos) << text;
  EXPECT_NE(text.find("\"preset\": \"pmod\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"delta-shift\": \"4\""), std::string::npos) << text;

  // The same run as naming the pick by hand.
  SuiteOptions by_hand = opts;
  by_hand.cli_params.set("delta-shift", "4");
  std::ostringstream hand_out;
  ASSERT_EQ(run_suite(sweep_suite("pmod"), by_hand, hand_out, err), 0)
      << err.str();
  EXPECT_EQ(row_number(text, "auto", "tasks"),
            row_number(hand_out.str(), "pmod", "tasks"))
      << text << hand_out.str();
}

// ---- dispatch flag and row labels -----------------------------------------

ArgParser parse_argv(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "smq_run");
  return ArgParser(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()));
}

/// The erased path has one loop, so the old loop names are gone: they
/// must fail and point at the knob that replaced them.
TEST(DispatchFlag, OldLoopNamesAreRejectedNamingBatchSize) {
  for (const char* mode : {"virtual", "batched"}) {
    std::ostringstream err;
    EXPECT_EQ(parse_static_dispatch(parse_argv({"--dispatch", mode}), err),
              std::nullopt)
        << mode;
    EXPECT_NE(err.str().find("--batch-size"), std::string::npos)
        << mode << ": " << err.str();
  }
  std::ostringstream err;
  EXPECT_EQ(parse_static_dispatch(parse_argv({"--dispatch", "static"}), err),
            std::optional<bool>(true));
  EXPECT_EQ(parse_static_dispatch(parse_argv({"--batch-size", "64"}), err),
            std::optional<bool>(false));
  EXPECT_TRUE(err.str().empty()) << err.str();
}

TEST(DispatchFlag, LabelsFollowBatchSizeAndStaticDispatch) {
  ParamMap params;
  EXPECT_EQ(dispatch_label(false, params), "virtual");
  EXPECT_EQ(dispatch_label(true, params), "static");
  params.set("batch-size", "1");
  EXPECT_EQ(dispatch_label(false, params), "virtual");
  params.set("batch-size", "2");
  EXPECT_EQ(dispatch_label(false, params), "batched");
  params.set("batch-size", "64");
  EXPECT_EQ(dispatch_label(false, params), "batched");
  EXPECT_EQ(dispatch_label(true, params), "static");
}

/// Every JSON "dispatch" key of a suite run (the report's and each
/// row's, which the perf gate keys baselines on) carries the label.
TEST(DispatchFlag, SuiteJsonRowsCarryTheDerivedLabel) {
  const SuiteDef* suite = find_suite("table2_3");
  ASSERT_NE(suite, nullptr);
  struct Case {
    bool static_dispatch;
    const char* batch_size;
    std::string label;
  };
  for (const Case& c : {Case{false, "1", "virtual"},
                        Case{false, "8", "batched"},
                        Case{true, "8", "static"}}) {
    SuiteOptions opts;
    opts.threads = {2};
    opts.static_dispatch = c.static_dispatch;
    opts.cli_params.set("vertices", "300");
    opts.cli_params.set("batch-size", c.batch_size);
    opts.json_path = "-";
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(run_suite(*suite, opts, out, err), 0) << err.str();
    const std::string text = out.str();
    EXPECT_EQ(count_of(text, "\"dispatch\": \"" + c.label + "\""),
              suite->runs.size() + 1)
        << c.label;
    EXPECT_EQ(count_of(text, "\"dispatch\": "), suite->runs.size() + 1)
        << c.label;
  }
}

}  // namespace
}  // namespace smq

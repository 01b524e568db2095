// Conformance of the compiled-in `--sched auto` rows: keys are unique,
// every row names a registered algorithm and a registered scheduler that
// runs oracle-valid at the row's min_threads and params, the lookup rule picks the
// largest min_threads <= threads and falls back to smq, and `auto`
// itself is oracle-valid at 1 and 4 threads on each graph class.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "tuning/auto_select.h"
#include "tuning/fingerprint.h"

namespace smq::tuning {
namespace {

/// One small registry graph per class, from the generators the rows
/// were measured on.
const GraphInstance& class_graph(GraphClass cls) {
  static const std::map<GraphClass, GraphInstance>* graphs = [] {
    auto* m = new std::map<GraphClass, GraphInstance>();
    ParamMap road;
    road.set("vertices", "3000");
    ParamMap rand;
    rand.set("vertices", "3000");
    rand.set("edges", "24000");
    ParamMap rmat;
    rmat.set("scale", "11");
    auto& reg = GraphRegistry::instance();
    m->emplace(GraphClass::kRoad, reg.create("road", road));
    m->emplace(GraphClass::kUniform, reg.create("rand", rand));
    m->emplace(GraphClass::kSocial, reg.create("rmat", rmat));
    return m;
  }();
  return graphs->at(cls);
}

/// Run `scheduler` at `params` x `algo_name` at `threads` on `inst`
/// against the oracle.
void expect_oracle_valid(const std::string& scheduler, const ParamMap& params,
                         std::string_view algo_name, const GraphInstance& inst,
                         unsigned threads) {
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
  ASSERT_NE(algo, nullptr);
  const SchedulerEntry* entry = SchedulerRegistry::instance().find(scheduler);
  ASSERT_NE(entry, nullptr) << "unregistered scheduler '" << scheduler << "'";
  const AlgoReference ref = algo->make_reference(inst, {});
  const unsigned eff = effective_threads(*entry, threads);
  AnyScheduler sched = entry->make(eff, params);
  const AlgoResult result = algo->run(inst, sched, eff, params, &ref);
  EXPECT_TRUE(result.validated);
  EXPECT_TRUE(result.valid) << config_label(scheduler, params) << " failed the "
                            << algo_name << " oracle at " << eff << " threads";
}

/// Strictly increasing keys: sorted, and no key appears twice.
TEST(TuningConformance, RowKeysAreUniqueAndSorted) {
  const auto rows = auto_rows();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const AutoRow& a = rows[i - 1];
    const AutoRow& b = rows[i];
    EXPECT_LT(std::make_tuple(a.cls, a.algorithm, a.min_threads),
              std::make_tuple(b.cls, b.algorithm, b.min_threads))
        << to_string(b.cls) << '/' << b.algorithm << " from "
        << b.min_threads << "t is duplicated or out of order";
  }
}

TEST(TuningConformance, RowsNameRegisteredKeysThatRunAtMinThreads) {
  for (const AutoRow& row : auto_rows()) {
    const std::string where = std::string(to_string(row.cls)) + '/' +
                              std::string(row.algorithm) + " from " +
                              std::to_string(row.min_threads) + "t";
    SCOPED_TRACE(where);
    EXPECT_GE(row.min_threads, 1u);
    EXPECT_FALSE(row.measured.empty()) << "provenance missing";
    ASSERT_NE(AlgorithmRegistry::instance().find(row.algorithm), nullptr);
    const SchedulerEntry* entry =
        SchedulerRegistry::instance().find(row.scheduler);
    ASSERT_NE(entry, nullptr)
        << "unregistered scheduler '" << row.scheduler << "'";
    // A single-threaded entry in a 4t row would silently under-deliver.
    EXPECT_EQ(effective_threads(*entry, row.min_threads), row.min_threads);
    // Every param is a tunable the key documents.
    for (const auto& [key, value] : row.params.entries()) {
      EXPECT_TRUE(entry->takes(key)) << key;
    }
    expect_oracle_valid(std::string(row.scheduler), row.params,
                        row.algorithm, class_graph(row.cls), row.min_threads);
  }
}

TEST(TuningConformance, LookupTakesTheLargestMinThreadsAtOrBelow) {
  for (const AutoRow& row : auto_rows()) {
    SCOPED_TRACE(std::string(row.scheduler));
    const AutoSelection sel =
        select_scheduler(row.cls, row.algorithm, row.min_threads);
    EXPECT_EQ(sel.match, MatchKind::kExact);
    EXPECT_EQ(sel.scheduler, row.scheduler);
    EXPECT_EQ(sel.params.entries(), row.params.entries());
    // The provenance note names the key with its params.
    EXPECT_NE(describe_selection(sel, row.algorithm, row.min_threads)
                  .find("-> " + config_label(row.scheduler, row.params)),
              std::string::npos);
    EXPECT_NE(sel.why.find(row.measured), std::string::npos);
    // Every thread count above min_threads resolves to this row or to
    // a later one of the same key (larger min_threads).
    const AutoSelection above =
        select_scheduler(row.cls, row.algorithm, row.min_threads + 64);
    bool later_row = false;
    for (const AutoRow& other : auto_rows()) {
      later_row |= other.cls == row.cls && other.algorithm == row.algorithm &&
                   other.min_threads > row.min_threads;
    }
    if (!later_row) {
      EXPECT_EQ(above.scheduler, row.scheduler);
    }
  }
}

TEST(TuningConformance, KeysWithoutARowFallBackToSmq) {
  // SSSP and A* have no row on any class: with stealing, smq beat every
  // former row's pick (see auto_select.cpp).
  for (const GraphClass cls :
       {GraphClass::kRoad, GraphClass::kUniform, GraphClass::kSocial}) {
    for (const char* algo : {"pagerank", "sssp", "astar"}) {
      SCOPED_TRACE(std::string(to_string(cls)) + '/' + algo);
      const AutoSelection sel = select_scheduler(cls, algo, 4);
      EXPECT_EQ(sel.scheduler, kDefaultScheduler);
      EXPECT_TRUE(sel.params.entries().empty());
      EXPECT_EQ(sel.match, MatchKind::kDefault);
      EXPECT_NE(sel.why.find("paper default"), std::string::npos);
    }
  }
  // Zero threads is treated as one, never as "below every row".
  for (const AutoRow& row : auto_rows()) {
    if (row.min_threads != 1) continue;
    EXPECT_EQ(select_scheduler(row.cls, row.algorithm, 0).scheduler,
              row.scheduler);
  }
}

/// The acceptance path: on each class, `auto` resolves to a registered
/// key and params that match the sequential oracle at 1 and 4 threads.
TEST(TuningConformance, AutoIsOracleValidOnEveryClass) {
  for (const GraphClass cls :
       {GraphClass::kRoad, GraphClass::kUniform, GraphClass::kSocial}) {
    const GraphInstance& inst = class_graph(cls);
    for (const char* algo : {"sssp", "bfs", "astar"}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(to_string(cls)) + '/' + algo + " @ " +
                     std::to_string(threads) + 't');
        const std::optional<AutoSelection> pick =
            resolve_auto(kAutoSchedulerName, inst, algo, threads);
        ASSERT_TRUE(pick.has_value());
        const AutoSelection& sel = *pick;
        EXPECT_EQ(sel.cls, cls);
        EXPECT_FALSE(sel.why.empty());
        expect_oracle_valid(sel.scheduler, sel.params, algo, inst, threads);
      }
    }
  }
}

}  // namespace
}  // namespace smq::tuning

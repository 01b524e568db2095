// Registry conformance: every key in the scheduler registry must
// actually execute — SSSP and BFS on a random graph at 1 and 4 threads,
// validated against the sequential oracle — and so must every distinct
// (key, params) grid point of every figure suite (registry/suites.h)
// and of the one-axis sweeps no suite runs (RELD's queues per thread,
// the delta and p_steal sweeps at the other knob's default). No future
// key or suite row can land unexecuted, because this suite enumerates
// the registry listing and the suites rather than naming schedulers.
//
// The same registry listing must also survive degenerate inputs: a
// single vertex, zero edges, a source with no out-edges, and all-equal
// weights, on SSSP, BFS and A* at 1 and 4 threads.
//
// Also the static/virtual consistency self-check: every key with a
// static-dispatch row must build the same underlying config on both
// paths, at its defaults and at every grid point's params. Both paths
// read params through the same builders (scheduler_configs.h), and this
// test pins that equivalence down at the config-struct level.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/chunk_bag.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/skiplist.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_configs.h"
#include "registry/scheduler_registry.h"
#include "registry/static_dispatch.h"
#include "registry/suites.h"

namespace smq {
namespace {

const GraphInstance& small_graph() {
  static const GraphInstance* inst = [] {
    ParamMap params;
    params.set("vertices", "400");
    params.set("seed", "5");
    return new GraphInstance(GraphRegistry::instance().create("rand", params));
  }();
  return *inst;
}

/// The full registry listing x `algos` x {1, 4} threads on `inst`, every
/// cell validated against the sequential oracle.
void expect_every_key_solves(const GraphInstance& inst,
                             std::initializer_list<const char*> algos) {
  for (const char* algo_name : algos) {
    const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
    ASSERT_NE(algo, nullptr);
    const AlgoReference ref = algo->make_reference(inst, {});
    for (const SchedulerEntry& entry :
         SchedulerRegistry::instance().entries()) {
      for (const unsigned requested : {1u, 4u}) {
        SCOPED_TRACE(inst.name + "/" + algo_name + "/" + entry.name +
                     "/threads=" + std::to_string(requested));
        const unsigned threads = effective_threads(entry, requested);
        AnyScheduler sched = entry.make(threads, {});
        ASSERT_TRUE(static_cast<bool>(sched));
        const AlgoResult result = algo->run(inst, sched, threads, {}, &ref);
        EXPECT_TRUE(result.validated);
        EXPECT_TRUE(result.valid) << entry.name << " failed the oracle";
      }
    }
  }
}

TEST(PresetConformance, EveryRegisteredSchedulerSolvesSsspAndBfsExactly) {
  ASSERT_EQ(SchedulerRegistry::instance().entries().size(), 10u)
      << "one key per scheduler; did a registration go missing?";
  expect_every_key_solves(small_graph(), {"sssp", "bfs"});
}

/// The one-axis sweeps no suite runs, each at the other knob's default:
/// RELD's queues per thread (the multi-queue-per-thread enqueue path),
/// OBIM/PMOD's delta at the default chunk size (`auto` picks pmod at
/// delta-shift 4) and SMQ's p_steal at the default steal size.
std::vector<SuiteRun> one_axis_sweeps() {
  std::vector<SuiteRun> runs;
  for (const char* c : {"2", "4", "8"}) {
    runs.push_back({"reld", params_of({{"c", c}}), ""});
  }
  for (const char* shift : {"0", "2", "4", "8", "12", "16"}) {
    for (const char* key : {"obim", "pmod"}) {
      runs.push_back({key, params_of({{"delta-shift", shift}}), ""});
    }
  }
  for (const char* p : {"1/2", "1/4", "1/16", "1/32", "1/64"}) {
    for (const char* key : {"smq", "smq-skiplist"}) {
      runs.push_back({key, params_of({{"p-steal", p}}), ""});
    }
  }
  return runs;
}

/// Every distinct (key, params) row of every suite, in suite order, then
/// the one-axis sweeps none of them runs.
std::vector<SuiteRun> grid_points() {
  std::vector<SuiteRun> rows;
  std::set<std::pair<std::string, std::map<std::string, std::string>>> seen;
  const auto add = [&](const SuiteRun& run) {
    if (seen.emplace(run.scheduler, run.params.entries()).second) {
      rows.push_back(run);
    }
  };
  for (const SuiteDef& suite : suites()) {
    for (const SuiteRun& run : suite.runs) add(run);
  }
  for (const SuiteRun& run : one_axis_sweeps()) add(run);
  return rows;
}

/// The grid points the figure suites and the one-axis sweeps measure:
/// each must solve SSSP and BFS exactly at 1 and 4 threads.
TEST(PresetConformance, EveryGridPointSolvesSsspAndBfsExactly) {
  // 172 suite rows, 18 of them repeats (the MQ baseline, the SMQ grid
  // points fig1 and fig19_20 share, and TL/TL at p = 1/16), plus the 25
  // one-axis points, none of which a suite runs.
  const std::vector<SuiteRun> rows = grid_points();
  ASSERT_EQ(rows.size(), 154u + 25u);
  const GraphInstance& inst = small_graph();
  for (const char* algo_name : {"sssp", "bfs"}) {
    const AlgorithmEntry* algo = AlgorithmRegistry::instance().find(algo_name);
    ASSERT_NE(algo, nullptr);
    const AlgoReference ref = algo->make_reference(inst, {});
    for (const SuiteRun& run : rows) {
      const SchedulerEntry* entry =
          SchedulerRegistry::instance().find(run.scheduler);
      ASSERT_NE(entry, nullptr) << run.scheduler;
      for (const unsigned requested : {1u, 4u}) {
        SCOPED_TRACE(std::string(algo_name) + "/" +
                     config_label(run.scheduler, run.params) +
                     "/threads=" + std::to_string(requested));
        const unsigned threads = effective_threads(*entry, requested);
        AnyScheduler sched = entry->make(threads, run.params);
        const AlgoResult result =
            algo->run(inst, sched, threads, run.params, &ref);
        EXPECT_TRUE(result.validated);
        EXPECT_TRUE(result.valid)
            << suite_run_label(run) << " failed the oracle";
      }
    }
  }
}

/// At one thread each scheduler below pops in exact priority order, so
/// BFS on a road graph runs exactly the sequential scheduler's task
/// count: SMQ and the skip lists have one queue, OBIM/PMOD at delta 1
/// keep one level per priority, mq at c 1 compares the tops of both of
/// LockedQueueArray's (padded) queues on every delete, and RELD's
/// enqueues may not land in the padding queue. (mq at its default C = 4
/// samples two of four queues even at one thread, so it is left out.)
TEST(PresetConformance, ExactSchedulersRunTheSequentialTaskCountAtOneThread) {
  ParamMap params;
  params.set("vertices", "3000");
  const GraphInstance road = GraphRegistry::instance().create("road", params);
  const AlgorithmEntry* bfs = AlgorithmRegistry::instance().find("bfs");
  ASSERT_NE(bfs, nullptr);
  const auto tasks = [&](const char* name, const ParamMap& p) {
    AnyScheduler sched = SchedulerRegistry::instance().create(name, 1, p);
    return bfs->run(road, sched, 1, p, nullptr).run.stats.pops;
  };
  const auto sequential = tasks("sequential", {});
  const ParamMap delta1 = params_of({{"delta-shift", "0"}});
  for (const auto& [name, p] :
       {std::pair{"smq", ParamMap{}}, std::pair{"smq-skiplist", ParamMap{}},
        std::pair{"lockfree-skiplist", ParamMap{}},
        std::pair{"spraylist", ParamMap{}}, std::pair{"obim", delta1},
        std::pair{"pmod", delta1}, std::pair{"mq", params_of({{"c", "1"}})},
        std::pair{"reld", ParamMap{}}}) {
    EXPECT_EQ(tasks(name, p), sequential) << config_label(name, p);
  }
}

GraphInstance instance_of(std::string name, VertexId n, std::vector<Edge> edges,
                          VertexId target) {
  GraphInstance inst;
  inst.graph = std::make_shared<const Graph>(Graph::from_edges(n, std::move(edges)));
  inst.name = std::move(name);
  inst.default_target = target;
  return inst;
}

/// The four degenerate inputs, each solved from vertex 0.
TEST(PresetConformance, EveryRegisteredSchedulerSolvesDegenerateInputs) {
  constexpr VertexId kN = 64;
  // Edges lead into vertex 0 and around the other vertices, but none
  // leave vertex 0.
  std::vector<Edge> sink;
  for (VertexId v = 1; v < kN; ++v) {
    sink.push_back({v, 0, 3});
    sink.push_back({v, static_cast<VertexId>(v % (kN - 1) + 1), 5});
  }
  // Many equal-length paths: every priority tie at once.
  std::vector<Edge> equal;
  for (VertexId v = 0; v < kN; ++v) {
    for (const VertexId step : {1u, 7u, 13u}) {
      equal.push_back({v, static_cast<VertexId>((v + step) % kN), 9});
    }
  }
  for (const GraphInstance& inst :
       {instance_of("single-vertex", 1, {}, 0),
        instance_of("zero-edges", kN, {}, kN - 1),
        instance_of("source-without-out-edges", kN, std::move(sink), kN - 1),
        instance_of("all-equal-weights", kN, std::move(equal), kN / 2)}) {
    expect_every_key_solves(inst, {"sssp", "bfs", "astar"});
  }
}

/// Obim clamps chunk_size into [1, Chunk::kCapacity] at construction;
/// mirror it so the config comparison checks what actually runs.
ObimConfig clamped(ObimConfig cfg) {
  if (cfg.chunk_size == 0) cfg.chunk_size = 1;
  if (cfg.chunk_size > Chunk::kCapacity) cfg.chunk_size = Chunk::kCapacity;
  return cfg;
}

/// `actual` equals `expected` except for the topology pointer: each
/// side built its own simulated topology, so those must merely agree on
/// the node count.
template <typename Config>
void expect_same(const Config& actual, Config expected,
                 const std::shared_ptr<Topology>& topo) {
  ASSERT_EQ(actual.topology != nullptr, topo != nullptr);
  if (topo) {
    EXPECT_EQ(actual.topology->num_nodes(), topo->num_nodes());
  }
  expected.topology = actual.topology;
  EXPECT_EQ(actual, expected);
}

/// The config the static path hands `scheduler`'s config builder for
/// `params`, checked against what the virtual factory constructed.
void expect_same_config(const std::string& scheduler, const ParamMap& params,
                        unsigned threads) {
  using SmqHeap = StealingMultiQueue<DAryHeap<Task, 4>>;
  using SmqSkipList = StealingMultiQueue<SequentialSkipList>;
  SCOPED_TRACE(config_label(scheduler, params));
  AnyScheduler sched =
      SchedulerRegistry::instance().create(scheduler, threads, params);
  std::shared_ptr<Topology> topo;
  if (scheduler == "smq") {
    auto* s = sched.get_if<SmqHeap>();
    ASSERT_NE(s, nullptr);
    expect_same(s->config(), make_smq_config(threads, params, topo), topo);
  } else if (scheduler == "smq-skiplist") {
    auto* s = sched.get_if<SmqSkipList>();
    ASSERT_NE(s, nullptr);
    expect_same(s->config(), make_smq_config(threads, params, topo), topo);
  } else if (scheduler == "mq-opt") {
    auto* s = sched.get_if<OptimizedMultiQueue>();
    ASSERT_NE(s, nullptr);
    expect_same(s->config(), make_optimized_mq_config(threads, params, topo),
                topo);
  } else if (scheduler == "mq") {
    auto* s = sched.get_if<OptimizedMultiQueue>();
    ASSERT_NE(s, nullptr);
    expect_same(s->config(), make_classic_mq_config(threads, params, topo),
                topo);
  } else if (scheduler == "obim") {
    auto* s = sched.get_if<Obim>();
    ASSERT_NE(s, nullptr);
    expect_same(s->config(), clamped(make_obim_config(threads, params, topo)),
                topo);
  } else if (scheduler == "pmod") {
    auto* s = sched.get_if<Pmod>();
    ASSERT_NE(s, nullptr);
    ObimConfig expected = make_pmod_config(threads, params, topo);
    expected.adaptive = true;  // the Pmod constructor's one amendment
    expect_same(s->config(), clamped(expected), topo);
  } else {
    ADD_FAILURE() << "static scheduler '" << scheduler
                  << "' has no config check; add one here";
  }
}

/// The registry self-check: every key with a static-dispatch row must
/// hand the same underlying config to the static path as the virtual
/// factory builds, at its defaults and at every grid point's params. A
/// mismatch here means `--dispatch static` would silently benchmark a
/// different configuration.
TEST(PresetConformance, StaticDispatchResolvesTheSameConfigAsVirtual) {
  const unsigned threads = 4;
  unsigned checked = 0;
  for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
    if (!has_static_dispatch(entry.name)) continue;
    expect_same_config(entry.name, {}, threads);
    ++checked;
  }
  // smq, smq-skiplist, mq-opt, mq, obim and pmod.
  EXPECT_EQ(checked, 6u);
  for (const SuiteRun& run : grid_points()) {
    if (has_static_dispatch(run.scheduler)) {
      expect_same_config(run.scheduler, run.params, threads);
    }
  }
}

/// Static dispatch must execute grid points end to end (not merely
/// build them): run one per static key through run_static_dispatch and
/// validate against the oracle.
TEST(PresetConformance, StaticDispatchRunsGridPointsEndToEnd) {
  const GraphInstance& inst = small_graph();
  const AlgorithmEntry* sssp = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(sssp, nullptr);
  const AlgoReference ref = sssp->make_reference(inst, {});
  for (const auto& [scheduler, params] :
       {std::pair{"smq", params_of({{"p-steal", "1/16"}})},
        std::pair{"smq-skiplist", params_of({{"p-steal", "1/4"}})},
        std::pair{"mq", params_of({{"c", "2"}})},
        std::pair{"mq-opt", params_of({{"insert-batch", "1"},
                                       {"p-insert", "1/16"},
                                       {"delete-batch", "1"},
                                       {"p-delete", "1/16"}})},
        std::pair{"obim", params_of({{"delta-shift", "4"}})},
        std::pair{"pmod", params_of({{"delta-shift", "2"}})}}) {
    SCOPED_TRACE(config_label(scheduler, params));
    ASSERT_TRUE(has_static_dispatch(scheduler));
    const std::optional<AlgoResult> result =
        run_static_dispatch(scheduler, "sssp", inst, 2, params, &ref);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->validated);
    EXPECT_TRUE(result->valid);
  }
  // The long tail stays virtual-only — and says so via the predicate.
  EXPECT_FALSE(has_static_dispatch("reld"));
  EXPECT_FALSE(has_static_dispatch("no-such-sched"));
}

}  // namespace
}  // namespace smq

// Preset conformance: every key in the scheduler registry — builtins and
// the full preset namespace (obim-d*, pmod-d*, mq-c*, smq-p*, smq-sl-p*,
// mq-tl-p*, reld-c*, mq-opt-*) — must actually execute: SSSP and BFS on
// a random graph at 1 and 4 threads, validated against the sequential
// oracle. No future preset can land unexecuted, because this suite
// enumerates the registry listing rather than naming schedulers.
//
// The same registry listing must also survive degenerate inputs: a
// single vertex, zero edges, a source with no out-edges, and all-equal
// weights, on SSSP, BFS and A* at 1 and 4 threads.
//
// Also the static/virtual consistency self-check: every key with a
// static-dispatch row must resolve to the same underlying config on
// both paths. Presets share one param-resolution function
// (resolve_preset_params) between their virtual factory and
// run_static_dispatch, and this test pins that equivalence down at the
// config-struct level.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
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
  ASSERT_GE(SchedulerRegistry::instance().entries().size(), 44u)
      << "the preset namespace shrank; did a registration go missing?";
  expect_every_key_solves(small_graph(), {"sssp", "bfs"});
}

/// RELD at one thread with one queue per thread is one exact queue: its
/// enqueues may not land in LockedQueueArray's padding queue, so BFS on
/// a road graph runs exactly the sequential scheduler's task count.
TEST(PresetConformance, ReldIsExactAtOneThread) {
  ParamMap params;
  params.set("vertices", "3000");
  const GraphInstance road = GraphRegistry::instance().create("road", params);
  const AlgorithmEntry* bfs = AlgorithmRegistry::instance().find("bfs");
  ASSERT_NE(bfs, nullptr);
  const auto tasks = [&](const char* name) {
    AnyScheduler sched = SchedulerRegistry::instance().create(name, 1);
    return bfs->run(road, sched, 1, {}, nullptr).run.stats.pops;
  };
  EXPECT_EQ(tasks("reld"), tasks("sequential"));
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

/// Pinned preset knobs must win over conflicting caller params — that
/// is the contract that makes a preset a fixed figure configuration.
TEST(PresetConformance, PinnedKnobsWinOverCallerParams) {
  ParamMap conflicting;
  conflicting.set("p-insert", "1");
  conflicting.set("p-delete", "1");
  conflicting.set("insert-batch", "16");
  AnyScheduler sched =
      SchedulerRegistry::instance().create("mq-tl-p16", 2, conflicting);
  auto* mq = sched.get_if<OptimizedMultiQueue>();
  ASSERT_NE(mq, nullptr);
  EXPECT_EQ(mq->config().insert_batch, 1u);
  EXPECT_DOUBLE_EQ(mq->config().p_insert_change, 1.0 / 16);
  EXPECT_DOUBLE_EQ(mq->config().p_delete_change, 1.0 / 16);
}

/// Preset defaults only fill gaps; explicit caller params survive.
TEST(PresetConformance, PresetDefaultsYieldToCallerParams) {
  ParamMap params;
  params.set("insert-batch", "8");
  AnyScheduler sched =
      SchedulerRegistry::instance().create("mq-opt-full", 2, params);
  auto* mq = sched.get_if<OptimizedMultiQueue>();
  ASSERT_NE(mq, nullptr);
  EXPECT_DOUBLE_EQ(mq->config().p_insert_change, 1.0);       // pinned
  EXPECT_EQ(mq->config().delete_batch, 1u);                  // pinned
  EXPECT_EQ(mq->config().insert_batch, 8u);                  // caller
  EXPECT_DOUBLE_EQ(mq->config().p_delete_change, 1.0 / 16);  // default
}

/// Obim clamps chunk_size into [1, Chunk::kCapacity] at construction;
/// mirror it so the config comparison checks what actually runs.
ObimConfig clamped(ObimConfig cfg) {
  if (cfg.chunk_size == 0) cfg.chunk_size = 1;
  if (cfg.chunk_size > Chunk::kCapacity) cfg.chunk_size = Chunk::kCapacity;
  return cfg;
}

/// The registry self-check (ISSUE 4 satellite): every key with a
/// static-dispatch row — including every preset whose family has one —
/// must hand the same underlying config to the static path as the
/// virtual factory builds. A mismatch here means `--dispatch static`
/// would silently benchmark a different configuration.
TEST(PresetConformance, StaticDispatchResolvesTheSameConfigAsVirtual) {
  using SmqHeap = StealingMultiQueue<DAryHeap<Task, 4>>;
  using SmqSkipList = StealingMultiQueue<SequentialSkipList>;
  const unsigned threads = 4;
  unsigned checked = 0;
  for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
    if (!has_static_dispatch(entry.name)) continue;
    SCOPED_TRACE(entry.name);
    const std::string family = entry.family.empty() ? entry.name : entry.family;
    // What run_static_dispatch feeds the family's config builder...
    const ParamMap resolved = resolve_preset_params(entry, {});
    // ...versus the concrete scheduler the virtual factory constructed.
    AnyScheduler sched = entry.make(threads, {});
    std::shared_ptr<Topology> topo;
    if (family == "smq") {
      auto* s = sched.get_if<SmqHeap>();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->config(), make_smq_config(threads, resolved, topo));
    } else if (family == "smq-skiplist") {
      auto* s = sched.get_if<SmqSkipList>();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->config(), make_smq_config(threads, resolved, topo));
    } else if (family == "mq-opt") {
      auto* s = sched.get_if<OptimizedMultiQueue>();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->config(), make_optimized_mq_config(threads, resolved, topo));
    } else if (family == "obim") {
      auto* s = sched.get_if<Obim>();
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->config(), clamped(make_obim_config(threads, resolved, topo)));
    } else if (family == "pmod") {
      auto* s = sched.get_if<Pmod>();
      ASSERT_NE(s, nullptr);
      ObimConfig expected = make_pmod_config(threads, resolved, topo);
      expected.adaptive = true;  // the Pmod constructor's one amendment
      EXPECT_EQ(s->config(), clamped(expected));
    } else {
      ADD_FAILURE() << "static family '" << family
                    << "' has no config check; add one here";
    }
    ++checked;
  }
  // smq(+5 presets), smq-skiplist(+4), mq-opt(+11: mq, mq-c*, mq-tl-p*
  // and mq-opt-full), obim(+6), pmod(+6): the check must cover the whole
  // static-capable namespace.
  EXPECT_GE(checked, 37u);
}

/// Static dispatch must execute preset keys end to end (not merely
/// resolve them): run a representative of each family through
/// run_static_dispatch and validate against the oracle.
TEST(PresetConformance, StaticDispatchRunsPresetKeysEndToEnd) {
  const GraphInstance& inst = small_graph();
  const AlgorithmEntry* sssp = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(sssp, nullptr);
  const AlgoReference ref = sssp->make_reference(inst, {});
  for (const char* preset : {"smq-p16", "smq-sl-p4", "mq-c2", "mq-tl-p16",
                             "mq-opt-full", "obim-d4", "pmod-d2"}) {
    SCOPED_TRACE(preset);
    ASSERT_TRUE(has_static_dispatch(preset));
    const std::optional<AlgoResult> result =
        run_static_dispatch(preset, "sssp", inst, 2, {}, &ref);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->validated);
    EXPECT_TRUE(result->valid);
  }
  // The long tail stays virtual-only — and says so via the predicate.
  EXPECT_FALSE(has_static_dispatch("reld-c2"));
  EXPECT_FALSE(has_static_dispatch("no-such-sched"));
}

}  // namespace
}  // namespace smq

// The registry subsystem: every registered scheduler must run a small
// SSSP instance to the exact sequential distances through the
// type-erased AnyScheduler path, configs must parse, and the graph and
// algorithm registries must compose.
#include "registry/scheduler_registry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/sssp.h"
#include "graph/binary_io.h"
#include "core/stealing_multiqueue.h"
#include "graph/generators.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/skiplist.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_configs.h"

namespace smq {
namespace {

// ---- scheduler registry ---------------------------------------------------

/// One key per scheduler: a grid point of the paper's evaluation is a
/// key plus params, never a key of its own.
TEST(SchedulerRegistry, ListsOneKeyPerScheduler) {
  EXPECT_EQ(SchedulerRegistry::instance().names(),
            (std::vector<std::string>{"smq", "smq-skiplist", "mq-opt", "mq",
                                      "obim", "pmod", "spraylist", "reld",
                                      "lockfree-skiplist", "sequential"}));
}

TEST(SchedulerRegistry, UnknownNameIsAnError) {
  EXPECT_EQ(SchedulerRegistry::instance().find("no-such-sched"), nullptr);
  EXPECT_THROW(SchedulerRegistry::instance().create("no-such-sched", 2),
               std::invalid_argument);
}

TEST(SchedulerRegistry, SequentialClampsToOneThread) {
  const SchedulerEntry* entry = SchedulerRegistry::instance().find("sequential");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(effective_threads(*entry, 8), 1u);
  EXPECT_EQ(effective_threads(*entry, 0), 1u);
  const SchedulerEntry* smq = SchedulerRegistry::instance().find("smq");
  ASSERT_NE(smq, nullptr);
  EXPECT_EQ(effective_threads(*smq, 8), 8u);
}

/// The skip-list schedulers reclaim with no params: one thread pushes
/// and another pops, so the nodes come back on the popper's side, and
/// repeated fill/drain rounds must reuse them instead of growing arenas.
TEST(SchedulerRegistry, SkipListSchedulersReclaimByDefault) {
  for (const char* name : {"spraylist", "lockfree-skiplist"}) {
    AnyScheduler sched = SchedulerRegistry::instance().create(name, 2, {});
    auto pusher = sched.handle(0);
    auto popper = sched.handle(1);
    constexpr std::uint64_t kPerRound = 3000;
    std::size_t warmup_footprint = 0;
    for (int round = 0; round < 12; ++round) {
      for (std::uint64_t i = 0; i < kPerRound; ++i) pusher.push(Task{i, i});
      for (std::uint64_t i = 0; i < kPerRound; ++i) {
        ASSERT_TRUE(popper.try_pop().has_value()) << name;
      }
      // Idle between rounds, as parked service workers are.
      for (unsigned tid : {0u, 1u, 0u, 1u}) sched.quiesce(tid);
      if (round == 3) warmup_footprint = sched.memory_footprint();
    }
    ASSERT_GT(warmup_footprint, 0u) << name;
    EXPECT_LE(sched.memory_footprint(), warmup_footprint)
        << name << ": arenas kept growing across fill/drain rounds";
  }
}

/// The acceptance smoke test: every registered scheduler, built through
/// its factory with default params, must produce exact SSSP distances on
/// a weighted grid (validated against the sequential baseline).
TEST(SchedulerRegistry, EverySchedulerSolvesSsspExactly) {
  const Graph graph = make_grid2d(24, 24, /*unit_weights=*/false, 7);
  const SequentialSsspResult ref = sequential_sssp(graph, 0);

  for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
    SCOPED_TRACE(entry.name);
    const unsigned threads = effective_threads(entry, 4);
    AnyScheduler sched = entry.make(threads, {});
    ASSERT_TRUE(static_cast<bool>(sched));
    EXPECT_EQ(sched.num_threads(), threads);
    const ShortestPathResult got = parallel_sssp(graph, 0, sched, threads);
    ASSERT_EQ(got.distances.size(), ref.distances.size());
    for (std::size_t v = 0; v < ref.distances.size(); ++v) {
      ASSERT_EQ(got.distances[v], ref.distances[v])
          << entry.name << " differs at vertex " << v;
    }
    EXPECT_GE(got.run.stats.pops, ref.settled);
  }
}

TEST(SchedulerRegistry, ConfiguredSmqStillSolvesSssp) {
  const Graph graph = make_road_like(600, {.seed = 3});
  const SequentialSsspResult ref = sequential_sssp(graph, 0);

  ParamMap params;
  params.set("steal-size", "2");
  params.set("p-steal", "1/2");
  params.set("numa", "2");
  params.set("numa-k", "8");
  params.set("seed", "99");
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 4, params);
  const ShortestPathResult got = parallel_sssp(graph, 0, sched, 4);
  EXPECT_EQ(got.distances, ref.distances);
}

TEST(SchedulerRegistry, NumaKDefaultsAndExplicitValues) {
  using Smq = StealingMultiQueue<DAryHeap<Task, 4>>;
  // "--numa 2" without K: the SMQ's paper default K=8 kicks in.
  ParamMap nodes_only;
  nodes_only.set("numa", "2");
  AnyScheduler defaulted =
      SchedulerRegistry::instance().create("smq", 4, nodes_only);
  ASSERT_NE(defaulted.get_if<Smq>(), nullptr);
  EXPECT_DOUBLE_EQ(defaulted.get_if<Smq>()->config().numa_weight_k, 8.0);

  // An explicit K=1 (uniform sampling ablation point) must survive.
  ParamMap k_one;
  k_one.set("numa", "2");
  k_one.set("numa-k", "1");
  AnyScheduler uniform = SchedulerRegistry::instance().create("smq", 4, k_one);
  ASSERT_NE(uniform.get_if<Smq>(), nullptr);
  EXPECT_DOUBLE_EQ(uniform.get_if<Smq>()->config().numa_weight_k, 1.0);
}

/// The classic MQ is mq-opt at (B, p) = (1, 1) on both sides: `mq`
/// builds the Multi-Queue's default config (paper Listing 1) at C queues
/// per thread, whatever the caller says of the optimization knobs, and
/// offers none of them as a tunable.
TEST(SchedulerRegistry, ClassicMqIsTheDefaultMultiQueueConfig) {
  const ParamMap optimized = params_of({{"insert-batch", "16"},
                                        {"p-insert", "1/16"},
                                        {"delete-batch", "16"},
                                        {"p-delete", "1/16"}});
  ParamMap c2 = optimized;
  c2.set("c", "2");
  for (const auto& [params, c] :
       {std::pair{ParamMap{}, 4u}, std::pair{optimized, 4u},
        std::pair{c2, 2u}}) {
    SCOPED_TRACE(config_label("mq", params));
    AnyScheduler sched = SchedulerRegistry::instance().create("mq", 4, params);
    const auto* mq = sched.get_if<OptimizedMultiQueue>();
    ASSERT_NE(mq, nullptr);
    // K is the registry's default, inert without a topology.
    EXPECT_EQ(mq->config(), (OptimizedMqConfig{.queue_multiplier = c,
                                               .numa_weight_k = kDefaultNumaK}));
  }
  std::vector<std::string> tunables;
  for (const Tunable& t : SchedulerRegistry::instance().find("mq")->tunables) {
    tunables.push_back(t.name);
  }
  EXPECT_EQ(tunables,
            (std::vector<std::string>{"c", "seed", "numa", "numa-k"}));
}

/// The Multi-Queue keys and the combos the figures run on mq-opt as
/// (B, p) insert / (B, p) delete: the batch size and the probability of
/// re-sampling the sticky queue per side.
TEST(SchedulerRegistry, MqKeysHaveTheirGoldenBatchAndStickiness) {
  struct Golden {
    const char* key;
    ParamMap params;
    std::size_t insert_batch;
    double p_insert;
    std::size_t delete_batch;
    double p_delete;
  };
  const auto combo = [](const char* ib, const char* pi, const char* db,
                        const char* pd) {
    return params_of({{"insert-batch", ib},
                      {"p-insert", pi},
                      {"delete-batch", db},
                      {"p-delete", pd}});
  };
  const Golden golden[] = {
      {"mq", {}, 1, 1.0, 1, 1.0},
      {"mq-opt", {}, 16, 1.0, 16, 1.0},
      {"mq-opt", combo("1", "1/16", "1", "1/16"), 1, 1.0 / 16, 1, 1.0 / 16},
      {"mq-opt", combo("16", "1", "1", "1/16"), 16, 1.0, 1, 1.0 / 16},
      {"mq-opt", combo("1", "1/16", "16", "1"), 1, 1.0 / 16, 16, 1.0},
  };
  for (const Golden& g : golden) {
    SCOPED_TRACE(config_label(g.key, g.params));
    AnyScheduler sched =
        SchedulerRegistry::instance().create(g.key, 2, g.params);
    const auto* mq = sched.get_if<OptimizedMultiQueue>();
    ASSERT_NE(mq, nullptr);
    EXPECT_EQ(mq->config().insert_batch, g.insert_batch);
    EXPECT_DOUBLE_EQ(mq->config().p_insert_change, g.p_insert);
    EXPECT_EQ(mq->config().delete_batch, g.delete_batch);
    EXPECT_DOUBLE_EQ(mq->config().p_delete_change, g.p_delete);
  }
  std::vector<std::string> tunables;
  for (const Tunable& t :
       SchedulerRegistry::instance().find("mq-opt")->tunables) {
    tunables.push_back(t.name);
  }
  EXPECT_EQ(tunables, (std::vector<std::string>{
                          "c", "insert-batch", "p-insert", "delete-batch",
                          "p-delete", "seed", "numa", "numa-k"}));
}

/// OBIM shards its bags per node but samples no queues, so it has no
/// remote weight K: its keys offer `numa` as a node count and no K.
TEST(SchedulerRegistry, ObimNumaIsANodeCountWithoutK) {
  for (const char* name : {"obim", "pmod"}) {
    SCOPED_TRACE(name);
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(name);
    ASSERT_NE(entry, nullptr);
    bool has_numa = false;
    for (const Tunable& t : entry->tunables) {
      EXPECT_NE(t.name, "numa-k");
      if (t.name != "numa") continue;
      has_numa = true;
      EXPECT_EQ(t.description.find("k="), std::string::npos) << t.description;
      EXPECT_NE(t.description.find("node count"), std::string::npos);
    }
    EXPECT_TRUE(has_numa);
  }
}

/// A key is a scheduler: no two keys may build the same scheduler type
/// with the same default config, or a sweep would measure one config
/// twice under two names. Only mq and mq-opt share a type (mq is mq-opt
/// at (B, p) = (1, 1)); every other key builds a type of its own.
TEST(SchedulerRegistry, NoTwoKeysResolveToOneConfiguration) {
  const auto distinct_configs = [](auto* tag) {
    using S = std::remove_pointer_t<decltype(tag)>;
    std::vector<std::pair<std::string,
                          std::decay_t<decltype(std::declval<S&>().config())>>>
        seen;
    for (const SchedulerEntry& e : SchedulerRegistry::instance().entries()) {
      AnyScheduler sched = e.make(2, {});
      const S* s = sched.get_if<S>();
      if (s == nullptr) continue;
      for (const auto& [other, config] : seen) {
        EXPECT_FALSE(config == s->config())
            << e.name << " resolves to the same configuration as " << other;
      }
      seen.emplace_back(e.name, s->config());
    }
    return seen.size();
  };
  EXPECT_EQ(distinct_configs(static_cast<OptimizedMultiQueue*>(nullptr)), 2u);
  EXPECT_EQ(distinct_configs(
                static_cast<StealingMultiQueue<DAryHeap<Task, 4>>*>(nullptr)),
            1u);
  EXPECT_EQ(distinct_configs(
                static_cast<StealingMultiQueue<SequentialSkipList>*>(nullptr)),
            1u);
  EXPECT_EQ(distinct_configs(static_cast<Obim*>(nullptr)), 1u);
  EXPECT_EQ(distinct_configs(static_cast<Pmod*>(nullptr)), 1u);
}

/// Every size knob is a count or length of at least 1; anything else
/// names the knob instead of running an empty batch, no queues, a
/// wrapped-around size_t or the parsed prefix of "4x".
void expect_size_knob_rejected(const char* scheduler, const char* knob) {
  for (const char* bad : {"0", "-1", "abc", "4x"}) {
    SCOPED_TRACE(std::string(knob) + "=" + bad);
    try {
      SchedulerRegistry::instance().create(scheduler, 2,
                                           params_of({{knob, bad}}));
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(SchedulerRegistry::instance().create(
      scheduler, 2, params_of({{knob, "1"}})));
}

TEST(SchedulerRegistry, InsertBatchBelowOneIsRejected) {
  expect_size_knob_rejected("mq-opt", "insert-batch");
}

TEST(SchedulerRegistry, DeleteBatchBelowOneIsRejected) {
  expect_size_knob_rejected("mq-opt", "delete-batch");
}

TEST(SchedulerRegistry, StealSizeBelowOneIsRejected) {
  expect_size_knob_rejected("smq", "steal-size");
  expect_size_knob_rejected("smq-skiplist", "steal-size");
}

TEST(SchedulerRegistry, ChunkSizeBelowOneIsRejected) {
  expect_size_knob_rejected("obim", "chunk-size");
  expect_size_knob_rejected("pmod", "chunk-size");
}

TEST(SchedulerRegistry, QueuesPerThreadBelowOneIsRejected) {
  for (const char* scheduler : {"mq", "mq-opt", "reld"}) {
    expect_size_knob_rejected(scheduler, "c");
  }
}

TEST(SchedulerRegistry, TunablesAreDocumented) {
  for (const char* tuned : {"smq", "mq", "mq-opt", "obim", "pmod"}) {
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(tuned);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->tunables.empty()) << tuned;
    EXPECT_FALSE(entry->description.empty()) << tuned;
  }
}

// ---- param map ------------------------------------------------------------

TEST(ParamMap, TypedGetters) {
  ParamMap params;
  params.set("steal-size", "16");
  params.set("p-steal", "1/8");
  params.set("k", "2.5");
  params.set("p", "0.25");
  EXPECT_EQ(params.get_int("steal-size", 4), 16);
  EXPECT_EQ(params.get_int("missing", 4), 4);
  EXPECT_DOUBLE_EQ(params.get_probability("p-steal", 1.0), 0.125);
  EXPECT_DOUBLE_EQ(params.get_probability("p", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(params.get_double("k", 0.0), 2.5);
  EXPECT_TRUE(params.has("k"));
  EXPECT_FALSE(params.has("absent"));
}

/// A numeric tunable parses whole or not at all: a garbage value names
/// its key instead of running as 0 or as the digits it starts with.
TEST(ParamMap, TypedGettersRejectWhatDoesNotParseWhole) {
  const auto expect_rejected = [](const char* value, auto get) {
    SCOPED_TRACE(value);
    const ParamMap params = params_of({{"knob", value}});
    try {
      get(params);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("knob"), std::string::npos)
          << e.what();
    }
  };
  const auto get_int = [](const ParamMap& p) { return p.get_int("knob", 0); };
  const auto get_uint = [](const ParamMap& p) { return p.get_uint("knob", 0); };
  const auto get_double = [](const ParamMap& p) {
    return p.get_double("knob", 0);
  };
  const auto get_probability = [](const ParamMap& p) {
    return p.get_probability("knob", 0);
  };
  for (const char* bad : {"banana", "16x", "1e6", "1/8", " 4", "4.5"}) {
    expect_rejected(bad, get_int);
    expect_rejected(bad, get_uint);
  }
  expect_rejected("-1", get_uint);
  for (const char* bad : {"banana", "2.5x", "nan", "inf"}) {
    expect_rejected(bad, get_double);
  }
  for (const char* bad : {"banana", "16x", "1/0", "1e6", "2/1", "-0.5", "1/",
                          "/8", "1/8x"}) {
    expect_rejected(bad, get_probability);
  }
  const ParamMap good = params_of({{"i", "-3"}, {"u", "18446744073709551615"},
                                   {"d", "1e6"}, {"p", "1/8"}, {"q", "0.5"},
                                   {"empty", ""}});
  EXPECT_EQ(good.get_int("i", 0), -3);
  EXPECT_EQ(good.get_uint("u", 0), 18446744073709551615u);
  EXPECT_DOUBLE_EQ(good.get_double("d", 0), 1e6);
  EXPECT_DOUBLE_EQ(good.get_probability("p", 0), 0.125);
  EXPECT_DOUBLE_EQ(good.get_probability("q", 0), 0.5);
  EXPECT_EQ(good.get_int("empty", 7), 7);
  EXPECT_DOUBLE_EQ(good.get_probability("empty", 0.25), 0.25);
}

// ---- graph registry -------------------------------------------------------

TEST(GraphRegistry, BuildsEverySyntheticSource) {
  struct Case {
    const char* name;
    std::pair<const char*, const char*> param;
  };
  const Case cases[] = {
      {"road", {"vertices", "400"}},
      {"rmat", {"scale", "7"}},
      {"rand", {"vertices", "300"}},
      {"grid", {"width", "10"}},
      {"path", {"vertices", "50"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ParamMap params;
    params.set(c.param.first, c.param.second);
    const GraphInstance inst = GraphRegistry::instance().create(c.name, params);
    ASSERT_NE(inst.graph, nullptr);
    EXPECT_GT(inst.graph->num_vertices(), 0u);
    EXPECT_FALSE(inst.name.empty());
    EXPECT_LT(inst.default_target, inst.graph->num_vertices());
  }
}

TEST(GraphRegistry, FileSourcesRequireAFile) {
  EXPECT_THROW(GraphRegistry::instance().create("dimacs", {}),
               std::invalid_argument);
  EXPECT_THROW(GraphRegistry::instance().create("binary", {}),
               std::invalid_argument);
  EXPECT_THROW(GraphRegistry::instance().create("no-such-graph", {}),
               std::invalid_argument);
}

TEST(GraphRegistry, DimacsInlinePathShorthand) {
  // --graph dimacs:PATH must parse the .gr text the same as an explicit
  // --file PATH.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "smq_registry_sample.gr";
  {
    std::ofstream out(path);
    out << "c tiny triangle\n"
        << "p sp 3 3\n"
        << "a 1 2 5\n"
        << "a 2 3 7\n"
        << "a 1 3 20\n";
  }
  const GraphInstance inline_form =
      GraphRegistry::instance().create("dimacs:" + path.string());
  ASSERT_NE(inline_form.graph, nullptr);
  EXPECT_EQ(inline_form.graph->num_vertices(), 3u);
  EXPECT_EQ(inline_form.graph->num_edges(), 3u);

  ParamMap explicit_params;
  explicit_params.set("file", path.string());
  const GraphInstance explicit_form =
      GraphRegistry::instance().create("dimacs", explicit_params);
  EXPECT_EQ(inline_form.graph->num_edges(), explicit_form.graph->num_edges());
  EXPECT_EQ(inline_form.name, explicit_form.name);

  // Only file sources take the shorthand; a colon on a generator or an
  // unknown prefix stays an error.
  EXPECT_THROW(GraphRegistry::instance().create("rand:whatever", {}),
               std::invalid_argument);
  EXPECT_THROW(GraphRegistry::instance().create("nope:file.gr", {}),
               std::invalid_argument);
  std::filesystem::remove(path);
}

// ---- graph cache ----------------------------------------------------------

TEST(GraphRegistry, CacheMissWritesV2ThenHitMapsIt) {
  const std::filesystem::path cache =
      std::filesystem::temp_directory_path() / "smq_cache_test_v2";
  std::filesystem::remove_all(cache);

  ParamMap params;
  params.set("vertices", "500");
  params.set("seed", "11");
  const GraphInstance first =
      GraphRegistry::instance().create_cached("road", params, cache.string());
  ASSERT_NE(first.graph, nullptr);
  EXPECT_FALSE(first.graph->is_mapped());  // miss: freshly generated

  // Exactly one cache file appeared, and it is a v2 image (version u32
  // at byte 8).
  std::size_t files = 0;
  std::filesystem::path cache_file;
  for (const auto& e : std::filesystem::directory_iterator(cache)) {
    ++files;
    cache_file = e.path();
  }
  ASSERT_EQ(files, 1u);
  {
    std::ifstream in(cache_file, std::ios::binary);
    char header[12] = {};
    in.read(header, sizeof header);
    std::uint32_t version = 0;
    std::memcpy(&version, header + 8, 4);
    EXPECT_EQ(version, kBinaryFormatVersion);
  }

  const GraphInstance second =
      GraphRegistry::instance().create_cached("road", params, cache.string());
  ASSERT_NE(second.graph, nullptr);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(second.graph->is_mapped());  // hit: mmap, not parse
#endif
  ASSERT_EQ(second.graph->num_vertices(), first.graph->num_vertices());
  ASSERT_EQ(second.graph->num_edges(), first.graph->num_edges());
  for (VertexId v = 0; v < first.graph->num_vertices(); ++v) {
    const auto a = first.graph->neighbors(v), b = second.graph->neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "degree differs at " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].to, b[i].to);
      ASSERT_EQ(a[i].weight, b[i].weight);
    }
  }
  // Hits keep a stable name so perf-gate baselines match across runs.
  EXPECT_EQ(second.name, "road(cached)");
  // The road source's weight-scale must survive the cache hit (A*
  // admissibility depends on it).
  EXPECT_DOUBLE_EQ(second.weight_scale, first.weight_scale);

  std::filesystem::remove_all(cache);
}

TEST(GraphRegistry, CorruptCacheFileRegenerates) {
  const std::filesystem::path cache =
      std::filesystem::temp_directory_path() / "smq_cache_test_corrupt";
  std::filesystem::remove_all(cache);

  ParamMap params;
  params.set("vertices", "300");
  const GraphInstance first =
      GraphRegistry::instance().create_cached("road", params, cache.string());

  // Trash the cache entry; the next call must regenerate, not throw.
  for (const auto& e : std::filesystem::directory_iterator(cache)) {
    std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  const GraphInstance second =
      GraphRegistry::instance().create_cached("road", params, cache.string());
  ASSERT_NE(second.graph, nullptr);
  EXPECT_EQ(second.graph->num_vertices(), first.graph->num_vertices());
  EXPECT_EQ(second.graph->num_edges(), first.graph->num_edges());

  std::filesystem::remove_all(cache);
}

// ---- algorithm registry ---------------------------------------------------

TEST(AlgorithmRegistry, EveryAlgorithmValidatesUnderSmq) {
  const GraphInstance inst = [] {
    ParamMap params;
    params.set("vertices", "400");
    return GraphRegistry::instance().create("road", params);
  }();

  const auto names = AlgorithmRegistry::instance().names();
  EXPECT_GE(names.size(), 5u);
  for (const AlgorithmEntry& algo : AlgorithmRegistry::instance().entries()) {
    SCOPED_TRACE(algo.name);
    const AlgoReference ref = algo.make_reference(inst, {});
    AnyScheduler sched = SchedulerRegistry::instance().create("smq", 2);
    const AlgoResult result = algo.run(inst, sched, 2, {}, &ref);
    EXPECT_TRUE(result.validated);
    EXPECT_TRUE(result.valid) << algo.name << " failed oracle validation";
    EXPECT_GT(result.run.stats.pops, 0u);
  }
}

TEST(AlgorithmRegistry, RejectsOutOfRangeVertices) {
  ParamMap gparams;
  gparams.set("vertices", "100");
  const GraphInstance inst = GraphRegistry::instance().create("rand", gparams);
  const AlgorithmEntry* sssp = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(sssp, nullptr);
  ParamMap bad;
  bad.set("source", "100");  // one past the end
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 2);
  EXPECT_THROW(sssp->run(inst, sched, 2, bad, nullptr), std::invalid_argument);
  EXPECT_THROW(sssp->make_reference(inst, bad), std::invalid_argument);
}

TEST(AlgorithmRegistry, SkipsValidationWithoutReference) {
  ParamMap params;
  params.set("vertices", "100");
  const GraphInstance inst = GraphRegistry::instance().create("rand", params);
  const AlgorithmEntry* sssp = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(sssp, nullptr);
  AnyScheduler sched = SchedulerRegistry::instance().create("reld", 2);
  const AlgoResult result = sssp->run(inst, sched, 2, {}, nullptr);
  EXPECT_FALSE(result.validated);
  EXPECT_GT(result.run.stats.pops, 0u);
}

}  // namespace
}  // namespace smq

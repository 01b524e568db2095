// SchedulerService: lifecycle, versioned labels, and correctness of
// concurrent query streams against the sequential A* oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/astar.h"
#include "graph/generators.h"
#include "registry/graph_registry.h"
#include "registry/params.h"
#include "registry/service_factory.h"
#include "scheduler_fixtures.h"
#include "service/scheduler_service.h"
#include "service/service_driver.h"
#include "service/versioned_labels.h"

namespace smq {
namespace {

using testing::SmqHeapFactory;
using ConcreteService = SchedulerService<SmqHeapFactory::Type>;

GraphInstance road_instance(VertexId vertices, std::uint64_t seed = 5) {
  GraphInstance gi;
  gi.graph = std::make_shared<Graph>(make_road_like(vertices, {.seed = seed}));
  gi.name = "road-test";
  gi.default_target = gi.graph->num_vertices() - 1;
  return gi;
}

std::unique_ptr<ConcreteService> make_concrete(
    const GraphInstance& gi, unsigned workers, ServiceOptions opts = {}) {
  opts.weight_scale = gi.weight_scale;
  return std::make_unique<ConcreteService>(
      gi.graph, workers, opts, workers,
      SmqConfig{.steal_size = 4, .p_steal = 0.25, .seed = 17});
}

/// The per-query tallies, settled once per lane per batch, must add up
/// to the workers' own counters: every popped task is some query's
/// executed task, every stale one some query's wasted task.
void expect_accounting_matches(const std::vector<QueryResult>& results,
                               const ThreadStats& stats) {
  std::uint64_t tasks = 0;
  std::uint64_t wasted = 0;
  for (const QueryResult& r : results) {
    tasks += r.tasks;
    wasted += r.wasted;
  }
  EXPECT_EQ(tasks, stats.pops);
  EXPECT_EQ(wasted, stats.wasted);
}

// ---- VersionedLabels -------------------------------------------------------

TEST(VersionedLabels, FreshSlotsUnreached) {
  VersionedLabels labels(16);
  const std::uint64_t e = labels.new_epoch();
  for (std::size_t v = 0; v < 16; ++v) {
    EXPECT_EQ(labels.load(v, e), VersionedLabels::kUnreached);
  }
}

TEST(VersionedLabels, StoreLoadRelax) {
  VersionedLabels labels(4);
  const std::uint64_t e = labels.new_epoch();
  labels.store(0, 7, e);
  EXPECT_EQ(labels.load(0, e), 7u);
  EXPECT_TRUE(labels.relax_min(0, 3, e));
  EXPECT_EQ(labels.load(0, e), 3u);
  EXPECT_FALSE(labels.relax_min(0, 3, e));
  EXPECT_FALSE(labels.relax_min(0, 9, e));
  EXPECT_TRUE(labels.relax_min(1, 5, e));  // unreached always loses
}

TEST(VersionedLabels, NewEpochInvalidatesOldWrites) {
  VersionedLabels labels(4);
  const std::uint64_t e1 = labels.new_epoch();
  labels.store(2, 11, e1);
  const std::uint64_t e2 = labels.new_epoch();
  EXPECT_EQ(labels.load(2, e2), VersionedLabels::kUnreached);
  // A write under e1 is also invisible to e2's relax_min floor.
  EXPECT_TRUE(labels.relax_min(2, 999, e2));
  EXPECT_EQ(labels.load(2, e2), 999u);
}

TEST(VersionedLabels, EpochWraparoundScrubs) {
  VersionedLabels labels(8);
  std::uint64_t e = 0;
  // Drive through the full 16-bit epoch space; the wrap scrubs and
  // restarts at 1 without ever issuing epoch 0.
  for (std::uint64_t i = 0; i < VersionedLabels::kEpochLimit + 10; ++i) {
    e = labels.new_epoch();
    ASSERT_NE(e, 0u);
    ASSERT_LT(e, VersionedLabels::kEpochLimit);
  }
  EXPECT_EQ(labels.load(3, e), VersionedLabels::kUnreached);
  labels.store(3, 1, e);
  EXPECT_EQ(labels.load(3, e), 1u);
}

// ---- lifecycle -------------------------------------------------------------

TEST(SchedulerServiceLifecycle, StartStopIdempotent) {
  const GraphInstance gi = road_instance(256);
  auto service = make_concrete(gi, 2);
  service->start();  // already running: no-op
  EXPECT_TRUE(service->accepting());
  EXPECT_EQ(service->num_workers(), 2u);
  EXPECT_EQ(service->num_lanes(), 4u);  // default 2x workers
  service->stop();
  service->stop();  // idempotent
  EXPECT_FALSE(service->accepting());
  EXPECT_THROW(service->start(), std::logic_error);
}

TEST(SchedulerServiceLifecycle, SubmitAfterStopThrows) {
  const GraphInstance gi = road_instance(256);
  auto service = make_concrete(gi, 2);
  service->stop();
  EXPECT_THROW(service->submit({0, 10}), std::runtime_error);
  EXPECT_THROW(service->submit({5, 5}), std::runtime_error);
}

TEST(SchedulerServiceLifecycle, SubmitOutOfRangeThrows) {
  const GraphInstance gi = road_instance(256);
  auto service = make_concrete(gi, 2);
  EXPECT_THROW(service->submit({0, 256}), std::invalid_argument);
  EXPECT_THROW(service->submit({256, 0}), std::invalid_argument);
  service->stop();
}

TEST(SchedulerServiceLifecycle, DestructorStops) {
  const GraphInstance gi = road_instance(256);
  {
    auto service = make_concrete(gi, 2);
    (void)service->run({0, 100});
  }  // destructor joins the pool; a hang here fails via test timeout
}

// ---- correctness vs the sequential oracle ----------------------------------

TEST(SchedulerServiceQueries, SingleQueryMatchesOracle) {
  const GraphInstance gi = road_instance(1000);
  auto service = make_concrete(gi, 2);
  // The road generator may round the lattice down; stay in range.
  const Query q{3, gi.graph->num_vertices() - 7};
  const QueryResult r = service->run(q);
  const auto ref =
      sequential_astar(*gi.graph, q.source, q.target, gi.weight_scale);
  EXPECT_EQ(r.distance, ref.distance);
  EXPECT_GT(r.tasks, 0u);
  EXPECT_GT(r.latency_seconds, 0.0);
  EXPECT_EQ(service->queries_completed(), 1u);
  EXPECT_EQ(service->latency_histogram().count(), 1u);
  service->stop();
  EXPECT_GT(service->worker_stats().pops, 0u);
}

TEST(SchedulerServiceQueries, SourceEqualsTargetIsZero) {
  const GraphInstance gi = road_instance(256);
  auto service = make_concrete(gi, 2);
  const QueryResult r = service->run({42, 42});
  EXPECT_EQ(r.distance, 0u);
  EXPECT_EQ(r.tasks, 0u);
  EXPECT_EQ(service->queries_completed(), 1u);
  service->stop();
}

TEST(SchedulerServiceQueries, UnreachableTargetReported) {
  // Two disconnected path components: 0..63 and 64..127.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1, 1});
  for (VertexId v = 64; v + 1 < 128; ++v) edges.push_back({v, v + 1, 1});
  GraphInstance gi;
  gi.graph = std::make_shared<Graph>(Graph::from_edges(128, std::move(edges)));
  auto service = make_concrete(gi, 2);
  EXPECT_EQ(service->run({0, 100}).distance, QueryResult::kUnreached);
  EXPECT_EQ(service->run({0, 63}).distance, 63u);
  service->stop();
}

TEST(SchedulerServiceQueries, ManyQueriesSequentialOracle) {
  // Through the registry-erased factory, as smq_run builds it.
  GraphRegistry& graphs = GraphRegistry::instance();
  ParamMap params;
  params.set("vertices", "2000");
  params.set("seed", "9");
  const GraphInstance gi = graphs.create("road", params);
  auto service = make_service("smq", 4, params, gi);
  const std::vector<Query> queries = make_query_set(gi, 64, /*seed=*/3);
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  for (const Query& q : queries) tickets.push_back(service->submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult r = tickets[i].get();
    const auto ref = sequential_astar(*gi.graph, queries[i].source,
                                      queries[i].target, gi.weight_scale);
    EXPECT_EQ(r.distance, ref.distance) << "query " << i;
  }
  EXPECT_EQ(service->queries_completed(), queries.size());
  service->stop();
}

TEST(SchedulerServiceQueries, ConcurrentSubmitters) {
  constexpr unsigned kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 32;
  const GraphInstance gi = road_instance(1500, /*seed=*/11);
  auto service = make_concrete(gi, 4);
  std::vector<std::vector<Query>> sets;
  for (unsigned s = 0; s < kSubmitters; ++s) {
    sets.push_back(make_query_set(gi, kPerSubmitter, /*seed=*/100 + s));
  }
  std::vector<std::vector<QueryResult>> results(kSubmitters);
  {
    std::vector<std::jthread> submitters;
    for (unsigned s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        std::vector<QueryTicket> tickets;
        for (const Query& q : sets[s]) tickets.push_back(service->submit(q));
        for (auto& t : tickets) results[s].push_back(t.get());
      });
    }
  }
  for (unsigned s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < kPerSubmitter; ++i) {
      const auto ref = sequential_astar(*gi.graph, sets[s][i].source,
                                        sets[s][i].target, gi.weight_scale);
      EXPECT_EQ(results[s][i].distance, ref.distance)
          << "submitter " << s << " query " << i;
    }
  }
  EXPECT_EQ(service->queries_completed(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(service->latency_histogram().count(), kSubmitters * kPerSubmitter);
  service->stop();
  std::vector<QueryResult> all;
  for (const auto& r : results) all.insert(all.end(), r.begin(), r.end());
  expect_accounting_matches(all, service->worker_stats());
}

TEST(SchedulerServiceQueries, LaneChurnWithSingleLane) {
  // One lane forces every query to reuse the same labels through fresh
  // epochs, with queries queued behind the busy lane.
  const GraphInstance gi = road_instance(800, /*seed=*/13);
  auto service = make_concrete(gi, 2, ServiceOptions{.lanes = 1});
  EXPECT_EQ(service->num_lanes(), 1u);
  const std::vector<Query> queries = make_query_set(gi, 50, /*seed=*/4);
  std::vector<QueryTicket> tickets;
  for (const Query& q : queries) tickets.push_back(service->submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto ref = sequential_astar(*gi.graph, queries[i].source,
                                      queries[i].target, gi.weight_scale);
    EXPECT_EQ(tickets[i].get().distance, ref.distance) << "query " << i;
  }
  service->stop();
}

TEST(SchedulerServiceQueries, UnbatchedLoopMatchesBatched) {
  // Road (A*) and a graph without coordinates (the Dijkstra fallback),
  // each at one task per handle call and at 32.
  GraphInstance plain;
  plain.graph =
      std::make_shared<Graph>(make_erdos_renyi(800, 4800, /*seed=*/31));
  plain.name = "er-test";
  for (const GraphInstance& gi : {road_instance(1000, /*seed=*/17), plain}) {
    const std::vector<Query> queries = make_query_set(gi, 24, /*seed=*/6);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      auto service =
          make_concrete(gi, 3, ServiceOptions{.batch_size = batch});
      std::vector<QueryResult> results;
      for (const Query& q : queries) {
        const auto ref =
            sequential_astar(*gi.graph, q.source, q.target, gi.weight_scale);
        results.push_back(service->run(q));
        EXPECT_EQ(results.back().distance, ref.distance)
            << gi.name << " batch=" << batch;
      }
      service->stop();
      SCOPED_TRACE(gi.name + " batch=" + std::to_string(batch));
      expect_accounting_matches(results, service->worker_stats());
    }
  }
}

TEST(SchedulerServiceQueries, DijkstraFallbackWithoutCoordinates) {
  // No coordinates: heuristic must degrade to 0 (p2p Dijkstra) and still
  // match the oracle (which degrades identically).
  GraphInstance gi;
  gi.graph =
      std::make_shared<Graph>(make_erdos_renyi(600, 3600, /*seed=*/23));
  auto service = make_concrete(gi, 2);
  const std::vector<Query> queries = make_query_set(gi, 16, /*seed=*/8);
  for (const Query& q : queries) {
    const auto ref =
        sequential_astar(*gi.graph, q.source, q.target, gi.weight_scale);
    EXPECT_EQ(service->run(q).distance, ref.distance);
  }
  service->stop();
}

// ---- parking and wake-ups ------------------------------------------------

// Every query arrives at an idle pool: the sleep lets both workers park,
// so each submit must wake a parked worker (submit notifies only when
// `parked_` is non-zero). A lost wake leaves the ticket unready.
TEST(SchedulerServiceParking, EverySubmitWakesAParkedPool) {
  const GraphInstance gi = road_instance(1000, /*seed=*/37);
  const std::vector<Query> queries = make_query_set(gi, 100, /*seed=*/14);
  for (const unsigned lanes : {1u, 0u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    auto service = make_concrete(gi, 2, ServiceOptions{.lanes = lanes});
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      QueryTicket ticket = service->submit(queries[i]);
      ASSERT_EQ(ticket.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "query " << i;
      const auto ref = sequential_astar(*gi.graph, queries[i].source,
                                        queries[i].target, gi.weight_scale);
      EXPECT_EQ(ticket.get().distance, ref.distance) << "query " << i;
    }
    service->stop();
  }
}

// stop() issued right after a burst lands on a parked pool: the queued
// queries must still be admitted and answered before stop() returns.
TEST(SchedulerServiceParking, StopWhileParkedDrainsTheQueue) {
  const GraphInstance gi = road_instance(1000, /*seed=*/41);
  const std::vector<Query> queries = make_query_set(gi, 20, /*seed=*/15);
  auto service = make_concrete(gi, 2, ServiceOptions{.lanes = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<QueryTicket> tickets;
  for (const Query& q : queries) tickets.push_back(service->submit(q));
  service->stop();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(tickets[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "query " << i;
    const auto ref = sequential_astar(*gi.graph, queries[i].source,
                                      queries[i].target, gi.weight_scale);
    EXPECT_EQ(tickets[i].get().distance, ref.distance) << "query " << i;
  }
  EXPECT_EQ(service->queries_completed(), queries.size());
}

// ---- queue wait ------------------------------------------------------------

TEST(SchedulerServiceQueries, WaitIsTheQueuedShareOfLatency) {
  // One lane and a burst: every query after the first waits for the
  // lane, and its wait can never exceed its latency.
  const GraphInstance gi = road_instance(800, /*seed=*/43);
  auto service = make_concrete(gi, 2, ServiceOptions{.lanes = 1});
  const std::vector<Query> queries = make_query_set(gi, 30, /*seed=*/16);
  std::vector<QueryTicket> tickets;
  for (const Query& q : queries) tickets.push_back(service->submit(q));
  double last_wait = 0;
  for (QueryTicket& t : tickets) {
    const QueryResult r = t.get();
    EXPECT_GE(r.wait_seconds, 0.0);
    EXPECT_LE(r.wait_seconds, r.latency_seconds);
    last_wait = r.wait_seconds;
  }
  EXPECT_GT(last_wait, 0.0);  // queued behind 29 queries on one lane
  EXPECT_EQ(service->run({7, 7}).wait_seconds, 0.0);  // no lane needed
  service->stop();
}

// ---- driver plumbing -------------------------------------------------------

TEST(ServiceDriver, QuerySetIsSeededAndInRange) {
  const GraphInstance gi = road_instance(500);
  const auto a = make_query_set(gi, 40, 7);
  const auto b = make_query_set(gi, 40, 7);
  const auto c = make_query_set(gi, 40, 8);
  ASSERT_EQ(a.size(), 40u);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_LT(a[i].source, 500u);
    EXPECT_LT(a[i].target, 500u);
    EXPECT_NE(a[i].source, a[i].target);
    any_differs |= a[i].source != c[i].source || a[i].target != c[i].target;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ServiceDriver, DriveModesMatchReference) {
  const GraphInstance gi = road_instance(900, /*seed=*/19);
  const std::vector<Query> queries = make_query_set(gi, 32, /*seed=*/2);
  const ServiceReference ref = measure_service_reference(gi, queries, 1);
  ASSERT_EQ(ref.distances.size(), queries.size());

  auto service = make_concrete(gi, 4);
  // Closed loop, then open loop at a rate the pool can absorb.
  for (const double qps : {0.0, 2000.0}) {
    const DriveResult drive = drive_service(*service, queries, qps, 1);
    ASSERT_EQ(drive.results.size(), queries.size());
    EXPECT_GT(drive.seconds, 0.0);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(drive.results[i].distance, ref.distances[i]) << "qps=" << qps;
    }
  }
  service->stop();

  const DriveResult spawn = drive_spawn_per_query(gi, "smq", ParamMap{}, 2,
                                                  queries, /*batch_size=*/8);
  ASSERT_EQ(spawn.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(spawn.results[i].distance, ref.distances[i]);
  }
}

TEST(ServiceDriver, RowReportsWaitPercentilesFromResults) {
  DriveResult drive;
  drive.seconds = 1;
  for (int i = 1; i <= 100; ++i) {
    QueryResult r;
    r.distance = 1;
    r.wait_seconds = i * 1e-3;  // 1..100 ms
    r.latency_seconds = r.wait_seconds + 1e-3;
    drive.results.push_back(r);
  }
  LatencyHistogram latencies;
  for (const QueryResult& r : drive.results) {
    latencies.record_seconds(r.latency_seconds);
  }
  ServiceRow row;
  finalize_service_row(row, drive, latencies, nullptr);
  // 100 samples stay exact (nearest rank, no buckets).
  EXPECT_NEAR(row.wait_p50_ms, 50.0, 1.0);
  EXPECT_NEAR(row.wait_p99_ms, 99.0, 1.0);
  EXPECT_LT(row.wait_p99_ms, row.p99_ms);
}

/// An `auto` row reports the key and params it resolved to: the table
/// label spells both, the JSON row carries them as "preset" and
/// "params".
TEST(ServiceDriver, AutoRowReportsTheResolvedKeyAndParams) {
  ServiceReport report;
  report.graph = road_instance(64);
  ServiceRow row;
  row.scheduler = "auto";
  row.preset = "pmod";
  row.preset_params = params_of({{"delta-shift", "4"}});
  row.auto_match = "exact";
  row.auto_why = "row road/bfs";
  report.rows.push_back(row);
  std::ostringstream table;
  print_service_table(table, report);
  EXPECT_NE(table.str().find("auto:pmod/delta-shift=4"), std::string::npos)
      << table.str();
  std::ostringstream json;
  write_service_json(json, report);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"preset\": \"pmod\""), std::string::npos) << text;
  const std::size_t results = text.find("\"results\"");
  ASSERT_NE(results, std::string::npos) << text;
  EXPECT_NE(text.find("\"delta-shift\": \"4\"", results), std::string::npos)
      << text;
}

TEST(ServiceFactory, UnknownSchedulerThrows) {
  const GraphInstance gi = road_instance(256);
  EXPECT_THROW(make_service("nope", 2, ParamMap{}, gi), std::invalid_argument);
  EXPECT_THROW(service_effective_threads("nope", 2), std::invalid_argument);
}

TEST(ServiceFactory, SmqFamiliesDefaultToNoProbabilisticSteal) {
  EXPECT_EQ(service_params("smq", ParamMap{}).get("p-steal"), "0");
  EXPECT_EQ(service_params("smq-skiplist", ParamMap{}).get("p-steal"), "0");
  // A caller's value wins; schedulers without the knob get none.
  EXPECT_EQ(service_params("smq", params_of({{"p-steal", "1/16"}}))
                .get("p-steal"),
            "1/16");
  EXPECT_FALSE(service_params("mq-opt", ParamMap{}).has("p-steal"));
}

TEST(ServiceFactory, StressManyShortQueries) {
  // The TSan-gated stress: small graph, many short queries, more lanes
  // than workers, submissions racing completions.
  GraphRegistry& graphs = GraphRegistry::instance();
  ParamMap params;
  params.set("vertices", "600");
  params.set("seed", "29");
  const GraphInstance gi = graphs.create("road", params);
  auto service =
      make_service("smq", 4, params, gi, ServiceOptions{.lanes = 8});
  const std::vector<Query> queries = make_query_set(gi, 200, /*seed=*/12);
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  for (const Query& q : queries) tickets.push_back(service->submit(q));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto ref = sequential_astar(*gi.graph, queries[i].source,
                                      queries[i].target, gi.weight_scale);
    EXPECT_EQ(tickets[i].get().distance, ref.distance) << "query " << i;
  }
  service->stop();
  EXPECT_EQ(service->queries_completed(), queries.size());
}

}  // namespace
}  // namespace smq

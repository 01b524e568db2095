// The service-mode vocabulary: a point-to-point query, its result, and
// the abstract QueryService every concrete SchedulerService<S> (and the
// registry's erased factory) implements.
//
// A query runs A* when the graph carries coordinates (the road
// generator's), and degrades to point-to-point Dijkstra otherwise —
// the same formulation as algorithms/astar.h, multiplexed over one
// shared immutable CSR instead of owning the machine for one run.
#pragma once

#include <cstdint>
#include <future>

#include "graph/graph.h"
#include "sched/stats.h"

namespace smq {

/// One point-to-point shortest-path request.
struct Query {
  VertexId source = 0;
  VertexId target = 0;
};

struct QueryResult {
  static constexpr std::uint64_t kUnreached = ~0ull;

  std::uint64_t distance = kUnreached;
  /// submit() to completion, queue wait included — the latency a client
  /// of the service observes, not just execution time.
  double latency_seconds = 0;
  /// submit() to admission into a lane: the queue-wait share of
  /// latency_seconds (0 for a query answered without a lane).
  double wait_seconds = 0;
  std::uint64_t tasks = 0;   // tasks executed for this query
  std::uint64_t wasted = 0;  // stale/pruned tasks among them
};

/// The future side of submit(); ready when the query's task graph has
/// drained. get() blocks, wait_for() polls.
using QueryTicket = std::future<QueryResult>;

struct ServiceOptions {
  /// Concurrent in-flight queries (each holds one versioned-label lane
  /// over the graph). 0 = 2x the worker count.
  unsigned lanes = 0;
  /// Executor batch size per worker: tasks popped per handle call and
  /// pushes buffered per flush. 1 = one task per handle call.
  std::size_t batch_size = 8;
  /// Drive queries as A* with the equirectangular heuristic when the
  /// graph has coordinates; false forces plain Dijkstra.
  bool use_heuristic = true;
  /// Heuristic scale (the graph source's weight-per-unit-distance).
  double weight_scale = 100.0;
};

/// A long-lived query-serving executor: a persistent worker pool parked
/// on a condition variable between queries, each worker holding its
/// scheduler handle across queries. Thread-safe submission from any
/// number of client threads.
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Launch the worker pool. Idempotent while running; a stopped
  /// service cannot be restarted (build a new one).
  virtual void start() = 0;

  /// Drain every queued and in-flight query, then park and join the
  /// workers. Idempotent. After stop(), submit() throws.
  virtual void stop() = 0;

  /// True until stop() has begun.
  virtual bool accepting() const = 0;

  /// Enqueue a query; returns immediately. Throws std::runtime_error
  /// after stop(), std::invalid_argument for out-of-range vertices.
  virtual QueryTicket submit(Query q) = 0;

  /// Synchronous convenience: submit and wait.
  QueryResult run(Query q) { return submit(q).get(); }

  virtual unsigned num_workers() const = 0;
  virtual unsigned num_lanes() const = 0;

  virtual std::uint64_t queries_completed() const = 0;

  /// Per-query latency distribution (lock-free record path). Quantile
  /// reads require quiescence: call after stop() or while no queries
  /// are in flight.
  virtual const LatencyHistogram& latency_histogram() const = 0;

  /// Aggregated executor counters (pushes/pops/wasted/steals...).
  /// Scheduler-private counters are folded in by stop(); call after it.
  virtual ThreadStats worker_stats() const = 0;

  /// Approximate bytes held by the scheduler's queues (node arenas,
  /// chunk pools, reclamation limbo). 0 when the scheduler does not
  /// report; advisory and safe to poll while queries are in flight —
  /// the soak test watches this for a steady-state plateau.
  virtual std::size_t memory_footprint() const { return 0; }
};

}  // namespace smq

// Shared workload generation, drive loops and emission for service mode
// (`smq_run --service`) and the bench_service_qps bench — one row shape
// and one JSON format, so the perf gate and the bench trajectory cannot
// drift apart (the same structural rule suite_runner.h applies to
// sweeps).
//
// Two drive modes:
//  * closed loop (qps <= 0): every query submitted up front, the pool
//    drains them at full tilt — the throughput number the perf gate
//    tracks, directly comparable to the spawn-per-query baseline.
//  * open loop (qps > 0): Poisson arrivals at the offered rate
//    (exponential inter-arrival times from a seeded RNG), the service
//    picture — latency percentiles include queue wait, and an offered
//    rate beyond capacity shows up as p99 blow-up rather than a polite
//    slowdown.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "registry/graph_registry.h"
#include "registry/params.h"
#include "sched/stats.h"
#include "service/query.h"

namespace smq {

/// Seeded random point-to-point workload (source != target).
std::vector<Query> make_query_set(const GraphInstance& graph, std::size_t n,
                                  std::uint64_t seed);

/// Sequential oracle over a query set: per-query distances plus the
/// best-of-`reps` total wall time (the speedup_vs_seq normalizer).
struct ServiceReference {
  std::vector<std::uint64_t> distances;
  double seconds = 0;
};
ServiceReference measure_service_reference(const GraphInstance& graph,
                                           std::span<const Query> queries,
                                           int reps);

/// One drive of a query set through some execution vehicle.
struct DriveResult {
  double seconds = 0;  // wall time, first submit to last completion
  std::vector<QueryResult> results;
};

/// Submit the whole set to a running service (all at once when qps <= 0,
/// Poisson arrivals at `qps` otherwise) and wait for every ticket.
DriveResult drive_service(QueryService& service, std::span<const Query> queries,
                          double qps, std::uint64_t seed);

/// The baseline the service exists to beat: one run_parallel spawn/join
/// plus a fresh O(V) distance array per query, on a scheduler built once
/// from the same registry entry. Queries run one after another — that is
/// what "spawn per query" means.
DriveResult drive_spawn_per_query(const GraphInstance& graph,
                                  const std::string& sched_name,
                                  const ParamMap& params, unsigned threads,
                                  std::span<const Query> queries,
                                  std::size_t batch_size);

/// One table/JSON row: a (scheduler, threads, drive mode, offered rate)
/// measurement.
struct ServiceRow {
  std::string scheduler;
  unsigned threads = 0;
  unsigned lanes = 0;
  std::size_t batch_size = 1;
  bool spawn_baseline = false;  // JSON dispatch: "spawn-per-query"
  double offered_qps = 0;       // 0 = closed loop
  std::size_t queries = 0;
  double seconds = 0;
  double qps = 0;  // completed queries / wall second
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  /// Queue wait (submit to admission into a lane) percentiles, from the
  /// drive's per-query results; 0 for spawn rows, which never queue.
  double wait_p50_ms = 0;
  double wait_p99_ms = 0;
  std::uint64_t tasks = 0;
  std::uint64_t wasted = 0;
  ThreadStats stats;  // service worker counters (empty for spawn rows)
  /// Bytes held by the scheduler's queues when the drive finished (node
  /// arenas, chunk pools, reclamation limbo); 0 when the scheduler does
  /// not report. The soak test and CI trajectory watch this.
  std::size_t memory_footprint = 0;
  bool validated = false;
  bool valid = true;
  double speedup_vs_seq = 0;
  int reps = 1;
  // `--sched auto` provenance: the key and params the auto rows resolved
  // (scheduler stays "auto"; JSON "preset" and "params"), its match
  // kind, and the explanation.
  std::string preset;
  ParamMap preset_params;
  std::string auto_match;
  std::string auto_why;
};

/// Fill the measurement half of `row` from a drive: throughput, latency
/// percentiles out of `latencies`, queue-wait percentiles and per-query
/// task/waste totals out of the results, and the oracle comparison when
/// `ref` is non-null.
void finalize_service_row(ServiceRow& row, const DriveResult& drive,
                          const LatencyHistogram& latencies,
                          const ServiceReference* ref);

struct ServiceReport {
  GraphInstance graph;
  ParamMap params;
  std::size_t queries = 0;
  std::uint64_t seed = 1;
  const ServiceReference* reference = nullptr;  // null without validation
  std::vector<ServiceRow> rows;
};

void print_service_table(std::ostream& os, const ServiceReport& report);

/// perf_check.py-compatible report: rows carry scheduler/threads/
/// dispatch/valid/speedup_vs_seq; the report is tagged "suite":
/// "service" so its sweep identity never collides with the batched
/// astar sweep over the same graph.
void write_service_json(std::ostream& os, const ServiceReport& report);

/// "" = no JSON, "-" = onto `out`, else a file (the same contract as
/// a sweep's --json). Returns false when the file cannot be opened.
bool emit_service_json(const ServiceReport& report, const std::string& json_path,
                       std::ostream& out, std::ostream& err);

}  // namespace smq

#include "service/service_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <ostream>
#include <thread>

#include "algorithms/astar.h"
#include "registry/any_scheduler.h"
#include "registry/scheduler_registry.h"
#include "support/cli.h"
#include "support/json_writer.h"
#include "support/rng.h"
#include "support/timer.h"

namespace smq {

std::vector<Query> make_query_set(const GraphInstance& graph, std::size_t n,
                                  std::uint64_t seed) {
  const std::uint64_t vertices = graph.graph->num_vertices();
  Xoshiro256 rng(seed);
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Query q;
    q.source = static_cast<VertexId>(rng.next_below(vertices));
    do {
      q.target = static_cast<VertexId>(rng.next_below(vertices));
    } while (vertices > 1 && q.target == q.source);
    queries.push_back(q);
  }
  return queries;
}

ServiceReference measure_service_reference(const GraphInstance& graph,
                                           std::span<const Query> queries,
                                           int reps) {
  ServiceReference ref;
  ref.distances.reserve(queries.size());
  Timer timer;
  for (const Query& q : queries) {
    ref.distances.push_back(
        sequential_astar(*graph.graph, q.source, q.target, graph.weight_scale)
            .distance);
  }
  ref.seconds = timer.seconds();
  for (int r = 1; r < reps; ++r) {
    Timer again;
    for (const Query& q : queries) {
      sequential_astar(*graph.graph, q.source, q.target, graph.weight_scale);
    }
    ref.seconds = std::min(ref.seconds, again.seconds());
  }
  return ref;
}

DriveResult drive_service(QueryService& service, std::span<const Query> queries,
                          double qps, std::uint64_t seed) {
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  Timer wall;
  if (qps <= 0) {
    for (const Query& q : queries) tickets.push_back(service.submit(q));
  } else {
    Xoshiro256 rng(seed);
    double arrival = 0;  // seconds since the drive started
    for (const Query& q : queries) {
      const double u = std::max(rng.next_double(), 1e-12);
      arrival += -std::log(u) / qps;  // exponential inter-arrival
      // Open loop: hold the arrival schedule regardless of service
      // backlog. Sleeping (not spinning) keeps the submitter off the
      // workers' cores.
      while (wall.seconds() < arrival) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      tickets.push_back(service.submit(q));
    }
  }
  DriveResult out;
  out.results.reserve(tickets.size());
  for (QueryTicket& t : tickets) out.results.push_back(t.get());
  out.seconds = wall.seconds();
  return out;
}

DriveResult drive_spawn_per_query(const GraphInstance& graph,
                                  const std::string& sched_name,
                                  const ParamMap& params, unsigned threads,
                                  std::span<const Query> queries,
                                  std::size_t batch_size) {
  AnyScheduler sched =
      SchedulerRegistry::instance().create(sched_name, threads, params);
  ExecutorOptions exec;
  exec.batch_size = batch_size;
  DriveResult out;
  out.results.reserve(queries.size());
  Timer wall;
  for (const Query& q : queries) {
    Timer one;
    const AStarResult r = parallel_astar(*graph.graph, q.source, q.target,
                                         sched, threads, graph.weight_scale,
                                         exec);
    QueryResult qr;
    qr.distance = r.distance;
    qr.latency_seconds = one.seconds();
    qr.tasks = r.run.stats.pops;
    qr.wasted = r.run.stats.wasted;
    out.results.push_back(qr);
  }
  out.seconds = wall.seconds();
  return out;
}

void finalize_service_row(ServiceRow& row, const DriveResult& drive,
                          const LatencyHistogram& latencies,
                          const ServiceReference* ref) {
  row.queries = drive.results.size();
  row.seconds = drive.seconds;
  row.qps = drive.seconds > 0
                ? static_cast<double>(drive.results.size()) / drive.seconds
                : 0;
  row.p50_ms = latencies.quantile(0.50) * 1e3;
  row.p90_ms = latencies.quantile(0.90) * 1e3;
  row.p99_ms = latencies.quantile(0.99) * 1e3;
  row.max_ms = latencies.max_seconds() * 1e3;
  row.tasks = 0;
  row.wasted = 0;
  LatencyHistogram waits;
  for (const QueryResult& r : drive.results) {
    row.tasks += r.tasks;
    row.wasted += r.wasted;
    waits.record_seconds(r.wait_seconds);
  }
  row.wait_p50_ms = waits.quantile(0.50) * 1e3;
  row.wait_p99_ms = waits.quantile(0.99) * 1e3;
  if (ref != nullptr) {
    row.validated = true;
    row.valid = drive.results.size() == ref->distances.size();
    for (std::size_t i = 0; row.valid && i < drive.results.size(); ++i) {
      row.valid = drive.results[i].distance == ref->distances[i];
    }
    if (ref->seconds > 0 && drive.seconds > 0) {
      row.speedup_vs_seq = ref->seconds / drive.seconds;
    }
  }
}

namespace {

std::string mode_label(const ServiceRow& row) {
  if (row.spawn_baseline) return "spawn";
  return row.offered_qps > 0
             ? "poisson@" + TablePrinter::fmt(row.offered_qps, 0)
             : "closed";
}

}  // namespace

void print_service_table(std::ostream& os, const ServiceReport& report) {
  TablePrinter table({"scheduler", "mode", "thr", "lanes", "queries", "wall ms",
                      "qps", "p50 ms", "p90 ms", "p99 ms", "wait p50 ms",
                      "wait p99 ms", "tasks", "wasted", "mem KiB", "speedup",
                      "ok"});
  for (const ServiceRow& row : report.rows) {
    // Auto rows show the resolved configuration next to "auto" — the
    // chosen config must be readable off the table.
    const std::string label =
        !row.preset.empty() && row.preset != row.scheduler
            ? row.scheduler + ":" + config_label(row.preset, row.preset_params)
            : row.scheduler;
    table.add_row({label, mode_label(row), std::to_string(row.threads),
                   row.spawn_baseline ? "-" : std::to_string(row.lanes),
                   std::to_string(row.queries),
                   TablePrinter::fmt(row.seconds * 1e3),
                   TablePrinter::fmt(row.qps, 1),
                   TablePrinter::fmt(row.p50_ms, 3),
                   TablePrinter::fmt(row.p90_ms, 3),
                   TablePrinter::fmt(row.p99_ms, 3),
                   row.spawn_baseline ? std::string("-")
                                      : TablePrinter::fmt(row.wait_p50_ms, 3),
                   row.spawn_baseline ? std::string("-")
                                      : TablePrinter::fmt(row.wait_p99_ms, 3),
                   std::to_string(row.tasks),
                   std::to_string(row.wasted),
                   row.memory_footprint > 0
                       ? TablePrinter::fmt(
                             static_cast<double>(row.memory_footprint) / 1024.0,
                             1)
                       : std::string("-"),
                   row.speedup_vs_seq > 0 ? TablePrinter::fmt(row.speedup_vs_seq)
                                          : std::string("-"),
                   row.validated ? (row.valid ? "yes" : "NO") : "-"});
  }
  table.print(os);
}

void write_service_json(std::ostream& os, const ServiceReport& report) {
  JsonWriter json(os);
  json.begin_object();
  json.member("tool", "smq_run");
  // The sweep-identity tag perf_check.py keys on; keeps these rows from
  // colliding with the plain astar sweep over the same graph.
  json.member("suite", "service");
  json.member("algorithm", "astar");
  json.member("mode", "service");

  json.key("graph").begin_object();
  json.member("name", report.graph.name);
  json.member("vertices",
              static_cast<std::uint64_t>(report.graph.graph->num_vertices()));
  json.member("edges",
              static_cast<std::uint64_t>(report.graph.graph->num_edges()));
  json.end_object();

  json.key("params").begin_object();
  for (const auto& [key, value] : report.params.entries()) {
    json.member(key, value);
  }
  json.end_object();

  json.member("queries", static_cast<std::uint64_t>(report.queries));
  json.member("seed", report.seed);
  if (report.reference != nullptr) {
    json.key("reference").begin_object();
    json.member("queries",
                static_cast<std::uint64_t>(report.reference->distances.size()));
    json.member("seconds", report.reference->seconds);
    json.end_object();
  }

  json.key("results").begin_array();
  for (const ServiceRow& row : report.rows) {
    json.begin_object();
    json.member("scheduler", row.scheduler);
    if (!row.preset.empty() && row.preset != row.scheduler) {
      json.member("preset", row.preset);
    }
    if (!row.preset_params.entries().empty()) {
      json.key("params").begin_object();
      for (const auto& [key, value] : row.preset_params.entries()) {
        json.member(key, value);
      }
      json.end_object();
    }
    if (!row.auto_match.empty()) {
      json.member("auto", true);
      json.member("auto_match", row.auto_match);
      json.member("auto_why", row.auto_why);
    }
    json.member("threads", row.threads);
    json.member("dispatch",
                row.spawn_baseline ? "spawn-per-query" : "service");
    if (!row.spawn_baseline) {
      json.member("lanes", row.lanes);
      json.member("batch_size", static_cast<std::uint64_t>(row.batch_size));
    }
    json.member("offered_qps", row.offered_qps);
    json.member("queries", static_cast<std::uint64_t>(row.queries));
    json.member("seconds", row.seconds);
    json.member("qps", row.qps);
    json.member("p50_ms", row.p50_ms);
    json.member("p90_ms", row.p90_ms);
    json.member("p99_ms", row.p99_ms);
    json.member("max_ms", row.max_ms);
    json.member("tasks", row.tasks);
    json.member("wasted", row.wasted);
    if (!row.spawn_baseline) {
      json.member("wait_p50_ms", row.wait_p50_ms);
      json.member("wait_p99_ms", row.wait_p99_ms);
      json.member("pushes", row.stats.pushes);
      json.member("empty_pops", row.stats.empty_pops);
      json.member("steals", row.stats.steals);
      json.member("memory_footprint_bytes",
                  static_cast<std::uint64_t>(row.memory_footprint));
    }
    if (row.speedup_vs_seq > 0) {
      json.member("speedup_vs_seq", row.speedup_vs_seq);
    }
    json.member("reps", row.reps);
    if (row.validated) json.member("valid", row.valid);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  os << '\n';
}

bool emit_service_json(const ServiceReport& report, const std::string& json_path,
                       std::ostream& out, std::ostream& err) {
  if (json_path.empty()) return true;
  if (json_path == "-") {
    write_service_json(out, report);
    return true;
  }
  std::ofstream file(json_path);
  if (!file) {
    err << "cannot write " << json_path << "\n";
    return false;
  }
  write_service_json(file, report);
  out << "\nwrote " << json_path << "\n";
  return true;
}

}  // namespace smq

// Service-throughput bench: the persistent SchedulerService pool against
// the spawn-per-query baseline it exists to replace.
//
// Three row families over one road graph and one seeded query set:
//  * spawn      — one run_parallel spawn/join + a fresh O(V) distance
//                 array per query (the pre-service cost model),
//  * closed     — every query submitted to the running service up front;
//                 its qps is the capacity number the perf gate tracks,
//  * poisson@R  — open-loop Poisson arrivals at each --qps point; the
//                 latency percentiles include queue wait, so offered
//                 load beyond capacity shows up as p99 blow-up.
//
// The headline "service vs spawn" ratio is printed per thread count; the
// JSON trajectory follows write_service_json (same shape as `smq_run
// --service --json`), so tools/perf_check.py can read either source.
//
//   ./bench_service_qps              # 41000-vertex road, threads 1,8
//   ./bench_service_qps --vertices 40000 --threads 1,4 --queries 200
//                       --qps 500,2000 --reps 3 [--json PATH]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "registry/graph_registry.h"
#include "registry/params.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "registry/suite_runner.h"
#include "service/query.h"
#include "service/service_driver.h"
#include "support/cli.h"
#include "tuning/auto_select.h"

int main(int argc, char** argv) {
  using namespace smq;
  const ArgParser args(argc, argv);
  const auto vertices =
      static_cast<std::uint64_t>(args.get_int("vertices", 41000));
  std::vector<unsigned> thread_counts;
  try {
    thread_counts = parse_thread_list(args.get("threads", "1,8"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto queries =
      static_cast<std::size_t>(args.get_int("queries", 150));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  // One registry key, checked before the graph is built. `auto` picks a
  // key and params per graph and algorithm, which smq_run's service
  // mode does.
  const std::string sched_name = args.get("sched", "smq");
  if (sched_name == tuning::kAutoSchedulerName) {
    std::cerr << "--sched auto is resolved by `smq_run --service --sched "
                 "auto`; pass a registry key here\n";
    return 2;
  }
  if (SchedulerRegistry::instance().find(sched_name) == nullptr) {
    try {
      parse_sched_list(sched_name);  // throws naming the nearest key
      std::cerr << "--sched takes one registry key, not " << sched_name
                << "\n";
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
    }
    return 2;
  }
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("query-seed", 1));
  std::vector<double> qps_points;
  for (const std::string& part : split_list(args.get("qps", ""), ',')) {
    qps_points.push_back(std::strtod(part.c_str(), nullptr));
  }

  ServiceOptions opts;
  opts.lanes = static_cast<unsigned>(args.get_int("lanes", 0));
  opts.batch_size = static_cast<std::size_t>(args.get_int("batch-size", 8));

  ParamMap params;
  params.set("vertices", std::to_string(vertices));
  params.set("seed", "42");
  const GraphInstance graph = GraphRegistry::instance().create("road", params);
  const std::vector<Query> query_set = make_query_set(graph, queries, seed);

  std::cout << "=== service qps: " << sched_name << " / " << graph.name
            << " / " << queries << " queries, best of " << reps << " ===\n\n";

  const ServiceReference reference =
      measure_service_reference(graph, query_set, reps);

  ServiceReport report;
  report.graph = graph;
  report.params = params;
  report.queries = query_set.size();
  report.seed = seed;
  report.reference = &reference;

  for (const unsigned threads : thread_counts) {
    // Spawn-per-query baseline (closed by construction).
    ServiceRow spawn_row;
    spawn_row.scheduler = sched_name;
    spawn_row.threads = threads;
    spawn_row.spawn_baseline = true;
    spawn_row.batch_size = opts.batch_size;
    spawn_row.reps = reps;
    for (int rep = 0; rep < reps; ++rep) {
      const DriveResult drive = drive_spawn_per_query(
          graph, sched_name, params, threads, query_set, opts.batch_size);
      if (rep > 0 && drive.seconds >= spawn_row.seconds) continue;
      LatencyHistogram latencies;
      for (const QueryResult& r : drive.results) {
        latencies.record_seconds(r.latency_seconds);
      }
      finalize_service_row(spawn_row, drive, latencies, &reference);
    }
    report.rows.push_back(spawn_row);
    const double spawn_qps = spawn_row.qps;

    // Service rows: closed loop first, then each offered-rate point.
    std::vector<double> drive_points{0.0};
    drive_points.insert(drive_points.end(), qps_points.begin(),
                        qps_points.end());
    for (const double qps : drive_points) {
      ServiceRow row;
      row.scheduler = sched_name;
      row.threads = service_effective_threads(sched_name, threads);
      row.batch_size = opts.batch_size;
      row.offered_qps = qps;
      row.reps = reps;
      for (int rep = 0; rep < reps; ++rep) {
        auto service = make_service(sched_name, threads, params, graph, opts);
        const DriveResult drive = drive_service(*service, query_set, qps, seed);
        service->stop();
        if (rep > 0 && drive.seconds >= row.seconds) continue;
        row.lanes = service->num_lanes();
        row.stats = service->worker_stats();
        row.memory_footprint = service->memory_footprint();
        finalize_service_row(row, drive, service->latency_histogram(),
                             &reference);
      }
      if (qps <= 0 && spawn_qps > 0) {
        std::cout << "threads " << threads << ": service "
                  << TablePrinter::fmt(row.qps, 1) << " qps vs spawn "
                  << TablePrinter::fmt(spawn_qps, 1) << " qps ("
                  << TablePrinter::fmt(row.qps / spawn_qps) << "x)\n";
      }
      report.rows.push_back(row);
    }
  }

  std::cout << "\n";
  print_service_table(std::cout, report);
  if (!emit_service_json(report, args.get("json"), std::cout, std::cerr)) {
    return 1;
  }

  for (const ServiceRow& row : report.rows) {
    if (row.validated && !row.valid) {
      std::cerr << "\nvalidation FAILED\n";
      return 1;
    }
  }
  return 0;
}

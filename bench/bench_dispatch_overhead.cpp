// Dispatch-overhead micro-bench: what does the registry boundary cost?
//
// Runs SSSP under the hot scheduler keys three ways — virtual
// (AnyScheduler, batch size 1: one indirect call per task), batched
// (AnyScheduler, one indirect call per --batch-size tasks) and static
// (directly instantiated concrete scheduler, batch size 1) — and reports
// per-row throughput plus the ratio to the virtual row: if static ~=
// virtual, the erasure is in the noise; the batched row is what
// `smq_run --batch-size` buys.
//
// Every non-static row also reports the scheduler's memory footprint
// after the run (the bytes its queues hold; the skip-list schedulers
// always epoch-reclaim, so theirs is the plateau the soak test watches).
// Exit 1 when any row's answer disagrees with the sequential oracle.
//
//   ./bench_dispatch_overhead        # 51000-vertex rand, 8 threads
//   ./bench_dispatch_overhead --vertices 100000 --threads 4 --reps 5
//                             --batch-size 64 [--json PATH]
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/static_dispatch.h"
#include "support/cli.h"
#include "support/json_writer.h"

namespace {

using namespace smq;

struct Row {
  std::string scheduler;
  std::string dispatch;
  double seconds = 0;
  std::uint64_t tasks = 0;
  double mops = 0;          // million executed tasks per second
  double vs_virtual = 1.0;  // throughput ratio against the virtual row
  std::size_t footprint = 0;  // scheduler bytes after the run (0 = n/a)
  bool valid = false;
};

struct ModeSpec {
  std::string_view label;
  bool is_static;
  std::string batch_size;
};

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto vertices =
      static_cast<std::uint64_t>(args.get_int("vertices", 51000));
  const auto threads = static_cast<unsigned>(args.get_int("threads", 8));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string batch_size = args.get("batch-size", "64");

  ParamMap params;
  params.set("vertices", std::to_string(vertices));
  params.set("seed", "42");
  const GraphInstance graph = GraphRegistry::instance().create("rand", params);
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find("sssp");
  const AlgoReference reference = algo->make_reference(graph, params);

  std::cout << "=== dispatch overhead: SSSP / " << graph.name << " / "
            << threads << " threads, best of " << reps << " ===\n\n";

  // Every key with a static-dispatch row.
  const std::vector<std::string> schedulers{"smq",    "smq-skiplist", "mq",
                                            "mq-opt", "obim",         "pmod"};
  std::vector<Row> rows;

  for (const std::string& name : schedulers) {
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(name);
    const ModeSpec modes[] = {
        {"virtual", false, "1"},
        {"batched", false, batch_size},
        {"static", true, "1"},
    };
    double virtual_throughput = 0;
    for (const ModeSpec& spec : modes) {
      ParamMap run_params = params;
      run_params.set("batch-size", spec.batch_size);
      Row row;
      row.scheduler = name;
      row.dispatch = std::string(spec.label);
      for (int rep = 0; rep < reps; ++rep) {
        AlgoResult result;
        std::size_t footprint = 0;
        if (spec.is_static) {
          result = *run_static_dispatch(name, "sssp", graph, threads,
                                        run_params, &reference);
        } else {
          AnyScheduler sched = entry->make(threads, run_params);
          result = algo->run(graph, sched, threads, run_params, &reference);
          footprint = sched.memory_footprint();
        }
        if (rep == 0 || result.run.seconds < row.seconds) {
          row.seconds = result.run.seconds;
          row.tasks = result.run.stats.pops;
          row.valid = result.valid;
          row.footprint = footprint;
        }
      }
      row.mops = row.seconds > 0
                     ? static_cast<double>(row.tasks) / row.seconds / 1e6
                     : 0;
      if (spec.label == "virtual") virtual_throughput = row.mops;
      row.vs_virtual =
          virtual_throughput > 0 ? row.mops / virtual_throughput : 1.0;
      rows.push_back(row);
    }
  }

  TablePrinter table({"scheduler", "dispatch", "time ms", "tasks", "Mtasks/s",
                      "vs virtual", "mem KiB", "valid"});
  for (const Row& row : rows) {
    table.add_row({row.scheduler, row.dispatch,
                   TablePrinter::fmt(row.seconds * 1e3),
                   std::to_string(row.tasks), TablePrinter::fmt(row.mops),
                   TablePrinter::fmt(row.vs_virtual),
                   row.footprint > 0
                       ? TablePrinter::fmt(
                             static_cast<double>(row.footprint) / 1024.0, 1)
                       : std::string("-"),
                   row.valid ? "yes" : "NO"});
  }
  table.print(std::cout);

  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    JsonWriter json(out);
    json.begin_object();
    json.member("tool", "bench_dispatch_overhead");
    json.member("threads", threads);
    json.member("vertices", vertices);
    json.key("results").begin_array();
    for (const Row& row : rows) {
      json.begin_object();
      json.member("scheduler", row.scheduler);
      json.member("dispatch", row.dispatch);
      json.member("seconds", row.seconds);
      json.member("tasks", row.tasks);
      json.member("mtasks_per_sec", row.mops);
      json.member("vs_virtual", row.vs_virtual);
      json.member("memory_footprint_bytes",
                  static_cast<std::uint64_t>(row.footprint));
      json.member("valid", row.valid);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << '\n';
    std::cout << "\nwrote " << json_path << "\n";
  }

  bool all_valid = true;
  for (const Row& row : rows) all_valid = all_valid && row.valid;
  return all_valid ? 0 : 1;
}

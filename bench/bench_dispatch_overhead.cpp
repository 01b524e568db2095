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
// Schedulers with a "reclaim" tunable get a fourth row, batched+reclaim
// (epoch-based reclamation on), whose vs_batched ratio is the cost of
// epoch pinning on the hot path; --max-reclaim-overhead 0.05 turns that
// ratio into a gate (exit 1 when reclamation costs more than 5%). Every
// non-static row also reports the scheduler's steady-state memory
// footprint after the run — with reclamation on this is the plateau the
// soak test watches; off, it is the leak-until-destroy high-water mark.
//
//   SMQ_BENCH_SCALE=0.1 SMQ_BENCH_THREADS=2 ./bench_dispatch_overhead
//   ./bench_dispatch_overhead --vertices 100000 --threads 4 --reps 5
//                             --batch-size 64 [--json PATH]
//                             [--max-reclaim-overhead 0.05]
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/workloads.h"
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
  double vs_batched = 0;    // reclaim rows: ratio against plain batched
  std::size_t footprint = 0;  // scheduler bytes after the run (0 = n/a)
  bool valid = false;
};

struct ModeSpec {
  std::string_view label;
  bool is_static;
  std::string batch_size;
  bool reclaim;
};

bool has_tunable(const SchedulerEntry& entry, const std::string& name) {
  for (const Tunable& t : entry.tunables) {
    if (t.name == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = bench::bench_scale();
  const auto vertices = static_cast<std::uint64_t>(args.get_int(
      "vertices", static_cast<std::int64_t>(50000 * scale) + 1000));
  const auto threads = static_cast<unsigned>(args.get_int(
      "threads", static_cast<std::int64_t>(bench::bench_max_threads())));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string batch_size = args.get("batch-size", "64");
  const double max_reclaim_overhead =
      args.get_double("max-reclaim-overhead", 0);

  ParamMap params;
  params.set("vertices", std::to_string(vertices));
  params.set("seed", "42");
  const GraphInstance graph = GraphRegistry::instance().create("rand", params);
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find("sssp");
  const AlgoReference reference = algo->make_reference(graph, params);

  std::cout << "=== dispatch overhead: SSSP / " << graph.name << " / "
            << threads << " threads, best of " << reps << " ===\n\n";

  const std::vector<std::string> schedulers = static_dispatch_keys();
  std::vector<Row> rows;
  bool reclaim_gate_ok = true;

  for (const std::string& name : schedulers) {
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(name);
    std::vector<ModeSpec> modes = {
        {"virtual", false, "1", false},
        {"batched", false, batch_size, false},
        {"static", true, "1", false},
    };
    if (has_tunable(*entry, "reclaim")) {
      modes.push_back({"batched+reclaim", false, batch_size, true});
    }
    double virtual_throughput = 0;
    double batched_throughput = 0;
    for (const ModeSpec& spec : modes) {
      ParamMap run_params = params;
      run_params.set("batch-size", spec.batch_size);
      if (spec.reclaim) run_params.set("reclaim", "epoch");
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
      if (spec.label == "batched") batched_throughput = row.mops;
      row.vs_virtual =
          virtual_throughput > 0 ? row.mops / virtual_throughput : 1.0;
      if (spec.reclaim && batched_throughput > 0) {
        row.vs_batched = row.mops / batched_throughput;
        if (max_reclaim_overhead > 0 &&
            row.vs_batched < 1.0 - max_reclaim_overhead) {
          reclaim_gate_ok = false;
          std::cerr << "RECLAIM GATE: " << name << " batched+reclaim at "
                    << TablePrinter::fmt(row.vs_batched)
                    << "x of batched (allowed >= "
                    << TablePrinter::fmt(1.0 - max_reclaim_overhead) << "x)\n";
        }
      }
      rows.push_back(row);
    }
  }

  TablePrinter table({"scheduler", "dispatch", "time ms", "tasks", "Mtasks/s",
                      "vs virtual", "vs batched", "mem KiB", "valid"});
  for (const Row& row : rows) {
    table.add_row({row.scheduler, row.dispatch,
                   TablePrinter::fmt(row.seconds * 1e3),
                   std::to_string(row.tasks), TablePrinter::fmt(row.mops),
                   TablePrinter::fmt(row.vs_virtual),
                   row.vs_batched > 0 ? TablePrinter::fmt(row.vs_batched)
                                      : std::string("-"),
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
      if (row.vs_batched > 0) json.member("vs_batched", row.vs_batched);
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
  return all_valid && reclaim_gate_ok ? 0 : 1;
}

// Human-readable enumeration of the three registries, shared by
// `smq_run --list` and the quickstart example.
#pragma once

#include <ostream>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "tuning/auto_select.h"

namespace smq {

inline void print_tunables(std::ostream& os, const std::vector<Tunable>& ts) {
  for (const Tunable& t : ts) {
    os << "      --" << t.name;
    if (!t.default_value.empty()) os << " (default " << t.default_value << ")";
    os << ": " << t.description << "\n";
  }
}

inline void print_registry_listing(std::ostream& os) {
  os << "schedulers:\n";
  // The pseudo-scheduler first: not a registry entry (it resolves to
  // one), but it is a valid --sched value and must be discoverable.
  os << "  auto - the configuration measured best for this (graph "
        "class, algorithm,\n         threads); '"
     << tuning::kDefaultScheduler << "' for every key without a row:\n";
  for (const tuning::AutoRow& row : tuning::auto_rows()) {
    os << "      " << tuning::to_string(row.cls) << '/' << row.algorithm
       << " from " << row.min_threads << "t -> "
       << config_label(row.scheduler, row.params) << ": "
       << row.measured << "\n";
  }
  for (const SchedulerEntry& e : SchedulerRegistry::instance().entries()) {
    os << "  " << e.name;
    if (e.max_threads == 1) os << " [single-threaded]";
    os << " - " << e.description << "\n";
    print_tunables(os, e.tunables);
  }
  os << "\nalgorithms:\n";
  for (const AlgorithmEntry& e : AlgorithmRegistry::instance().entries()) {
    os << "  " << e.name << " - " << e.description << "\n";
    print_tunables(os, e.tunables);
  }
  os << "\ngraph sources:\n";
  for (const GraphSourceEntry& e : GraphRegistry::instance().entries()) {
    os << "  " << e.name << " - " << e.description << "\n";
    print_tunables(os, e.tunables);
  }
}

}  // namespace smq

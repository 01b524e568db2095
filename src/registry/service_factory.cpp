#include "registry/service_factory.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "registry/any_scheduler.h"
#include "registry/scheduler_registry.h"
#include "service/scheduler_service.h"

namespace smq {

std::string_view service_auto_algorithm(const GraphInstance& graph) {
  return graph.graph != nullptr && !graph.graph->coordinates().empty()
             ? "astar"
             : "sssp";
}

unsigned service_effective_threads(std::string_view sched_name,
                                   unsigned requested) {
  const SchedulerEntry* entry =
      SchedulerRegistry::instance().find(sched_name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown scheduler: " +
                                std::string(sched_name));
  }
  return effective_threads(*entry, requested);
}

ParamMap service_params(std::string_view sched_name, const ParamMap& params) {
  if (params.has("p-steal")) return params;
  const SchedulerEntry* entry =
      SchedulerRegistry::instance().find(sched_name);
  if (entry == nullptr || !entry->takes("p-steal")) return params;
  ParamMap resolved = params;
  resolved.set("p-steal", "0");
  return resolved;
}

std::unique_ptr<QueryService> make_service(std::string_view sched_name,
                                           unsigned threads,
                                           const ParamMap& params,
                                           const GraphInstance& graph,
                                           ServiceOptions opts) {
  const unsigned workers = service_effective_threads(sched_name, threads);
  opts.weight_scale = graph.weight_scale;
  AnyScheduler sched = SchedulerRegistry::instance().create(
      sched_name, workers, service_params(sched_name, params));
  return std::make_unique<SchedulerService<AnyScheduler>>(
      graph.graph, workers, opts, std::move(sched));
}

}  // namespace smq

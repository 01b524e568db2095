// The erased service boundary: build a QueryService over any registered
// scheduler by name, the way smq_run and the benches resolve every other
// axis. One SchedulerService<AnyScheduler> instantiation serves the
// whole registry; static instantiation of a concrete SchedulerService<S>
// remains available to code that names S (tests do).
#pragma once

#include <memory>
#include <string_view>

#include "registry/graph_registry.h"
#include "registry/params.h"
#include "service/query.h"

namespace smq {

/// The algorithm `--sched auto` tunes a service for (the `algorithm` of
/// tuning::resolve_auto): the service runs point-to-point queries, which
/// are A* when the graph carries coordinates and plain SSSP otherwise.
std::string_view service_auto_algorithm(const GraphInstance& graph);

/// The scheduler params a service runs `sched_name` with: `params`, plus
/// `p-steal` 0 when the entry exposes that knob (smq, smq-skiplist) and
/// the caller left it unset. Tasks of different queries carry priorities
/// that are not comparable, so the probabilistic "steal when the victim's
/// top beats mine" only moves work between workers; the forced steal of
/// an idle worker still balances the load.
ParamMap service_params(std::string_view sched_name, const ParamMap& params);

/// Build a running service for `sched_name` x `threads` over `graph`.
/// The worker count is clamped to the scheduler's thread capacity
/// (effective_threads), the heuristic scale comes from the graph
/// instance, and the scheduler is built from service_params(). `auto` is
/// resolved by the caller (tuning::resolve_auto), which reports the pick
/// and passes its params. Throws
/// std::invalid_argument on an unknown scheduler.
std::unique_ptr<QueryService> make_service(std::string_view sched_name,
                                           unsigned threads,
                                           const ParamMap& params,
                                           const GraphInstance& graph,
                                           ServiceOptions opts = {});

/// The worker count make_service will actually run with.
unsigned service_effective_threads(std::string_view sched_name,
                                   unsigned requested);

}  // namespace smq

// Static-dispatch escape hatch for the hot scheduler keys.
//
// AnyScheduler buys runtime selection at one virtual call per handle
// call (one task, or one batch of --batch-size tasks). For publishing
// absolute numbers the run driver also has a path with *zero* erasure
// overhead: run_static_dispatch() maps the hot registry keys (smq,
// smq-skiplist, mq-opt, mq, obim, pmod) to directly instantiated runs —
// the same templated runners (algo_runners.h), the same config parsing
// (scheduler_configs.h), but monomorphized end to end exactly like the
// seed's hand-written benches.
// Selected via `smq_run --dispatch static`.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/params.h"

namespace smq {

/// True when `scheduler` (a SchedulerRegistry key) has a static table
/// entry.
bool has_static_dispatch(std::string_view scheduler);

/// Run `algorithm` under a directly instantiated `scheduler`, validating
/// against `ref` when non-null. Returns nullopt when the scheduler has no
/// static entry or the algorithm name is unknown — callers fall back to
/// the virtual path. `threads` must already be clamped via
/// effective_threads(). Honors the same ParamMap tunables as the
/// registry factories, including `batch-size`.
std::optional<AlgoResult> run_static_dispatch(std::string_view scheduler,
                                              std::string_view algorithm,
                                              const GraphInstance& graph,
                                              unsigned threads,
                                              const ParamMap& params,
                                              const AlgoReference* ref);

}  // namespace smq

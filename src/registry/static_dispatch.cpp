#include "registry/static_dispatch.h"

#include <array>
#include <functional>
#include <memory>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/skiplist.h"
#include "registry/algo_runners.h"
#include "registry/scheduler_configs.h"

namespace smq {

namespace {

/// Construct the concrete scheduler, run the named algorithm through the
/// shared templated runners, and keep the simulated-NUMA topology alive
/// for the duration (the config holds a raw pointer into it). The
/// executor drives the scheduler through its native per-thread Handle
/// here — the same handle API the virtual path reaches through
/// AnyScheduler::HandleView — so static rows measure pure inlined
/// handles, not a different protocol.
template <typename S, typename ConfigFn>
std::optional<AlgoResult> run_concrete(ConfigFn make_config,
                                       std::string_view algorithm,
                                       const GraphInstance& graph,
                                       unsigned threads, const ParamMap& params,
                                       const AlgoReference* ref) {
  std::shared_ptr<Topology> topology;
  S sched(threads, make_config(threads, params, topology));
  AlgoResult result;
  if (!run_algo_by_name(algorithm, graph, sched, threads, params, ref,
                        result)) {
    return std::nullopt;
  }
  return result;
}

using StaticRunFn = std::optional<AlgoResult> (*)(std::string_view,
                                                  const GraphInstance&,
                                                  unsigned, const ParamMap&,
                                                  const AlgoReference*);

struct StaticEntry {
  std::string_view scheduler;
  StaticRunFn run;
};

// The hot schedulers of the paper's evaluation, each row reading its
// params through the registry factory's own config builder; the long
// tail of anchor schedulers stays virtual-only (they are baselines, not
// the product).
constexpr std::array<StaticEntry, 6> kStaticTable{{
    {"smq",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<StealingMultiQueue<DAryHeap<Task, 4>>>(
           make_smq_config, algo, g, threads, params, ref);
     }},
    {"smq-skiplist",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<StealingMultiQueue<SequentialSkipList>>(
           make_smq_config, algo, g, threads, params, ref);
     }},
    {"mq-opt",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<OptimizedMultiQueue>(make_optimized_mq_config, algo,
                                                g, threads, params, ref);
     }},
    {"mq",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<OptimizedMultiQueue>(make_classic_mq_config, algo,
                                                g, threads, params, ref);
     }},
    {"obim",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<Obim>(make_obim_config, algo, g, threads, params,
                                 ref);
     }},
    {"pmod",
     [](std::string_view algo, const GraphInstance& g, unsigned threads,
        const ParamMap& params, const AlgoReference* ref) {
       return run_concrete<Pmod>(make_pmod_config, algo, g, threads, params,
                                 ref);
     }},
}};

const StaticEntry* find_static(std::string_view scheduler) {
  for (const StaticEntry& entry : kStaticTable) {
    if (entry.scheduler == scheduler) return &entry;
  }
  return nullptr;
}

}  // namespace

bool has_static_dispatch(std::string_view scheduler) {
  return find_static(scheduler) != nullptr;
}

std::optional<AlgoResult> run_static_dispatch(std::string_view scheduler,
                                              std::string_view algorithm,
                                              const GraphInstance& graph,
                                              unsigned threads,
                                              const ParamMap& params,
                                              const AlgoReference* ref) {
  const StaticEntry* entry = find_static(scheduler);
  if (entry == nullptr) return std::nullopt;
  return entry->run(algorithm, graph, threads, params, ref);
}

}  // namespace smq

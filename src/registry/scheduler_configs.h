// Concrete scheduler configuration builders: ParamMap -> config struct.
//
// Split out of the registry factories so that the two dispatch paths
// share one source of truth for tunables parsing: the scheduler registry
// wraps the result in AnyScheduler, while the static dispatch table
// (static_dispatch.h) instantiates the concrete scheduler types directly.
// Each builder also hands back the simulated-NUMA Topology (when
// requested) as a shared_ptr the caller must keep alive for the
// scheduler's lifetime — the configs hold a raw pointer into it.
#pragma once

#include <memory>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "registry/params.h"
#include "sched/topology.h"

namespace smq {

/// NUMA options accepted in three spellings: "--numa 2" (node count),
/// "--numa nodes=2,k=8", "--numa k=8" (implies 2 nodes), plus the
/// separate "--numa-k 8". Simulated topology, see sched/topology.h.
struct NumaOptions {
  unsigned nodes = 0;
  double k = 1.0;
  bool k_pinned = false;  // K was spelled out (even K=1), not defaulted
};

NumaOptions parse_numa(const ParamMap& params, unsigned threads,
                       double default_k);

/// Build the simulated topology when requested; the caller ties its
/// lifetime to the scheduler (configs hold a raw pointer into it).
std::shared_ptr<Topology> make_topology(const NumaOptions& numa,
                                        unsigned threads);

const std::vector<Tunable>& numa_tunables();

// Each builder fills `topology` (possibly with nullptr) with the object
// its returned config points into.
SmqConfig make_smq_config(unsigned threads, const ParamMap& params,
                          std::shared_ptr<Topology>& topology);
OptimizedMqConfig make_optimized_mq_config(unsigned threads,
                                           const ParamMap& params,
                                           std::shared_ptr<Topology>& topology);
ReldConfig make_reld_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);
ObimConfig make_obim_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);
/// Obim config plus the PMOD adaptation knobs.
ObimConfig make_pmod_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology);

}  // namespace smq

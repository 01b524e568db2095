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

/// The remote-queue sampling weight divisor K (paper Section 4) that
/// SMQ, the Multi-Queues and RELD run at when `numa-k` is unset. The
/// factories and the sweep reporter both read it through parse_numa.
inline constexpr int kDefaultNumaK = 8;

/// A run's simulated NUMA point (sched/topology.h): `nodes` virtual
/// nodes (0 or 1 = UMA) and the remote weight K.
struct NumaOptions {
  unsigned nodes = 0;
  double k = kDefaultNumaK;
};

/// Read the `numa` tunable (a node count, clamped to `threads`) and
/// `numa-k` (K > 0). Throws std::invalid_argument naming the tunable when
/// `numa` is not a non-negative integer or `numa-k` not a positive number.
NumaOptions parse_numa(const ParamMap& params, unsigned threads);

/// The analytic expected internal (same-node) fraction E of `numa` at
/// `threads` threads — Section 4's metric, 1.0 without a topology.
/// `exclude_own_queue` as in Topology::expected_internal_fraction (true
/// for SMQ's steal victims).
double expected_internal_fraction(const NumaOptions& numa, unsigned threads,
                                  bool exclude_own_queue);

/// `numa` then `numa-k`. OBIM and PMOD shard by node but sample no
/// queues, so they take only the first.
const std::vector<Tunable>& numa_tunables();

// Each builder fills `topology` (possibly with nullptr) with the object
// its returned config points into, and throws std::invalid_argument
// naming the knob when a size knob (a batch or chunk length, or the
// queues per thread `c`) is below 1 or a numeric knob does not parse.
SmqConfig make_smq_config(unsigned threads, const ParamMap& params,
                          std::shared_ptr<Topology>& topology);
OptimizedMqConfig make_optimized_mq_config(unsigned threads,
                                           const ParamMap& params,
                                           std::shared_ptr<Topology>& topology);
/// The classic Multi-Queue (paper Listing 1): the optimized MQ at
/// (B, p) = (1, 1) on both sides, whatever `params` say of those knobs,
/// so only `c`, `seed` and the NUMA point apply (and are all `mq` takes).
OptimizedMqConfig make_classic_mq_config(unsigned threads,
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

#include "registry/scheduler_registry.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"
#include "registry/scheduler_configs.h"
#include "sched/topology.h"
#include "support/cli.h"

namespace smq {

ParamMap ParamMap::from_args(const ArgParser& args) {
  ParamMap params;
  for (const auto& [key, value] : args.options()) params.set(key, value);
  return params;
}

namespace {

void append(std::vector<Tunable>& dst, const std::vector<Tunable>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// The factory of a scheduler whose config builder may attach a simulated
/// NUMA topology: the erased scheduler keeps the topology alive, since
/// the config holds a raw pointer into it.
template <typename S, auto MakeConfig>
AnyScheduler make_with_topology(unsigned threads, const ParamMap& params) {
  std::shared_ptr<Topology> topo;
  auto any = AnyScheduler::make<S>(threads, MakeConfig(threads, params, topo));
  if (topo) any.attach(std::move(topo));
  return any;
}

std::vector<Tunable> smq_tunables() {
  std::vector<Tunable> t = {
      {"steal-size", "4", "batch size SIZE_steal"},
      {"p-steal", "1/8", "stealing probability (decimal or fraction)"},
      {"seed", "1", "RNG seed"},
  };
  append(t, numa_tunables());
  return t;
}

void register_builtins(SchedulerRegistry& reg) {
  reg.add({
      .name = "smq",
      .description = "Stealing Multi-Queue, d-ary heap local queues "
                     "(the paper's contribution)",
      .tunables = smq_tunables(),
      .make = make_with_topology<StealingMultiQueue<DAryHeap<Task, 4>>,
                                make_smq_config>,
  });

  reg.add({
      .name = "smq-skiplist",
      .description = "Stealing Multi-Queue with skip-list local queues "
                     "(Appendix D)",
      .tunables = smq_tunables(),
      .make = make_with_topology<StealingMultiQueue<SequentialSkipList>,
                                make_smq_config>,
  });

  {
    std::vector<Tunable> t = {
        {"c", "4", "queues per thread"},
        {"insert-batch", "16", "tasks buffered per locked insert (B)"},
        {"p-insert", "1", "probability of re-sampling the insert queue (p)"},
        {"delete-batch", "16", "tasks taken per locked delete (B)"},
        {"p-delete", "1", "probability of re-sampling the delete queue (p)"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "mq-opt",
        .description = "optimized Multi-Queue: task batching / temporal "
                       "locality (Section 2.1, Appendix C)",
        .tunables = std::move(t),
        .make = make_with_topology<OptimizedMultiQueue,
                                   make_optimized_mq_config>,
    });
  }

  // The classic Multi-Queue is mq-opt at (B, p) = (1, 1) on both sides:
  // batches of 1 and a fresh queue choice before every operation. Its
  // config builder fixes those four knobs, which leaves c, seed and the
  // NUMA options as its tunables.
  {
    std::vector<Tunable> t = {
        {"c", "4", "queues per thread"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "mq",
        .description = "classic Multi-Queue (Rihani et al.; paper Listing 1)",
        .tunables = std::move(t),
        .make = make_with_topology<OptimizedMultiQueue,
                                   make_classic_mq_config>,
    });
  }

  {
    std::vector<Tunable> t = {
        {"chunk-size", "64", "tasks per chunk"},
        {"delta-shift", "10", "log2(delta): priority bits merged per level"},
        // OBIM shards its bags per node but samples no queues, so it has
        // no remote weight K: only the node count applies.
        numa_tunables().front(),
    };
    reg.add({
        .name = "obim",
        .description = "Ordered By Integer Metric (Galois; Nguyen et al.)",
        .tunables = t,
        .make = make_with_topology<Obim, make_obim_config>,
    });

    t.push_back({"adapt-interval", "64", "chunk-pops between delta checks"});
    t.push_back({"split-threshold", "4096",
                 "tasks in the lowest level that force a delta split"});
    reg.add({
        .name = "pmod",
        .description = "OBIM with runtime delta adaptation (Yesil et al.)",
        .tunables = std::move(t),
        .make = make_with_topology<Pmod, make_pmod_config>,
    });
  }

  reg.add({
      .name = "spraylist",
      .description = "SprayList relaxed skip-list PQ (Alistarh et al.)",
      .tunables = {{"seed", "1", "RNG seed"},
                   {"height-offset", "1", "spray height = log T + offset"},
                   {"jump-scale", "1", "max jump multiplier"}},
      .make =
          [](unsigned threads, const ParamMap& params) {
            SprayConfig cfg;
            cfg.seed = params.get_uint("seed", 1);
            cfg.height_offset =
                static_cast<int>(params.get_int("height-offset", 1));
            cfg.jump_scale = static_cast<int>(params.get_int("jump-scale", 1));
            return AnyScheduler::make<SprayList>(threads, cfg);
          },
  });

  {
    std::vector<Tunable> t = {
        {"c", "1", "queues per thread"},
        {"seed", "1", "RNG seed"},
    };
    append(t, numa_tunables());
    reg.add({
        .name = "reld",
        .description = "Random Enqueue, Local Dequeue (Jeffrey et al.)",
        .tunables = std::move(t),
        .make = make_with_topology<ReldQueue, make_reld_config>,
    });
  }

  reg.add({
      .name = "lockfree-skiplist",
      .description = "exact delete-min over the lock-free skip list "
                     "(SprayList without the spray)",
      .tunables = {{"seed", "1", "RNG seed"}},
      .make =
          [](unsigned threads, const ParamMap& params) {
            GlobalSkipListScheduler::Config cfg;
            cfg.seed = params.get_uint("seed", 1);
            return AnyScheduler::make<GlobalSkipListScheduler>(threads, cfg);
          },
  });

  reg.add({
      .name = "sequential",
      .description = "exact single-thread d-ary heap (speedup baseline)",
      .max_threads = 1,
      .tunables = {},
      .make =
          [](unsigned, const ParamMap&) {
            return AnyScheduler::make<SequentialScheduler>(1u);
          },
  });
}

}  // namespace

SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry* reg = [] {
    auto* r = new SchedulerRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

AnyScheduler SchedulerRegistry::create(std::string_view name, unsigned threads,
                                       const ParamMap& params) const {
  const SchedulerEntry* entry = find(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown scheduler: " + std::string(name));
  }
  return entry->make(effective_threads(*entry, threads), params);
}

}  // namespace smq

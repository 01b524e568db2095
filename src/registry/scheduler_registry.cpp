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

ParamMap resolve_preset_params(const ParamMap& params, const ParamMap& defaults,
                               const ParamMap& pinned) {
  ParamMap resolved = params;
  for (const auto& [key, value] : defaults.entries()) {
    if (!resolved.has(key)) resolved.set(key, value);
  }
  for (const auto& [key, value] : pinned.entries()) {
    resolved.set(key, value);
  }
  return resolved;
}

ParamMap resolve_preset_params(const SchedulerEntry& entry,
                               const ParamMap& params) {
  return resolve_preset_params(params, entry.defaults, entry.pinned);
}

namespace {

void append(std::vector<Tunable>& dst, const std::vector<Tunable>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Register `name` as a preset over the already-registered `family`
/// entry: same factory, params resolved through pinned/defaults. The
/// preset inherits the family's tunables minus the pinned keys (those
/// are no longer knobs) with preset defaults substituted in.
void add_preset(SchedulerRegistry& reg, std::string name,
                std::string description, std::string family, ParamMap pinned,
                ParamMap defaults = {}) {
  const SchedulerEntry* base = reg.find(family);
  if (base == nullptr) {
    throw std::logic_error("preset '" + name + "' names unknown family '" +
                           family + "'");
  }
  SchedulerEntry entry;
  entry.name = std::move(name);
  entry.description = std::move(description);
  entry.max_threads = base->max_threads;
  entry.family = std::move(family);
  entry.pinned = std::move(pinned);
  entry.defaults = std::move(defaults);
  for (const Tunable& t : base->tunables) {
    if (entry.pinned.has(t.name)) continue;
    Tunable preset_t = t;
    if (entry.defaults.has(t.name)) {
      preset_t.default_value = entry.defaults.get(t.name);
    }
    entry.tunables.push_back(std::move(preset_t));
  }
  // Capture the overlays by value: the factory must resolve exactly like
  // resolve_preset_params() so virtual and static dispatch agree.
  entry.make = [base_make = base->make, pinned_copy = entry.pinned,
                defaults_copy = entry.defaults](unsigned threads,
                                                const ParamMap& params) {
    return base_make(
        threads, resolve_preset_params(params, defaults_copy, pinned_copy));
  };
  reg.add(std::move(entry));
}

/// The factory of a family whose config builder may attach a simulated
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
  // batches of 1 and a fresh queue choice before every operation. Pinning
  // every optimization knob leaves c, seed and the NUMA options as its
  // tunables.
  const ParamMap classic_mq = params_of({{"insert-batch", "1"},
                                         {"p-insert", "1"},
                                         {"delete-batch", "1"},
                                         {"p-delete", "1"}});
  add_preset(reg, "mq", "classic Multi-Queue (Rihani et al.; paper Listing 1)",
             "mq-opt", classic_mq);

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

  // ---- named sweep presets -------------------------------------------
  //
  // The paper's parameter grids as first-class registry keys, so
  // `--sched` and the figure suites (registry/suites.h) can enumerate
  // them like any other scheduler instead of benches hand-rolling the
  // loops. Pinned knobs win over conflicting CLI tunables — that is what
  // makes the key a preset; everything else (c, seed, numa, steal-size,
  // chunk-size, ...) still flows through. A grid point equal to a base
  // key's defaults gets no key of its own (mq is D = 1 and C = 4, smq
  // and smq-skiplist are p_steal = 1/8, reld is C = 1): suites spell it
  // as the base key.

  // mq-tl-p<D>: optimized MQ, temporal locality on insert AND delete,
  // (B, p) = (1, 1/D) on both sides (Figures 7-14's stickiness sweep).
  for (const int denom : {4, 16, 64, 256, 1024}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "mq-tl-p" + std::to_string(denom),
               "preset: mq-opt, temporal locality, p = " + p, "mq-opt",
               params_of({{"insert-batch", "1"},
                          {"p-insert", p},
                          {"delete-batch", "1"},
                          {"p-delete", p}}));
  }

  // reld-c<C>: RELD with C queues per thread (the C-sweep anchor).
  for (const unsigned c : {2u, 4u, 8u}) {
    add_preset(reg, "reld-c" + std::to_string(c),
               "preset: RELD with " + std::to_string(c) + " queues per thread",
               "reld", params_of({{"c", std::to_string(c)}}));
  }

  // obim-d<S> / pmod-d<S>: the Figures 3-6 delta sweep, delta = 2^S.
  // chunk-size stays tunable (the figures' other axis).
  for (const unsigned shift : {0u, 2u, 4u, 8u, 12u, 16u}) {
    const std::string s = std::to_string(shift);
    add_preset(reg, "obim-d" + s, "preset: OBIM with delta = 2^" + s, "obim",
               params_of({{"delta-shift", s}}));
    add_preset(reg, "pmod-d" + s,
               "preset: PMOD starting from delta = 2^" + s, "pmod",
               params_of({{"delta-shift", s}}));
  }

  // mq-c<C>: the classic-MQ queue-multiplier sweep (Tables 2-3).
  for (const unsigned c : {1u, 2u, 8u, 16u}) {
    ParamMap pinned = classic_mq;
    pinned.set("c", std::to_string(c));
    add_preset(reg, "mq-c" + std::to_string(c),
               "preset: classic MQ with C = " + std::to_string(c), "mq-opt",
               std::move(pinned));
  }

  // smq-p<D> / smq-sl-p<D>: the SMQ ablation pair (Figure 1 and
  // Figures 19-20), p_steal = 1/D; steal-size stays tunable (the
  // figures' other axis).
  for (const int denom : {2, 4, 16, 32, 64}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "smq-p" + std::to_string(denom),
               "preset: SMQ (heap), p_steal = " + p, "smq",
               params_of({{"p-steal", p}}));
  }
  for (const int denom : {2, 4, 16, 32}) {
    const std::string p = "1/" + std::to_string(denom);
    add_preset(reg, "smq-sl-p" + std::to_string(denom),
               "preset: SMQ (skip list), p_steal = " + p, "smq-skiplist",
               params_of({{"p-steal", p}}));
  }

  // mq-opt-full: the paper's representative full combo (Figures 15-16),
  // insertion batching plus deletion temporal locality, (B, p) =
  // (16, 1) / (1, 1/16). Batching on both sides is plain mq-opt.
  add_preset(reg, "mq-opt-full",
             "preset: mq-opt, insert batching + delete temporal locality",
             "mq-opt", params_of({{"p-insert", "1"}, {"delete-batch", "1"}}),
             params_of({{"insert-batch", "16"}, {"p-delete", "1/16"}}));
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

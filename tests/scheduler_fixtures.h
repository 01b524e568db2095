// Shared scheduler factories for the algorithm test suites: every
// algorithm is validated against its sequential oracle under every
// scheduler family the paper evaluates and the registry's exact
// global skip list, each through its own native handle.
#pragma once

#include <memory>
#include <string>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"

namespace smq::testing {

struct SmqHeapFactory {
  static constexpr const char* kName = "SmqHeap";
  using Type = StealingMultiQueue<DAryHeap<Task, 4>>;
  static Type make(unsigned threads) {
    return Type(threads, {.steal_size = 4, .p_steal = 0.25, .seed = 17});
  }
};

struct SmqSkipListFactory {
  static constexpr const char* kName = "SmqSkipList";
  using Type = StealingMultiQueue<SequentialSkipList>;
  static Type make(unsigned threads) {
    return Type(threads, {.steal_size = 2, .p_steal = 0.5, .seed = 18});
  }
};

/// The classic MQ (paper Listing 1): the Multi-Queue's default config.
struct ClassicMqFactory {
  static constexpr const char* kName = "ClassicMq";
  using Type = OptimizedMultiQueue;
  static Type make(unsigned threads) {
    return Type(threads, {.queue_multiplier = 4, .seed = 19});
  }
};

struct OptimizedMqFactory {
  static constexpr const char* kName = "OptimizedMq";
  using Type = OptimizedMultiQueue;
  static Type make(unsigned threads) {
    OptimizedMqConfig cfg;
    cfg.insert_batch = 4;
    cfg.delete_batch = 4;
    cfg.seed = 20;
    return Type(threads, cfg);
  }
};

struct ReldFactory {
  static constexpr const char* kName = "Reld";
  using Type = ReldQueue;
  static Type make(unsigned threads) { return Type(threads, {.seed = 21}); }
};

struct SprayListFactory {
  static constexpr const char* kName = "SprayList";
  using Type = SprayList;
  static Type make(unsigned threads) { return Type(threads, {.seed = 22}); }
};

struct ObimFactory {
  static constexpr const char* kName = "Obim";
  using Type = Obim;
  static Type make(unsigned threads) {
    return Type(threads, {.chunk_size = 8, .delta_shift = 6});
  }
};

struct PmodFactory {
  static constexpr const char* kName = "Pmod";
  using Type = Pmod;
  static Type make(unsigned threads) {
    return Type(threads, {.chunk_size = 8, .delta_shift = 4});
  }
};

struct GlobalSkipListFactory {
  static constexpr const char* kName = "GlobalSkipList";
  using Type = GlobalSkipListScheduler;
  static Type make(unsigned threads) { return Type(threads, {.seed = 23}); }
};

using AllSchedulerFactories =
    ::testing::Types<SmqHeapFactory, SmqSkipListFactory, ClassicMqFactory,
                     OptimizedMqFactory, ReldFactory, SprayListFactory,
                     ObimFactory, PmodFactory, GlobalSkipListFactory>;

}  // namespace smq::testing

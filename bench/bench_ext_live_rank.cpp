// Extension bench: empirical rank error of the *actual implementations*
// (live rank probe), complementing bench_theorem1_rank_bounds which
// simulates the analytical model. Demonstrates that the implementation
// details (stealing buffers, batching, locks) preserve the rank
// behaviour Theorem 1 predicts — the paper's central "analytically
// reasoned design still wins" argument.
#include <iostream>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/reld.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "rank/live_rank.h"
#include "support/cli.h"

int main(int argc, char** argv) {
  using namespace smq;
  const ArgParser args(argc, argv);
  const std::size_t elements = args.has_flag("full") ? 200000 : 50000;
  const auto threads = static_cast<unsigned>(args.get_int("threads", 8));
  std::cout << "=== Extension: live rank probe of real implementations "
               "===\n\n";

  TablePrinter table({"scheduler", "mean rank", "max rank"});
  auto probe = [&](const std::string& name, auto&& sched) {
    const LiveRankResult r = measure_live_rank(sched, elements, 99);
    table.add_row({name, TablePrinter::fmt(r.mean_rank),
                   std::to_string(r.max_rank)});
  };

  probe("SMQ heap (steal 1, p=1/2)",
        StealingMultiQueue<>(threads, {.steal_size = 1, .p_steal = 0.5}));
  probe("SMQ heap (steal 4, p=1/8)",
        StealingMultiQueue<>(threads, {.steal_size = 4, .p_steal = 0.125}));
  probe("SMQ heap (steal 64, p=1/8)",
        StealingMultiQueue<>(threads, {.steal_size = 64, .p_steal = 0.125}));
  probe("SMQ heap (steal 4, p=1/64)",
        StealingMultiQueue<>(threads, {.steal_size = 4, .p_steal = 1.0 / 64}));
  probe("SMQ skip-list (steal 4, p=1/8)",
        StealingMultiQueue<SequentialSkipList>(
            threads, {.steal_size = 4, .p_steal = 0.125}));
  probe("classic MQ (C=2)",
        OptimizedMultiQueue(threads, {.queue_multiplier = 2}));
  probe("classic MQ (C=8)",
        OptimizedMultiQueue(threads, {.queue_multiplier = 8}));
  {
    OptimizedMqConfig cfg;
    cfg.insert_batch = 16;
    cfg.delete_batch = 16;
    probe("MQ batched 16/16", OptimizedMultiQueue(threads, cfg));
  }
  probe("RELD", ReldQueue(threads, {}));
  probe("SprayList", SprayList(threads, {}));

  table.print(std::cout);
  std::cout << "\n" << elements << " elements, " << threads
            << " logical thread identities, single driver thread.\n"
            << "Expected ordering: SMQ(small batch, frequent steal) < "
               "classic MQ < SMQ(rare steal / big batch) << RELD.\n";
  return 0;
}

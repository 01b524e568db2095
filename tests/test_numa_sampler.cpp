// The NUMA evidence chain, end to end: weighted sampling frequencies
// against the analytic expectation, remoteness attribution against a
// brute-force oracle, balanced non-divisible topologies, hardened
// degenerate sampler cases, bounded victim resampling, and remote-steal
// stats surfacing through a full registry run.
#include "core/numa_sampler.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_configs.h"
#include "registry/scheduler_registry.h"
#include "registry/suite_runner.h"
#include "sched/executor.h"
#include "sched/topology.h"
#include "support/rng.h"

namespace smq {
namespace {

// ---- weighted frequencies vs the analytic p_local -------------------------

TEST(NumaSampler, FrequenciesMatchAnalyticLocalProbability) {
  // 8 threads, 2 nodes, C = 2 queues per thread: 8 local queues of
  // weight 1 vs 8 remote queues of weight 1/K per node.
  const unsigned kThreads = 8;
  const std::size_t kQueues = 16;
  const Topology topo(kThreads, 2);
  for (const double k : {2.0, 8.0, 64.0}) {
    const QueueSampler sampler(kQueues, kThreads, topo, k);
    ASSERT_TRUE(sampler.is_weighted());
    Xoshiro256 rng(42);
    constexpr int kSamples = 200000;
    int local = 0;
    std::map<std::size_t, int> counts;
    for (int i = 0; i < kSamples; ++i) {
      const std::size_t q = sampler.sample(/*tid=*/2, rng);
      ASSERT_LT(q, kQueues);
      ++counts[q];
      if (!sampler.is_remote(2, q)) ++local;
    }
    const double p_local = 8.0 / (8.0 + 8.0 / k);
    EXPECT_NEAR(static_cast<double>(local) / kSamples, p_local, 0.01)
        << "K=" << k;
    // Within each group the distribution is uniform: every queue must
    // appear, local ones ~kSamples * p_local / 8 times.
    EXPECT_EQ(counts.size(), kQueues) << "K=" << k;
    for (const auto& [q, n] : counts) {
      const double expected =
          sampler.is_remote(2, q) ? (1 - p_local) / 8 : p_local / 8;
      EXPECT_NEAR(static_cast<double>(n) / kSamples, expected, 0.01)
          << "K=" << k << " queue " << q;
    }
  }
}

// ---- is_remote vs a brute-force oracle ------------------------------------

TEST(NumaSampler, IsRemoteAgreesWithBruteForceOracle) {
  for (const unsigned threads : {2u, 5u, 8u}) {
    for (const unsigned nodes : {2u, 3u, 4u}) {
      if (nodes > threads) continue;
      const Topology topo(threads, nodes);
      for (const unsigned c : {1u, 3u}) {
        const std::size_t queues = static_cast<std::size_t>(threads) * c;
        // K = 1: sampling stays uniform but attribution must still work.
        for (const double k : {1.0, 8.0}) {
          const QueueSampler sampler =
              make_queue_sampler(queues, threads, &topo, k);
          ASSERT_TRUE(sampler.topology_aware());
          EXPECT_EQ(sampler.is_weighted(), k > 1.0);
          for (unsigned tid = 0; tid < threads; ++tid) {
            for (std::size_t q = 0; q < queues; ++q) {
              // Oracle: queue q belongs to thread q mod T, remote iff
              // the owner lives on a different node than tid.
              const unsigned owner = static_cast<unsigned>(q % threads);
              const bool oracle = topo.node_of_thread(owner) !=
                                  topo.node_of_thread(tid);
              EXPECT_EQ(sampler.is_remote(tid, q), oracle)
                  << "T=" << threads << " N=" << nodes << " C=" << c
                  << " K=" << k << " tid=" << tid << " q=" << q;
            }
          }
        }
      }
    }
  }
}

// ---- balanced non-divisible topologies ------------------------------------

TEST(NumaSampler, NonDivisibleTopologiesHaveNoEmptyNodes) {
  for (unsigned threads = 1; threads <= 16; ++threads) {
    for (unsigned nodes = 1; nodes <= threads; ++nodes) {
      const Topology topo(threads, nodes);
      ASSERT_EQ(topo.num_nodes(), nodes);
      unsigned total = 0;
      std::size_t min_occ = threads, max_occ = 0;
      for (unsigned node = 0; node < nodes; ++node) {
        const std::size_t occ = topo.threads_of_node(node).size();
        EXPECT_GE(occ, 1u) << threads << " threads over " << nodes
                           << " nodes left node " << node << " empty";
        min_occ = std::min(min_occ, occ);
        max_occ = std::max(max_occ, occ);
        total += static_cast<unsigned>(occ);
      }
      EXPECT_EQ(total, threads);
      EXPECT_LE(max_occ - min_occ, 1u)
          << "unbalanced split for " << threads << "/" << nodes;
    }
  }
  // The ISSUE's concrete regression: 6 threads over 4 nodes must be
  // 2/2/1/1, not 2/2/2/0.
  const Topology topo(6, 4);
  EXPECT_EQ(topo.threads_of_node(0).size(), 2u);
  EXPECT_EQ(topo.threads_of_node(1).size(), 2u);
  EXPECT_EQ(topo.threads_of_node(2).size(), 1u);
  EXPECT_EQ(topo.threads_of_node(3).size(), 1u);
}

TEST(NumaSampler, MoreNodesThanThreadsClampsInsteadOfEmptyNodes) {
  const Topology topo(3, 8);
  EXPECT_EQ(topo.num_nodes(), 3u);
  for (unsigned node = 0; node < topo.num_nodes(); ++node) {
    EXPECT_EQ(topo.threads_of_node(node).size(), 1u);
  }
}

// ---- hardened degenerate sampler cases ------------------------------------

TEST(NumaSampler, EmptyLocalGroupStillSamplesValidQueues) {
  // 2 queues, 4 threads, 4 nodes: threads 2 and 3 own no queues, so
  // their node groups have an empty local side (and with 2 single-queue
  // nodes remote too, depending on the split). Every sample must still
  // land in range.
  const Topology topo(4, 4);
  const QueueSampler sampler(2, 4, topo, 8.0);
  Xoshiro256 rng(7);
  for (unsigned tid = 0; tid < 4; ++tid) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(sampler.sample(tid, rng), 2u);
    }
  }
}

TEST(NumaSampler, SingleQueuePerNodeSamplesBothSides) {
  // 2 threads, 2 nodes: each node's local group is exactly the
  // thread's own queue. Heavy weighting must not wedge the sampler.
  const Topology topo(2, 2);
  const QueueSampler sampler(2, 2, topo, 1e9);
  Xoshiro256 rng(9);
  int self = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t q = sampler.sample(0, rng);
    ASSERT_LT(q, 2u);
    if (q == 0) ++self;
  }
  // With K = 1e9 essentially every sample is the local (own) queue.
  EXPECT_GT(self, 990);
}

TEST(NumaSampler, SmqVictimResamplingIsBounded) {
  // The scenario above, inside the SMQ: thread 1's weighted sampler
  // returns its own queue with probability ~1, so the self-exclusion
  // resampling must fall back to a uniform other pick instead of
  // spinning. The steal itself must then succeed (forced steal from an
  // empty local queue).
  const Topology topo(2, 2);
  SmqConfig cfg;
  cfg.topology = &topo;
  cfg.numa_weight_k = 1e9;
  SmqHeap smq(2, cfg);
  auto h0 = smq.handle(0);
  auto h1 = smq.handle(1);
  for (std::uint64_t i = 0; i < 64; ++i) h0.push(Task{i, i});
  const std::optional<Task> stolen = h1.try_pop();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->priority, 0u);
  EXPECT_GT(smq.steals(1), 0u);
  // Victim selection was sampled (and, with one thread per node,
  // necessarily remote).
  EXPECT_GT(smq.steal_samples(1), 0u);
  EXPECT_EQ(smq.remote_steals(1), smq.steal_samples(1));
}

TEST(NumaSampler, BlockedOwnershipMatchesStructuralOwners) {
  // RELD's layout: thread t owns queues [t*C, (t+1)*C). With blocked
  // ownership the sampler must attribute by q / C, not q mod T.
  const unsigned threads = 4, c = 2;
  const Topology topo(threads, 2);
  const QueueSampler sampler(threads * c, threads, topo, 8.0,
                             QueueOwnership::kBlocked);
  for (unsigned tid = 0; tid < threads; ++tid) {
    for (std::size_t q = 0; q < threads * c; ++q) {
      const unsigned owner = static_cast<unsigned>(q / c);
      EXPECT_EQ(sampler.is_remote(tid, q),
                topo.node_of_thread(owner) != topo.node_of_thread(tid))
          << "tid=" << tid << " q=" << q;
    }
  }
}

// ---- remote-steal stats through a full registry run -----------------------

TEST(NumaSampler, RemoteStealStatsSurfaceThroughRegistryRun) {
  ParamMap params;
  params.set("vertices", "4000");
  const GraphInstance graph = GraphRegistry::instance().create("rand", params);
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(algo, nullptr);

  // One NUMA-table point: 2 nodes, K = 8.
  params.set("numa", "2");
  params.set("numa-k", "8");
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 4, params);
  const AlgoResult result = algo->run(graph, sched, 4, params, nullptr);

  // The executor merged the scheduler-private NUMA counters: victim
  // sampling happened, and the weighted sampler still crossed nodes.
  EXPECT_GT(result.run.stats.sampled_accesses, 0u);
  EXPECT_GT(result.run.stats.remote_accesses, 0u);
  EXPECT_LT(result.run.stats.remote_accesses,
            result.run.stats.sampled_accesses);
  const double frac = result.run.stats.remote_frac();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 1.0);

  // UMA control: no topology, no sampled touches.
  ParamMap uma;
  uma.set("vertices", "4000");
  AnyScheduler uma_sched = SchedulerRegistry::instance().create("smq", 4, uma);
  const AlgoResult uma_result = algo->run(graph, uma_sched, 4, uma, nullptr);
  EXPECT_EQ(uma_result.run.stats.sampled_accesses, 0u);
  EXPECT_EQ(uma_result.run.stats.remote_accesses, 0u);

  // RELD takes the NUMA point too: weighted enqueue sampling must show
  // up in the merged stats.
  ParamMap reld_params = params;
  reld_params.set("c", "2");
  AnyScheduler reld =
      SchedulerRegistry::instance().create("reld", 4, reld_params);
  const AlgoResult reld_result = algo->run(graph, reld, 4, params, nullptr);
  EXPECT_GT(reld_result.run.stats.sampled_accesses, 0u);
  EXPECT_GT(reld_result.run.stats.remote_accesses, 0u);
  EXPECT_LT(reld_result.run.stats.remote_frac(), 0.5);

  // K must bias SMQ's victim choice. At 2 threads each node holds one
  // thread, so every sampled victim is remote whatever K is; at 4
  // threads over 2 nodes a thread has a same-node victim, and a large K
  // should keep most samples on it (at 4000 vertices: 0.68 at K=1, 0.22
  // at K=8, ~0.03 at K=64).
  const auto smq_remote_frac = [&](const char* k) {
    const ParamMap p = params_of({{"numa", "2"}, {"numa-k", k}});
    AnyScheduler smq = SchedulerRegistry::instance().create("smq", 4, p);
    const ThreadStats stats = algo->run(graph, smq, 4, p, nullptr).run.stats;
    EXPECT_GT(stats.sampled_accesses, 0u) << k;
    return stats.remote_frac();
  };
  const double uniform = smq_remote_frac("1");
  const double weighted = smq_remote_frac("64");
  EXPECT_GT(uniform, 0.3);
  EXPECT_LT(weighted, uniform / 2) << "K=1: " << uniform;
}

// ---- the NUMA point: `numa` is a node count, `numa-k` is K ----------------

TEST(NumaPoint, OldSpellingsAndGarbageAreRejected) {
  // The retired key=value grammar ("2,k=8", "k=8") must not run UMA
  // silently; neither may a node count that is not a whole number.
  for (const char* numa : {"2,k=8", "k=8", "banana", "-1", "2.5", "2x"}) {
    SCOPED_TRACE(numa);
    EXPECT_THROW(parse_numa(params_of({{"numa", numa}}), 4),
                 std::invalid_argument);
    EXPECT_THROW(SchedulerRegistry::instance().create(
                     "smq", 4, params_of({{"numa", numa}})),
                 std::invalid_argument);
  }
  for (const char* k : {"0", "-8", "x", "8x", "nan", "inf"}) {
    SCOPED_TRACE(k);
    EXPECT_THROW(parse_numa(params_of({{"numa", "2"}, {"numa-k", k}}), 4),
                 std::invalid_argument);
  }
  // What is left: a node count (clamped to the thread count), and K,
  // defaulting to kDefaultNumaK.
  const NumaOptions unset = parse_numa({}, 4);
  EXPECT_EQ(unset.nodes, 0u);
  EXPECT_EQ(unset.k, kDefaultNumaK);
  const NumaOptions point =
      parse_numa(params_of({{"numa", "4"}, {"numa-k", "1.5"}}), 2);
  EXPECT_EQ(point.nodes, 2u);
  EXPECT_EQ(point.k, 1.5);
}

TEST(NumaPoint, PinnedPointDrivesTopologyRebuild) {
  // A NUMA-table row pins `numa` and `numa-k` on its run; the scheduler
  // configs must rebuild the topology for it, and a CLI numa-k must not
  // override the pinned K.
  const ParamMap cli = params_of({{"numa-k", "2"}});
  ParamMap params = merge_run_params(
      cli, params_of({{"numa", "4"}, {"numa-k", "16"}}));
  std::shared_ptr<Topology> topo;
  const SmqConfig cfg = make_smq_config(8, params, topo);
  ASSERT_NE(topo, nullptr);
  EXPECT_EQ(topo->num_nodes(), 4u);
  EXPECT_EQ(cfg.numa_weight_k, 16.0);

  params = merge_run_params(cli, params_of({{"numa", "1"}}));
  std::shared_ptr<Topology> uma;
  make_smq_config(8, params, uma);
  EXPECT_EQ(uma, nullptr);
}

TEST(NumaPoint, ExpectedInternalFractionFollowsTheParsedPoint) {
  // E = 1 without a topology; at 4 threads on 2 nodes, K=1 samples
  // uniformly (E = 1/2) and K=8 gives 2 / (2 + 2/8) = 8/9.
  const auto e = [](const char* nodes, const char* k, unsigned threads,
                    bool exclude_own_queue = false) {
    return expected_internal_fraction(
        parse_numa(params_of({{"numa", nodes}, {"numa-k", k}}), threads),
        threads, exclude_own_queue);
  };
  EXPECT_DOUBLE_EQ(e("1", "1", 4), 1.0);
  EXPECT_DOUBLE_EQ(e("2", "1", 4), 0.5);
  EXPECT_NEAR(e("2", "8", 4), 8.0 / 9.0, 1e-12);
  // SMQ draws a steal victim among the other threads: one local and two
  // remote candidates per thread, so K=1 gives 1/3 and K=8 gives
  // 1 / (1 + 2/8) = 4/5; at 2 threads every victim is remote.
  EXPECT_DOUBLE_EQ(e("1", "1", 4, true), 1.0);
  EXPECT_NEAR(e("2", "1", 4, true), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(e("2", "8", 4, true), 4.0 / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(e("2", "8", 2, true), 0.0);
}

}  // namespace
}  // namespace smq

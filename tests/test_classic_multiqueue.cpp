// Tests for the classic Multi-Queue (paper Listing 1).
#include "queues/classic_multiqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/topology.h"

namespace smq {
namespace {

TEST(ClassicMultiQueue, QueueCountIsCTimesThreads) {
  ClassicMultiQueue mq(4, {.queue_multiplier = 3});
  EXPECT_EQ(mq.num_queues(), 12u);
  EXPECT_EQ(mq.num_threads(), 4u);
}

TEST(ClassicMultiQueue, SingleThreadRoundTrip) {
  ClassicMultiQueue mq(1, {.queue_multiplier = 4});
  auto h0 = mq.handle(0);
  for (std::uint64_t p = 0; p < 50; ++p) h0.push(Task{p, p});
  EXPECT_EQ(mq.approx_size(), 50u);
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->priority);
  ASSERT_EQ(got.size(), 50u);
  std::sort(got.begin(), got.end());
  for (std::uint64_t p = 0; p < 50; ++p) EXPECT_EQ(got[p], p);
}

TEST(ClassicMultiQueue, TwoChoiceKeepsRankModerate) {
  // The structural property behind the O(m) expected rank: pops are not
  // exact, but the average rank error stays near the number of queues,
  // far below random single-choice.
  const unsigned kThreads = 4;
  ClassicMultiQueue mq(kThreads, {.queue_multiplier = 2, .seed = 3});
  auto h0 = mq.handle(0);
  const std::uint64_t kTasks = 20000;
  for (std::uint64_t p = 0; p < kTasks; ++p) h0.push(Task{p, p});
  std::uint64_t popped = 0;
  double rank_error_sum = 0;
  while (auto t = h0.try_pop()) {
    // Rank error lower bound: how far behind the global front this pop is.
    rank_error_sum +=
        static_cast<double>(t->priority > popped ? t->priority - popped : 0);
    ++popped;
  }
  ASSERT_EQ(popped, kTasks);
  const double mean_error = rank_error_sum / static_cast<double>(kTasks);
  // m = 8 queues: expected rank O(m); allow generous slack.
  EXPECT_LT(mean_error, 64.0);
}

TEST(ClassicMultiQueue, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  ClassicMultiQueue mq(kThreads, {.queue_multiplier = 4, .seed = 5});
  auto h0 = mq.handle(0);

  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = mq.handle(tid);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          h.push(Task{i, tid * kPerThread + i});
          if (i % 2 == 1) {
            if (auto t = h.try_pop()) local.push_back(t->payload);
          }
        }
        while (auto t = h.try_pop()) local.push_back(t->payload);
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  while (auto t = h0.try_pop()) ++seen[t->payload];

  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

TEST(ClassicMultiQueue, NumaWeightedSamplingStillCorrect) {
  const unsigned kThreads = 4;
  Topology topo(kThreads, 2);
  ClassicMultiQueue mq(kThreads, {.queue_multiplier = 2,
                                  .seed = 7,
                                  .topology = &topo,
                                  .numa_weight_k = 16.0});
  for (std::uint64_t p = 0; p < 1000; ++p) {
    mq.handle(p % kThreads).push(Task{p, p});
  }
  std::map<std::uint64_t, int> seen;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    auto h = mq.handle(tid);
    while (auto t = h.try_pop()) ++seen[t->payload];
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ClassicMultiQueue, EmptyPopReturnsNullopt) {
  ClassicMultiQueue mq(2, {});
  auto h0 = mq.handle(0);
  auto h1 = mq.handle(1);
  EXPECT_FALSE(h0.try_pop().has_value());
  h0.push(Task{1, 1});
  EXPECT_TRUE(h1.try_pop().has_value());
  EXPECT_FALSE(h1.try_pop().has_value());
}

}  // namespace
}  // namespace smq

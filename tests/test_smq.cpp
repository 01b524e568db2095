// Tests for the Stealing Multi-Queue (the paper's core contribution).
#include "core/stealing_multiqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "queues/skiplist.h"
#include "sched/task.h"

namespace smq {
namespace {

using HeapSmq = StealingMultiQueue<DAryHeap<Task, 4>>;
using SkipSmq = StealingMultiQueue<SequentialSkipList>;

template <typename Q>
class SmqTyped : public ::testing::Test {};

using SmqTypes = ::testing::Types<HeapSmq, SkipSmq>;
TYPED_TEST_SUITE(SmqTyped, SmqTypes);

TYPED_TEST(SmqTyped, SingleThreadDrainsEverything) {
  TypeParam smq(1, {.steal_size = 4, .p_steal = 0.5});
  for (std::uint64_t p = 0; p < 100; ++p) smq.push(0, Task{p, p});
  std::vector<std::uint64_t> got;
  while (auto t = smq.try_pop(0)) got.push_back(t->priority);
  ASSERT_EQ(got.size(), 100u);
  std::sort(got.begin(), got.end());
  for (std::uint64_t p = 0; p < 100; ++p) EXPECT_EQ(got[p], p);
}

TYPED_TEST(SmqTyped, SingleThreadRespectsPriorityOrder) {
  // With one thread there is nobody to steal from; pops must come out in
  // exact priority order (modulo the batch already in the buffer, which
  // also holds the best tasks).
  TypeParam smq(1, {.steal_size = 1, .p_steal = 0.0});
  for (std::uint64_t p : {5, 2, 9, 1, 7}) smq.push(0, Task{p, p});
  std::vector<std::uint64_t> got;
  while (auto t = smq.try_pop(0)) got.push_back(t->priority);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 5, 7, 9}));
}

TYPED_TEST(SmqTyped, CrossThreadStealWorks) {
  TypeParam smq(2, {.steal_size = 2, .p_steal = 1.0});
  // Thread 0 owns all tasks; thread 1 steals the published batch. Tasks
  // still in the owner's heap stay invisible until the owner republishes
  // (by touching its queue), exactly as in Listing 4.
  for (std::uint64_t p = 0; p < 10; ++p) smq.push(0, Task{p, p});
  auto stolen = smq.try_pop(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->priority, 0u);  // the published batch held the best task
  EXPECT_GT(smq.steals(1), 0u);

  // Owner and thief alternate; between them every task must surface.
  std::vector<std::uint64_t> got{stolen->priority};
  while (got.size() < 10) {
    if (auto t = smq.try_pop(0)) got.push_back(t->priority);  // owner refills
    if (auto t = smq.try_pop(1)) got.push_back(t->priority);
  }
  EXPECT_FALSE(smq.try_pop(0).has_value());
  std::sort(got.begin(), got.end());
  for (std::uint64_t p = 0; p < 10; ++p) EXPECT_EQ(got[p], p);
}

TYPED_TEST(SmqTyped, NoStealWhenLocalBetter) {
  TypeParam smq(2, {.steal_size = 1, .p_steal = 1.0});
  smq.push(0, Task{100, 0});  // victim's visible top: 100
  smq.push(1, Task{1, 1});    // local top: 1 — better, never steal
  const auto t = smq.try_pop(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->priority, 1u);
  EXPECT_EQ(smq.steals(1), 0u);
}

TYPED_TEST(SmqTyped, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  TypeParam smq(kThreads, {.steal_size = 4, .p_steal = 0.25, .seed = 9});

  std::atomic<std::uint64_t> popped_count{0};
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;

  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        std::vector<std::uint64_t> local_seen;
        // Interleave pushes and pops.
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          smq.push(tid, Task{id, id});
          if (i % 3 == 0) {
            if (auto t = smq.try_pop(tid)) {
              local_seen.push_back(t->payload);
              popped_count.fetch_add(1);
            }
          }
        }
        // Drain phase.
        while (auto t = smq.try_pop(tid)) {
          local_seen.push_back(t->payload);
          popped_count.fetch_add(1);
        }
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local_seen) ++seen[id];
      });
    }
  }

  // A lone racing claim can leave a few tasks in a thread's local queue;
  // drain once more from thread 0's perspective.
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    while (auto t = smq.try_pop(tid)) {
      std::lock_guard<std::mutex> guard(merge_mutex);
      ++seen[t->payload];
      popped_count.fetch_add(1);
    }
  }

  EXPECT_EQ(popped_count.load(), kThreads * kPerThread);
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id << " popped " << count << " times";
  }
}

TYPED_TEST(SmqTyped, StolenBufferConsumedBeforeNewSteals) {
  TypeParam smq(2, {.steal_size = 3, .p_steal = 1.0});
  // The first add publishes a 1-task batch {5}; the owner's first pop
  // reclaims it and republishes the next batch {6, 7} from the heap.
  smq.push(0, Task{5, 5});
  smq.push(0, Task{6, 6});
  smq.push(0, Task{7, 7});
  ASSERT_EQ(smq.try_pop(0)->priority, 5u);

  // Thread 1 steals the batch {6, 7}: first pop returns 6 via a steal,
  // second returns 7 from the local stolen-task buffer, no new steal.
  auto first = smq.try_pop(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 6u);
  const std::uint64_t steals_before = smq.steals(1);
  ASSERT_GT(steals_before, 0u);
  auto second = smq.try_pop(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->priority, 7u);
  EXPECT_EQ(smq.steals(1), steals_before);
}

TYPED_TEST(SmqTyped, ChildrenOfAReclaimedSeedAreStolen) {
  // Single-source seeding: thread 0 pops its only task (reclaiming the
  // seed batch), then pushes the children; thread 1, with nothing of its
  // own, must be able to take them.
  TypeParam smq(2, {.steal_size = 4, .p_steal = 0.0});
  smq.push(0, Task{0, 0});
  ASSERT_EQ(smq.try_pop(0)->priority, 0u);
  for (std::uint64_t p = 1; p <= 5; ++p) smq.push(0, Task{p, p});
  const auto stolen = smq.try_pop(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->priority, 1u);
  EXPECT_EQ(smq.steals(1), 1u);
}

TYPED_TEST(SmqTyped, BatchPopForcesAStealOnlyForItsFirstTask) {
  TypeParam smq(2, {.steal_size = 4, .p_steal = 0.0});
  smq.push(1, Task{10, 10});  // thread 1 publishes {10}
  smq.push(0, Task{1, 1});
  smq.push(0, Task{2, 2});
  // With local work, the batch stops when the local queue runs dry
  // instead of topping itself up from thread 1.
  std::vector<Task> out;
  EXPECT_EQ(smq.try_pop_batch(0, out, 8), 2u);
  EXPECT_EQ(smq.steals(0), 0u);
  // With nothing local, the batch's first pop still steals.
  out.clear();
  ASSERT_EQ(smq.try_pop_batch(0, out, 8), 1u);
  EXPECT_EQ(out.front().priority, 10u);
  EXPECT_EQ(smq.steals(0), 1u);
}

TEST(SmqConfigTest, DefaultsMatchPaper) {
  const SmqConfig cfg;
  EXPECT_EQ(cfg.steal_size, 4u);
  EXPECT_DOUBLE_EQ(cfg.p_steal, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(cfg.numa_weight_k, 8.0);
}

}  // namespace
}  // namespace smq

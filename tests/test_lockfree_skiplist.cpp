// Tests for the lock-free skip list (SprayList substrate).
#include "queues/lockfree_skiplist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "support/rng.h"

namespace smq {
namespace {

TEST(LockFreeSkipList, StartsEmpty) {
  LockFreeSkipList list(1);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.pop_min(), std::nullopt);
  EXPECT_EQ(list.count_live(), 0u);
}

TEST(LockFreeSkipList, SequentialPopsInOrder) {
  LockFreeSkipList list(1);
  Xoshiro256 rng(1);
  for (std::uint64_t p : {9, 1, 5, 3, 7, 2, 8}) {
    list.insert(0, Task{p, p}, rng);
  }
  EXPECT_EQ(list.count_live(), 7u);
  for (std::uint64_t expect : {1, 2, 3, 5, 7, 8, 9}) {
    auto t = list.pop_min();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->priority, expect);
  }
  EXPECT_TRUE(list.empty());
}

TEST(LockFreeSkipList, DuplicateKeysAllowed) {
  LockFreeSkipList list(1);
  Xoshiro256 rng(2);
  for (int i = 0; i < 10; ++i) list.insert(0, Task{5, 5}, rng);
  for (int i = 0; i < 10; ++i) {
    auto t = list.pop_min();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->priority, 5u);
  }
  EXPECT_TRUE(list.empty());
}

TEST(LockFreeSkipList, RandomSequentialAgainstSort) {
  LockFreeSkipList list(1);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::uint64_t p = rng.next_below(400);
    list.insert(0, Task{p, i}, rng);
    expected.push_back(p);
  }
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    auto t = list.pop_min();
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->priority, expected[i]) << "at " << i;
  }
}

TEST(LockFreeSkipList, SprayLandsOnLiveNode) {
  LockFreeSkipList list(4);
  Xoshiro256 rng(4);
  for (std::uint64_t p = 0; p < 1000; ++p) list.insert(0, Task{p, p}, rng);
  double landing_sum = 0;
  for (int i = 0; i < 200; ++i) {
    LockFreeSkipList::Node* node = list.spray(3, 4, rng);
    ASSERT_NE(node, nullptr);
    landing_sum += static_cast<double>(node->task.priority);
  }
  // Sprays land in a prefix whose expected size is O(jumps * 2^level):
  // the mean landing must sit far from uniform (which would be ~500).
  EXPECT_LT(landing_sum / 200.0, 150.0);
}

TEST(LockFreeSkipList, ConcurrentInsertsAllSurvive) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 4000;
  LockFreeSkipList list(kThreads);
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        Xoshiro256 rng(tid + 100);
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          const EpochManager::Guard guard = list.pin(tid);
          list.insert(tid, Task{id, id}, rng);
        }
      });
    }
  }
  EXPECT_EQ(list.count_live(), kThreads * kPerThread);
  // Everything pops exactly once, in order.
  for (std::uint64_t expect = 0; expect < kThreads * kPerThread; ++expect) {
    auto t = list.pop_min();
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->priority, expect);
  }
}

TEST(LockFreeSkipList, ConcurrentMixedNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  LockFreeSkipList list(kThreads);
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        Xoshiro256 rng(tid + 55);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          const EpochManager::Guard guard = list.pin(tid);
          list.insert(tid, Task{id, id}, rng);
          if (i % 2 == 1) {
            if (auto t = list.pop_min(tid)) local.push_back(t->payload);
          }
        }
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  while (auto t = list.pop_min()) ++seen[t->payload];
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

// ---- epoch reclamation ----------------------------------------------------

TEST(LockFreeSkipListReclaim, FootprintPlateausAcrossFillDrainCycles) {
  // Popped nodes cycle retire -> limbo -> per-thread free list -> reuse,
  // so repeated fill/drain rounds must stop growing the arena after the
  // first few.
  LockFreeSkipList list(1);
  Xoshiro256 rng(6);
  constexpr std::uint64_t kPerRound = 2000;

  std::size_t warmup_footprint = 0;
  for (int round = 0; round < 12; ++round) {
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      const EpochManager::Guard guard = list.pin(0);
      list.insert(0, Task{i, i}, rng);
    }
    for (std::uint64_t i = 0; i < kPerRound; ++i) {
      const EpochManager::Guard guard = list.pin(0);
      ASSERT_TRUE(list.pop_min(0).has_value());
    }
    // Between rounds the thread is idle: let limbo drain into the free
    // list the way a parked service worker would.
    list.quiesce(0);
    list.quiesce(0);
    if (round == 3) warmup_footprint = list.memory_footprint();
  }
  ASSERT_GT(warmup_footprint, 0u);
  EXPECT_LE(list.memory_footprint(), warmup_footprint)
      << "arena kept growing despite node reuse";
  EXPECT_GT(list.free_count(0), 0u) << "no node ever reached the free list";
}

TEST(LockFreeSkipListReclaim, ConcurrentMixedWithReclamationExactlyOnce) {
  // The ASan/TSan target: racing inserts and pops while nodes retire
  // and get reused. A premature free surfaces as a UAF, a lost unlink
  // as a missing/duplicated payload.
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  LockFreeSkipList list(kThreads);
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        Xoshiro256 rng(tid + 77);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          {
            const EpochManager::Guard guard = list.pin(tid);
            list.insert(tid, Task{id, id}, rng);
          }
          if (i % 2 == 1) {
            const EpochManager::Guard guard = list.pin(tid);
            if (auto t = list.pop_min(tid)) local.push_back(t->payload);
          }
        }
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  while (auto t = list.pop_min(0)) ++seen[t->payload];
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

}  // namespace
}  // namespace smq

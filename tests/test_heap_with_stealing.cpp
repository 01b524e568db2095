// Tests for HeapWithStealingBuffer: owner/stealer protocol of Listing 4.
#include "core/heap_with_stealing.h"

#include <gtest/gtest.h>

#include <vector>

#include "queues/skiplist.h"
#include "sched/task.h"

namespace smq {
namespace {

template <typename Q>
class HeapWithStealingTyped : public ::testing::Test {};

using LocalQueueTypes = ::testing::Types<DAryHeap<Task, 4>, SequentialSkipList>;
TYPED_TEST_SUITE(HeapWithStealingTyped, LocalQueueTypes);

TYPED_TEST(HeapWithStealingTyped, EmptyQueueClassifiesEmpty) {
  HeapWithStealingBuffer<TypeParam> q(4);
  EXPECT_EQ(q.classify_pop(), OwnerPopSource::kEmpty);
  EXPECT_EQ(q.local_top_priority(), Task::kInfinity);
  EXPECT_EQ(q.steal_top_priority(), Task::kInfinity);
}

TYPED_TEST(HeapWithStealingTyped, AddFillsBufferForStealers) {
  HeapWithStealingBuffer<TypeParam> q(4);
  q.add_local(Task{10, 1});
  // First add triggers a fill (buffer starts stolen): task is visible.
  EXPECT_EQ(q.steal_top_priority(), 10u);
  EXPECT_EQ(q.heap_size(), 0u);  // moved into the buffer
}

TYPED_TEST(HeapWithStealingTyped, BufferHoldsBestTasks) {
  HeapWithStealingBuffer<TypeParam> q(2);
  for (std::uint64_t p : {50, 10, 30, 20, 40}) q.add_local(Task{p, p});
  // Buffer was filled at first add (task 50); subsequent adds go to the
  // heap. Stealers see the buffer head.
  EXPECT_EQ(q.steal_top_priority(), 50u);
  // Owner sees min(buffer head, heap top) = 10.
  EXPECT_EQ(q.local_top_priority(), 10u);
}

TYPED_TEST(HeapWithStealingTyped, OwnerDrainsInPriorityOrderViaReclaim) {
  HeapWithStealingBuffer<TypeParam> q(2);
  for (std::uint64_t p : {5, 3, 1, 4, 2}) q.add_local(Task{p, p});
  std::vector<std::uint64_t> popped;
  while (true) {
    const OwnerPopSource src = q.classify_pop();
    if (src == OwnerPopSource::kEmpty) break;
    if (src == OwnerPopSource::kHeap) {
      popped.push_back(q.pop_heap().priority);
    } else {
      std::vector<Task> claimed;
      ASSERT_GT(q.reclaim_buffer(claimed), 0u);
      for (const Task& t : claimed) popped.push_back(t.priority);
    }
  }
  // Every task comes out exactly once; order is priority-sorted within
  // each source decision.
  ASSERT_EQ(popped.size(), 5u);
  std::vector<std::uint64_t> sorted = popped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TYPED_TEST(HeapWithStealingTyped, StealTakesWholeBatch) {
  HeapWithStealingBuffer<TypeParam> q(3);
  q.add_local(Task{7, 0});  // fills buffer with {7}
  for (std::uint64_t p : {1, 2, 3}) q.add_local(Task{p, p});
  std::vector<Task> stolen;
  EXPECT_EQ(q.try_steal(stolen), 1u);  // batch was {7}
  EXPECT_EQ(stolen[0].priority, 7u);
  // After the steal the buffer is stolen until the owner refills.
  EXPECT_EQ(q.steal_top_priority(), Task::kInfinity);
  // Owner's next classify refills from the heap: best 3 tasks visible.
  (void)q.classify_pop();
  EXPECT_EQ(q.steal_top_priority(), 1u);
}

TYPED_TEST(HeapWithStealingTyped, RefillAfterStealExposesNextBatch) {
  HeapWithStealingBuffer<TypeParam> q(2);
  for (std::uint64_t p = 1; p <= 6; ++p) q.add_local(Task{p, p});
  std::vector<Task> stolen;
  ASSERT_GT(q.try_steal(stolen), 0u);
  (void)q.classify_pop();  // owner refills
  std::vector<Task> second;
  ASSERT_GT(q.try_steal(second), 0u);
  // Batches must not overlap.
  for (const Task& a : stolen) {
    for (const Task& b : second) EXPECT_NE(a.payload, b.payload);
  }
}

TYPED_TEST(HeapWithStealingTyped, ChildrenOfAReclaimedSeedStayStealable) {
  // The single-source shape of every graph run: the owner reclaims its
  // only task, leaving the local queue empty, then pushes children.
  HeapWithStealingBuffer<TypeParam> q(4);
  q.add_local(Task{0, 0});
  ASSERT_EQ(q.classify_pop(), OwnerPopSource::kBuffer);
  std::vector<Task> seed;
  ASSERT_EQ(q.reclaim_buffer(seed), 1u);
  EXPECT_EQ(q.classify_pop(), OwnerPopSource::kEmpty);
  for (std::uint64_t p = 1; p <= 5; ++p) q.add_local(Task{p, p});
  // An empty refill must not have been published: the children reach
  // the buffer, where another thread can see and steal them.
  EXPECT_EQ(q.steal_top_priority(), 1u);
  std::vector<Task> stolen;
  ASSERT_GT(q.try_steal(stolen), 0u);
  EXPECT_EQ(stolen.front().priority, 1u);
}

TYPED_TEST(HeapWithStealingTyped, StealSizeOneBehavesLikeSingleTask) {
  HeapWithStealingBuffer<TypeParam> q(1);
  q.add_local(Task{4, 4});
  q.add_local(Task{2, 2});
  std::vector<Task> stolen;
  EXPECT_EQ(q.try_steal(stolen), 1u);
  EXPECT_EQ(stolen[0].priority, 4u);
}

}  // namespace
}  // namespace smq

// The per-thread handle API (scheduler_traits.h): concept coverage over
// every scheduler family, handle lifetime/reuse across runs, and
// flush-before-termination through handles.
#include "sched/scheduler_traits.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"
#include "registry/any_scheduler.h"
#include "sched/executor.h"

namespace smq {
namespace {

// ---- concept coverage -----------------------------------------------------

// Every scheduler family exposes a native handle ...
static_assert(PriorityScheduler<StealingMultiQueue<>>);
static_assert(PriorityScheduler<StealingMultiQueue<SequentialSkipList>>);
static_assert(PriorityScheduler<OptimizedMultiQueue>);
static_assert(PriorityScheduler<Obim>);
static_assert(PriorityScheduler<Pmod>);
static_assert(PriorityScheduler<ReldQueue>);
static_assert(PriorityScheduler<GlobalSkipListScheduler>);
static_assert(PriorityScheduler<SequentialScheduler>);
static_assert(PriorityScheduler<SprayList>);
// ... and the type-erasure boundary forwards them.
static_assert(PriorityScheduler<AnyScheduler>);

// ---- handle lifetime and reuse --------------------------------------------

TEST(HandleApi, HandlesStayValidAcrossRunsAndReacquisition) {
  StealingMultiQueue<> sched(2, {.p_steal = 0.25, .seed = 5});
  auto h0 = sched.handle(0);

  // Use before a run...
  h0.push(Task{7, 77});
  ASSERT_TRUE(h0.try_pop().has_value());

  // ...two full executor runs on the same scheduler instance...
  for (int round = 0; round < 2; ++round) {
    std::vector<Task> seeds;
    for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(Task{i, i});
    std::atomic<std::uint64_t> executed{0};
    run_parallel(
        sched, std::span<const Task>(seeds),
        [&](Task, auto&) { executed.fetch_add(1, std::memory_order_relaxed); },
        2);
    EXPECT_EQ(executed.load(), 100u) << "round " << round;
  }

  // ...and the pre-run handle still views the same (now drained) state,
  // interchangeably with a freshly acquired one.
  EXPECT_FALSE(h0.try_pop().has_value());
  h0.push(Task{1, 11});
  auto h0_again = sched.handle(0);
  const std::optional<Task> t = h0_again.try_pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->payload, 11u);
}

// ---- flush-before-termination through handles -----------------------------

/// Thread 0's pushes sit in its handle's insert buffer: thread 1's handle
/// must see none of them before h0.flush() and all of them after.
template <PriorityScheduler S>
void expect_flush_publishes(S& sched, const char* name) {
  auto h0 = sched.handle(0);
  auto h1 = sched.handle(1);
  for (std::uint64_t i = 0; i < 10; ++i) h0.push(Task{i, i});
  EXPECT_FALSE(h1.try_pop().has_value())
      << name << ": unflushed pushes leaked";
  h0.flush();
  std::vector<Task> out;
  EXPECT_EQ(h1.try_pop_batch(out, 100), 10u) << name;
}

TEST(HandleApi, BufferedInsertsPublishThroughHandleFlush) {
  // mq-opt with a large insert batch buffers pushes thread-locally.
  OptimizedMqConfig cfg;
  cfg.insert_batch = 64;
  cfg.seed = 9;
  OptimizedMultiQueue mq(2, cfg);
  expect_flush_publishes(mq, "mq-opt");
}

TEST(HandleApi, ExecutorTerminatesWithBufferedHandlesAtEveryBatchSize) {
  // The executor's termination protocol flushes through the handle; a
  // partially filled insert buffer must never strand tasks or hang the
  // run, in either loop.
  for (const std::size_t batch_size : {1ul, 5ul, 64ul}) {
    OptimizedMqConfig cfg;
    cfg.insert_batch = 64;  // guaranteed partially-filled buffers
    cfg.delete_batch = 4;
    OptimizedMultiQueue sched(2, cfg);
    std::vector<Task> seeds{Task{0, 0}};
    std::atomic<std::uint64_t> executed{0};
    run_parallel(
        sched, std::span<const Task>(seeds),
        [&](Task t, auto& ctx) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (t.priority < 6) {
            for (int i = 0; i < 3; ++i) {
              ctx.push(Task{t.priority + 1, t.payload * 3 + i});
            }
          }
        },
        2, ExecutorOptions{.batch_size = batch_size});
    std::uint64_t expected = 0, power = 1;
    for (int level = 0; level <= 6; ++level, power *= 3) expected += power;
    EXPECT_EQ(executed.load(), expected) << "batch_size=" << batch_size;
  }
}

}  // namespace
}  // namespace smq

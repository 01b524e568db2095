// Tests for the parallel executor: termination detection, stats, and the
// scheduler concept plumbing.
#include "sched/executor.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/sequential_scheduler.h"

namespace smq {
namespace {

static_assert(PriorityScheduler<SequentialScheduler>);
static_assert(PriorityScheduler<OptimizedMultiQueue>);
static_assert(PriorityScheduler<StealingMultiQueue<>>);

TEST(Executor, RunsAllSeedTasksOnce) {
  SequentialScheduler sched;
  std::vector<Task> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(Task{i, i});
  std::atomic<std::uint64_t> executed{0};
  const RunResult run = run_parallel(
      sched, seeds, [&](Task, auto&) { executed.fetch_add(1); }, 1);
  EXPECT_EQ(executed.load(), 100u);
  EXPECT_EQ(run.stats.pops, 100u);
  EXPECT_EQ(run.stats.pushes, 100u);  // the seeds
}

TEST(Executor, CascadingTasksAllExecute) {
  // Each task with priority p < depth spawns two children; total task
  // count is 2^(depth+1) - 1.
  constexpr std::uint64_t kDepth = 10;
  StealingMultiQueue<> sched(4, {.p_steal = 0.5});
  const Task seed{0, 0};
  std::atomic<std::uint64_t> executed{0};
  const RunResult run = run_parallel(
      sched, std::span<const Task>(&seed, 1),
      [&](Task t, auto& ctx) {
        executed.fetch_add(1);
        if (t.priority < kDepth) {
          ctx.push(Task{t.priority + 1, 2 * t.payload + 1});
          ctx.push(Task{t.priority + 1, 2 * t.payload + 2});
        }
      },
      4);
  EXPECT_EQ(executed.load(), (1u << (kDepth + 1)) - 1);
  EXPECT_EQ(run.stats.pops, executed.load());
}

TEST(Executor, InsertBufferingSchedulerTerminates) {
  // With insert batching, tasks may sit in local buffers; termination
  // must flush them instead of hanging.
  OptimizedMqConfig cfg;
  cfg.insert_batch = 64;  // large: guaranteed partially-filled buffers
  cfg.delete_batch = 4;
  OptimizedMultiQueue sched(2, cfg);
  std::vector<Task> seeds{Task{0, 0}};
  std::atomic<std::uint64_t> executed{0};
  run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        executed.fetch_add(1);
        if (t.priority < 6) {
          for (int i = 0; i < 3; ++i) {
            ctx.push(Task{t.priority + 1, t.payload * 3 + i});
          }
        }
      },
      2);
  // 1 + 3 + 9 + ... + 3^6 tasks.
  std::uint64_t expected = 0, power = 1;
  for (int level = 0; level <= 6; ++level, power *= 3) expected += power;
  EXPECT_EQ(executed.load(), expected);
}

TEST(Executor, WastedWorkCounted) {
  SequentialScheduler sched;
  std::vector<Task> seeds{Task{1, 1}, Task{2, 2}, Task{3, 3}};
  const RunResult run = run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        if (t.priority > 1) ctx.mark_wasted();
      },
      1);
  EXPECT_EQ(run.stats.wasted, 2u);
  EXPECT_EQ(run.work_increase(1), 3.0);
}

TEST(Executor, EmptySeedsReturnImmediately) {
  StealingMultiQueue<> sched(2);
  const RunResult run = run_parallel(
      sched, std::span<const Task>{}, [](Task, auto&) { FAIL(); }, 2);
  EXPECT_EQ(run.stats.pops, 0u);
}

TEST(Executor, ManyThreadsManySeeds) {
  constexpr unsigned kThreads = 8;
  StealingMultiQueue<> sched(kThreads, {.p_steal = 0.25});
  std::vector<Task> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) seeds.push_back(Task{i, i});
  std::atomic<std::uint64_t> sum{0};
  run_parallel(
      sched, seeds, [&](Task t, auto&) { sum.fetch_add(t.payload); },
      kThreads);
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(Executor, SingleThreadStatsExact) {
  SequentialScheduler sched;
  std::vector<Task> seeds{Task{5, 5}};
  const RunResult run = run_parallel(
      sched, seeds,
      [&](Task t, auto& ctx) {
        if (t.priority > 0) ctx.push(Task{t.priority - 1, 0});
      },
      1);
  EXPECT_EQ(run.stats.pops, 6u);    // 5,4,3,2,1,0
  EXPECT_EQ(run.stats.pushes, 6u);  // seed + 5 children
  EXPECT_GE(run.seconds, 0.0);
}

}  // namespace
}  // namespace smq

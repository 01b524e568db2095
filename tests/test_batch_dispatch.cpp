// Tests for the batched + static-dispatch hot path: batch push/pop
// round-trips on every registered scheduler, dispatch-mode equivalence
// against the sequential oracle, and executor termination with batching
// at awkward batch sizes.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "registry/algorithm_registry.h"
#include "registry/graph_registry.h"
#include "registry/scheduler_registry.h"
#include "registry/static_dispatch.h"
#include "sched/executor.h"

namespace smq {
namespace {

// Batch push/pop are part of every handle: the native implementations
// and the erased boundary alike.
static_assert(PriorityScheduler<StealingMultiQueue<>>);
static_assert(PriorityScheduler<OptimizedMultiQueue>);
static_assert(PriorityScheduler<AnyScheduler>);

TEST(BatchDispatch, RoundTripOnEveryRegisteredScheduler) {
  constexpr unsigned kThreads = 2;
  constexpr std::uint64_t kTasks = 200;
  for (const SchedulerEntry& entry : SchedulerRegistry::instance().entries()) {
    const unsigned threads = effective_threads(entry, kThreads);
    AnyScheduler sched = entry.make(threads, {});

    std::vector<Task> tasks;
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      tasks.push_back(Task{i % 37, i});
    }
    // Split the batch across the available tids.
    const std::size_t half = threads > 1 ? kTasks / 2 : kTasks;
    sched.handle(0).push_batch(std::span<const Task>(tasks.data(), half));
    if (threads > 1) {
      sched.handle(1).push_batch(
          std::span<const Task>(tasks.data() + half, kTasks - half));
    }
    for (unsigned tid = 0; tid < threads; ++tid) sched.handle(tid).flush();

    // Drain through the batch interface, alternating tids. Single pops
    // can transiently fail (e.g. a failed steal), so only stop after
    // repeated empty rounds from every tid.
    std::multiset<std::uint64_t> popped;
    std::vector<Task> out;
    int consecutive_empty = 0;
    while (popped.size() < kTasks && consecutive_empty < 64) {
      bool any = false;
      for (unsigned tid = 0; tid < threads; ++tid) {
        out.clear();
        const std::size_t n = sched.handle(tid).try_pop_batch(out, 7);
        ASSERT_EQ(n, out.size()) << entry.name;
        for (const Task& t : out) popped.insert(t.payload);
        any = any || n > 0;
      }
      consecutive_empty = any ? 0 : consecutive_empty + 1;
    }

    std::multiset<std::uint64_t> expected;
    for (const Task& t : tasks) expected.insert(t.payload);
    EXPECT_EQ(popped, expected) << "scheduler: " << entry.name;
  }
}

TEST(BatchDispatch, DispatchModesAgreeWithOracle) {
  ParamMap params;
  params.set("vertices", "2500");
  params.set("seed", "11");
  const GraphInstance graph =
      GraphRegistry::instance().create("rand", params);
  const AlgorithmEntry* algo = AlgorithmRegistry::instance().find("sssp");
  ASSERT_NE(algo, nullptr);
  const AlgoReference ref = algo->make_reference(graph, params);

  // Every key with a static-dispatch row.
  for (const char* name :
       {"smq", "smq-skiplist", "mq", "mq-opt", "obim", "pmod"}) {
    const SchedulerEntry* entry = SchedulerRegistry::instance().find(name);
    ASSERT_NE(entry, nullptr) << name;
    const unsigned threads = effective_threads(*entry, 4);

    // Erased, one task per handle call.
    {
      AnyScheduler sched = entry->make(threads, params);
      const AlgoResult result = algo->run(graph, sched, threads, params, &ref);
      EXPECT_TRUE(result.validated && result.valid) << name << " virtual";
      EXPECT_EQ(result.answer, ref.reference_answer) << name << " virtual";
    }
    // Erased, batched (awkward batch size on purpose).
    {
      ParamMap batched = params;
      batched.set("batch-size", "13");
      AnyScheduler sched = entry->make(threads, batched);
      const AlgoResult result = algo->run(graph, sched, threads, batched, &ref);
      EXPECT_TRUE(result.validated && result.valid) << name << " batched";
      EXPECT_EQ(result.answer, ref.reference_answer) << name << " batched";
    }
    // Static.
    {
      const std::optional<AlgoResult> result =
          run_static_dispatch(name, "sssp", graph, threads, params, &ref);
      ASSERT_TRUE(result.has_value()) << name;
      EXPECT_TRUE(result->validated && result->valid) << name << " static";
      EXPECT_EQ(result->answer, ref.reference_answer) << name << " static";
    }
  }
}

TEST(BatchDispatch, StaticDispatchCoversAllRegisteredAlgorithms) {
  ParamMap params;
  params.set("vertices", "400");
  params.set("seed", "3");
  const GraphInstance graph = GraphRegistry::instance().create("rand", params);
  for (const AlgorithmEntry& algo : AlgorithmRegistry::instance().entries()) {
    const AlgoReference ref = algo.make_reference(graph, params);
    const std::optional<AlgoResult> result =
        run_static_dispatch("smq", algo.name, graph, 2, params, &ref);
    ASSERT_TRUE(result.has_value()) << algo.name;
    EXPECT_TRUE(result->validated && result->valid) << algo.name;
  }
  EXPECT_FALSE(
      run_static_dispatch("spraylist", "sssp", graph, 2, params, nullptr)
          .has_value());
  EXPECT_FALSE(run_static_dispatch("smq", "no-such-algo", graph, 2, params,
                                   nullptr)
                   .has_value());
}

/// Cascading workload: every task of priority p < depth spawns `fanout`
/// children; exact total = sum of fanout^level.
std::uint64_t run_cascade(AnyScheduler& sched, unsigned threads,
                          std::size_t batch_size, std::uint64_t depth,
                          std::uint64_t fanout) {
  std::atomic<std::uint64_t> executed{0};
  const Task seed{0, 0};
  run_parallel(
      sched, std::span<const Task>(&seed, 1),
      [&](Task t, auto& ctx) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (t.priority < depth) {
          for (std::uint64_t i = 0; i < fanout; ++i) {
            ctx.push(Task{t.priority + 1, t.payload * fanout + i});
          }
        }
      },
      threads, ExecutorOptions{.batch_size = batch_size});
  return executed.load();
}

TEST(BatchDispatch, BatchedExecutorTerminatesAtAwkwardBatchSizes) {
  constexpr std::uint64_t kDepth = 7;
  constexpr std::uint64_t kFanout = 3;
  std::uint64_t expected = 0, power = 1;
  for (std::uint64_t level = 0; level <= kDepth; ++level, power *= kFanout) {
    expected += power;
  }
  // 1 = one task per handle call; 3 = flushes mid-task; 27 = exact multiple of the
  // fanout; 100000 = larger than the whole task graph (single flush).
  for (const std::size_t batch_size : {1ul, 3ul, 27ul, 100000ul}) {
    for (const char* name : {"smq", "mq-opt", "obim"}) {
      AnyScheduler sched =
          SchedulerRegistry::instance().create(name, 4, {});
      EXPECT_EQ(run_cascade(sched, 4, batch_size, kDepth, kFanout), expected)
          << name << " batch_size=" << batch_size;
    }
  }
}

TEST(BatchDispatch, BatchedPushesCountedOncePerTask) {
  // The task context must report per-task push/pop stats even though
  // the pending counter is updated once per flush.
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 2, {});
  std::vector<Task> seeds;
  for (std::uint64_t i = 0; i < 50; ++i) seeds.push_back(Task{i, i});
  const RunResult run = run_parallel(
      sched, std::span<const Task>(seeds),
      [&](Task t, auto& ctx) {
        if (t.priority < 50) ctx.push(Task{100, t.payload});
      },
      2, ExecutorOptions{.batch_size = 8});
  EXPECT_EQ(run.stats.pops, 100u);
  EXPECT_EQ(run.stats.pushes, 100u);  // 50 seeds + 50 children
}

}  // namespace
}  // namespace smq

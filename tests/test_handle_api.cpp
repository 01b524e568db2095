// The per-thread handle API (scheduler_traits.h): concept coverage over
// every scheduler family, the TidHandle shim for legacy tid-indexed
// schedulers, handle lifetime/reuse across runs, flush-before-termination
// through handles, and a conformance check that the handle and tid call
// paths drive identical state on a fixed seed.
#include "sched/scheduler_traits.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "registry/adapters.h"
#include "registry/scheduler_registry.h"
#include "sched/executor.h"

namespace smq {
namespace {

// ---- concept coverage -----------------------------------------------------

// The seven registered scheduler families all expose native handles ...
static_assert(HandleScheduler<StealingMultiQueue<>>);
static_assert(HandleScheduler<StealingMultiQueue<SequentialSkipList>>);
static_assert(HandleScheduler<ClassicMultiQueue>);
static_assert(HandleScheduler<OptimizedMultiQueue>);
static_assert(HandleScheduler<Obim>);
static_assert(HandleScheduler<Pmod>);
static_assert(HandleScheduler<ReldQueue>);
static_assert(HandleScheduler<GlobalHeapScheduler>);
static_assert(HandleScheduler<SequentialScheduler>);
// SprayList has a native handle because its batch ops pin the epoch once
// per batch, which a TidHandle shim could not express.
static_assert(HandleScheduler<SprayList>);
// ... and the type-erasure boundary forwards them.
static_assert(HandleScheduler<AnyScheduler>);

// Anchor schedulers intentionally left on the tid surface run through
// the TidHandle shim, which itself models the handle concept.
static_assert(!HandleScheduler<GlobalSkipListScheduler>);
static_assert(!HandleScheduler<ChunkBagScheduler>);
static_assert(SchedulerHandle<TidHandle<GlobalSkipListScheduler>>);
static_assert(SchedulerHandle<TidHandle<ChunkBagScheduler>>);
static_assert(std::same_as<HandleOf<SprayList>, SprayList::Handle>);
static_assert(std::same_as<HandleOf<GlobalSkipListScheduler>,
                           TidHandle<GlobalSkipListScheduler>>);
static_assert(std::same_as<HandleOf<SmqHeap>, SmqHeap::Handle>);

// ---- the adapter fallback on a minimal tid-only scheduler -----------------

/// The smallest thing the legacy concept accepts: push/try_pop/
/// num_threads and nothing else. Exists to prove a scheduler written
/// before the handle API keeps running through handle_adapted unchanged.
class MinimalTidScheduler {
 public:
  explicit MinimalTidScheduler(unsigned num_threads)
      : num_threads_(num_threads) {}

  unsigned num_threads() const noexcept { return num_threads_; }

  void push(unsigned /*tid*/, Task t) {
    lock_.lock();
    tasks_.push_back(t);
    lock_.unlock();
  }

  std::optional<Task> try_pop(unsigned /*tid*/) {
    lock_.lock();
    std::optional<Task> out;
    if (!tasks_.empty()) {
      out = tasks_.back();
      tasks_.pop_back();
    }
    lock_.unlock();
    return out;
  }

 private:
  unsigned num_threads_;
  Spinlock lock_;
  std::vector<Task> tasks_;
};

static_assert(PriorityScheduler<MinimalTidScheduler>);
static_assert(!HandleScheduler<MinimalTidScheduler>);
static_assert(
    std::same_as<HandleOf<MinimalTidScheduler>, TidHandle<MinimalTidScheduler>>);

TEST(HandleApi, TidOnlySchedulerRunsThroughTheShim) {
  MinimalTidScheduler sched(2);
  auto h0 = handle_adapted(sched, 0);
  auto h1 = handle_adapted(sched, 1);
  EXPECT_EQ(h0.thread_id(), 0u);
  EXPECT_EQ(h1.thread_id(), 1u);

  // Batch ops fall back to per-task loops; flush and collect_stats are
  // no-ops probed away by the shim.
  const std::vector<Task> tasks{Task{3, 30}, Task{1, 10}, Task{2, 20}};
  h0.push_batch(std::span<const Task>(tasks));
  h0.flush();
  ThreadStats st;
  h0.collect_stats(st);
  EXPECT_EQ(st.steals, 0u);

  std::vector<Task> out;
  EXPECT_EQ(h1.try_pop_batch(out, 10), 3u);
  EXPECT_FALSE(h1.try_pop().has_value());
}

TEST(HandleApi, TidOnlySchedulerRunsUnderBothExecutorLoops) {
  // The executor must drive a pre-handle scheduler through the shim at
  // one task per handle call and at a real batch.
  for (const std::size_t batch_size : {1ul, 8ul}) {
    MinimalTidScheduler sched(2);
    std::vector<Task> seeds;
    for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back(Task{i, i});
    std::atomic<std::uint64_t> executed{0};
    const RunResult run = run_parallel(
        sched, std::span<const Task>(seeds),
        [&](Task t, auto& ctx) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (t.priority < 64) ctx.push(Task{100, t.payload});
        },
        2, ExecutorOptions{.batch_size = batch_size});
    EXPECT_EQ(executed.load(), 128u) << "batch_size=" << batch_size;
    EXPECT_EQ(run.stats.pops, 128u);
  }
}

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

TEST(HandleApi, ErasedHandleMatchesTidSurface) {
  AnyScheduler sched = SchedulerRegistry::instance().create("smq", 2, {});
  AnyScheduler::Handle h1 = sched.handle(1);
  EXPECT_EQ(h1.thread_id(), 1u);

  h1.push(Task{5, 55});
  h1.flush();
  // The erased handle views the same thread slot the tid surface indexes.
  const std::optional<Task> t = sched.try_pop(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->payload, 55u);

  // Stats collected through the handle equal the tid collection.
  ThreadStats via_handle, via_tid;
  h1.collect_stats(via_handle);
  sched.collect_stats(1, via_tid);
  EXPECT_EQ(via_handle.steals, via_tid.steals);
  EXPECT_EQ(via_handle.sampled_accesses, via_tid.sampled_accesses);
}

// ---- flush-before-termination through handles -----------------------------

TEST(HandleApi, BufferedInsertsPublishThroughHandleFlush) {
  // mq-opt with a large insert batch: pushes sit in the thread-local
  // buffer until flush. Another thread's handle must see them only
  // after ours flushes.
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 64;
  cfg.seed = 9;
  OptimizedMultiQueue sched(2, cfg);
  auto h0 = sched.handle(0);
  auto h1 = sched.handle(1);

  for (std::uint64_t i = 0; i < 10; ++i) h0.push(Task{i, i});
  EXPECT_FALSE(h1.try_pop().has_value()) << "unflushed pushes leaked";
  h0.flush();
  std::vector<Task> out;
  EXPECT_EQ(h1.try_pop_batch(out, 100), 10u);
}

TEST(HandleApi, ExecutorTerminatesWithBufferedHandlesAtEveryBatchSize) {
  // The executor's termination protocol flushes through the handle; a
  // partially filled insert buffer must never strand tasks or hang the
  // run, in either loop.
  for (const std::size_t batch_size : {1ul, 5ul, 64ul}) {
    OptimizedMqConfig cfg;
    cfg.insert_policy = InsertPolicy::kBatching;
    cfg.insert_batch = 64;  // guaranteed partially-filled buffers
    cfg.delete_policy = DeletePolicy::kBatching;
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

// ---- handle/tid conformance on a fixed seed -------------------------------

/// Drive one scheduler through handles and an identically seeded twin
/// through the tid calls with the same operation sequence; every state
/// transition (RNG draws, steal counters, popped order) must match.
template <typename S, typename MakeFn>
void expect_handle_tid_conformance(MakeFn make, unsigned threads) {
  S via_handle = make();
  S via_tid = make();

  std::vector<typename S::Handle> handles;
  for (unsigned tid = 0; tid < threads; ++tid) {
    handles.push_back(via_handle.handle(tid));
  }

  // Interleaved pushes...
  for (std::uint64_t i = 0; i < 300; ++i) {
    const unsigned tid = static_cast<unsigned>(i % threads);
    const Task t{(i * 37) % 101, i};
    handles[tid].push(t);
    via_tid.push(tid, t);
  }
  for (unsigned tid = 0; tid < threads; ++tid) {
    handles[tid].flush();
    flush_if_supported(via_tid, tid);
  }

  // ...then a full interleaved drain; the pop sequences must be
  // identical because both instances make the same seeded decisions.
  std::vector<std::uint64_t> popped_handle, popped_tid;
  for (int round = 0; round < 400; ++round) {
    const unsigned tid = static_cast<unsigned>(round % threads);
    if (std::optional<Task> t = handles[tid].try_pop()) {
      popped_handle.push_back(t->payload);
    }
    if (std::optional<Task> t = via_tid.try_pop(tid)) {
      popped_tid.push_back(t->payload);
    }
  }
  EXPECT_EQ(popped_handle, popped_tid);
  EXPECT_EQ(popped_handle.size(), 300u);

  // Scheduler-private stats agree path for path.
  for (unsigned tid = 0; tid < threads; ++tid) {
    ThreadStats h_stats, t_stats;
    handles[tid].collect_stats(h_stats);
    collect_stats_if_supported(via_tid, tid, t_stats);
    EXPECT_EQ(h_stats.steals, t_stats.steals) << "tid " << tid;
    EXPECT_EQ(h_stats.steal_fails, t_stats.steal_fails) << "tid " << tid;
    EXPECT_EQ(h_stats.sampled_accesses, t_stats.sampled_accesses)
        << "tid " << tid;
    EXPECT_EQ(h_stats.remote_accesses, t_stats.remote_accesses)
        << "tid " << tid;
  }
}

TEST(HandleApi, HandleAndTidPathsConformOnFixedSeed) {
  expect_handle_tid_conformance<StealingMultiQueue<>>(
      [] {
        return StealingMultiQueue<>(2, {.p_steal = 0.25, .seed = 1234});
      },
      2);
  expect_handle_tid_conformance<ClassicMultiQueue>(
      [] { return ClassicMultiQueue(2, {.queue_multiplier = 2, .seed = 99}); },
      2);
  expect_handle_tid_conformance<ReldQueue>(
      [] { return ReldQueue(2, {.queue_multiplier = 2, .seed = 7}); }, 2);
}

TEST(HandleApi, HandleAndTidPathsConformForBufferedMq) {
  // The buffered variant moves state on both push (insert buffer) and
  // pop (delete buffer) — the strongest conformance case.
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 8;
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.delete_batch = 4;
  cfg.seed = 4321;
  // OptimizedMultiQueue is not copyable; build via a factory lambda.
  expect_handle_tid_conformance<OptimizedMultiQueue>(
      [cfg] { return OptimizedMultiQueue(2, cfg); }, 2);
}

}  // namespace
}  // namespace smq

// Micro op-throughput benchmarks (google-benchmark): raw insert/delete
// cost of each scheduler under a synthetic hold-the-size workload.
// Quantifies the paper's Section 2 claims: batching/locality lift the
// classic MQ by a small integer factor, and the SMQ's lock-free local
// path is cheaper still.
#include <benchmark/benchmark.h>

#include "core/stealing_multiqueue.h"
#include "queues/classic_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/obim.h"
#include "queues/reld.h"
#include "queues/skiplist.h"
#include "queues/spraylist.h"
#include "support/rng.h"

namespace {

using namespace smq;

/// Alternate push/pop at a steady size so neither path degenerates.
/// The handle is acquired once, outside the timed loop, as the executor
/// does per run.
template <PriorityScheduler Sched>
void run_mixed_ops(benchmark::State& state, Sched& sched) {
  Xoshiro256 rng(42);
  auto handle = sched.handle(0);
  // Pre-fill.
  for (std::uint64_t i = 0; i < 1024; ++i) {
    handle.push(Task{rng.next_below(1 << 20), i});
  }
  std::uint64_t ops = 0;
  for (auto _ : state) {
    handle.push(Task{rng.next_below(1 << 20), ops});
    auto t = handle.try_pop();
    benchmark::DoNotOptimize(t);
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops) * 2);
}

void BM_ClassicMq(benchmark::State& state) {
  ClassicMultiQueue sched(1, {.queue_multiplier = 4});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_ClassicMq);

void BM_OptimizedMqBatching(benchmark::State& state) {
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.insert_batch = 16;
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.delete_batch = 16;
  OptimizedMultiQueue sched(1, cfg);
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_OptimizedMqBatching);

void BM_OptimizedMqTemporalLocality(benchmark::State& state) {
  OptimizedMqConfig cfg;
  cfg.p_insert_change = 1.0 / 16;
  cfg.p_delete_change = 1.0 / 16;
  OptimizedMultiQueue sched(1, cfg);
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_OptimizedMqTemporalLocality);

void BM_SmqHeap(benchmark::State& state) {
  StealingMultiQueue<> sched(1, {.steal_size = 4, .p_steal = 0.125});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_SmqHeap);

void BM_SmqSkipList(benchmark::State& state) {
  StealingMultiQueue<SequentialSkipList> sched(
      1, {.steal_size = 4, .p_steal = 0.125});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_SmqSkipList);

void BM_Reld(benchmark::State& state) {
  ReldQueue sched(1, {});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_Reld);

void BM_Obim(benchmark::State& state) {
  Obim sched(1, {.chunk_size = 64, .delta_shift = 8});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_Obim);

void BM_SprayList(benchmark::State& state) {
  SprayList sched(1, {});
  run_mixed_ops(state, sched);
}
BENCHMARK(BM_SprayList);

void BM_DAryHeapPushPop(benchmark::State& state) {
  DAryHeap<Task, 4> heap;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1024; ++i) heap.push(Task{rng.next_below(1 << 20), 0});
  for (auto _ : state) {
    heap.push(Task{rng.next_below(1 << 20), 0});
    benchmark::DoNotOptimize(heap.pop());
  }
}
BENCHMARK(BM_DAryHeapPushPop);

void BM_SequentialSkipListPushPop(benchmark::State& state) {
  SequentialSkipList list;
  Xoshiro256 rng(1);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    list.push(Task{rng.next_below(1 << 20), i});
  }
  std::uint64_t id = 1024;
  for (auto _ : state) {
    list.push(Task{rng.next_below(1 << 20), id++});
    benchmark::DoNotOptimize(list.pop());
  }
}
BENCHMARK(BM_SequentialSkipListPushPop);

}  // namespace

BENCHMARK_MAIN();

// Tests for OBIM / PMOD and the chunk-bag substrate.
#include "queues/obim.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "queues/chunk_bag.h"
#include "sched/topology.h"

namespace smq {
namespace {

TEST(Chunk, PushPopLifo) {
  Chunk chunk;
  chunk.push(Task{1, 1});
  chunk.push(Task{2, 2});
  EXPECT_TRUE(chunk.full(2));
  EXPECT_EQ(chunk.pop().priority, 2u);
  EXPECT_EQ(chunk.pop().priority, 1u);
  EXPECT_TRUE(chunk.empty());
}

TEST(ChunkBag, RoundTripSingleNode) {
  ChunkBag bag(1);
  auto* chunk = new Chunk();
  chunk->push(Task{1, 1});
  chunk->push(Task{2, 2});
  bag.push_chunk(0, chunk);
  EXPECT_FALSE(bag.looks_empty());
  EXPECT_EQ(bag.approx_tasks(), 2);
  Chunk* got = bag.pop_chunk(0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->count, 2u);
  delete got;
  EXPECT_TRUE(bag.looks_empty());
  EXPECT_EQ(bag.pop_chunk(0), nullptr);
}

TEST(ChunkBag, CrossNodeStealing) {
  ChunkBag bag(2);
  auto* chunk = new Chunk();
  chunk->push(Task{7, 7});
  bag.push_chunk(0, chunk);  // node 0's stack
  Chunk* got = bag.pop_chunk(1);  // node 1 steals
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->tasks[0].priority, 7u);
  delete got;
}

TEST(Obim, SingleThreadPopsByLevel) {
  Obim obim(1, {.chunk_size = 2, .delta_shift = 4});  // delta = 16
  auto h0 = obim.handle(0);
  // Priorities 0..63 -> levels 0,16,32,48.
  for (std::uint64_t p = 63; p < 64; --p) {
    h0.push(Task{p, p});
    if (p == 0) break;
  }
  h0.flush();
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->priority);
  ASSERT_EQ(got.size(), 64u);
  // Level order must hold: every task from level L comes before any task
  // from level L' > L (within a level, chunk order is unordered).
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1] >> 4, got[i] >> 4);
  }
}

TEST(Obim, ChunkSizeOneIsFullyOrderedPerLevel) {
  Obim obim(1, {.chunk_size = 1, .delta_shift = 0});  // level == priority
  auto h0 = obim.handle(0);
  for (std::uint64_t p : {9, 4, 7, 1, 3}) h0.push(Task{p, p});
  h0.flush();
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->priority);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 3, 4, 7, 9}));
}

TEST(Obim, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  Topology topo(kThreads, 2);
  Obim obim(kThreads,
            {.chunk_size = 16, .delta_shift = 6, .topology = &topo});
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = obim.handle(tid);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          h.push(Task{id % 512, id});
          if (i % 3 == 2) {
            if (auto t = h.try_pop()) local.push_back(t->payload);
          }
        }
        h.flush();
        while (auto t = h.try_pop()) local.push_back(t->payload);
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    auto h = obim.handle(tid);
    h.flush();
    while (auto t = h.try_pop()) ++seen[t->payload];
  }
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

TEST(Pmod, MergesWhenLevelsTooSparse) {
  // Fine delta + priorities spread over a huge range => every level holds
  // a single task, far below a chunk's worth => PMOD must coarsen.
  Pmod pmod(1, {.chunk_size = 4, .delta_shift = 0, .adapt_interval = 16});
  auto h0 = pmod.handle(0);
  const unsigned initial_shift = pmod.current_shift();
  for (std::uint64_t i = 0; i < 4000; ++i) {
    h0.push(Task{i * 1024, i});
  }
  h0.flush();
  std::uint64_t popped = 0;
  while (auto t = h0.try_pop()) ++popped;
  EXPECT_EQ(popped, 4000u);
  EXPECT_GT(pmod.current_shift(), initial_shift);
}

TEST(Pmod, SplitsWhenOneLevelDominates) {
  // Coarse delta: everything lands in one level far above the split
  // threshold => PMOD must refine.
  Pmod pmod(1, {.chunk_size = 4,
                .delta_shift = 20,
                .adapt_interval = 16,
                .split_threshold = 256});
  auto h0 = pmod.handle(0);
  const unsigned initial_shift = pmod.current_shift();
  for (std::uint64_t i = 0; i < 4000; ++i) {
    h0.push(Task{i % 1024, i});
  }
  h0.flush();
  std::uint64_t popped = 0;
  while (auto t = h0.try_pop()) ++popped;
  EXPECT_EQ(popped, 4000u);
  EXPECT_LT(pmod.current_shift(), initial_shift);
}

TEST(Pmod, NoLossAcrossShiftChanges) {
  Pmod pmod(2, {.chunk_size = 4, .delta_shift = 2, .adapt_interval = 32});
  std::map<std::uint64_t, int> seen;
  std::mutex merge_mutex;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < 2; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = pmod.handle(tid);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < 4000; ++i) {
          const std::uint64_t id = tid * 4000 + i;
          h.push(Task{(id * 37) % 100000, id});
          if (i % 2 == 1) {
            if (auto t = h.try_pop()) local.push_back(t->payload);
          }
        }
        h.flush();
        while (auto t = h.try_pop()) local.push_back(t->payload);
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  for (unsigned tid = 0; tid < 2; ++tid) {
    auto h = pmod.handle(tid);
    h.flush();
    while (auto t = h.try_pop()) ++seen[t->payload];
  }
  EXPECT_EQ(seen.size(), 8000u);
  for (const auto& [id, count] : seen) ASSERT_EQ(count, 1);
}

}  // namespace
}  // namespace smq

// Concurrency stress for the OBIM chunk bag: many producers and
// consumers moving chunks through per-node stacks with stealing.
#include "queues/chunk_bag.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace smq {
namespace {

TEST(ChunkBagStress, ProducersConsumersExactlyOnce) {
  constexpr unsigned kNodes = 2;
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr std::uint64_t kChunksPerProducer = 3000;
  constexpr std::uint32_t kTasksPerChunk = 8;

  ChunkBag bag(kNodes);
  std::atomic<std::uint64_t> produced_chunks{0};
  std::atomic<bool> producing{true};
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;

  {
    std::vector<std::jthread> workers;
    for (unsigned p = 0; p < kProducers; ++p) {
      workers.emplace_back([&, p] {
        for (std::uint64_t c = 0; c < kChunksPerProducer; ++c) {
          auto* chunk = new Chunk();
          for (std::uint32_t i = 0; i < kTasksPerChunk; ++i) {
            const std::uint64_t id =
                (p * kChunksPerProducer + c) * kTasksPerChunk + i;
            chunk->push(Task{id, id});
          }
          bag.push_chunk(p % kNodes, chunk);
          produced_chunks.fetch_add(1);
        }
        if (produced_chunks.load() == kProducers * kChunksPerProducer) {
          producing.store(false, std::memory_order_release);
        }
      });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
      workers.emplace_back([&, c] {
        std::vector<std::uint64_t> local;
        while (true) {
          Chunk* chunk = bag.pop_chunk(c % kNodes);
          if (chunk == nullptr) {
            if (!producing.load(std::memory_order_acquire) &&
                bag.looks_empty()) {
              break;
            }
            continue;
          }
          while (!chunk->empty()) local.push_back(chunk->pop().payload);
          delete chunk;
        }
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  // Drain any chunk that slipped past the consumers' exit check.
  while (Chunk* chunk = bag.pop_chunk(0)) {
    while (!chunk->empty()) ++seen[chunk->pop().payload];
    delete chunk;
  }

  const std::uint64_t expected =
      kProducers * kChunksPerProducer * kTasksPerChunk;
  EXPECT_EQ(seen.size(), expected);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

TEST(ChunkBagStress, TaskCounterConvergesToZero) {
  ChunkBag bag(1);
  for (int i = 0; i < 100; ++i) {
    auto* chunk = new Chunk();
    chunk->push(Task{1, 1});
    chunk->push(Task{2, 2});
    bag.push_chunk(0, chunk);
  }
  EXPECT_EQ(bag.approx_tasks(), 200);
  while (Chunk* chunk = bag.pop_chunk(0)) delete chunk;
  EXPECT_EQ(bag.approx_tasks(), 0);
  EXPECT_TRUE(bag.looks_empty());
}

}  // namespace
}  // namespace smq

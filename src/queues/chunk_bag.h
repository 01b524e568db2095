// Chunked task bags — the per-priority-level containers of OBIM/PMOD.
//
// A bag is an unordered set of task *chunks* (fixed-capacity arrays).
// Following Galois [20], each bag keeps one stack of chunks per NUMA
// node; threads push/pop chunks on their own node's stack and steal a
// chunk from another node only when theirs is empty. Chunks are the unit
// of transfer, which is what gives OBIM its low synchronization cost:
// one stack operation per CHUNK_SIZE tasks.
//
// Each node stack is guarded by a spinlock, so a chunk's link is only
// touched under the lock and nobody else can hold a popped chunk: the
// popper frees it as soon as it is drained, with no grace period, and a
// long-lived pool's footprint stays flat. A lock-free (Treiber) variant
// with epoch-retired chunks was not faster on every OBIM/PMOD row
// (README "Memory reclamation"), so only the locked stacks remain.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sched/task.h"
#include "support/padding.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

/// Fixed-capacity task array; intrusive stack link. The capacity is a
/// compile-time maximum; the runtime CHUNK_SIZE only fills a prefix.
struct Chunk {
  static constexpr std::size_t kCapacity = 256;

  std::array<Task, kCapacity> tasks;
  std::uint32_t count = 0;
  Chunk* next = nullptr;  // stack link; accessed only under the stack lock

  bool full(std::size_t limit) const noexcept { return count >= limit; }
  bool empty() const noexcept { return count == 0; }

  void push(Task t) noexcept {
    assert(count < kCapacity);
    tasks[count++] = t;
  }

  Task pop() noexcept {
    assert(count > 0);
    return tasks[--count];
  }
};

/// Shared new/delete accounting for chunks, so owners can report a
/// steady-state footprint. `live` counts allocated-but-not-yet-freed
/// chunks (wherever they sit: stacks or thread locals).
struct ChunkAlloc {
  std::atomic<std::int64_t> live{0};

  Chunk* make() {
    live.fetch_add(1, std::memory_order_relaxed);
    return new Chunk();
  }

  void free(Chunk* chunk) {
    live.fetch_sub(1, std::memory_order_relaxed);
    delete chunk;
  }

  std::size_t bytes() const noexcept {
    const std::int64_t n = live.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) * sizeof(Chunk) : 0;
  }
};

/// One priority level's worth of chunks, sharded per NUMA node.
class ChunkBag {
 public:
  explicit ChunkBag(unsigned num_nodes) : stacks_(num_nodes ? num_nodes : 1) {}

  ChunkBag(const ChunkBag&) = delete;
  ChunkBag& operator=(const ChunkBag&) = delete;

  ~ChunkBag() {
    for (auto& stack : stacks_) {
      // Acquire load: the destructor typically runs after joining the
      // worker threads, but make the ordering explicit instead of
      // leaning on join order.
      Chunk* chunk = stack.value.top.load(std::memory_order_acquire);
      while (chunk != nullptr) {
        Chunk* next = chunk->next;
        delete chunk;
        chunk = next;
      }
    }
  }

  /// Push a full (or final partial) chunk onto `node`'s stack.
  void push_chunk(unsigned node, Chunk* chunk) noexcept {
    // Capture the count before the chunk is published: one unlock later
    // it can already be popped and drained by another thread, and
    // chunk->count is not ours to read anymore.
    const std::uint32_t count = chunk->count;
    NodeStack& stack = stacks_[node].value;
    stack.lock.lock();
    chunk->next = stack.top.load(std::memory_order_relaxed);
    stack.top.store(chunk, std::memory_order_relaxed);
    stack.lock.unlock();
    tasks_.fetch_add(count, std::memory_order_release);
  }

  /// Pop a chunk, preferring `node`'s own stack; steals round-robin from
  /// the other nodes' stacks when the local one is empty.
  Chunk* pop_chunk(unsigned node) noexcept {
    const unsigned n = static_cast<unsigned>(stacks_.size());
    for (unsigned k = 0; k < n; ++k) {
      NodeStack& stack = stacks_[(node + k) % n].value;
      // Optimistic peek avoids taking remote locks on empty stacks;
      // the authoritative read happens under the lock.
      if (stack.top.load(std::memory_order_acquire) == nullptr) continue;
      stack.lock.lock();
      Chunk* chunk = stack.top.load(std::memory_order_relaxed);
      if (chunk != nullptr) {
        stack.top.store(chunk->next, std::memory_order_relaxed);
      }
      stack.lock.unlock();
      if (chunk != nullptr) {
        chunk->next = nullptr;
        tasks_.fetch_sub(chunk->count, std::memory_order_release);
        return chunk;
      }
    }
    return nullptr;
  }

  bool looks_empty() const noexcept {
    return tasks_.load(std::memory_order_acquire) <= 0;
  }

  std::int64_t approx_tasks() const noexcept {
    return tasks_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeStack {
    Spinlock lock;
    // Written only under `lock`; atomic for pop_chunk's lock-free peek.
    std::atomic<Chunk*> top{nullptr};
  };

  std::vector<Padded<NodeStack>> stacks_;
  std::atomic<std::int64_t> tasks_{0};
};

}  // namespace smq

// Scheduler adapters for substrates that are not schedulers by
// themselves. These give the registry its exact and priority-oblivious
// anchor points:
//
//  * GlobalHeapScheduler — one spinlock-protected d-ary heap shared by
//    all threads: the strict (non-relaxed) concurrent PQ whose
//    delete-min bottleneck motivates the whole relaxed-scheduler line of
//    work (paper Section 1).
//  * GlobalSkipListScheduler — exact delete-min over the lock-free skip
//    list, i.e. SprayList with the spray removed (Figure 1's "try to
//    remove the minimum" baseline).
//  * ChunkBagScheduler — a single unordered chunk bag: maximal
//    throughput, zero rank quality, the far anchor for the wasted-work
//    metric.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "queues/chunk_bag.h"
#include "queues/d_ary_heap.h"
#include "queues/lockfree_skiplist.h"
#include "sched/epoch.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

/// One global lock around one sequential d-ary heap. Its Handle keeps
/// no per-thread state beyond the tid; bulk calls take the lock once.
class GlobalHeapScheduler {
 public:
  explicit GlobalHeapScheduler(unsigned num_threads)
      : num_threads_(num_threads == 0 ? 1 : num_threads) {}

  unsigned num_threads() const noexcept { return num_threads_; }

  class Handle {
   public:
    Handle(GlobalHeapScheduler& sched, unsigned tid) noexcept
        : sched_(&sched), tid_(tid) {}

    void push(Task task) {
      sched_->lock_.lock();
      sched_->heap_.push(task);
      sched_->lock_.unlock();
    }

    /// Bulk insert under one lock acquisition — for the global-lock
    /// anchor this is exactly the contention reduction batching buys.
    void push_batch(std::span<const Task> tasks) {
      sched_->lock_.lock();
      for (const Task& task : tasks) sched_->heap_.push(task);
      sched_->lock_.unlock();
    }

    std::optional<Task> try_pop() {
      sched_->lock_.lock();
      std::optional<Task> task = sched_->heap_.try_pop();
      sched_->lock_.unlock();
      return task;
    }

    /// Bulk extract under one lock acquisition.
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      sched_->lock_.lock();
      std::size_t taken = 0;
      while (taken < max) {
        std::optional<Task> task = sched_->heap_.try_pop();
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      sched_->lock_.unlock();
      return taken;
    }

    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    GlobalHeapScheduler* sched_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  unsigned num_threads_;
  Spinlock lock_;
  DAryHeap<Task, 4> heap_ SMQ_GUARDED_BY(lock_);
};

static_assert(PriorityScheduler<GlobalHeapScheduler>);

struct GlobalSkipListConfig {
  std::uint64_t seed = 1;
};

/// Exact concurrent delete-min over the lock-free skip list. Its Handle
/// pins the list's epoch once per operation or per batch, never per
/// task of a batch.
class GlobalSkipListScheduler {
 public:
  using Config = GlobalSkipListConfig;

  explicit GlobalSkipListScheduler(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads == 0 ? 1 : num_threads),
        list_(num_threads_),
        rngs_(num_threads_) {
    for (unsigned tid = 0; tid < num_threads_; ++tid) {
      rngs_[tid].value = Xoshiro256(thread_seed(cfg.seed, tid));
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }

  class Handle {
   public:
    Handle(GlobalSkipListScheduler& sched, unsigned tid) noexcept
        : list_(&sched.list_), rng_(&sched.rngs_[tid].value), tid_(tid) {}

    void push(Task task) {
      const EpochManager::Guard guard = list_->pin(tid_);
      list_->insert(tid_, task, *rng_);
    }

    std::optional<Task> try_pop() {
      const EpochManager::Guard guard = list_->pin(tid_);
      return list_->pop_min(tid_);
    }

    void push_batch(std::span<const Task> tasks) {
      const EpochManager::Guard guard = list_->pin(tid_);
      for (const Task& task : tasks) list_->insert(tid_, task, *rng_);
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      const EpochManager::Guard guard = list_->pin(tid_);
      std::size_t taken = 0;
      while (taken < max) {
        std::optional<Task> task = list_->pop_min(tid_);
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      return taken;
    }

    void flush() noexcept {}
    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    LockFreeSkipList* list_;
    Xoshiro256* rng_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  void quiesce(unsigned tid) { list_.quiesce(tid); }

  std::size_t memory_footprint() const noexcept {
    return list_.memory_footprint();
  }

 private:
  unsigned num_threads_;
  LockFreeSkipList list_;
  std::vector<Padded<Xoshiro256>> rngs_;
};

static_assert(PriorityScheduler<GlobalSkipListScheduler>);
static_assert(ReclaimingScheduler<GlobalSkipListScheduler>);
static_assert(MemoryReportingScheduler<GlobalSkipListScheduler>);

/// A single unordered ChunkBag shared by all threads (OBIM with exactly
/// one priority level). A Handle buffers pushes into its thread's chunk
/// until the chunk fills or flush() publishes it; pops drain a
/// thread-local chunk taken from the bag.
struct ChunkBagSchedulerConfig {
  std::size_t chunk_size = 64;
};

class ChunkBagScheduler {
 public:
  using Config = ChunkBagSchedulerConfig;

  ChunkBagScheduler(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads == 0 ? 1 : num_threads),
        chunk_size_(cfg.chunk_size == 0
                        ? 1
                        : (cfg.chunk_size > Chunk::kCapacity ? Chunk::kCapacity
                                                             : cfg.chunk_size)),
        bag_(1),
        locals_(num_threads_) {}

  ~ChunkBagScheduler() {
    for (auto& local : locals_) {
      if (local.value.push_chunk != nullptr) alloc_.free(local.value.push_chunk);
      if (local.value.pop_chunk != nullptr) alloc_.free(local.value.pop_chunk);
    }
  }

  ChunkBagScheduler(const ChunkBagScheduler&) = delete;
  ChunkBagScheduler& operator=(const ChunkBagScheduler&) = delete;

  unsigned num_threads() const noexcept { return num_threads_; }

 private:
  struct Local;

 public:
  class Handle {
   public:
    Handle(ChunkBagScheduler& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    void push(Task task) {
      if (me_->push_chunk == nullptr) me_->push_chunk = sched_->alloc_.make();
      me_->push_chunk->push(task);
      if (me_->push_chunk->full(sched_->chunk_size_)) flush();
    }

    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      if (me_->pop_chunk != nullptr && !me_->pop_chunk->empty()) {
        return me_->pop_chunk->pop();
      }
      if (Chunk* chunk = sched_->bag_.pop_chunk(0)) {
        if (me_->pop_chunk != nullptr) sched_->alloc_.free(me_->pop_chunk);
        me_->pop_chunk = chunk;
        return me_->pop_chunk->pop();
      }
      // Nothing published: fall back to our own unflushed chunk.
      if (me_->push_chunk != nullptr && !me_->push_chunk->empty()) {
        return me_->push_chunk->pop();
      }
      return std::nullopt;
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    /// Publish the partially filled push chunk to the bag.
    void flush() {
      if (me_->push_chunk == nullptr || me_->push_chunk->empty()) return;
      sched_->bag_.push_chunk(0, me_->push_chunk);
      me_->push_chunk = nullptr;
    }

    void collect_stats(ThreadStats&) const noexcept {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    ChunkBagScheduler* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  std::size_t memory_footprint() const noexcept { return alloc_.bytes(); }

 private:
  struct Local {
    Chunk* push_chunk = nullptr;
    Chunk* pop_chunk = nullptr;
  };

  unsigned num_threads_;
  std::size_t chunk_size_;
  ChunkAlloc alloc_;
  ChunkBag bag_;
  std::vector<Padded<Local>> locals_;
};

static_assert(PriorityScheduler<ChunkBagScheduler>);
static_assert(MemoryReportingScheduler<ChunkBagScheduler>);

}  // namespace smq

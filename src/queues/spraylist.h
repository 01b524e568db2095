// SprayList (Alistarh, Kopinsky, Li, Shavit; PPoPP'15 [6]).
//
// A relaxed priority queue over a lock-free skip list: delete-min is
// replaced by a "spray" — a randomized descending walk that lands
// uniformly-ish inside the first O(T log^3 T) elements, so concurrent
// deleters collide rarely. One of the advanced-scheduler baselines in
// Figure 2 of the paper.
//
// Memory is always epoch-reclaimed by the underlying list: every handle
// operation pins once (per op or per batch, never per pointer), unlinked
// nodes are recycled through the list's free lists, and quiesce() lets
// parked service workers advance reclamation between query bursts.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "queues/lockfree_skiplist.h"
#include "sched/epoch.h"
#include "sched/scheduler_traits.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"
#include "support/thread_annotations.h"

namespace smq {

struct SprayConfig {
  std::uint64_t seed = 1;
  // Spray shape knobs; defaults follow the SprayList paper's
  // H = log T + K and uniform jumps of length O(log T).
  int height_offset = 1;
  int jump_scale = 1;
};

class SprayList {
 public:
  using Config = SprayConfig;

  SprayList(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads == 0 ? 1 : num_threads),
        list_(num_threads_),
        rngs_(num_threads_) {
    for (unsigned tid = 0; tid < num_threads_; ++tid) {
      rngs_[tid].value = Xoshiro256(thread_seed(cfg.seed, tid));
    }
    const int log_t = num_threads_ <= 1
                          ? 0
                          : static_cast<int>(std::ceil(std::log2(num_threads_)));
    spray_height_ = log_t + cfg.height_offset;
    max_jump_ = (log_t + 1) * cfg.jump_scale;
  }

  unsigned num_threads() const noexcept { return num_threads_; }

  void push(unsigned tid, Task task) {
    const EpochManager::Guard guard = list_.pin(tid);
    list_.insert(tid, task, rngs_[tid].value);
  }

  std::optional<Task> try_pop(unsigned tid) {
    const EpochManager::Guard guard = list_.pin(tid);
    return pop_pinned(tid);
  }

  /// Per-thread handle: one epoch pin per operation or batch.
  class Handle {
   public:
    Handle(SprayList& sched, unsigned tid) noexcept
        : sched_(&sched), tid_(tid) {}

    void push(Task t) { sched_->push(tid_, t); }
    std::optional<Task> try_pop() { return sched_->try_pop(tid_); }

    void push_batch(std::span<const Task> tasks) {
      const EpochManager::Guard guard = sched_->list_.pin(tid_);
      Xoshiro256& rng = sched_->rngs_[tid_].value;
      for (const Task& t : tasks) sched_->list_.insert(tid_, t, rng);
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      const EpochManager::Guard guard = sched_->list_.pin(tid_);
      std::size_t taken = 0;
      while (taken < max) {
        std::optional<Task> task = sched_->pop_pinned(tid_);
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      return taken;
    }

    void flush() {}
    void collect_stats(ThreadStats&) const {}
    unsigned thread_id() const noexcept { return tid_; }

   private:
    SprayList* sched_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  /// Idle hook (ReclaimingScheduler): called unpinned, typically by a
  /// parked service worker.
  void quiesce(unsigned tid) { list_.quiesce(tid); }

  /// Bytes held in skiplist node arenas (recycled nodes included).
  std::size_t memory_footprint() const noexcept {
    return list_.memory_footprint();
  }

 private:
  std::optional<Task> pop_pinned(unsigned tid) SMQ_REQUIRES_PIN {
    Xoshiro256& rng = rngs_[tid].value;
    if (num_threads_ == 1) return list_.pop_min(tid);
    // A few spray attempts, then fall back to exact delete-min so the
    // drain phase terminates (the original does the same via "become a
    // cleaner" mode).
    for (int attempt = 0; attempt < 4; ++attempt) {
      LockFreeSkipList::Node* node =
          list_.spray(spray_height_, max_jump_, rng);
      if (node == nullptr) break;
      if (std::optional<Task> task =
              list_.pop_from(node, max_jump_ + 1, tid)) {
        return task;
      }
    }
    return list_.pop_min(tid);
  }

  unsigned num_threads_;
  LockFreeSkipList list_;
  std::vector<Padded<Xoshiro256>> rngs_;
  int spray_height_ = 1;
  int max_jump_ = 1;
};

static_assert(HandleScheduler<SprayList>);
static_assert(ReclaimingScheduler<SprayList>);
static_assert(MemoryReportingScheduler<SprayList>);

}  // namespace smq

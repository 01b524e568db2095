// Scheduler adapter for a substrate that is not a scheduler by itself:
// GlobalSkipListScheduler gives exact delete-min over the lock-free skip
// list, i.e. SprayList with the spray removed (Figure 1's "try to remove
// the minimum" baseline).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "queues/lockfree_skiplist.h"
#include "sched/epoch.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"

namespace smq {

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

}  // namespace smq

// RELD — Random Enqueue, Local Dequeue (Jeffrey et al., MICRO'15 [14]).
//
// Inserts go to a uniformly random queue; deletes come from the thread's
// own queue, falling back to scanning other queues only when the local
// one is empty. The cheapest communication-avoiding Multi-Queue relative;
// it has no rank guarantees (a thread may sit on arbitrarily stale
// priorities) and the paper uses it as a lower anchor in Figure 2.
//
// The random-enqueue side is exactly the operation the paper's NUMA
// weighting (Section 4) applies to, so RELD takes the `numa`/`numa-k`
// tunables too: insert targets go through QueueSampler with *blocked*
// ownership (thread t structurally owns queues [t*C, (t+1)*C)), unlike
// the Multi-Queues' conventional round-robin assignment. Enqueues
// sample only those T*C queues: LockedQueueArray pads itself to two
// queues, and a padding queue nobody dequeues locally would make even
// T = 1, C = 1 inexact.
//
// The Handle resolves the thread's RNG, pop scratch, NUMA counters and
// the index range of its owned queues once.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/numa_sampler.h"
#include "queues/locked_queue_array.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"

namespace smq {

struct ReldConfig {
  unsigned queue_multiplier = 1;  // one queue per thread by default
  std::uint64_t seed = 1;
  const Topology* topology = nullptr;  // nullptr => uniform enqueue
  double numa_weight_k = 1.0;
};

class ReldQueue {
 private:
  struct Local;

 public:
  using Config = ReldConfig;

  ReldQueue(unsigned num_threads, Config cfg = {})
      : num_threads_(num_threads),
        queues_per_thread_(cfg.queue_multiplier == 0 ? 1 : cfg.queue_multiplier),
        queues_(static_cast<std::size_t>(num_threads) * queues_per_thread_),
        locals_(num_threads),
        sampler_(make_queue_sampler(
            static_cast<std::size_t>(num_threads) * queues_per_thread_,
            num_threads, cfg.topology, cfg.numa_weight_k,
            QueueOwnership::kBlocked)) {
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      locals_[tid].value.rng = Xoshiro256(thread_seed(cfg.seed, tid));
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }
  std::size_t num_queues() const noexcept { return sampler_.num_queues(); }
  std::uint64_t approx_size() const noexcept { return queues_.approx_total(); }

  /// Per-thread view: random enqueue through the (possibly weighted)
  /// sampler, dequeue from the thread's structurally owned queue block.
  class Handle {
   public:
    Handle(ReldQueue& sched, unsigned tid) noexcept
        : sched_(&sched),
          me_(&sched.locals_[tid].value),
          tid_(tid),
          first_own_(static_cast<std::size_t>(tid) *
                     sched.queues_per_thread_) {}

    void push(Task task) {
      Xoshiro256& rng = me_->rng;
      while (true) {
        const std::size_t target = sched_->sampler_.sample(tid_, rng);
        if (sched_->sampler_.topology_aware()) {
          ++me_->numa.sampled;
          if (sched_->sampler_.is_remote(tid_, target)) ++me_->numa.remote;
        }
        if (sched_->queues_.try_push_batch(target, &task, 1)) return;
      }
    }

    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      auto& out = me_->scratch;
      out.clear();
      LockedQueueArray& queues = sched_->queues_;
      // Local first: round-robin over the thread's own queue block,
      // starting one past the queue of the last local pop.
      const unsigned c = sched_->queues_per_thread_;
      for (unsigned k = 0; k < c; ++k) {
        const unsigned own = (me_->next_own + k) % c;
        if (queues.try_pop_batch(first_own_ + own, out, 1) ==
            LockedQueueArray::PopStatus::kOk) {
          me_->next_own = (own + 1) % c;
          return out.front();
        }
      }
      // Local queues empty: scan the rest (work-conserving fallback).
      return queues.pop_any(me_->rng.next_below(queues.size()));
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    /// Inserts publish immediately (no local buffering).
    void flush() noexcept {}

    /// Fold NUMA enqueue attribution into the executor's per-thread
    /// stats. Zeros under UMA.
    void collect_stats(ThreadStats& st) const noexcept {
      st.sampled_accesses += me_->numa.sampled;
      st.remote_accesses += me_->numa.remote;
    }

    unsigned thread_id() const noexcept { return tid_; }

   private:
    ReldQueue* sched_;
    Local* me_;
    unsigned tid_;
    std::size_t first_own_;  // start of the thread's owned queue block
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  struct NumaCounters {
    std::uint64_t sampled = 0;
    std::uint64_t remote = 0;
  };

  struct Local {
    Xoshiro256 rng;
    std::vector<Task> scratch;
    NumaCounters numa;
    unsigned next_own = 0;  // the owned queue the next local pop tries first
  };

  unsigned num_threads_;
  unsigned queues_per_thread_;
  LockedQueueArray queues_;
  std::vector<Padded<Local>> locals_;
  QueueSampler sampler_;
};

static_assert(PriorityScheduler<ReldQueue>);

}  // namespace smq

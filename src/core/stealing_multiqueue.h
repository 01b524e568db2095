// The Stealing Multi-Queue (paper Section 2.2, Listing 2) — the paper's
// primary contribution.
//
// One thread-local priority queue per thread (m = T). insert() is purely
// local. delete() first drains the thread's buffer of previously stolen
// tasks; otherwise, with probability p_steal it compares the top of a
// randomly chosen victim queue against its own best task and steals the
// victim's whole published batch when the victim wins; otherwise it takes
// from its own queue. Stealing also kicks in whenever the local queue is
// empty, which keeps the scheduler work-conserving.
//
// The local queue type is a template parameter: DAryHeap (Section 4) or
// SequentialSkipList (Appendix D). NUMA-aware victim sampling (Section 4)
// plugs in through QueueSampler.
//
// The scheduler is driven through its per-thread Handle
// (scheduler_traits.h): acquiring `handle(tid)` resolves the thread's
// Local slot — local queue, stolen-task buffer, victim RNG — once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/heap_with_stealing.h"
#include "core/numa_sampler.h"
#include "queues/d_ary_heap.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"

namespace smq {

struct SmqConfig {
  std::size_t steal_size = 4;  // batch size, SIZE_steal (paper default 4)
  double p_steal = 1.0 / 8.0;  // stealing probability (paper default 1/8)
  std::uint64_t seed = 1;
  const Topology* topology = nullptr;  // NUMA-aware victim sampling
  double numa_weight_k = 8.0;          // weight K (paper default 8)

  friend bool operator==(const SmqConfig&, const SmqConfig&) = default;
};

template <typename LocalPQ = DAryHeap<Task, 4>>
class StealingMultiQueue {
 private:
  struct Local;

 public:
  using QueueType = HeapWithStealingBuffer<LocalPQ>;

  StealingMultiQueue(unsigned num_threads, SmqConfig cfg = {})
      : cfg_(cfg),
        num_threads_(num_threads),
        locals_(num_threads),
        sampler_(make_queue_sampler(num_threads, num_threads, cfg.topology,
                                    cfg.numa_weight_k)) {
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      Local& local = locals_[tid].value;
      local.queue = std::make_unique<QueueType>(cfg.steal_size);
      local.rng = Xoshiro256(thread_seed(cfg.seed, tid));
      local.stolen_tasks.reserve(cfg.steal_size);
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }

  /// Per-thread view with the thread's Local slot resolved once; the
  /// entire hot path (paper Listing 2) is implemented here.
  class Handle {
   public:
    Handle(StealingMultiQueue& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    /// insert(task): purely local (paper Listing 2, lines 6-7).
    void push(Task task) { me_->queue->add_local(task); }

    /// Bulk insert: local-queue inserts take no locks, so the batch op is
    /// just the loop — its value is letting callers behind a dispatch
    /// boundary (AnyScheduler) cross it once for the whole span.
    void push_batch(std::span<const Task> tasks) {
      QueueType& queue = *me_->queue;
      for (const Task& task : tasks) queue.add_local(task);
    }

    /// delete(): stolen-task buffer, then probabilistic steal, then the
    /// local queue, then a forced steal (paper Listing 2, lines 9-24).
    std::optional<Task> try_pop() {
      if (std::optional<Task> task = pop_before_forced_steal()) return task;
      return sched_->try_steal(tid_, *me_);  // local queue drained
    }

    /// Bulk extract: try_pop() repeated, except that the forced steal is
    /// taken only for a batch's first task. A batch that already holds
    /// work returns short once the stolen-task buffer and the local queue
    /// are dry, rather than taking a victim's batch to top itself up: on
    /// a narrow frontier that would pull the other threads' work over on
    /// almost every call.
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      std::size_t taken = 0;
      while (taken < max) {
        std::optional<Task> task =
            taken == 0 ? try_pop() : pop_before_forced_steal();
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      return taken;
    }

    /// Inserts are purely local and immediately poppable; nothing to
    /// publish.
    void flush() noexcept {}

    /// Fold this thread's scheduler-private counters into the executor's
    /// per-thread stats: steal tallies plus the NUMA victim-sampling
    /// attribution that ExecStats reports as remote_accesses /
    /// sampled_accesses.
    void collect_stats(ThreadStats& st) const noexcept {
      st.steals += me_->steals;
      st.steal_fails += me_->steal_fails;
      st.sampled_accesses += me_->steal_samples;
      st.remote_accesses += me_->remote_steals;
    }

    unsigned thread_id() const noexcept { return tid_; }

   private:
    /// try_pop() up to, not including, the forced steal: stolen-task
    /// buffer, probabilistic steal, local queue.
    std::optional<Task> pop_before_forced_steal() {
      Local& me = *me_;
      if (me.next_stolen < me.stolen_tasks.size()) {
        return me.stolen_tasks[me.next_stolen++];
      }
      if (me.rng.next_bool(sched_->cfg_.p_steal)) {
        if (std::optional<Task> task = sched_->try_steal(tid_, me)) return task;
      }
      return sched_->extract_top_local(me);
    }

    StealingMultiQueue* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  // ---- introspection ---------------------------------------------------

  std::uint64_t steals(unsigned tid) const noexcept {
    return locals_[tid].value.steals;
  }
  std::uint64_t steal_failures(unsigned tid) const noexcept {
    return locals_[tid].value.steal_fails;
  }
  std::uint64_t remote_steals(unsigned tid) const noexcept {
    return locals_[tid].value.remote_steals;
  }
  std::uint64_t steal_samples(unsigned tid) const noexcept {
    return locals_[tid].value.steal_samples;
  }
  std::size_t local_heap_size(unsigned tid) const noexcept {
    return locals_[tid].value.queue->heap_size();
  }

  /// Total bytes across the local queues, when the substrate reports
  /// them (smq-skiplist does; the d-ary heap does not). Drives the
  /// service's steady-state footprint stat.
  std::size_t memory_footprint() const noexcept
      requires requires(const QueueType& q) { q.memory_footprint(); }
  {
    std::size_t total = 0;
    for (const auto& local : locals_) {
      total += local.value.queue->memory_footprint();
    }
    return total;
  }

  const SmqConfig& config() const noexcept { return cfg_; }

 private:
  struct Local {
    std::unique_ptr<QueueType> queue;
    // The paper's stolenTasks buffer (capacity SIZE_steal - 1): remainder
    // of the last stolen batch, consumed FIFO before any other source.
    std::vector<Task> stolen_tasks;
    std::size_t next_stolen = 0;
    Xoshiro256 rng;
    std::uint64_t steals = 0;
    std::uint64_t steal_fails = 0;
    // NUMA attribution: every victim choice is one sampled touch of the
    // victim's queue (reading its published top is already a cross-node
    // cache-line transfer, steal or not); remote_steals counts those
    // that landed out of node.
    std::uint64_t steal_samples = 0;
    std::uint64_t remote_steals = 0;
  };

  /// trySteal() (paper Listing 2, lines 26-39).
  std::optional<Task> try_steal(unsigned tid, Local& me) {
    if (num_threads_ <= 1) return std::nullopt;
    // Self-exclusion must be bounded: a heavily weighted sampler on a
    // one-thread node returns `tid` with probability ~1, so the naive
    // resample-until-different loop could spin almost forever. After a
    // few tries, fall back to a uniform pick over the other threads.
    std::size_t victim = sampler_.sample(tid, me.rng);
    for (int attempt = 0; victim == tid && attempt < 8; ++attempt) {
      victim = sampler_.sample(tid, me.rng);
    }
    if (victim == tid) {
      victim = (tid + 1 + me.rng.next_below(num_threads_ - 1)) % num_threads_;
    }
    if (sampler_.topology_aware()) {
      ++me.steal_samples;
      if (sampler_.is_remote(tid, victim)) ++me.remote_steals;
    }
    QueueType& victim_queue = *locals_[victim].value.queue;

    // Steal only when the victim's visible top beats our local best.
    if (victim_queue.steal_top_priority() >=
        me.queue->local_top_priority()) {
      return std::nullopt;
    }
    me.stolen_tasks.clear();
    me.next_stolen = 0;
    const std::size_t n = victim_queue.try_steal(me.stolen_tasks);
    if (n == 0) {
      ++me.steal_fails;
      return std::nullopt;
    }
    ++me.steals;
    me.next_stolen = 1;  // hand out tasks [1, n) on subsequent pops
    return me.stolen_tasks.front();
  }

  /// Owner-side extraction: the better of the local heap top and the
  /// thread's own published batch, reclaiming the latter when it wins.
  std::optional<Task> extract_top_local(Local& me) {
    while (true) {
      switch (me.queue->classify_pop()) {
        case OwnerPopSource::kEmpty:
          return std::nullopt;
        case OwnerPopSource::kHeap:
          return me.queue->pop_heap();
        case OwnerPopSource::kBuffer: {
          me.stolen_tasks.clear();
          me.next_stolen = 0;
          const std::size_t n = me.queue->reclaim_buffer(me.stolen_tasks);
          if (n == 0) continue;  // a stealer won the race; re-classify
          me.next_stolen = 1;
          return me.stolen_tasks.front();
        }
      }
    }
  }

  SmqConfig cfg_;
  unsigned num_threads_;
  std::vector<Padded<Local>> locals_;
  QueueSampler sampler_;
};

/// The heap-based SMQ the paper evaluates as its main configuration.
using SmqHeap = StealingMultiQueue<DAryHeap<Task, 4>>;

static_assert(PriorityScheduler<SmqHeap>,
              "the paper's primary scheduler must expose native handles");

}  // namespace smq

// The Multi-Queue (Rihani, Sanders, Dementiev) and its optimized
// variants (paper Section 2.1, Appendix C).
//
// m = C * T sequential heaps, each guarded by a try-lock. The default
// config is the classic MQ of paper Listing 1, the baseline of every
// speedup table in the paper: insert() locks a uniformly random queue,
// adds, unlocks and restarts on lock failure; delete() picks two
// distinct random queues and takes the top of the one whose top has
// higher priority, restarting on lock failure. NUMA-weighted sampling
// (Section 4) plugs in through QueueSampler.
//
// The paper's two optimizations, task batching (Optimization 1) and
// temporal locality (Optimization 2), are two numbers per side, as in
// Williams, Sanders & Dementiev's "Engineering MultiQueues":
//
//  * a batch size B: an insert buffers up to B_insert tasks thread-locally
//    and flushes them under one lock; a delete takes up to B_delete tasks
//    from its queue at once into a thread-local buffer;
//  * a re-sample probability p: before each flush or locked delete the
//    thread keeps the queue of its previous one (its sticky queue) and
//    re-samples it with probability p. At p = 1 it re-samples without
//    drawing a coin, so p = 1 is the classic random choice. A failed
//    try-lock (and, on delete, an empty queue) always re-samples.
//
// Written (B, p) insert / (B, p) delete, the two registry keys and the
// paper's combos on them (figure-suite labels in parentheses) are:
//   mq      (1, 1)    / (1, 1)     the classic MQ (mq-c<C>)
//   mq-opt  (16, 1)   / (16, 1)    B/B: batching on both sides (defaults)
//   mq-opt  (1, 1/D)  / (1, 1/D)   TL/TL: temporal locality (mq-tl-p<D>)
//   mq-opt  (16, 1)   / (1, 1/16)  B/TL (mq-opt-full)
//   mq-opt  (1, 1/16) / (16, 1)    TL/B
// The paper sweeps p over {1/1, ..., 1/1024} and B over {1, ..., 1024}.
//
// Both optimizations are per-thread-state tricks (insert/delete buffers,
// the sticky queue choice), which is exactly what the Handle hoists: it
// holds the thread's Local slot directly, so a buffered push is a
// pointer-chase-free append.
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

/// The defaults are the classic MQ (Listing 1): (1, 1) on both sides.
struct OptimizedMqConfig {
  unsigned queue_multiplier = 4;  // C: queues per thread
  // Per side: the batch size B and the probability p of re-sampling the
  // sticky queue before a locked operation.
  std::size_t insert_batch = 1;
  double p_insert_change = 1.0;
  std::size_t delete_batch = 1;
  double p_delete_change = 1.0;
  std::uint64_t seed = 1;
  const Topology* topology = nullptr;
  double numa_weight_k = 1.0;

  friend bool operator==(const OptimizedMqConfig&,
                         const OptimizedMqConfig&) = default;
};

class OptimizedMultiQueue {
 private:
  struct Local;

 public:
  using Config = OptimizedMqConfig;

  OptimizedMultiQueue(unsigned num_threads, Config cfg = {})
      : cfg_(cfg),
        num_threads_(num_threads),
        queues_(static_cast<std::size_t>(num_threads) * cfg.queue_multiplier),
        locals_(num_threads),
        sampler_(make_queue_sampler(queues_.size(), num_threads, cfg.topology,
                                    cfg.numa_weight_k)) {
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      locals_[tid].value.rng = Xoshiro256(thread_seed(cfg.seed, tid));
    }
  }

  unsigned num_threads() const noexcept { return num_threads_; }
  std::size_t num_queues() const noexcept { return queues_.size(); }
  const Config& config() const noexcept { return cfg_; }
  std::uint64_t approx_size() const noexcept { return queues_.approx_total(); }

  /// Per-thread view holding the thread's stickiness slots and
  /// insert/delete buffers directly.
  class Handle {
   public:
    Handle(OptimizedMultiQueue& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    void push(Task task) {
      const std::size_t batch = sched_->cfg_.insert_batch;
      // A batch of 1 skips the buffer round trip.
      if (batch <= 1) {
        push_locked(&task, 1);
        return;
      }
      me_->insert_buffer.push_back(task);
      if (me_->insert_buffer.size() >= batch) flush_inserts();
    }

    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      Local& local = *me_;
      if (local.delete_next < local.delete_buffer.size()) {
        return local.delete_buffer[local.delete_next++];
      }
      const std::size_t want = sched_->cfg_.delete_batch;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const std::size_t target = choose_delete_queue();
        if (target == kNone) {
          if (sched_->queues_.all_empty()) return std::nullopt;
          continue;
        }
        local.delete_buffer.clear();
        local.delete_next = 0;
        if (sched_->queues_.try_pop_batch(target, local.delete_buffer,
                                          want) ==
            LockedQueueArray::PopStatus::kOk) {
          return local.delete_buffer[local.delete_next++];
        }
        local.delete_queue = kNone;  // empty or contended: re-sample
      }
      return drain();
    }

    /// Bulk extract: drain the delete buffer wholesale between locked
    /// batch pops instead of paying one call per buffered task.
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      Local& local = *me_;
      std::size_t taken = 0;
      while (taken < max) {
        while (taken < max && local.delete_next < local.delete_buffer.size()) {
          out.push_back(local.delete_buffer[local.delete_next++]);
          ++taken;
        }
        if (taken >= max) break;
        std::optional<Task> task = try_pop();  // refills delete_buffer
        if (!task) break;
        out.push_back(*task);
        ++taken;
      }
      return taken;
    }

    /// Publish buffered inserts; the executor calls this before trusting
    /// an empty pop (termination), and benches call it at a phase end.
    void flush() {
      if (!me_->insert_buffer.empty()) flush_inserts();
    }

    /// Fold NUMA sampling attribution into the executor's per-thread
    /// stats. Zeros under UMA.
    void collect_stats(ThreadStats& st) const noexcept {
      st.sampled_accesses += me_->numa_sampled;
      st.remote_accesses += me_->numa_remote;
    }

    unsigned thread_id() const noexcept { return tid_; }

   private:
    void record_touch(std::size_t queue) noexcept {
      if (!sched_->sampler_.topology_aware()) return;
      ++me_->numa_sampled;
      if (sched_->sampler_.is_remote(tid_, queue)) ++me_->numa_remote;
    }

    void flush_inserts() {
      push_locked(me_->insert_buffer.data(), me_->insert_buffer.size());
      me_->insert_buffer.clear();
    }

    /// Add `count` tasks under one lock of the sticky insert queue,
    /// re-sampled with probability p_insert_change and whenever its lock
    /// is taken. A sticky reuse still touches the queue's node, so it
    /// still counts toward the NUMA attribution.
    void push_locked(const Task* tasks, std::size_t count) {
      Local& local = *me_;
      const double p = sched_->cfg_.p_insert_change;
      while (true) {
        if (local.insert_queue == kNone || p >= 1.0 ||
            local.rng.next_bool(p)) {
          local.insert_queue = sched_->sampler_.sample(tid_, local.rng);
        }
        record_touch(local.insert_queue);
        if (sched_->queues_.try_push_batch(local.insert_queue, tasks, count)) {
          return;
        }
        local.insert_queue = kNone;  // contended: re-sample next round
      }
    }

    /// Pick the queue to delete from: the sticky queue, kept with
    /// probability 1 - p_delete_change, or the better of two fresh
    /// samples. Returns kNone when both sampled queues look empty.
    std::size_t choose_delete_queue() {
      Local& local = *me_;
      const double p = sched_->cfg_.p_delete_change;
      if (local.delete_queue != kNone && p < 1.0 && !local.rng.next_bool(p)) {
        record_touch(local.delete_queue);
        return local.delete_queue;  // stick with the previous queue
      }
      const std::size_t i1 = sched_->sampler_.sample(tid_, local.rng);
      std::size_t i2 = sched_->sampler_.sample(tid_, local.rng);
      // Bounded distinct-pair resampling: a weighted sampler over a
      // near-singleton group could echo i1 indefinitely.
      for (int retry = 0; i2 == i1 && retry < 8; ++retry) {
        i2 = sched_->sampler_.sample(tid_, local.rng);
      }
      if (i2 == i1) i2 = (i1 + 1) % sched_->queues_.size();
      record_touch(i1);
      record_touch(i2);
      const std::uint64_t p1 = sched_->queues_.top_priority(i1);
      const std::uint64_t p2 = sched_->queues_.top_priority(i2);
      if (p1 == Task::kInfinity && p2 == Task::kInfinity) return kNone;
      local.delete_queue = p1 <= p2 ? i1 : i2;
      return local.delete_queue;
    }

    std::optional<Task> drain() {
      return sched_->queues_.pop_any(
          me_->rng.next_below(sched_->queues_.size()));
    }

    OptimizedMultiQueue* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Local {
    Xoshiro256 rng;
    std::vector<Task> insert_buffer;
    // The last batch popped from a queue; delete_next is the first task
    // not yet handed out.
    std::vector<Task> delete_buffer;
    std::size_t delete_next = 0;
    std::size_t insert_queue = kNone;  // the sticky queues
    std::size_t delete_queue = kNone;
    // NUMA attribution: queue touches routed through the sampler (one
    // per flushed insert batch, not per task — a batch is one lock
    // acquisition and one node crossing), and how many were remote.
    std::uint64_t numa_sampled = 0;
    std::uint64_t numa_remote = 0;
  };

  Config cfg_;
  unsigned num_threads_;
  LockedQueueArray queues_;
  std::vector<Padded<Local>> locals_;
  QueueSampler sampler_;
};

static_assert(PriorityScheduler<OptimizedMultiQueue>);

}  // namespace smq

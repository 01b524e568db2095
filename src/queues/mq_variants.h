// Optimized classic Multi-Queue variants (paper Section 2.1, Appendix C).
//
// Two independent optimizations, each applicable to insert() and to
// delete(), giving the four combinations the appendix ablates:
//
//  * Task batching (Optimization 1): inserts are buffered thread-locally
//    and flushed to one random queue with a single lock acquisition once
//    BATCH_insert tasks accumulate; deletes retrieve BATCH_delete tasks
//    from the chosen queue at once into a thread-local buffer.
//  * Temporal locality (Optimization 2): before each operation the thread
//    flips a coin with probability p_change of re-sampling a queue, and
//    otherwise keeps using the queue of its previous operation.
//
// The paper's sweeps use p in {1/1, 1/2, ..., 1/1024} (p = 1 reproduces
// the classic behaviour) and batch sizes in {1, 2, ..., 1024}.
//
// Both optimizations are per-thread-state tricks (insert/delete buffers,
// the sticky queue choice), which is exactly what the Handle hoists: it
// holds the thread's Local slot directly, so a buffered push is a
// pointer-chase-free append.
#pragma once

#include <cstdint>
#include <deque>
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

enum class InsertPolicy { kTemporalLocality, kBatching };
enum class DeletePolicy { kTemporalLocality, kBatching };

struct OptimizedMqConfig {
  unsigned queue_multiplier = 4;
  InsertPolicy insert_policy = InsertPolicy::kTemporalLocality;
  DeletePolicy delete_policy = DeletePolicy::kTemporalLocality;
  // Temporal locality: probability of changing queues before an op.
  double p_insert_change = 1.0;
  double p_delete_change = 1.0;
  // Batching: local buffer capacities.
  std::size_t insert_batch = 1;
  std::size_t delete_batch = 1;
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

  OptimizedMultiQueue(unsigned num_threads, Config cfg)
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
      Local& local = *me_;
      const Config& cfg = sched_->cfg_;
      if (cfg.insert_policy == InsertPolicy::kBatching) {
        local.insert_buffer.push_back(task);
        if (local.insert_buffer.size() >= cfg.insert_batch) flush_inserts();
        return;
      }
      // Temporal locality: maybe keep the previous insert queue. A sticky
      // reuse still touches the queue's node, so it still counts toward
      // the NUMA attribution.
      while (true) {
        if (local.insert_queue == kNone ||
            local.rng.next_bool(cfg.p_insert_change)) {
          local.insert_queue = sched_->sampler_.sample(tid_, local.rng);
        }
        record_touch(local.insert_queue);
        if (sched_->queues_.try_push(local.insert_queue, task)) return;
        local.insert_queue = kNone;  // contended: re-sample next round
      }
    }

    /// Bulk insert. Under the batching insert policy the whole span lands
    /// in the local buffer at once (flushing each time it fills); temporal
    /// locality degrades to the per-task path, which already amortizes
    /// sampling through the sticky queue choice.
    void push_batch(std::span<const Task> tasks) {
      Local& local = *me_;
      const Config& cfg = sched_->cfg_;
      if (cfg.insert_policy != InsertPolicy::kBatching) {
        for (const Task& task : tasks) push(task);
        return;
      }
      for (const Task& task : tasks) {
        local.insert_buffer.push_back(task);
        if (local.insert_buffer.size() >= cfg.insert_batch) flush_inserts();
      }
    }

    std::optional<Task> try_pop() {
      Local& local = *me_;
      if (!local.delete_buffer.empty()) {
        Task t = local.delete_buffer.front();
        local.delete_buffer.pop_front();
        return t;
      }
      const Config& cfg = sched_->cfg_;
      const std::size_t want =
          cfg.delete_policy == DeletePolicy::kBatching ? cfg.delete_batch : 1;

      for (int attempt = 0; attempt < 64; ++attempt) {
        const std::size_t target = choose_delete_queue();
        if (target == kNone) {
          if (sched_->queues_.all_empty()) return drain();
          continue;
        }
        local.scratch.clear();
        switch (sched_->queues_.try_pop_batch(target, local.scratch, want)) {
          case LockedQueueArray::PopStatus::kOk: {
            Task first = local.scratch.front();
            local.delete_buffer.assign(local.scratch.begin() + 1,
                                       local.scratch.end());
            return first;
          }
          case LockedQueueArray::PopStatus::kEmpty:
            local.delete_queue = kNone;
            continue;
          case LockedQueueArray::PopStatus::kLockBusy:
            local.delete_queue = kNone;
            continue;
        }
      }
      return drain();
    }

    /// Bulk extract: drain the delete buffer wholesale between locked
    /// batch pops instead of paying one call per buffered task.
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      Local& local = *me_;
      std::size_t taken = 0;
      while (taken < max) {
        while (taken < max && !local.delete_buffer.empty()) {
          out.push_back(local.delete_buffer.front());
          local.delete_buffer.pop_front();
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
      Local& local = *me_;
      while (true) {
        const std::size_t target = sched_->sampler_.sample(tid_, local.rng);
        record_touch(target);
        if (sched_->queues_.try_push_batch(target, local.insert_buffer.data(),
                                           local.insert_buffer.size())) {
          break;
        }
      }
      local.insert_buffer.clear();
    }

    /// Pick the queue to delete from, honouring the delete policy.
    /// Returns kNone when both sampled queues look empty.
    std::size_t choose_delete_queue() {
      Local& local = *me_;
      const Config& cfg = sched_->cfg_;
      if (cfg.delete_policy == DeletePolicy::kTemporalLocality &&
          local.delete_queue != kNone &&
          !local.rng.next_bool(cfg.p_delete_change)) {
        record_touch(local.delete_queue);
        return local.delete_queue;  // stick with the previous queue
      }
      const std::size_t i1 = sched_->sampler_.sample(tid_, local.rng);
      std::size_t i2 = sched_->sampler_.sample(tid_, local.rng);
      // Bounded distinct-pair resampling (see ClassicMultiQueue).
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
    std::deque<Task> delete_buffer;
    std::vector<Task> scratch;
    std::size_t insert_queue = kNone;  // temporal-locality memory
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

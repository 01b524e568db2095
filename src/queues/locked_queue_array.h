// Shared substrate for every lock-based Multi-Queue variant: an array of
// spinlock-protected sequential d-ary heaps, each publishing an atomic
// (top priority, size) snapshot so that delete() can compare queue tops
// without taking locks — mirroring the Galois Multi-Queue implementation
// the paper's Listing 1 models.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "queues/d_ary_heap.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

class LockedQueueArray {
 public:
  explicit LockedQueueArray(std::size_t num_queues)
      : queues_(num_queues < 2 ? 2 : num_queues) {}

  std::size_t size() const noexcept { return queues_.size(); }

  /// Lock-free peek of queue i's top priority (may be stale).
  std::uint64_t top_priority(std::size_t i) const noexcept {
    return queues_[i].value.top_priority.load(std::memory_order_acquire);
  }

  /// Try to push a batch with a single lock acquisition; fails if the
  /// lock is contended.
  bool try_push_batch(std::size_t i, const Task* tasks, std::size_t count) {
    Queue& q = queues_[i].value;
    if (!q.lock.try_lock()) return false;
    for (std::size_t k = 0; k < count; ++k) q.heap.push(tasks[k]);
    publish(q, static_cast<std::int64_t>(count));
    q.lock.unlock();
    return true;
  }

  enum class PopStatus { kLockBusy, kEmpty, kOk };

  /// Try to pop up to max_count tasks (ascending priority) from queue i.
  PopStatus try_pop_batch(std::size_t i, std::vector<Task>& out,
                          std::size_t max_count) {
    Queue& q = queues_[i].value;
    if (!q.lock.try_lock()) return PopStatus::kLockBusy;
    std::size_t popped = 0;
    while (popped < max_count && !q.heap.empty()) {
      out.push_back(q.heap.pop());
      ++popped;
    }
    publish(q, -static_cast<std::int64_t>(popped));
    q.lock.unlock();
    return popped == 0 ? PopStatus::kEmpty : PopStatus::kOk;
  }

  bool all_empty() const noexcept {
    for (const auto& q : queues_) {
      if (q.value.size.load(std::memory_order_acquire) > 0) return false;
    }
    return true;
  }

  std::uint64_t approx_total() const noexcept {
    std::int64_t total = 0;
    for (const auto& q : queues_) {
      total += q.value.size.load(std::memory_order_relaxed);
    }
    return total < 0 ? 0 : static_cast<std::uint64_t>(total);
  }

  /// Drain-phase fallback: scan all queues from a random start, pop the
  /// first task found. Used once the sampled queues keep coming up empty.
  std::optional<Task> pop_any(std::size_t start) {
    std::vector<Task> out;
    for (std::size_t k = 0; k < queues_.size(); ++k) {
      const std::size_t i = (start + k) % queues_.size();
      if (queues_[i].value.size.load(std::memory_order_acquire) <= 0) continue;
      if (try_pop_batch(i, out, 1) == PopStatus::kOk) return out.front();
    }
    return std::nullopt;
  }

 private:
  struct Queue {
    Spinlock lock;
    // The heap is plain data: every touch must hold `lock`, and
    // -Wthread-safety proves it. top_priority/size stay lock-free
    // atomics — they are the published snapshot read without the lock.
    DAryHeap<Task, 4> heap SMQ_GUARDED_BY(lock);
    std::atomic<std::uint64_t> top_priority{Task::kInfinity};
    std::atomic<std::int64_t> size{0};
  };

  static void publish(Queue& q, std::int64_t delta) noexcept
      SMQ_REQUIRES(q.lock) {
    q.size.fetch_add(delta, std::memory_order_relaxed);
    q.top_priority.store(
        q.heap.empty() ? Task::kInfinity : q.heap.top().priority,
        std::memory_order_release);
  }

  std::vector<Padded<Queue>> queues_;
};

}  // namespace smq

// A thread-local priority queue with an affixed stealing buffer
// (paper Listing 4: HeapWithStealingBufferQueue).
//
// The owner stores tasks in a sequential local queue (d-ary heap by
// default, sequential skip list for the Appendix D variant) and
// periodically moves the best SIZE_steal of them into the stealing
// buffer, from which *either* other threads steal the whole batch or the
// owner reclaims them. Only the owner mutates the local queue; all
// cross-thread traffic flows through the buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/stealing_buffer.h"
#include "queues/d_ary_heap.h"
#include "sched/task.h"

namespace smq {

/// What the owner should do after comparing heap top and buffer head.
enum class OwnerPopSource { kEmpty, kHeap, kBuffer };

template <typename LocalPQ = DAryHeap<Task, 4>>
class HeapWithStealingBuffer {
 public:
  explicit HeapWithStealingBuffer(std::size_t steal_size)
      : buffer_(steal_size == 0 ? 1 : steal_size) {}

  // ---- owner-only interface -------------------------------------------

  /// addLocal(task): push into the local queue; refill the buffer if its
  /// previous batch was stolen (or never published), so the queue stays
  /// visible to stealers.
  void add_local(Task task) {
    heap_.push(task);
    if (buffer_.is_stolen()) fill_buffer();
  }

  /// Owner's view of the best available priority (min of heap top and an
  /// unstolen buffer head).
  std::uint64_t local_top_priority() const noexcept {
    const std::uint64_t heap_top =
        heap_.empty() ? Task::kInfinity : heap_.top().priority;
    return std::min(heap_top, buffer_.top_priority());
  }

  /// Decide where the owner's next task comes from; refills the buffer
  /// first so stolen batches are replaced eagerly (Listing 4 line 15).
  OwnerPopSource classify_pop() {
    if (buffer_.is_stolen()) fill_buffer();
    const std::uint64_t buf_top = buffer_.top_priority();
    const std::uint64_t heap_top =
        heap_.empty() ? Task::kInfinity : heap_.top().priority;
    if (buf_top == Task::kInfinity && heap_top == Task::kInfinity) {
      return OwnerPopSource::kEmpty;
    }
    return heap_top <= buf_top ? OwnerPopSource::kHeap : OwnerPopSource::kBuffer;
  }

  /// Pop from the local heap (owner, after classify_pop() == kHeap).
  Task pop_heap() { return heap_.pop(); }

  /// Reclaim the owner's own published batch (classify_pop() == kBuffer).
  /// May fail (returns 0) if a stealer won the race.
  std::size_t reclaim_buffer(std::vector<Task>& out) {
    const std::size_t n = buffer_.try_claim(out);
    if (buffer_.is_stolen()) fill_buffer();
    return n;
  }

  std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Bytes held by the local queue, when it can report them (e.g. the
  /// skiplist substrate's node pool). Any-thread safe.
  std::size_t memory_footprint() const noexcept
      requires requires(const LocalPQ& q) { q.memory_footprint(); }
  {
    return heap_.memory_footprint();
  }

  // ---- any-thread interface -------------------------------------------

  /// Priority visible to stealers: the buffer head (paper's top()).
  std::uint64_t steal_top_priority() const noexcept {
    return buffer_.top_priority();
  }

  /// Steal the whole published batch; 0 on failure (paper's steal(..)).
  std::size_t try_steal(std::vector<Task>& out) {
    return buffer_.try_claim(out);
  }

  std::uint64_t buffer_epoch() const noexcept { return buffer_.epoch(); }

 private:
  /// fillBuffer(): move up to SIZE_steal best tasks from the local queue
  /// into the buffer and republish. Requires the stolen flag to be set.
  /// An empty local queue publishes nothing: publishing clears the stolen
  /// flag, and with it the only trigger for the next refill, so an empty
  /// batch would hide every later push from stealers for good.
  void fill_buffer() {
    scratch_.clear();
    for (std::size_t i = 0; i < buffer_.capacity(); ++i) {
      std::optional<Task> t = heap_.try_pop();
      if (!t) break;
      scratch_.push_back(*t);
    }
    if (scratch_.empty()) return;
    buffer_.publish(scratch_.data(), scratch_.size());
  }

  LocalPQ heap_;
  StealingBuffer buffer_;
  std::vector<Task> scratch_;  // owner-only fill staging
};

}  // namespace smq

// The scheduler concept every priority scheduler in this library models,
// and the per-thread *handle* API the executor runs on.
//
// A scheduler hands out one lightweight `S::Handle` per thread via
// `s.handle(tid)`. The handle resolves the thread's slots (local queue,
// RNG, stickiness slot, insert buffers, ...) *once* — it owns direct
// pointers into them — and exposes the uniform hot-path interface
// `push / try_pop / push_batch / try_pop_batch / flush / collect_stats`
// with no tid argument. The executor, the service, the live-rank probe
// and the benches acquire one handle per thread per run, so per-op work
// is the operation itself. A handle's flush() must publish everything
// the thread has buffered — the executor trusts an empty pop for
// termination only after flushing through the handle.
#pragma once

#include <concepts>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sched/stats.h"
#include "sched/task.h"

namespace smq {

/// What a per-thread scheduler handle must offer: the complete hot-path
/// vocabulary with the thread identity baked in at acquisition. flush()
/// and collect_stats() are mandatory (no-ops where the scheduler buffers
/// nothing / counts nothing) so generic code never probes capabilities
/// mid-loop. collect_stats() folds scheduler-private counters (steals,
/// NUMA remote touches, ...) into the executor's ThreadStats; it is
/// called once per thread after the workers have joined.
template <typename H>
concept SchedulerHandle =
    std::move_constructible<H> &&
    requires(H h, const H ch, Task t, std::span<const Task> tasks,
             std::vector<Task>& out, std::size_t max, ThreadStats& st) {
      { h.push(t) } -> std::same_as<void>;
      { h.try_pop() } -> std::same_as<std::optional<Task>>;
      { h.push_batch(tasks) } -> std::same_as<void>;
      { h.try_pop_batch(out, max) } -> std::convertible_to<std::size_t>;
      { h.flush() } -> std::same_as<void>;
      { ch.collect_stats(st) } -> std::same_as<void>;
      { ch.thread_id() } -> std::convertible_to<unsigned>;
    };

/// A priority scheduler: `s.handle(tid)` resolves thread `tid`'s slots
/// once and returns the lightweight view. Handles are views, not
/// sessions — acquiring one is cheap and side-effect free, any number may
/// exist for the same tid (though only one thread may *use* a given
/// tid's state at a time), and they stay valid for the scheduler's
/// lifetime.
template <typename S>
concept PriorityScheduler =
    requires(S s, unsigned tid) {
      typename S::Handle;
      { s.handle(tid) } -> std::same_as<typename S::Handle>;
      { s.num_threads() } -> std::convertible_to<unsigned>;
    } && SchedulerHandle<typename S::Handle>;

/// Schedulers whose lock-free structures defer memory reclamation
/// through an EpochManager. quiesce(tid) is the idle hook: called on a
/// thread that is about to park (and holds no epoch guard), it gives
/// the manager a chance to advance the global epoch and drain that
/// thread's retire list, so memory is reclaimed between query bursts
/// rather than only under load. Handles of such schedulers pin the
/// epoch once per operation or batch — never per pointer.
template <typename S>
concept ReclaimingScheduler = PriorityScheduler<S> && requires(S s, unsigned tid) {
  { s.quiesce(tid) } -> std::same_as<void>;
};

/// Schedulers that can report the bytes their queues currently hold
/// (arenas, chunk pools, retire lists). Advisory and any-thread safe —
/// the service surfaces it as a steady-state footprint stat.
template <typename S>
concept MemoryReportingScheduler =
    PriorityScheduler<S> && requires(const S s) {
      { s.memory_footprint() } -> std::convertible_to<std::size_t>;
    };

/// Idle hook: let the scheduler advance reclamation if it defers any.
template <PriorityScheduler S>
void quiesce_if_supported(S& sched, unsigned tid) {
  if constexpr (ReclaimingScheduler<S>) sched.quiesce(tid);
}

/// Bytes held by the scheduler's queues, 0 when it does not report.
template <PriorityScheduler S>
std::size_t memory_footprint_if_supported(const S& sched) {
  if constexpr (MemoryReportingScheduler<S>) return sched.memory_footprint();
  return 0;
}

/// Shared try_pop_batch body for handles without a native bulk extract:
/// pop one at a time until `max` or the first empty pop, so a 0 return
/// means the scheduler had nothing for this thread at this moment.
/// Unconstrained on purpose — it is called from inside Handle class
/// bodies whose type is still incomplete at that point.
template <typename H>
std::size_t handle_pop_loop(H& handle, std::vector<Task>& out,
                            std::size_t max) {
  std::size_t taken = 0;
  while (taken < max) {
    std::optional<Task> task = handle.try_pop();
    if (!task) break;
    out.push_back(*task);
    ++taken;
  }
  return taken;
}

}  // namespace smq

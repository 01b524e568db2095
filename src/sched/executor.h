// Parallel priority-task executor — the Galois-substitute runtime.
//
// Runs a fixed pool of threads against one scheduler instance through the
// per-thread handle API (scheduler_traits.h): each worker acquires
// `handle_adapted(sched, tid)` once, so the thread's scheduler state
// (local queue, RNG, stickiness slots, buffers) is resolved a single time
// per run instead of re-indexed on every push/pop. Each thread then
// loops: pop work, run the user functor (which may push follow-up tasks),
// repeat. Termination uses a global pending-task counter: push
// increments, completing a popped task decrements; a thread may only exit
// when its pop failed *after flushing its buffers through the handle* and
// the counter reads zero. This is exact for the monotone workloads in the
// paper (tasks only create tasks while being executed).
//
// Every run goes through one batched worker loop: it pops up to
// batch_size tasks with one handle call, buffers the pushes of the tasks
// it runs thread-locally and publishes them with one handle call plus
// one counter update per flush. This amortizes the dispatch boundary
// (e.g. AnyScheduler's virtual HandleView) the same way the paper's
// Optimization 1 amortizes queue locks; batch_size == 1 is one task per
// handle call.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/spinlock.h"
#include "support/timer.h"

namespace smq {

/// Knobs of run_parallel that are independent of the scheduler.
struct ExecutorOptions {
  /// Tasks popped per handle call and buffered per push flush.
  std::size_t batch_size = 1;
};

/// Per-thread view given to the task functor; the only way user code
/// interacts with the scheduler during a run. Pushes accumulate in a
/// per-thread buffer and reach the scheduler via one handle push_batch
/// with a single relaxed fetch_add(n) on the pending counter per flush.
/// Safe for termination because the counter is bumped *before* the tasks
/// become visible, and the executed tasks that created them are not
/// retired until after flush() (see worker_loop).
template <SchedulerHandle H>
class TaskContext {
 public:
  TaskContext(H& handle, std::atomic<std::int64_t>& pending,
              ThreadStats& stats, std::vector<Task>& buffer,
              std::size_t capacity) noexcept
      : handle_(handle),
        pending_(pending),
        stats_(stats),
        buffer_(buffer),
        capacity_(capacity == 0 ? 1 : capacity) {
    buffer_.clear();
    buffer_.reserve(capacity_);
  }

  void push(Task t) {
    buffer_.push_back(t);
    ++stats_.pushes;
    if (buffer_.size() >= capacity_) flush();
  }

  /// Publish every buffered task. Counter first, then tasks: a task must
  /// never be poppable before it is counted, or another thread could read
  /// pending == 0 with work still in flight.
  void flush() {
    if (buffer_.empty()) return;
    pending_.fetch_add(static_cast<std::int64_t>(buffer_.size()),
                       std::memory_order_relaxed);
    handle_.push_batch(std::span<const Task>(buffer_));
    buffer_.clear();
  }

  void mark_wasted() noexcept { ++stats_.wasted; }

  unsigned thread_id() const noexcept { return handle_.thread_id(); }

 private:
  H& handle_;
  std::atomic<std::int64_t>& pending_;
  ThreadStats& stats_;
  std::vector<Task>& buffer_;
  std::size_t capacity_;
};

/// Per-thread scratch of the worker loop (pop batch + push buffer),
/// cache-padded as an array slot so neighbouring threads' buffer headers
/// never false-share. Shared with the service worker loop
/// (service/scheduler_service.h), which runs the same protocol on a
/// persistent pool.
struct WorkerBuffers {
  std::vector<Task> pop;   // tasks taken from the scheduler this round
  std::vector<Task> push;  // children awaiting the next flush
};

namespace detail {

/// The worker loop. Children first, then retire the executed work: the
/// executed tasks' pending counts cover their still-buffered children, so
/// the counter cannot dip to zero while work sits in this thread's
/// buffer. fetch_sub and fetch_add hit the same atomic, so the counter's
/// modification order alone rules out a phantom zero; the acq_rel on the
/// sub is what hands a release edge to the thread that finally observes
/// zero with its acquire load. On an empty pop, everything this thread
/// still buffers (context push buffer, scheduler-internal insert buffers)
/// must be published through the handle before the counter read is
/// allowed to conclude the system has drained.
template <SchedulerHandle H, typename Fn>
void worker_loop(H& handle, std::atomic<std::int64_t>& pending,
                 ThreadStats& stats, Fn& fn, std::size_t batch_size,
                 WorkerBuffers& bufs) {
  TaskContext<H> ctx(handle, pending, stats, bufs.push, batch_size);
  bufs.pop.reserve(batch_size);
  Backoff backoff;
  while (true) {
    bufs.pop.clear();
    const std::size_t taken = handle.try_pop_batch(bufs.pop, batch_size);
    if (taken > 0) {
      backoff.reset();
      stats.pops += taken;
      for (std::size_t i = 0; i < bufs.pop.size(); ++i) fn(bufs.pop[i], ctx);
      ctx.flush();  // children visible before their parents retire
      pending.fetch_sub(static_cast<std::int64_t>(taken),
                        std::memory_order_acq_rel);
      continue;
    }
    ++stats.empty_pops;
    // Nothing popped: publish our buffered children and the scheduler's
    // buffered inserts before trusting the counter.
    ctx.flush();
    handle.flush();
    if (pending.load(std::memory_order_acquire) == 0) return;
    backoff.pause();
    // Oversubscribed pools (threads > cores) must hand the core to
    // whoever holds the tasks instead of burning the timeslice.
    std::this_thread::yield();
  }
}

}  // namespace detail

/// Seeds `initial` tasks round-robin through per-thread handles, then
/// runs `fn(task, ctx)` on `num_threads` threads until the task graph
/// drains. Works with any PriorityScheduler: schedulers with native
/// handles get them, the rest run through the TidHandle shim.
template <PriorityScheduler S, typename Fn>
RunResult run_parallel(S& sched, std::span<const Task> initial, Fn fn,
                       unsigned num_threads, const ExecutorOptions& opts = {}) {
  StatsRegistry stats(num_threads);
  std::atomic<std::int64_t> pending{0};
  const std::size_t batch_size = opts.batch_size == 0 ? 1 : opts.batch_size;

  // Seed from "thread 0"'s perspective; one handle acquisition per tid
  // covers the whole seeding pass (for AnyScheduler this is also one
  // erased-handle allocation per tid instead of one virtual per push).
  {
    // smq-lint: no-pad seeding runs on this one thread only; workers
    // construct their own handles on their own stacks below
    std::vector<HandleOf<S>> handles;
    handles.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      handles.push_back(handle_adapted(sched, tid));
    }
    for (std::size_t i = 0; i < initial.size(); ++i) {
      const unsigned tid = static_cast<unsigned>(i % num_threads);
      pending.fetch_add(1, std::memory_order_relaxed);
      handles[tid].push(initial[i]);
      ++stats.of(tid).pushes;
    }
    for (auto& handle : handles) handle.flush();
  }

  std::vector<Padded<WorkerBuffers>> buffers(num_threads);
  auto work = [&](unsigned tid) {
    auto handle = handle_adapted(sched, tid);
    detail::worker_loop(handle, pending, stats.of(tid), fn, batch_size,
                        buffers[tid].value);
  };

  Timer timer;
  if (num_threads == 1) {
    work(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(num_threads);
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      pool.emplace_back([&work, tid] { work(tid); });
    }
  }  // jthreads join here

  RunResult result;
  result.seconds = timer.seconds();
  // Scheduler-private counters (steal and NUMA-remote tallies) merge
  // into the per-thread slots only now, after the workers have joined.
  for (unsigned tid = 0; tid < num_threads; ++tid) {
    handle_adapted(sched, tid).collect_stats(stats.of(tid));
  }
  result.stats = stats.total();
  return result;
}

}  // namespace smq

// SchedulerService<S>: a persistent worker pool serving concurrent
// point-to-point queries over one shared immutable CSR.
//
// run_parallel (sched/executor.h) owns the machine for one run: spawn,
// drain, join. A routing service fields a *stream* of small queries, and
// paying thread spawn/join plus an O(V) distance-array reset per query
// would swamp the scheduler the paper actually evaluates. This pool
// inverts the lifetime: workers are spawned once, each acquires its
// S::Handle once and holds it across queries (the PR 5 handle API's
// whole point — per-thread scheduler state persists), and they park on a
// condition variable when the service is idle. Per-query state is a
// "lane": an epoch-versioned label array (versioned_labels.h) plus the
// query's control block, so starting a query is O(1), not O(V).
//
// Concurrency protocol, layered over the executor's:
//  * Global termination counter `pending_` works exactly as in
//    worker_loop: count before visible, retire after flush. Here it
//    never signals exit (the pool is long-lived) — it gates *parking*:
//    a worker may only park when a flush-then-check sees zero.
//  * Each query's Job carries its own pending count (seed = 1; children
//    counted before they are buffered, parents retired only after the
//    batch flush). The worker that retires a job's last task completes
//    the query: reads the result off the lane, records latency, frees
//    the lane, fulfils the promise.
//  * Admission is worker-side only. submit() enqueues under the mutex
//    and wakes the pool; a worker with nothing to pop claims queued
//    queries for free lanes and seeds them through its own handle's
//    push_batch — the same amortized hot path batched runs use. Client
//    threads never touch scheduler handles (handles are single-owner).
//  * Lane reuse is ABA-safe without tagged pointers: a task referencing
//    lane L implies its job's pending > 0, which blocks completion and
//    therefore reuse of L until that task retires. Workers resolve
//    lane -> Job via an acquire load paired with the admission-side
//    release store; the scheduler's own push/pop synchronization (which
//    must already publish the task bytes) carries the edge across
//    threads.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sched/executor.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "service/query.h"
#include "service/versioned_labels.h"
#include "support/mutex.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

template <PriorityScheduler S>
class SchedulerService final : public QueryService {
 public:
  /// Construct the scheduler in place from `sched_args` (many scheduler
  /// families own mutexes and are not movable) and launch the pool.
  /// `workers` must not exceed the scheduler's thread capacity.
  template <typename... SchedArgs>
  SchedulerService(std::shared_ptr<const Graph> graph, unsigned workers,
                   const ServiceOptions& opts, SchedArgs&&... sched_args)
      : graph_(std::move(graph)),
        workers_(workers == 0 ? 1 : workers),
        opts_(normalize(opts, workers_)),
        use_heuristic_(opts_.use_heuristic && !graph_->coordinates().empty()),
        sched_(std::forward<SchedArgs>(sched_args)...),
        stats_(workers_) {
    const std::size_t vertices = graph_->num_vertices();
    lanes_.reserve(opts_.lanes);
    for (unsigned i = 0; i < opts_.lanes; ++i) {
      lanes_.push_back(std::make_unique<Lane>(vertices));
    }
    // Lowest lane id claimed first (free list is a stack).
    for (unsigned i = opts_.lanes; i-- > 0;) free_lanes_.push_back(i);
    start();
  }

  ~SchedulerService() override { stop(); }

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  void start() override {
    MutexLock lifecycle(lifecycle_mutex_);
    if (!threads_.empty()) return;  // already running
    if (stopped_) {
      throw std::logic_error(
          "SchedulerService: a stopped service cannot be restarted");
    }
    threads_.reserve(workers_);
    for (unsigned tid = 0; tid < workers_; ++tid) {
      threads_.emplace_back([this, tid] { worker(tid); });
    }
  }

  void stop() override {
    MutexLock lifecycle(lifecycle_mutex_);
    {
      MutexLock lk(mutex_);
      accepting_ = false;
      stop_ = true;
    }
    cv_.notify_all();
    if (!threads_.empty()) {
      threads_.clear();  // jthreads join; queued + in-flight queries drain
      // Scheduler-private counters (steal tallies, NUMA attribution)
      // fold into the per-thread slots only now, as in run_parallel.
      for (unsigned tid = 0; tid < workers_; ++tid) {
        handle_adapted(sched_, tid).collect_stats(stats_.of(tid));
      }
    }
    stopped_ = true;
  }

  bool accepting() const override {
    MutexLock lk(mutex_);
    return accepting_;
  }

  QueryTicket submit(Query q) override {
    if (q.source >= graph_->num_vertices() || q.target >= graph_->num_vertices()) {
      throw std::invalid_argument("SchedulerService: query vertex out of range");
    }
    auto job = std::make_shared<Job>(q);
    QueryTicket ticket = job->promise.get_future();
    if (q.source == q.target) {
      // Degenerate query: answer immediately instead of flooding the
      // scheduler with a search whose incumbent can never prune.
      {
        MutexLock lk(mutex_);
        if (!accepting_) {
          throw std::runtime_error("SchedulerService: submit after stop");
        }
      }
      QueryResult r;
      r.distance = 0;
      r.latency_seconds =
          std::chrono::duration<double>(Clock::now() - job->submitted).count();
      latency_.record_seconds(r.latency_seconds);
      queries_completed_.fetch_add(1, std::memory_order_relaxed);
      job->promise.set_value(r);
      return ticket;
    }
    {
      MutexLock lk(mutex_);
      if (!accepting_) {
        throw std::runtime_error("SchedulerService: submit after stop");
      }
      queue_.push_back(std::move(job));
      queued_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
    return ticket;
  }

  unsigned num_workers() const override { return workers_; }
  unsigned num_lanes() const override { return opts_.lanes; }

  std::uint64_t queries_completed() const override {
    return queries_completed_.load(std::memory_order_relaxed);
  }

  const LatencyHistogram& latency_histogram() const override { return latency_; }

  ThreadStats worker_stats() const override { return stats_.total(); }

  std::size_t memory_footprint() const override {
    return memory_footprint_if_supported(sched_);
  }

  /// The wrapped scheduler (tests, stat scraping).
  S& scheduler() noexcept { return sched_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Control block of one in-flight (or queued) query. Fully
  /// initialized before its lane's release-store publishes it.
  struct Job {
    explicit Job(Query q) : query(q), submitted(Clock::now()) {}

    const Query query;
    const Clock::time_point submitted;
    unsigned lane = 0;
    std::uint64_t epoch = 0;
    std::promise<QueryResult> promise;
    /// Unretired tasks of this query; the seed counts 1. Zero =>
    /// the query's task graph has drained (same protocol as the
    /// executor's global counter, scoped to one query).
    std::atomic<std::int64_t> pending{0};
    /// Incumbent distance at the target; prunes f >= best (A*).
    std::atomic<std::uint64_t> best_target{QueryResult::kUnreached};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> wasted{0};
  };

  /// One concurrent-query slot: the versioned labels plus the job that
  /// currently owns them. `job` is the worker-side view (acquire /
  /// release); `owner` keeps the Job alive and is guarded by mutex_.
  struct Lane {
    explicit Lane(std::size_t vertices) : labels(vertices) {}
    VersionedLabels labels;
    std::atomic<Job*> job{nullptr};
    std::shared_ptr<Job> owner;
  };

  struct Completion {
    std::shared_ptr<Job> job;
    QueryResult result;
  };

  static ServiceOptions normalize(ServiceOptions o, unsigned workers) {
    if (o.lanes == 0) o.lanes = 2 * workers;
    if (o.batch_size == 0) o.batch_size = 1;
    return o;
  }

  static std::uint64_t payload_of(unsigned lane, VertexId v) noexcept {
    return (static_cast<std::uint64_t>(lane) << 32) | v;
  }
  static unsigned lane_of(std::uint64_t payload) noexcept {
    return static_cast<unsigned>(payload >> 32);
  }
  static VertexId vertex_of(std::uint64_t payload) noexcept {
    return static_cast<VertexId>(payload);
  }

  /// Admissible heuristic toward `target` (astar.h's formulation); 0
  /// without coordinates, degrading the search to p2p Dijkstra.
  std::uint64_t heuristic(VertexId v, VertexId target) const noexcept {
    if (!use_heuristic_) return 0;
    const Coordinates& c = graph_->coordinates();
    const double dx = c.x[v] - c.x[target];
    const double dy = c.y[v] - c.y[target];
    return static_cast<std::uint64_t>(std::sqrt(dx * dx + dy * dy) *
                                      opts_.weight_scale);
  }

  void worker(unsigned tid) {
    auto handle = handle_adapted(sched_, tid);
    ThreadStats& stats = stats_.of(tid);
    const std::size_t batch = opts_.batch_size;
    WorkerBuffers bufs;
    bufs.pop.reserve(batch);
    TaskContext ctx(handle, pending_, stats, bufs.push, batch);
    Backoff backoff;
    std::vector<Task> seeds;
    std::vector<Completion> done;
    while (true) {
      bufs.pop.clear();
      const std::size_t taken = handle.try_pop_batch(bufs.pop, batch);
      if (taken > 0) {
        backoff.reset();
        stats.pops += taken;
        for (const Task& t : bufs.pop) execute_task(t, ctx);
        // Children first (flush), then retire — a job's pending count
        // must cover its still-buffered children, and the global
        // counter must cover every lane until its tasks are retired.
        ctx.flush();
        for (const Task& t : bufs.pop) retire_task(t, done);
        pending_.fetch_sub(static_cast<std::int64_t>(taken),
                           std::memory_order_acq_rel);
        if (!done.empty()) {
          for (Completion& c : done) c.job->promise.set_value(c.result);
          done.clear();
          try_admit(handle, stats, seeds);  // reuse the freed lanes now
        }
        continue;
      }
      ++stats.empty_pops;
      // Publish buffered children and scheduler-internal inserts before
      // trusting the pending counter (the executor's rule).
      ctx.flush();
      handle.flush();
      if (try_admit(handle, stats, seeds)) continue;
      if (pending_.load(std::memory_order_acquire) != 0) {
        backoff.pause();
        std::this_thread::yield();
        continue;
      }
      // Nothing runnable and nothing admissible: park. The wait
      // predicate mirrors every wake source — shutdown, new in-flight
      // work, or an admissible (queued query x free lane) pair — and is
      // written as an inline loop (not a wait(lk, pred) lambda) so the
      // thread-safety analysis sees the guarded reads under the held
      // capability.
      //
      // Parking is the reclamation quiesce point: with no epoch guard
      // held, let the scheduler advance its epoch and drain this
      // thread's retire list, so memory from the last burst is
      // reclaimed even if the service then sits idle.
      quiesce_if_supported(sched_, handle.thread_id());
      {
        MutexLock lk(mutex_);
        while (!(stop_ || pending_.load(std::memory_order_acquire) != 0 ||
                 (!queue_.empty() && !free_lanes_.empty()))) {
          cv_.wait(lk);
        }
        if (stop_ && queue_.empty() &&
            pending_.load(std::memory_order_acquire) == 0) {
          return;
        }
      }
      backoff.reset();
    }
  }

  template <typename Ctx>
  void execute_task(const Task& task, Ctx& ctx) {
    const unsigned lane_id = lane_of(task.payload);
    const VertexId v = vertex_of(task.payload);
    Lane& lane = *lanes_[lane_id];
    // Never null: an in-scheduler task keeps its job's pending > 0,
    // which blocks completion (and lane reuse) until it retires.
    Job* job = lane.job.load(std::memory_order_acquire);
    const std::uint64_t f = task.priority;
    const std::uint64_t g = f - heuristic(v, job->query.target);
    if (lane.labels.load(v, job->epoch) < g ||
        f >= job->best_target.load(std::memory_order_relaxed)) {
      ctx.mark_wasted();
      job->wasted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (const Graph::Neighbor& n : graph_->neighbors(v)) {
      const std::uint64_t ng = g + n.weight;
      if (!lane.labels.relax_min(n.to, ng, job->epoch)) continue;
      if (n.to == job->query.target) {
        // CAS-min the incumbent; the target itself is never pushed.
        std::uint64_t cur = job->best_target.load(std::memory_order_relaxed);
        while (ng < cur && !job->best_target.compare_exchange_weak(
                               cur, ng, std::memory_order_relaxed)) {
        }
        continue;
      }
      const std::uint64_t nf = ng + heuristic(n.to, job->query.target);
      if (nf < job->best_target.load(std::memory_order_relaxed)) {
        job->pending.fetch_add(1, std::memory_order_relaxed);
        ctx.push(Task{nf, payload_of(lane_id, n.to)});
      }
    }
  }

  void retire_task(const Task& task, std::vector<Completion>& done) {
    Lane& lane = *lanes_[lane_of(task.payload)];
    Job* job = lane.job.load(std::memory_order_acquire);
    job->executed.fetch_add(1, std::memory_order_relaxed);
    if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done.push_back(complete_query(lane, *job));
    }
  }

  /// Last task retired: harvest the result off the lane *before* the
  /// lane goes back on the free list (a new admission bumps the epoch,
  /// invalidating the labels this query wrote).
  Completion complete_query(Lane& lane, Job& job) {
    Completion c;
    c.result.distance = lane.labels.load(job.query.target, job.epoch);
    c.result.tasks = job.executed.load(std::memory_order_relaxed);
    c.result.wasted = job.wasted.load(std::memory_order_relaxed);
    c.result.latency_seconds =
        std::chrono::duration<double>(Clock::now() - job.submitted).count();
    latency_.record_seconds(c.result.latency_seconds);
    queries_completed_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lk(mutex_);
      lane.job.store(nullptr, std::memory_order_relaxed);
      c.job = std::move(lane.owner);
      free_lanes_.push_back(job.lane);
    }
    return c;
  }

  /// Claim queued queries for free lanes and seed them through this
  /// worker's handle. try_to_lock: admission is an optimization on the
  /// idle path; blocking every idle worker on one mutex is not.
  template <typename H>
  bool try_admit(H& handle, ThreadStats& stats, std::vector<Task>& seeds) {
    if (queued_.load(std::memory_order_relaxed) == 0) return false;
    seeds.clear();
    // Explicit try_lock/unlock (rather than a scoped guard) so the
    // try-acquire branch is visible to the thread-safety analysis.
    if (!mutex_.try_lock()) return false;
    while (!queue_.empty() && !free_lanes_.empty()) {
      std::shared_ptr<Job> job = std::move(queue_.front());
      queue_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      const unsigned lane_id = free_lanes_.back();
      free_lanes_.pop_back();
      Lane& lane = *lanes_[lane_id];
      job->lane = lane_id;
      job->epoch = lane.labels.new_epoch();
      lane.labels.store(job->query.source, 0, job->epoch);
      job->pending.store(1, std::memory_order_relaxed);
      seeds.push_back(Task{heuristic(job->query.source, job->query.target),
                           payload_of(lane_id, job->query.source)});
      Job* raw = job.get();
      lane.owner = std::move(job);
      lane.job.store(raw, std::memory_order_release);
    }
    mutex_.unlock();
    if (seeds.empty()) return false;
    // Counter before visibility, exactly like TaskContext::flush.
    stats.pushes += seeds.size();
    pending_.fetch_add(static_cast<std::int64_t>(seeds.size()),
                       std::memory_order_relaxed);
    handle.push_batch(std::span<const Task>(seeds));
    wake_all();
    return true;
  }

  /// Wake parked workers. The empty critical section orders this
  /// notifier's state changes against a parker between its predicate
  /// check and its wait — without it the wake could fall in that window
  /// and be lost.
  void wake_all() {
    { MutexLock lk(mutex_); }
    cv_.notify_all();
  }

  std::shared_ptr<const Graph> graph_;
  const unsigned workers_;
  const ServiceOptions opts_;
  const bool use_heuristic_;
  S sched_;
  StatsRegistry stats_;
  LatencyHistogram latency_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Global unretired-task counter across all in-flight queries; gates
  /// parking, never termination.
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::uint64_t> queries_completed_{0};
  std::atomic<std::uint64_t> queued_{0};  // lock-free mirror of queue_.size()

  // Admission queue, free lanes, and run-state flags: plain data under
  // mutex_, with -Wthread-safety proving every access holds it. The
  // condition variable is the _any flavour because it parks on the
  // annotated MutexLock directly.
  mutable Mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<std::shared_ptr<Job>> queue_ SMQ_GUARDED_BY(mutex_);
  std::vector<unsigned> free_lanes_ SMQ_GUARDED_BY(mutex_);
  bool accepting_ SMQ_GUARDED_BY(mutex_) = true;
  bool stop_ SMQ_GUARDED_BY(mutex_) = false;

  Mutex lifecycle_mutex_;  // serializes start()/stop() callers
  bool stopped_ SMQ_GUARDED_BY(lifecycle_mutex_) = false;
  std::vector<std::jthread> threads_ SMQ_GUARDED_BY(lifecycle_mutex_);
};

}  // namespace smq

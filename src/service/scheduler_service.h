// SchedulerService<S>: a persistent worker pool serving concurrent
// point-to-point queries over one shared immutable CSR.
//
// run_parallel (sched/executor.h) owns the machine for one run: spawn,
// drain, join. A routing service fields a *stream* of small queries, and
// paying thread spawn/join plus an O(V) distance-array reset per query
// would swamp the scheduler the paper actually evaluates. This pool
// inverts the lifetime: workers are spawned once, each acquires its
// S::Handle once and holds it across queries (the handle API's whole
// point — per-thread scheduler state persists), and they park on a
// condition variable when the service is idle. Per-query state is a
// "lane": an epoch-versioned label array (versioned_labels.h) plus the
// query's control block, so starting a query is O(1), not O(V).
//
// Concurrency protocol, layered over the executor's. Like SMQ's own
// batched insert and delete, the bookkeeping is paid per popped batch,
// not per task:
//  * Global termination counter `pending_` works exactly as in
//    worker_loop: count before visible, retire after flush. Here it
//    never signals exit (the pool is long-lived) — it gates *parking*:
//    a worker may only park when a flush-then-check sees zero.
//  * Each query's Job carries its own pending count (seed = 1). A worker
//    runs its whole popped batch into one push buffer while tallying,
//    per lane the batch touched, the children, executed and wasted
//    tasks. Before the batch's single push_batch it adds each lane's
//    child count to that job's pending (one fetch_add per lane); after
//    the push it adds executed/wasted once per lane and retires the
//    lane's executed count with one acq_rel fetch_sub. The worker whose
//    fetch_sub reaches zero completes the query: reads the result off
//    the lane and records latency.
//  * One critical section per completion batch: the batch's completed
//    lanes go back on the free list and queued queries are admitted
//    into free lanes under a single acquisition of mutex_. Admission is
//    worker-side only: a worker seeds the admitted queries through its
//    own handle's push_batch — the same hot path batched runs use.
//    Client threads never touch scheduler handles (handles are
//    single-owner). An idle worker admits the same way.
//  * Wake only parked workers. A worker parks on cv_ only after
//    checking, under mutex_, that there is no in-flight work, no stop
//    request and no admissible (queued query x free lane) pair, and it
//    is counted in `parked_` while it waits. submit() and admission
//    read `parked_` in the same critical section that publishes their
//    work and notify only when it is non-zero. Admission adds the seeds
//    to `pending_` inside that section, so a worker about to park either
//    sees the new work or is already counted and gets notified.
//  * Lane reuse is ABA-safe without tagged pointers: a task referencing
//    lane L implies its job's pending > 0, which blocks completion and
//    therefore reuse of L until that task retires. Workers resolve
//    lane -> Job once per lane per batch via an acquire load paired
//    with the admission-side release store; the scheduler's own
//    push/pop synchronization (which must already publish the task
//    bytes) carries the edge across threads.
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
        sched_.handle(tid).collect_stats(stats_.of(tid));
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
    bool wake = false;
    {
      MutexLock lk(mutex_);
      if (!accepting_) {
        throw std::runtime_error("SchedulerService: submit after stop");
      }
      queue_.push_back(std::move(job));
      queued_.fetch_add(1, std::memory_order_relaxed);
      wake = parked_ > 0;
    }
    if (wake) cv_.notify_all();
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
    std::uint64_t epoch = 0;
    double wait_seconds = 0;  // submit() to admission
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

  /// One lane's share of a popped batch, settled against its job's
  /// atomics once per batch.
  struct LaneTally {
    Job* job = nullptr;
    std::uint64_t executed = 0;
    std::uint64_t wasted = 0;
    std::uint64_t children = 0;
  };

  struct Completion {
    unsigned lane = 0;
    QueryResult result;
    std::shared_ptr<Job> job;  // taken off the lane under mutex_
  };

  /// A worker's scratch, reused across batches.
  struct WorkerScratch {
    explicit WorkerScratch(unsigned lanes) : tally(lanes) {}
    WorkerBuffers bufs;
    std::vector<LaneTally> tally;  // indexed by lane id
    std::vector<unsigned> touched;  // lanes with a non-empty tally
    std::vector<Task> seeds;
    std::vector<Completion> done;
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
    auto handle = sched_.handle(tid);
    ThreadStats& stats = stats_.of(tid);
    const std::size_t batch = opts_.batch_size;
    WorkerScratch s(opts_.lanes);
    s.bufs.pop.reserve(batch);
    Backoff backoff;
    while (true) {
      s.bufs.pop.clear();
      const std::size_t taken = handle.try_pop_batch(s.bufs.pop, batch);
      if (taken > 0) {
        backoff.reset();
        stats.pops += taken;
        run_batch(handle, stats, s);
        continue;
      }
      ++stats.empty_pops;
      // Publish scheduler-internal inserts before trusting the pending
      // counter (the executor's rule); run_batch leaves no child behind.
      handle.flush();
      if (try_admit(handle, stats, s)) continue;
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
      // capability. `parked_` tells submit() and admission that a
      // notify is needed.
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
          ++parked_;
          cv_.wait(lk);
          --parked_;
        }
        if (stop_ && queue_.empty() &&
            pending_.load(std::memory_order_acquire) == 0) {
          return;
        }
      }
      backoff.reset();
    }
  }

  /// Run one popped batch, then settle it: children counted per lane,
  /// published with one push_batch, parents retired per lane, and the
  /// queries that drained completed in one critical section.
  template <typename H>
  void run_batch(H& handle, ThreadStats& stats, WorkerScratch& s) {
    std::vector<Task>& children = s.bufs.push;
    for (const Task& t : s.bufs.pop) {
      const unsigned lane_id = lane_of(t.payload);
      LaneTally& tally = s.tally[lane_id];
      if (tally.executed++ == 0) {
        // Never null: an in-scheduler task keeps its job's pending > 0,
        // which blocks completion (and lane reuse) until it retires —
        // and this batch retires nothing before it is settled.
        tally.job = lanes_[lane_id]->job.load(std::memory_order_acquire);
        s.touched.push_back(lane_id);
      }
      execute_task(t, lane_id, tally, children);
    }
    // Children first: counted in their job and globally before any
    // becomes visible, so neither count can dip to zero while work sits
    // in this thread's buffer.
    for (const unsigned lane_id : s.touched) {
      const LaneTally& tally = s.tally[lane_id];
      if (tally.children == 0) continue;
      tally.job->pending.fetch_add(static_cast<std::int64_t>(tally.children),
                                   std::memory_order_relaxed);
    }
    if (!children.empty()) {
      stats.pushes += children.size();
      pending_.fetch_add(static_cast<std::int64_t>(children.size()),
                         std::memory_order_relaxed);
      handle.push_batch(std::span<const Task>(children));
      children.clear();
    }
    // Then retire. The acq_rel fetch_sub hands every earlier executed/
    // wasted add of the job to whichever worker sees it reach zero.
    for (const unsigned lane_id : s.touched) {
      LaneTally& tally = s.tally[lane_id];
      Job& job = *tally.job;
      job.executed.fetch_add(tally.executed, std::memory_order_relaxed);
      if (tally.wasted > 0) {
        job.wasted.fetch_add(tally.wasted, std::memory_order_relaxed);
        stats.wasted += tally.wasted;
      }
      const auto retired = static_cast<std::int64_t>(tally.executed);
      if (job.pending.fetch_sub(retired, std::memory_order_acq_rel) == retired) {
        s.done.push_back(harvest(lane_id, job));
      }
      tally = LaneTally{};
    }
    s.touched.clear();
    pending_.fetch_sub(static_cast<std::int64_t>(s.bufs.pop.size()),
                       std::memory_order_acq_rel);
    if (!s.done.empty()) complete_and_admit(handle, stats, s);
  }

  void execute_task(const Task& task, unsigned lane_id, LaneTally& tally,
                    std::vector<Task>& children) {
    const VertexId v = vertex_of(task.payload);
    Lane& lane = *lanes_[lane_id];
    Job& job = *tally.job;
    const std::uint64_t f = task.priority;
    const std::uint64_t g = f - heuristic(v, job.query.target);
    if (lane.labels.load(v, job.epoch) < g ||
        f >= job.best_target.load(std::memory_order_relaxed)) {
      ++tally.wasted;
      return;
    }
    for (const Graph::Neighbor& n : graph_->neighbors(v)) {
      const std::uint64_t ng = g + n.weight;
      if (!lane.labels.relax_min(n.to, ng, job.epoch)) continue;
      if (n.to == job.query.target) {
        // CAS-min the incumbent; the target itself is never pushed.
        std::uint64_t cur = job.best_target.load(std::memory_order_relaxed);
        while (ng < cur && !job.best_target.compare_exchange_weak(
                               cur, ng, std::memory_order_relaxed)) {
        }
        continue;
      }
      const std::uint64_t nf = ng + heuristic(n.to, job.query.target);
      if (nf < job.best_target.load(std::memory_order_relaxed)) {
        ++tally.children;
        children.push_back(Task{nf, payload_of(lane_id, n.to)});
      }
    }
  }

  /// Last task retired: read the result off the lane *before* the lane
  /// goes back on the free list (a new admission bumps the epoch,
  /// invalidating the labels this query wrote).
  Completion harvest(unsigned lane_id, const Job& job) {
    Completion c;
    c.lane = lane_id;
    c.result.distance = lanes_[lane_id]->labels.load(job.query.target, job.epoch);
    c.result.tasks = job.executed.load(std::memory_order_relaxed);
    c.result.wasted = job.wasted.load(std::memory_order_relaxed);
    c.result.wait_seconds = job.wait_seconds;
    c.result.latency_seconds =
        std::chrono::duration<double>(Clock::now() - job.submitted).count();
    latency_.record_seconds(c.result.latency_seconds);
    queries_completed_.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  /// Free the completed lanes and refill them from the queue under one
  /// acquisition of mutex_, then seed the admitted queries and fulfil
  /// the completed ones outside it.
  template <typename H>
  void complete_and_admit(H& handle, ThreadStats& stats, WorkerScratch& s) {
    bool wake = false;
    {
      MutexLock lk(mutex_);
      for (Completion& c : s.done) {
        Lane& lane = *lanes_[c.lane];
        lane.job.store(nullptr, std::memory_order_relaxed);
        c.job = std::move(lane.owner);
        free_lanes_.push_back(c.lane);
      }
      wake = admit_locked(s.seeds);
    }
    seed(handle, stats, s.seeds, wake);
    for (Completion& c : s.done) c.job->promise.set_value(c.result);
    s.done.clear();
  }

  /// Idle-path admission: claim queued queries for free lanes.
  /// try_to_lock: blocking every idle worker on one mutex is not worth
  /// it — whoever holds the mutex admits, or a completion will.
  template <typename H>
  bool try_admit(H& handle, ThreadStats& stats, WorkerScratch& s) {
    if (queued_.load(std::memory_order_relaxed) == 0) return false;
    // Explicit try_lock/unlock (rather than a scoped guard) so the
    // try-acquire branch is visible to the thread-safety analysis.
    if (!mutex_.try_lock()) return false;
    const bool wake = admit_locked(s.seeds);
    mutex_.unlock();
    if (s.seeds.empty()) return false;
    seed(handle, stats, s.seeds, wake);
    return true;
  }

  /// Move queued queries into free lanes, collecting their seed tasks.
  /// The seeds are counted in pending_ here, under the mutex, so a
  /// worker deciding to park sees them; returns whether a parked worker
  /// needs a notify.
  bool admit_locked(std::vector<Task>& seeds) SMQ_REQUIRES(mutex_) {
    seeds.clear();
    if (queue_.empty() || free_lanes_.empty()) return false;
    const Clock::time_point now = Clock::now();
    while (!queue_.empty() && !free_lanes_.empty()) {
      std::shared_ptr<Job> job = std::move(queue_.front());
      queue_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      const unsigned lane_id = free_lanes_.back();
      free_lanes_.pop_back();
      Lane& lane = *lanes_[lane_id];
      job->epoch = lane.labels.new_epoch();
      job->wait_seconds =
          std::chrono::duration<double>(now - job->submitted).count();
      lane.labels.store(job->query.source, 0, job->epoch);
      job->pending.store(1, std::memory_order_relaxed);
      seeds.push_back(Task{heuristic(job->query.source, job->query.target),
                           payload_of(lane_id, job->query.source)});
      Job* raw = job.get();
      lane.owner = std::move(job);
      lane.job.store(raw, std::memory_order_release);
    }
    // Counter before visibility, exactly like the executor's flush.
    pending_.fetch_add(static_cast<std::int64_t>(seeds.size()),
                       std::memory_order_relaxed);
    return parked_ > 0;
  }

  /// Publish admitted seeds through this worker's handle; notify only
  /// when admission saw a parked worker.
  template <typename H>
  void seed(H& handle, ThreadStats& stats, const std::vector<Task>& seeds,
            bool wake) {
    if (seeds.empty()) return;
    stats.pushes += seeds.size();
    handle.push_batch(std::span<const Task>(seeds));
    if (wake) cv_.notify_all();
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
  unsigned parked_ SMQ_GUARDED_BY(mutex_) = 0;  // workers waiting on cv_

  Mutex lifecycle_mutex_;  // serializes start()/stop() callers
  bool stopped_ SMQ_GUARDED_BY(lifecycle_mutex_) = false;
  std::vector<std::jthread> threads_ SMQ_GUARDED_BY(lifecycle_mutex_);
};

}  // namespace smq

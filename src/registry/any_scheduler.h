// Type-erased priority scheduler.
//
// Every scheduler in this library is a distinct type behind the
// PriorityScheduler concept, which forces template instantiation at every
// call site (the seed's benches each hand-listed every scheduler type).
// AnyScheduler wraps any concrete scheduler behind one virtual interface
// while itself modelling PriorityScheduler, so Executor and every
// algorithm template instantiate exactly once for it — runtime scheduler
// selection with a single indirect call per handle operation. The
// indirection is uniform across schedulers, which is what a comparison
// harness needs; perf-critical single-scheduler code can still use
// static dispatch (src/registry/static_dispatch.h).
//
// One erased boundary, the per-thread HandleView (via handle(tid)): the
// executor acquires one erased handle per thread per run. Acquisition
// resolves the concrete scheduler's thread-local state once — the view
// wraps the concrete S::Handle — so each later operation is one virtual
// call with no tid re-indexing behind it, and the batch entry points
// (push_batch / try_pop_batch) cross it once per batch.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sched/scheduler_traits.h"
#include "sched/task.h"

namespace smq {

class AnyScheduler {
 public:
  /// The erased per-thread handle interface. One virtual call per
  /// operation; the model behind it holds the concrete scheduler's
  /// native handle, so the thread state was resolved at acquisition.
  class HandleView {
   public:
    virtual ~HandleView() = default;
    virtual void push(Task t) = 0;
    virtual std::optional<Task> try_pop() = 0;
    virtual void push_batch(std::span<const Task> tasks) = 0;
    virtual std::size_t try_pop_batch(std::vector<Task>& out,
                                      std::size_t max) = 0;
    virtual void flush() = 0;
    virtual void collect_stats(ThreadStats& st) const = 0;
    virtual unsigned thread_id() const = 0;
  };

  /// The value type handle() returns: owns the erased view and models
  /// SchedulerHandle, so the executor treats AnyScheduler handles and
  /// concrete handles identically. Acquiring one costs an allocation —
  /// per thread per run, not per operation.
  class Handle {
   public:
    explicit Handle(std::unique_ptr<HandleView> view) noexcept
        : view_(std::move(view)) {}

    void push(Task t) { view_->push(t); }
    std::optional<Task> try_pop() { return view_->try_pop(); }
    void push_batch(std::span<const Task> tasks) { view_->push_batch(tasks); }
    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return view_->try_pop_batch(out, max);
    }
    void flush() { view_->flush(); }
    void collect_stats(ThreadStats& st) const { view_->collect_stats(st); }
    unsigned thread_id() const { return view_->thread_id(); }

    /// The erased view, for callers that want to hold the boundary
    /// directly (tests).
    HandleView& view() noexcept { return *view_; }

   private:
    std::unique_ptr<HandleView> view_;
  };

  AnyScheduler() = default;
  AnyScheduler(AnyScheduler&&) noexcept = default;
  AnyScheduler& operator=(AnyScheduler&&) noexcept = default;

  /// Construct a scheduler of type S in place (many schedulers own
  /// mutexes and are not movable, so erasure must build them directly).
  template <typename S, typename... Args>
  static AnyScheduler make(Args&&... args) {
    AnyScheduler any;
    any.impl_ = std::make_unique<Model<S>>(std::forward<Args>(args)...);
    return any;
  }

  explicit operator bool() const noexcept { return impl_ != nullptr; }

  /// Tie an auxiliary object's lifetime to this scheduler (e.g. the
  /// Topology a NUMA-aware config points into).
  void attach(std::shared_ptr<void> dependency) {
    deps_ = std::move(dependency);
  }

  /// Acquire the per-thread handle (PriorityScheduler interface).
  Handle handle(unsigned tid) { return Handle(impl_->acquire(tid)); }

  unsigned num_threads() const { return impl_->num_threads(); }

  /// Reclamation idle hook; no-op for schedulers that do not defer any.
  void quiesce(unsigned tid) { impl_->quiesce(tid); }

  /// Bytes held by the concrete scheduler's queues; 0 when it does not
  /// report.
  std::size_t memory_footprint() const { return impl_->memory_footprint(); }

  /// Access the concrete scheduler (tests, stat scraping). Returns
  /// nullptr if the erased type is not S.
  template <typename S>
  S* get_if() noexcept {
    auto* model = dynamic_cast<Model<S>*>(impl_.get());
    return model == nullptr ? nullptr : &model->sched;
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual std::unique_ptr<HandleView> acquire(unsigned tid) = 0;
    virtual unsigned num_threads() const = 0;
    virtual void quiesce(unsigned tid) = 0;
    virtual std::size_t memory_footprint() const = 0;
  };

  template <PriorityScheduler S>
  struct Model final : Concept {
    template <typename... Args>
    explicit Model(Args&&... args) : sched(std::forward<Args>(args)...) {}

    /// The erased handle: wraps S's native handle, resolved here, once;
    /// every virtual below is a plain forward.
    struct HandleModel final : HandleView {
      HandleModel(S& sched, unsigned tid) : h(sched.handle(tid)) {}

      void push(Task t) override { h.push(t); }
      std::optional<Task> try_pop() override { return h.try_pop(); }
      void push_batch(std::span<const Task> tasks) override {
        h.push_batch(tasks);
      }
      std::size_t try_pop_batch(std::vector<Task>& out,
                                std::size_t max) override {
        return h.try_pop_batch(out, max);
      }
      void flush() override { h.flush(); }
      void collect_stats(ThreadStats& st) const override {
        h.collect_stats(st);
      }
      unsigned thread_id() const override { return h.thread_id(); }

      typename S::Handle h;
    };

    unsigned num_threads() const override { return sched.num_threads(); }
    void quiesce(unsigned tid) override { quiesce_if_supported(sched, tid); }
    std::size_t memory_footprint() const override {
      return memory_footprint_if_supported(sched);
    }
    std::unique_ptr<HandleView> acquire(unsigned tid) override {
      return std::make_unique<HandleModel>(sched, tid);
    }

    S sched;
  };

  std::unique_ptr<Concept> impl_;
  std::shared_ptr<void> deps_;
};

static_assert(PriorityScheduler<AnyScheduler>,
              "AnyScheduler must model the concept it erases");
static_assert(ReclaimingScheduler<AnyScheduler> &&
                  MemoryReportingScheduler<AnyScheduler>,
              "AnyScheduler must forward the reclamation hooks");

}  // namespace smq

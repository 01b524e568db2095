// OBIM — Ordered By Integer Metric (Nguyen, Lenharth, Pingali [20]) —
// and its adaptive PMOD extension (Yesil et al. [27]).
//
// Tasks are grouped into priority *levels*: level(p) = p & ~(delta - 1),
// i.e. the task's priority with the low `delta_shift` bits cleared.
// Each level owns a ChunkBag (per-NUMA-node chunk stacks). A global
// ordered map from level -> bag is guarded by a mutex and mirrored by
// every thread; a version counter invalidates the mirrors. Threads push
// into a thread-local chunk and flush it to the bag when full; pops
// consume a thread-local chunk taken from the lowest non-empty level.
// The bags' chunk stacks are spinlocked, so a drained pop chunk is freed
// at once by its thread; there is no epoch reclamation and no quiesce
// hook, and a long-lived service pool's footprint stays flat.
//
// PMOD = OBIM + runtime delta adaptation: when threads repeatedly scan
// past empty levels (starvation — too fine a delta), delta is doubled so
// that future pushes merge levels; when a single level accumulates too
// many tasks (too coarse — priority inversions), delta is halved. Levels
// are keyed by their representative (minimum) priority, so bags created
// under different deltas still order correctly and drain naturally —
// this reproduces PMOD's merge/split behaviour without bag migration.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "queues/chunk_bag.h"
#include "sched/scheduler_traits.h"
#include "sched/stats.h"
#include "sched/task.h"
#include "sched/topology.h"
#include "support/mutex.h"
#include "support/padding.h"
#include "support/thread_annotations.h"

namespace smq {

struct ObimConfig {
  std::size_t chunk_size = 64;   // CHUNK_SIZE (paper tunes 32..256)
  unsigned delta_shift = 10;     // log2(delta) (paper tunes 0..18)
  bool adaptive = false;         // true => PMOD behaviour
  // PMOD heuristic knobs ([27]: merge levels that run empty, split
  // levels that over-fill).
  unsigned adapt_interval = 64;  // chunk-pops between adaptation checks
  // Merge (coarsen delta) when the average population of a non-empty
  // level cannot fill this fraction of a chunk — levels too sparse.
  double sparsity_threshold = 0.5;
  // Split (refine delta) when the lowest non-empty level holds more
  // tasks than this — priority inversions inside one level.
  std::int64_t split_threshold = 4096;
  unsigned min_shift = 0;
  unsigned max_shift = 30;
  const Topology* topology = nullptr;  // per-node bag sharding

  friend bool operator==(const ObimConfig&, const ObimConfig&) = default;
};

class Obim {
 private:
  struct Local;

 public:
  using Config = ObimConfig;

  Obim(unsigned num_threads, Config cfg = {})
      : cfg_(cfg),
        num_threads_(num_threads),
        num_nodes_(cfg.topology ? cfg.topology->num_nodes() : 1),
        shift_(cfg.delta_shift),
        locals_(num_threads) {
    if (cfg_.chunk_size == 0) cfg_.chunk_size = 1;
    if (cfg_.chunk_size > Chunk::kCapacity) cfg_.chunk_size = Chunk::kCapacity;
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      locals_[tid].value.node =
          cfg.topology ? cfg.topology->node_of_thread(tid) : 0;
    }
  }

  ~Obim() {
    for (auto& local : locals_) {
      if (local.value.push_chunk != nullptr) alloc_.free(local.value.push_chunk);
      if (local.value.pop_chunk != nullptr) alloc_.free(local.value.pop_chunk);
    }
  }

  Obim(const Obim&) = delete;
  Obim& operator=(const Obim&) = delete;

  unsigned num_threads() const noexcept { return num_threads_; }
  /// Post-clamp configuration (chunk_size bounded to [1, Chunk::kCapacity]).
  const Config& config() const noexcept { return cfg_; }
  unsigned current_shift() const noexcept {
    return shift_.load(std::memory_order_relaxed);
  }

  /// Per-thread view with the thread's bucket cursor (push chunk + its
  /// level, pop chunk, level-map mirror) resolved once.
  class Handle {
   public:
    Handle(Obim& sched, unsigned tid) noexcept
        : sched_(&sched), me_(&sched.locals_[tid].value), tid_(tid) {}

    void push(Task task) {
      Local& local = *me_;
      const std::uint64_t level = sched_->level_of(task.priority);
      if (local.push_chunk != nullptr && local.push_level == level &&
          !local.push_chunk->full(sched_->cfg_.chunk_size)) {
        local.push_chunk->push(task);
        return;
      }
      sched_->flush_push_chunk(local);
      local.push_chunk = sched_->alloc_.make();
      local.push_level = level;
      local.push_chunk->push(task);
    }

    /// Bulk insert: consecutive tasks of one level share the chunk-fill
    /// fast path; the batch's value is one boundary crossing for the span.
    void push_batch(std::span<const Task> tasks) {
      for (const Task& task : tasks) push(task);
    }

    std::optional<Task> try_pop() {
      Local& local = *me_;
      if (local.pop_chunk != nullptr && !local.pop_chunk->empty()) {
        return local.pop_chunk->pop();
      }
      sched_->maybe_adapt(local);
      // The freshest (and often highest-priority) tasks are in our own
      // unflushed push chunk; flush it so they are poppable in level
      // order.
      sched_->flush_push_chunk(local);

      sched_->refresh_mirror_if_stale(local);

      // Full in-order scan: levels can refill below any cached position
      // (another thread may still be expanding a lower-level chunk), so
      // no scan-start shortcut is sound. The per-level check is one
      // atomic load, amortized over CHUNK_SIZE pops.
      for (std::size_t i = 0; i < local.mirror.size(); ++i) {
        auto& [level, bag] = local.mirror[i];
        if (bag->looks_empty()) {
          ++local.scanned_empty;
          continue;
        }
        if (Chunk* chunk = bag->pop_chunk(local.node)) {
          sched_->discard_pop_chunk(local);
          local.pop_chunk = chunk;
          ++local.pops;
          return local.pop_chunk->pop();
        }
        ++local.scanned_empty;
      }
      // Mirror may be stale even if version matched at entry; force
      // resync once before reporting empty.
      if (sched_->refresh_mirror(local)) {
        for (auto& [level, bag] : local.mirror) {
          if (bag->looks_empty()) continue;
          if (Chunk* chunk = bag->pop_chunk(local.node)) {
            sched_->discard_pop_chunk(local);
            local.pop_chunk = chunk;
            ++local.pops;
            return local.pop_chunk->pop();
          }
        }
      }
      return std::nullopt;
    }

    std::size_t try_pop_batch(std::vector<Task>& out, std::size_t max) {
      return handle_pop_loop(*this, out, max);
    }

    /// Publish the thread's partially filled push chunk (termination).
    void flush() { sched_->flush_push_chunk(*me_); }

    /// OBIM keeps no executor-reportable counters.
    void collect_stats(ThreadStats&) const noexcept {}

    unsigned thread_id() const noexcept { return tid_; }

   private:
    Obim* sched_;
    Local* me_;
    unsigned tid_;
  };

  Handle handle(unsigned tid) noexcept { return Handle(*this, tid); }

  /// Bytes held in live chunks (bag stacks + thread locals). Advisory,
  /// any-thread safe.
  std::size_t memory_footprint() const noexcept { return alloc_.bytes(); }

 private:
  struct Local {
    Chunk* push_chunk = nullptr;
    std::uint64_t push_level = 0;
    Chunk* pop_chunk = nullptr;
    unsigned node = 0;
    // Thread-local mirror of the global level map (Galois' local "bag
    // map" cache), refreshed when the global version moves.
    std::vector<std::pair<std::uint64_t, ChunkBag*>> mirror;
    std::uint64_t mirror_version = 0;
    // PMOD counters.
    std::uint64_t pops = 0;
    std::uint64_t scanned_empty = 0;  // informational
    std::uint64_t last_adapt_pops = 0;
  };

  std::uint64_t level_of(std::uint64_t priority) const noexcept {
    const unsigned shift = shift_.load(std::memory_order_relaxed);
    return shift >= 64 ? 0 : (priority >> shift) << shift;
  }

  ChunkBag* bag_of(std::uint64_t level) SMQ_EXCLUDES(map_mutex_) {
    MutexLock guard(map_mutex_);
    auto [it, inserted] = levels_.try_emplace(level, nullptr);
    if (inserted) {
      it->second = std::make_unique<ChunkBag>(num_nodes_);
      version_.fetch_add(1, std::memory_order_release);
    }
    return it->second.get();
  }

  /// Free the thread's drained pop chunk: nobody else can hold it.
  void discard_pop_chunk(Local& local) {
    if (local.pop_chunk == nullptr) return;
    alloc_.free(local.pop_chunk);
    local.pop_chunk = nullptr;
  }

  void flush_push_chunk(Local& local) {
    if (local.push_chunk == nullptr || local.push_chunk->empty()) return;
    bag_of(local.push_level)->push_chunk(local.node, local.push_chunk);
    local.push_chunk = nullptr;
  }

  void refresh_mirror_if_stale(Local& local) {
    if (local.mirror_version != version_.load(std::memory_order_acquire)) {
      refresh_mirror(local);
    }
  }

  /// Returns true if the mirror changed.
  bool refresh_mirror(Local& local) SMQ_EXCLUDES(map_mutex_) {
    MutexLock guard(map_mutex_);
    const std::uint64_t version = version_.load(std::memory_order_relaxed);
    if (version == local.mirror_version && !local.mirror.empty()) return false;
    local.mirror.clear();
    local.mirror.reserve(levels_.size());
    for (const auto& [level, bag] : levels_) {
      local.mirror.emplace_back(level, bag.get());
    }
    local.mirror_version = version;
    return true;
  }

  /// PMOD's runtime delta adaptation (approximation of [27]; see header).
  /// Inspects the live level population: too-sparse levels => merge
  /// (threads would starve for full chunks); an over-full lowest level =>
  /// split (too many priority inversions inside one level).
  void maybe_adapt(Local& local) {
    if (!cfg_.adaptive) return;
    if (local.pops - local.last_adapt_pops < cfg_.adapt_interval) return;
    local.last_adapt_pops = local.pops;
    refresh_mirror_if_stale(local);

    std::size_t nonempty = 0;
    std::int64_t total_tasks = 0;
    std::int64_t lowest_level_tasks = 0;
    for (const auto& [level, bag] : local.mirror) {
      const std::int64_t t = bag->approx_tasks();
      if (t <= 0) continue;
      if (nonempty == 0) lowest_level_tasks = t;
      ++nonempty;
      total_tasks += t;
    }
    if (nonempty == 0) return;

    unsigned expected = shift_.load(std::memory_order_relaxed);
    if (lowest_level_tasks > cfg_.split_threshold &&
        expected > cfg_.min_shift) {
      shift_.compare_exchange_strong(expected, expected - 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
      return;
    }
    const double avg_per_level =
        static_cast<double>(total_tasks) / static_cast<double>(nonempty);
    const bool enough_work =
        total_tasks >
        static_cast<std::int64_t>(num_threads_) *
            static_cast<std::int64_t>(cfg_.chunk_size);
    if (enough_work &&
        avg_per_level <
            cfg_.sparsity_threshold * static_cast<double>(cfg_.chunk_size) &&
        expected < cfg_.max_shift) {
      shift_.compare_exchange_strong(expected, expected + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
    }
  }

  Config cfg_;
  unsigned num_threads_;
  unsigned num_nodes_;
  std::atomic<unsigned> shift_;
  std::vector<Padded<Local>> locals_;

  ChunkAlloc alloc_;

  Mutex map_mutex_;
  // The level map is plain data under map_mutex_; threads read it
  // through their lock-free mirrors, refreshed when version_ moves.
  std::map<std::uint64_t, std::unique_ptr<ChunkBag>> levels_
      SMQ_GUARDED_BY(map_mutex_);
  std::atomic<std::uint64_t> version_{1};
};

static_assert(PriorityScheduler<Obim>);
static_assert(MemoryReportingScheduler<Obim>);

/// PMOD is OBIM with runtime delta adaptation enabled (paper Section 1,
/// [27]); starting delta and chunk size remain tunable.
class Pmod : public Obim {
 public:
  explicit Pmod(unsigned num_threads, Config cfg = {})
      : Obim(num_threads, enable_adaptive(cfg)) {}

 private:
  static Config enable_adaptive(Config cfg) {
    cfg.adaptive = true;
    return cfg;
  }
};

}  // namespace smq

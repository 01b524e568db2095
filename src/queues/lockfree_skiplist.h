// Lock-free skip list with marked-pointer deletion (Harris/Fraser style).
//
// Substrate for the SprayList baseline [6]. Nodes are logically deleted
// by CAS-setting a mark bit in their level-0 next pointer; traversals
// help unlink marked nodes. Keys are Tasks ordered by (priority, payload)
// and duplicates are allowed (equal keys insert adjacently).
//
// Reclamation: the list owns an EpochManager, and callers hold pin(tid)
// around any operation that touches list nodes, including const
// traversals and the spray. A node is *retired* once it is physically
// unlinked from every level; after the two-epoch grace period it lands
// on the retiring thread's free list, where allocate() reuses it. Free
// lists are per thread, but a list past 2 x kSpill nodes hands kSpill of
// them to a shared pool, and a thread whose own list is empty takes a
// batch from the pool before growing its arena: the thread that pops a
// node is rarely the one that pushes the next, so without the pool the
// free nodes pile up on one thread while another allocates fresh blocks.
// Steady-state footprint is bounded by the live set plus what is in
// flight, which is what a long-lived service needs.
//
// Unlink detection is a per-node link count (crossbeam-skiplist's
// scheme): `refs` equals the number of levels at which the node is
// currently physically linked. Insert counts a level before its
// pred-CAS creates the link (increment-if-nonzero, so a fully-unlinked
// node can never be resurrected); every successful help-unlink CAS in
// find() drops one; whoever drops the count to zero retires the node.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sched/epoch.h"
#include "sched/task.h"
#include "support/padding.h"
#include "support/rng.h"
#include "support/spinlock.h"
#include "support/thread_annotations.h"

namespace smq {

class LockFreeSkipList {
 public:
  static constexpr int kMaxLevel = 20;

  struct Node {
    Task task;
    int height;
    // Number of levels at which this node is physically linked; the
    // transition to zero is the (unique) retirement point.
    std::atomic<int> refs;
    std::array<std::atomic<Node*>, kMaxLevel> next;
  };

  explicit LockFreeSkipList(unsigned num_threads)
      : epochs_(num_threads == 0 ? 1 : num_threads),
        arenas_(epochs_.num_threads()),
        free_lists_(epochs_.num_threads()) {
    for (auto& free_list : free_lists_) free_list.value.owner = this;
    head_ = allocate(0, Task{0, 0}, kMaxLevel);
    for (int level = 0; level < kMaxLevel; ++level) {
      head_->next[static_cast<std::size_t>(level)].store(
          nullptr, std::memory_order_relaxed);
    }
  }

  LockFreeSkipList(const LockFreeSkipList&) = delete;
  LockFreeSkipList& operator=(const LockFreeSkipList&) = delete;

  ~LockFreeSkipList() {
    // Flush pending retirements into the free lists while they are
    // still alive; the arenas then free every node wholesale.
    epochs_.drain_all();
  }

  /// Pin `tid` for one operation or batch (never per pointer).
  EpochManager::Guard pin(unsigned tid) noexcept {
    return EpochManager::Guard(&epochs_, tid);
  }

  /// Idle hook: called unpinned (a parked service worker), it lets the
  /// epoch advance and drains tid's limbo into its free list.
  void quiesce(unsigned tid) { epochs_.quiesce(tid); }

  /// Insert a task. Duplicates allowed. Height drawn from tid's RNG.
  void insert(unsigned tid, Task task, Xoshiro256& rng) SMQ_REQUIRES_PIN {
    const int height = random_height(rng);
    Node* fresh = allocate(tid, task, height);

    while (true) {
      Node* preds[kMaxLevel];
      Node* succs[kMaxLevel];
      find(tid, task, preds, succs);
      // The node is still private: a plain store cannot clobber a mark.
      fresh->next[0].store(succs[0], std::memory_order_relaxed);
      if (!preds[0]->next[0].compare_exchange_strong(
              succs[0], fresh, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        continue;  // level-0 CAS lost; retry from scratch
      }
      // Published: refs (initialized to 1) now counts the level-0 link.
      for (int level = 1; level < height; ++level) {
        while (true) {
          // Aim the node's own pointer at its successor without
          // overwriting a concurrent deleter's mark.
          if (!set_next_unmarked(fresh, level, succs[level])) return;
          // Count the link we are about to create. Failure means the
          // node is already fully unlinked (and retired) — abandon.
          if (!try_add_ref(fresh)) return;
          if (preds[level]
                  ->next[static_cast<std::size_t>(level)]
                  .compare_exchange_strong(succs[level], fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            break;
          }
          release_ref(tid, fresh);  // link did not happen
          // Upper-level link lost a race: recompute neighbours. If the
          // node got deleted meanwhile, stop linking upper levels.
          if (is_marked(fresh->next[0].load(std::memory_order_acquire))) {
            return;
          }
          find(tid, task, preds, succs);
        }
      }
      return;
    }
  }

  /// Exact delete-min: mark and return the first live node's task.
  /// `tid` owns any retirement triggered by the helping unlink.
  std::optional<Task> pop_min(unsigned tid = 0) SMQ_REQUIRES_PIN {
    while (true) {
      Node* node = strip(head_->next[0].load(std::memory_order_acquire));
      while (node != nullptr &&
             is_marked(node->next[0].load(std::memory_order_acquire))) {
        node = strip(node->next[0].load(std::memory_order_acquire));
      }
      if (node == nullptr) return std::nullopt;
      if (try_mark(node)) {
        const Task task = node->task;
        unlink(tid, task);
        return task;
      }
    }
  }

  /// Claim one specific node starting from `start` at level 0: walk
  /// forward over marked nodes and try to mark the first live one, for at
  /// most `attempts` candidates. Used by the spray.
  std::optional<Task> pop_from(Node* start, int attempts,
                               unsigned tid = 0) SMQ_REQUIRES_PIN {
    Node* node = start;
    while (node != nullptr && attempts-- > 0) {
      Node* next = node->next[0].load(std::memory_order_acquire);
      if (!is_marked(next) && try_mark(node)) {
        const Task task = node->task;
        unlink(tid, task);
        return task;
      }
      node = strip(node->next[0].load(std::memory_order_acquire));
    }
    return std::nullopt;
  }

  /// Pinned or quiescent callers only. Not marked SMQ_REQUIRES_PIN: the
  /// lint matches by name, and every container has an empty().
  bool empty() const noexcept {
    Node* node = strip(head_->next[0].load(std::memory_order_acquire));
    while (node != nullptr &&
           is_marked(node->next[0].load(std::memory_order_acquire))) {
      node = strip(node->next[0].load(std::memory_order_acquire));
    }
    return node == nullptr;
  }

  /// Live-node count — O(n), test/debug only.
  std::size_t count_live() const SMQ_REQUIRES_PIN {
    std::size_t count = 0;
    for (Node* node = strip(head_->next[0].load(std::memory_order_acquire));
         node != nullptr;
         node = strip(node->next[0].load(std::memory_order_acquire))) {
      if (!is_marked(node->next[0].load(std::memory_order_acquire))) ++count;
    }
    return count;
  }

  Node* head() const noexcept { return head_; }

  /// Bytes held in node arenas; plateaus once the free lists satisfy
  /// steady-state churn. Any-thread safe.
  std::size_t memory_footprint() const noexcept {
    return arena_bytes_.load(std::memory_order_relaxed);
  }

  /// Nodes parked on tid's free list (test/debug).
  std::size_t free_count(unsigned tid) const noexcept {
    return free_lists_[tid].value.count;
  }

  /// Spray walk (SprayList [6]): descend from `start_level`, jumping a
  /// uniformly random number of nodes in [0, max_jump] per level, landing
  /// on a node in a prefix of size roughly O(T log^3 T).
  ///
  /// The walk steps onto a node only after reading its own link at that
  /// level unmarked, and passes over nodes being deleted without counting
  /// them. A node unmarked at some level was then linked at every level
  /// below it (try_mark marks top-down), so descending from it cannot
  /// follow a stale lower link to a node retired before this pin.
  Node* spray(int start_level, int max_jump,
              Xoshiro256& rng) const SMQ_REQUIRES_PIN {
    Node* node = head_;
    for (int level = std::min(start_level, kMaxLevel - 1); level >= 0;
         --level) {
      const auto lvl = static_cast<std::size_t>(level);
      std::uint64_t jump = rng.next_below(static_cast<std::uint64_t>(max_jump) + 1);
      while (jump > 0) {
        Node* next = strip(node->next[lvl].load(std::memory_order_acquire));
        while (next != nullptr) {
          Node* after = next->next[lvl].load(std::memory_order_acquire);
          if (!is_marked(after)) break;
          next = strip(after);
        }
        if (next == nullptr) break;
        node = next;
        --jump;
      }
    }
    return node == head_
               ? strip(head_->next[0].load(std::memory_order_acquire))
               : node;
  }

 private:
  static Node* strip(Node* p) noexcept {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) & ~1ull);
  }
  static bool is_marked(Node* p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & 1ull) != 0;
  }
  static Node* marked(Node* p) noexcept {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) | 1ull);
  }

  /// CAS `node->next[level]` to `value`, preserving a concurrent mark.
  /// Returns false iff the pointer is (or became) marked.
  static bool set_next_unmarked(Node* node, int level, Node* value) noexcept {
    Node* cur =
        node->next[static_cast<std::size_t>(level)].load(
            std::memory_order_acquire);
    while (true) {
      if (is_marked(cur)) return false;
      if (cur == value) return true;
      if (node->next[static_cast<std::size_t>(level)].compare_exchange_weak(
              cur, value, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return true;
      }
    }
  }

  /// Count one more physical link, unless the node already dropped to
  /// zero (fully unlinked, retirement underway — must not resurrect).
  static bool try_add_ref(Node* node) noexcept {
    int refs = node->refs.load(std::memory_order_relaxed);
    while (refs != 0) {
      if (node->refs.compare_exchange_weak(refs, refs + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Drop one physical link; the thread that drops the last one owns
  /// the retirement.
  void release_ref(unsigned tid, Node* node) {
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      epochs_.retire(tid, node, &reclaim_into_free_list,
                     &free_lists_[tid].value);
    }
  }

  /// Logically delete `node`: mark its upper levels top-down, then claim
  /// it by marking level 0, the linearization point only one caller
  /// wins (insert's set_next_unmarked refuses to overwrite these marks).
  /// Top-down marking keeps a node that is unmarked at some level
  /// unmarked, and so still linked, at every level below: find() and
  /// spray() rely on that to descend from it. Marking level 0 first
  /// would let a traversal descend from a node already unlinked below
  /// and follow its frozen lower link to a node retired and reused.
  bool try_mark(Node* node) noexcept {
    for (int level = node->height - 1; level >= 1; --level) {
      auto& link = node->next[static_cast<std::size_t>(level)];
      Node* up = link.load(std::memory_order_acquire);
      while (!is_marked(up) &&
             !link.compare_exchange_weak(up, marked(up),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      }
    }
    Node* next = node->next[0].load(std::memory_order_acquire);
    while (!is_marked(next)) {
      if (node->next[0].compare_exchange_weak(next, marked(next),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Search for `task`, returning preds/succs per level; physically
  /// unlinks marked nodes encountered on the way (Harris helping).
  /// `tid` owns retirements of nodes this call fully unlinks.
  void find(unsigned tid, const Task& task, Node** preds,
            Node** succs) SMQ_REQUIRES_PIN {
  retry:
    Node* pred = head_;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      Node* curr = strip(
          pred->next[static_cast<std::size_t>(level)].load(
              std::memory_order_acquire));
      while (true) {
        if (curr == nullptr) break;
        Node* succ =
            curr->next[static_cast<std::size_t>(level)].load(
                std::memory_order_acquire);
        if (is_marked(succ)) {
          // Help unlink curr at this level. The CAS can succeed at most
          // once per (node, level): it removes the unique unmarked
          // incoming pointer, and marked nodes are never re-linked.
          Node* expected = curr;
          if (!pred->next[static_cast<std::size_t>(level)]
                   .compare_exchange_strong(expected, strip(succ),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            goto retry;
          }
          release_ref(tid, curr);
          curr = strip(succ);
          continue;
        }
        if (!(curr->task < task)) break;
        pred = curr;
        curr = strip(succ);
      }
      preds[level] = pred;
      succs[level] = curr;
    }
  }

  /// Physically unlink a marked node (by key) via a full find().
  void unlink(unsigned tid, const Task& task) SMQ_REQUIRES_PIN {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(tid, task, preds, succs);
  }

  int random_height(Xoshiro256& rng) noexcept {
    const std::uint64_t bits = rng();
    int height = 1;
    while (height < kMaxLevel && ((bits >> height) & 1u) != 0) ++height;
    return height;
  }

  /// Nodes change threads through the pool in batches of kSpill.
  static constexpr std::size_t kSpill = 512;

  struct FreeList {
    Node* head = nullptr;
    std::size_t count = 0;
    LockFreeSkipList* owner = nullptr;
  };

  /// EpochManager deleter: the grace period has elapsed, park the node
  /// on the retiring thread's free list for reuse. Runs on the thread
  /// that retired, so the free list needs no synchronization.
  static void reclaim_into_free_list(void* ptr, void* ctx) {
    Node* node = static_cast<Node*>(ptr);
    auto* free_list = static_cast<FreeList*>(ctx);
    node->next[0].store(free_list->head, std::memory_order_relaxed);
    free_list->head = node;
    if (++free_list->count >= 2 * kSpill) free_list->owner->spill(*free_list);
  }

  /// Move kSpill nodes from `free_list` to the pool as one batch; a
  /// batch is chained through next[0], batches through next[1].
  void spill(FreeList& free_list) SMQ_EXCLUDES(pool_lock_) {
    Node* first = free_list.head;
    Node* last = first;
    for (std::size_t i = 1; i < kSpill; ++i) {
      last = last->next[0].load(std::memory_order_relaxed);
    }
    free_list.head = last->next[0].load(std::memory_order_relaxed);
    free_list.count -= kSpill;
    last->next[0].store(nullptr, std::memory_order_relaxed);
    pool_lock_.lock();
    first->next[1].store(pool_, std::memory_order_relaxed);
    pool_ = first;
    pool_lock_.unlock();
  }

  /// Refill an empty free list with one pooled batch; false if none.
  bool take_batch(FreeList& free_list) SMQ_EXCLUDES(pool_lock_) {
    pool_lock_.lock();
    Node* batch = pool_;
    if (batch != nullptr) pool_ = batch->next[1].load(std::memory_order_relaxed);
    pool_lock_.unlock();
    if (batch == nullptr) return false;
    free_list.head = batch;
    free_list.count = kSpill;
    return true;
  }

  Node* allocate(unsigned tid, Task task, int height) {
    FreeList& free_list = free_lists_[tid].value;
    Node* node;
    if (free_list.head != nullptr || take_batch(free_list)) {
      node = free_list.head;
      free_list.head = free_list.head->next[0].load(std::memory_order_relaxed);
      --free_list.count;
    } else {
      Arena& arena = arenas_[tid].value;
      if (arena.used >= arena.block_size || arena.blocks.empty()) {
        arena.blocks.push_back(std::make_unique<Node[]>(arena.block_size));
        arena.used = 0;
        arena_bytes_.fetch_add(arena.block_size * sizeof(Node),
                               std::memory_order_relaxed);
      }
      node = &arena.blocks.back()[arena.used++];
    }
    node->task = task;
    node->height = height;
    node->refs.store(1, std::memory_order_relaxed);
    for (auto& next : node->next) {
      next.store(nullptr, std::memory_order_relaxed);
    }
    return node;
  }

  struct Arena {
    static constexpr std::size_t kDefaultBlock = 4096;
    std::size_t block_size = kDefaultBlock;
    std::size_t used = 0;
    std::vector<std::unique_ptr<Node[]>> blocks;
  };

  EpochManager epochs_;
  Node* head_;
  std::vector<Padded<Arena>> arenas_;
  std::vector<Padded<FreeList>> free_lists_;
  Spinlock pool_lock_;
  Node* pool_ SMQ_GUARDED_BY(pool_lock_) = nullptr;
  std::atomic<std::size_t> arena_bytes_{0};
};

}  // namespace smq

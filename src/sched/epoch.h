// Epoch-based memory reclamation (EBR) for the lock-free skip list.
//
// The classic three-epoch scheme (Fraser's thesis; crossbeam-epoch is
// the best-known production shape): readers *pin* the current global
// epoch before touching shared nodes and unpin when done; writers
// *retire* unlinked nodes into the retiring thread's limbo list stamped
// with the global epoch at retirement. The global epoch may advance
// from E to E+1 only when every pinned thread is pinned at E, so once
// it reaches R+2 no reader that could have seen a node retired at R is
// still pinned — the node is unreachable (unlinked before retire) and
// invisible (every pre-unlink reader has unpinned), and its deleter may
// run.
//
// Design notes:
//  - One padded slot per thread; pin/unpin are a seq_cst store + load
//    on the own slot (no CAS, no contention between readers).
//  - The pin store must be re-checked against the global epoch: a
//    thread that publishes a stale epoch E-1 after the collector
//    already scanned its slot would be invisible to the advance that
//    unlocks E+1 reclamation. The store-reload loop below (same as
//    crossbeam's `pin`) closes that window.
//  - Limbo lists are strictly thread-local; entries carry a deleter
//    function pointer + context (the skip list parks nodes on the
//    retiring thread's free list for reuse).
//  - Epoch advance and limbo drain are piggybacked on every Nth
//    outermost unpin — no dedicated collector thread. Idle threads
//    call quiesce() (the service does this before parking) so memory
//    retires between query bursts even when nobody is pushing.
//  - Limbo is bounded: an unpin that leaves kLimboLimit entries in the
//    thread's limbo yields until the epoch moves. A thread must
//    therefore never wait for another thread while pinned — it may be
//    the one holding the epoch.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/padding.h"

namespace smq {

class EpochManager {
 public:
  /// Slot value of a thread that is not currently pinned.
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  /// Deleter invoked (on the retiring thread) once a retired pointer's
  /// grace period has elapsed.
  using Deleter = void (*)(void* ptr, void* ctx);

  explicit EpochManager(unsigned num_threads)
      : slots_(num_threads == 0 ? 1 : num_threads) {}

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Callers must have joined every participating thread first; any
  /// limbo entries still pending are freed unconditionally.
  ~EpochManager() { drain_all(); }

  unsigned num_threads() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// RAII pin: construction pins `tid`, destruction unpins. Nests — an
  /// inner guard on an already-pinned thread is a counter bump.
  class Guard {
   public:
    Guard(EpochManager* manager, unsigned tid) noexcept
        : manager_(manager), tid_(tid) {
      manager_->pin(tid_);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { manager_->unpin(tid_); }

   private:
    EpochManager* manager_;
    unsigned tid_;
  };

  /// Enter a read-side critical section. While pinned, pointers read
  /// from a protected structure stay valid even if concurrently
  /// retired. Reentrant (counted).
  void pin(unsigned tid) noexcept {
    Slot& slot = slots_[tid].value;
    if (slot.depth++ > 0) return;
    std::uint64_t epoch = global_.load(std::memory_order_relaxed);
    while (true) {
      // seq_cst store + seq_cst reload: the store-load (Dekker) fence
      // against try_advance's scan — either the collector's scan sees
      // our slot, or we see the advanced epoch and re-publish. Neither
      // acq_rel nor release orders a store before a later load.
      // smq-lint: seq-cst pin publish must precede the global re-check
      slot.epoch.store(epoch, std::memory_order_seq_cst);
      // smq-lint: seq-cst second half of the store-load fence
      const std::uint64_t now = global_.load(std::memory_order_seq_cst);
      if (now == epoch) return;
      epoch = now;
    }
  }

  /// Leave the critical section. Every kAdvancePeriod-th outermost
  /// unpin (or earlier if the limbo list got long) tries to advance the
  /// epoch and drains this thread's eligible limbo entries.
  void unpin(unsigned tid) noexcept {
    Slot& slot = slots_[tid].value;
    assert(slot.depth > 0 && "unpin without matching pin");
    if (--slot.depth > 0) return;
    slot.epoch.store(kQuiescent, std::memory_order_release);
    if ((++slot.unpins % kAdvancePeriod) == 0 ||
        slot.limbo.size() >= kLimboHighWater) {
      try_advance();
      drain(tid);
      // Backpressure: this far past the high-water mark, a pinned
      // thread that is off CPU holds the epoch. Rather than let limbo
      // (and the protected structure's footprint) grow for as long as
      // that thread stays descheduled, yield until it unpins.
      while (slot.limbo.size() >= kLimboLimit) {
        std::this_thread::yield();
        try_advance();
        drain(tid);
      }
    }
  }

  bool pinned(unsigned tid) const noexcept {
    return slots_[tid].value.depth > 0;
  }

  /// Defer reclamation of `ptr` until two epoch advances have passed.
  /// Call on the thread that unlinked the pointer (usually while still
  /// pinned); the deleter later runs on this same thread, so `ctx` may
  /// point at thread-local state such as a free list.
  void retire(unsigned tid, void* ptr, Deleter deleter, void* ctx) {
    Slot& slot = slots_[tid].value;
    slot.limbo.push_back(
        {ptr, deleter, ctx, global_.load(std::memory_order_acquire)});
    slot.limbo_count.store(slot.limbo.size(), std::memory_order_relaxed);
  }

  /// Advance the global epoch by one if every pinned thread has caught
  /// up with it. Returns whether the epoch moved.
  bool try_advance() noexcept {
    // Acquire is enough here: this load only picks the CAS's expected
    // value. A stale read either fails the slot scan (advance is
    // best-effort) or loses the CAS — never a wrongful advance.
    std::uint64_t epoch = global_.load(std::memory_order_acquire);
    for (const auto& padded : slots_) {
      // Scan side of the Dekker fence against pin(): a pin store the
      // previous advance's CAS missed is ordered before that CAS in the
      // seq_cst total order, so this scan is guaranteed to see it and
      // hold the epoch — the two-advance grace period depends on it.
      // smq-lint: seq-cst scan must observe any pin the last CAS missed
      const std::uint64_t seen =
          padded.value.epoch.load(std::memory_order_seq_cst);
      if (seen != kQuiescent && seen != epoch) return false;
    }
    // A lost CAS means someone else advanced past us — also progress.
    // The success order stays seq_cst: the proof that a concurrently
    // pinning thread re-checks the new epoch orders its slot store
    // before this CAS in the seq_cst total order, which requires the
    // CAS itself to participate in that order.
    // smq-lint: seq-cst CAS anchors the pin store-load fence ordering
    global_.compare_exchange_strong(epoch, epoch + 1,
                                    std::memory_order_seq_cst,
                                    std::memory_order_relaxed);
    return true;
  }

  /// Idle hook: advance if possible and drain this thread's limbo.
  /// Must be called unpinned (the service calls it before parking).
  void quiesce(unsigned tid) noexcept {
    assert(slots_[tid].value.depth == 0 && "quiesce while pinned");
    try_advance();
    drain(tid);
  }

  std::uint64_t global_epoch() const noexcept {
    return global_.load(std::memory_order_acquire);
  }

  /// Entries waiting in limbo across all threads (any-thread safe).
  std::size_t retired_count() const noexcept {
    std::size_t total = 0;
    for (const auto& padded : slots_) {
      total += padded.value.limbo_count.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Run every pending deleter regardless of epoch. Only valid once all
  /// participating threads are quiescent (e.g. joined) — destructors of
  /// the protected structures call this before freeing their arenas.
  void drain_all() {
    for (auto& padded : slots_) {
      Slot& slot = padded.value;
      for (const Retired& entry : slot.limbo) {
        entry.deleter(entry.ptr, entry.ctx);
      }
      slot.limbo.clear();
      slot.limbo_count.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Retired {
    void* ptr;
    Deleter deleter;
    void* ctx;
    std::uint64_t epoch;
  };

  struct Slot {
    std::atomic<std::uint64_t> epoch{kQuiescent};
    // Owner-thread-only state below (no concurrent access).
    unsigned depth = 0;
    std::uint64_t unpins = 0;
    std::vector<Retired> limbo;
    // Mirror of limbo.size() readable from any thread (footprint stat).
    std::atomic<std::size_t> limbo_count{0};
  };

  // Advance/drain cadence: cheap enough to keep limbo short, rare
  // enough to stay invisible on the batched hot path.
  static constexpr std::uint64_t kAdvancePeriod = 64;
  static constexpr std::size_t kLimboHighWater = 1024;
  static constexpr std::size_t kLimboLimit = 2 * kLimboHighWater;

  /// Free the limbo prefix whose grace period (two advances past the
  /// retirement epoch) has elapsed. Entries are appended with
  /// non-decreasing epochs, so eligibility is a prefix property.
  void drain(unsigned tid) {
    Slot& slot = slots_[tid].value;
    if (slot.limbo.empty()) return;
    const std::uint64_t global = global_.load(std::memory_order_acquire);
    std::size_t freed = 0;
    while (freed < slot.limbo.size() &&
           slot.limbo[freed].epoch + 2 <= global) {
      slot.limbo[freed].deleter(slot.limbo[freed].ptr, slot.limbo[freed].ctx);
      ++freed;
    }
    if (freed > 0) {
      slot.limbo.erase(slot.limbo.begin(),
                       slot.limbo.begin() + static_cast<std::ptrdiff_t>(freed));
      slot.limbo_count.store(slot.limbo.size(), std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t> global_{0};
  std::vector<Padded<Slot>> slots_;
};

}  // namespace smq

// EpochManager: pin/unpin semantics, the two-epoch grace period, a
// stalled reader holding back reclamation (the property ASan verifies by
// the reader dereferencing the retired pointer), and concurrent retire.
#include "sched/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace smq {
namespace {

/// Deleter that counts invocations through `ctx`.
void count_delete(void* /*ptr*/, void* ctx) {
  static_cast<std::atomic<int>*>(ctx)->fetch_add(1,
                                                 std::memory_order_relaxed);
}

void delete_int(void* ptr, void* /*ctx*/) { delete static_cast<int*>(ptr); }

TEST(Epoch, PinUnpinNests) {
  EpochManager mgr(1);
  EXPECT_FALSE(mgr.pinned(0));
  mgr.pin(0);
  EXPECT_TRUE(mgr.pinned(0));
  mgr.pin(0);  // reentrant: counter bump
  EXPECT_TRUE(mgr.pinned(0));
  mgr.unpin(0);
  EXPECT_TRUE(mgr.pinned(0)) << "inner unpin must not end the section";
  mgr.unpin(0);
  EXPECT_FALSE(mgr.pinned(0));
}

TEST(Epoch, GuardPinsAndNests) {
  EpochManager mgr(1);
  {
    EpochManager::Guard outer(&mgr, 0);
    EXPECT_TRUE(mgr.pinned(0));
    {
      EpochManager::Guard inner(&mgr, 0);
      EXPECT_TRUE(mgr.pinned(0));
    }
    EXPECT_TRUE(mgr.pinned(0));
  }
  EXPECT_FALSE(mgr.pinned(0));
}

TEST(Epoch, DrainWaitsForTwoAdvances) {
  EpochManager mgr(1);
  std::atomic<int> freed{0};
  int dummy = 0;
  mgr.retire(0, &dummy, &count_delete, &freed);
  EXPECT_EQ(mgr.retired_count(), 1u);

  // One advance is not enough: a reader pinned at the retirement epoch
  // could still coexist with one pinned at retirement+1.
  mgr.quiesce(0);
  EXPECT_EQ(freed.load(), 0);
  EXPECT_EQ(mgr.retired_count(), 1u);

  // The second advance ends the grace period.
  mgr.quiesce(0);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(mgr.retired_count(), 0u);
}

TEST(Epoch, AdvanceBlockedByLaggingPin) {
  EpochManager mgr(2);
  mgr.pin(0);
  EXPECT_TRUE(mgr.try_advance());  // pinned at current epoch: may advance
  const std::uint64_t after_first = mgr.global_epoch();
  // Thread 0 is now pinned one epoch behind; further advance must fail.
  EXPECT_FALSE(mgr.try_advance());
  EXPECT_EQ(mgr.global_epoch(), after_first);
  mgr.unpin(0);
  EXPECT_TRUE(mgr.try_advance());
  EXPECT_EQ(mgr.global_epoch(), after_first + 1);
}

TEST(Epoch, StalledReaderHoldsReclamation) {
  // tid 0: reader pinned on a shared int. tid 1: retires that int and
  // tries hard to reclaim. The value must stay readable (ASan turns a
  // violation into a hard failure) until the reader unpins.
  EpochManager mgr(2);
  int* shared = new int(42);

  std::mutex m;
  std::condition_variable cv;
  enum class Step { kStart, kReaderPinned, kRetireAttempted, kDone };
  Step step = Step::kStart;
  auto advance_to = [&](Step s) {
    std::lock_guard lock(m);
    step = s;
    cv.notify_all();
  };
  auto wait_for = [&](Step s) {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return step >= s; });
  };

  int observed = 0;
  std::jthread reader([&] {
    mgr.pin(0);
    advance_to(Step::kReaderPinned);
    wait_for(Step::kRetireAttempted);
    observed = *shared;  // UAF here if reclamation ignored the pin
    mgr.unpin(0);
  });

  wait_for(Step::kReaderPinned);
  mgr.retire(1, shared, &delete_int, nullptr);
  // No amount of quiescing on tid 1 may free the entry: the reader's
  // slot lags the global epoch after the first advance, capping the
  // epoch distance at 1 < 2.
  for (int i = 0; i < 16; ++i) mgr.quiesce(1);
  EXPECT_EQ(mgr.retired_count(), 1u);
  advance_to(Step::kRetireAttempted);
  reader.join();
  EXPECT_EQ(observed, 42);

  // Reader unpinned: two quiesces release the grace period.
  mgr.quiesce(1);
  mgr.quiesce(1);
  EXPECT_EQ(mgr.retired_count(), 0u);
}

TEST(Epoch, ConcurrentRetireFreesEverythingExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> freed{0};
  {
    EpochManager mgr(kThreads);
    {
      std::vector<std::jthread> workers;
      for (unsigned tid = 0; tid < kThreads; ++tid) {
        workers.emplace_back([&, tid] {
          for (int i = 0; i < kPerThread; ++i) {
            EpochManager::Guard guard(&mgr, tid);
            // Retire both a counted token and a real allocation: the
            // former proves exactly-once, the latter lets ASan/LSan
            // prove no double free and no leak.
            mgr.retire(tid, nullptr, &count_delete, &freed);
            mgr.retire(tid, new int(i), &delete_int, nullptr);
          }
        });
      }
    }
    // Workers joined; some entries were drained inline (every 64th
    // unpin), the destructor's drain_all() must free the rest.
  }
  EXPECT_EQ(freed.load(), static_cast<int>(kThreads) * kPerThread);
}

TEST(Epoch, RetiredCountTracksLimbo) {
  EpochManager mgr(1);
  std::atomic<int> freed{0};
  for (int i = 0; i < 10; ++i) mgr.retire(0, nullptr, &count_delete, &freed);
  EXPECT_EQ(mgr.retired_count(), 10u);
  mgr.quiesce(0);
  mgr.quiesce(0);
  EXPECT_EQ(mgr.retired_count(), 0u);
  EXPECT_EQ(freed.load(), 10);
}

}  // namespace
}  // namespace smq

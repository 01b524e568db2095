// Tests for the SprayList relaxed priority queue baseline.
#include "queues/spraylist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace smq {
namespace {

TEST(SprayList, SingleThreadIsExact) {
  SprayList spray(1);
  auto h0 = spray.handle(0);
  for (std::uint64_t p : {5, 2, 8, 1}) h0.push(Task{p, p});
  for (std::uint64_t expect : {1, 2, 5, 8}) {
    auto t = h0.try_pop();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->priority, expect);
  }
  EXPECT_FALSE(h0.try_pop().has_value());
}

TEST(SprayList, MultiThreadRelaxedButBounded) {
  // Pops may come out of order, but sprays land in a bounded prefix, so
  // the mean rank error must stay modest.
  SprayList spray(4, {.seed = 11});
  auto h0 = spray.handle(0);
  auto h1 = spray.handle(1);
  constexpr std::uint64_t kTasks = 10000;
  for (std::uint64_t p = 0; p < kTasks; ++p) h0.push(Task{p, p});
  std::uint64_t popped = 0;
  double error_sum = 0;
  while (auto t = h1.try_pop()) {
    error_sum += static_cast<double>(
        t->priority > popped ? t->priority - popped : 0);
    ++popped;
  }
  EXPECT_EQ(popped, kTasks);
  // Relaxed but bounded: uniform-random pops would average ~kTasks/4
  // displacement; sprays must stay orders of magnitude tighter.
  EXPECT_LT(error_sum / static_cast<double>(kTasks), 1500.0);
}

TEST(SprayList, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  SprayList spray(kThreads, {.seed = 12});
  auto h0 = spray.handle(0);
  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = spray.handle(tid);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t id = tid * kPerThread + i;
          h.push(Task{id, id});
          if (i % 2 == 0) {
            if (auto t = h.try_pop()) local.push_back(t->payload);
          }
        }
        while (auto t = h.try_pop()) local.push_back(t->payload);
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  while (auto t = h0.try_pop()) ++seen[t->payload];
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

}  // namespace
}  // namespace smq

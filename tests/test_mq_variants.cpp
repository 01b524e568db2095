// Tests for the optimized Multi-Queue variants (Appendix C combos).
#include "queues/mq_variants.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace smq {
namespace {

struct Combo {
  InsertPolicy insert;
  DeletePolicy del;
  const char* name;
};

class MqVariantCombos : public ::testing::TestWithParam<Combo> {};

OptimizedMqConfig combo_config(const Combo& combo) {
  OptimizedMqConfig cfg;
  cfg.insert_policy = combo.insert;
  cfg.delete_policy = combo.del;
  cfg.p_insert_change = 0.25;
  cfg.p_delete_change = 0.25;
  cfg.insert_batch = 8;
  cfg.delete_batch = 8;
  return cfg;
}

TEST_P(MqVariantCombos, SingleThreadRoundTripWithFlush) {
  OptimizedMultiQueue mq(1, combo_config(GetParam()));
  auto h0 = mq.handle(0);
  for (std::uint64_t p = 0; p < 100; ++p) h0.push(Task{p, p});
  h0.flush();  // insert batching buffers otherwise hold tasks back
  std::vector<std::uint64_t> got;
  while (auto t = h0.try_pop()) got.push_back(t->payload);
  EXPECT_EQ(got.size(), 100u);
}

TEST_P(MqVariantCombos, ConcurrentNoLossNoDuplication) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  OptimizedMultiQueue mq(kThreads, combo_config(GetParam()));

  std::mutex merge_mutex;
  std::map<std::uint64_t, int> seen;
  {
    std::vector<std::jthread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        auto h = mq.handle(tid);
        std::vector<std::uint64_t> local;
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          h.push(Task{i, tid * kPerThread + i});
          if (i % 4 == 3) {
            if (auto t = h.try_pop()) local.push_back(t->payload);
          }
        }
        h.flush();
        while (auto t = h.try_pop()) local.push_back(t->payload);
        std::lock_guard<std::mutex> guard(merge_mutex);
        for (const std::uint64_t id : local) ++seen[id];
      });
    }
  }
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    auto h = mq.handle(tid);
    h.flush();
    while (auto t = h.try_pop()) ++seen[t->payload];
  }

  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  for (const auto& [id, count] : seen) {
    ASSERT_EQ(count, 1) << "task " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MqVariantCombos,
    ::testing::Values(
        Combo{InsertPolicy::kTemporalLocality, DeletePolicy::kTemporalLocality,
              "tl_tl"},
        Combo{InsertPolicy::kTemporalLocality, DeletePolicy::kBatching,
              "tl_b"},
        Combo{InsertPolicy::kBatching, DeletePolicy::kTemporalLocality,
              "b_tl"},
        Combo{InsertPolicy::kBatching, DeletePolicy::kBatching, "b_b"}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return info.param.name;
    });

TEST(MqVariants, InsertBatchingDefersUntilFullOrFlush) {
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kBatching;
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.insert_batch = 10;
  cfg.delete_batch = 1;
  OptimizedMultiQueue mq(1, cfg);
  auto h0 = mq.handle(0);
  for (std::uint64_t p = 0; p < 5; ++p) h0.push(Task{p, p});
  // Fewer than insert_batch tasks: nothing visible yet.
  EXPECT_EQ(mq.approx_size(), 0u);
  h0.flush();
  EXPECT_EQ(mq.approx_size(), 5u);
}

TEST(MqVariants, DeleteBatchingServesBufferedTasksInOrder) {
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kTemporalLocality;
  cfg.p_insert_change = 0.0;  // sticky: every task lands in one queue
  cfg.delete_policy = DeletePolicy::kBatching;
  cfg.delete_batch = 4;
  OptimizedMultiQueue mq(1, cfg);
  auto h0 = mq.handle(0);
  for (std::uint64_t p : {9, 3, 7, 1}) h0.push(Task{p, p});
  EXPECT_EQ(h0.try_pop()->priority, 1u);
  EXPECT_EQ(h0.try_pop()->priority, 3u);
  EXPECT_EQ(h0.try_pop()->priority, 7u);
  EXPECT_EQ(h0.try_pop()->priority, 9u);
}

TEST(MqVariants, TemporalLocalityNeverChangesWithZeroProbability) {
  OptimizedMqConfig cfg;
  cfg.insert_policy = InsertPolicy::kTemporalLocality;
  cfg.delete_policy = DeletePolicy::kTemporalLocality;
  cfg.p_insert_change = 0.0;  // after the first sample, stick forever
  cfg.p_delete_change = 0.0;
  OptimizedMultiQueue mq(1, cfg);
  auto h0 = mq.handle(0);
  for (std::uint64_t p = 0; p < 20; ++p) h0.push(Task{p, p});
  // All in one queue + sticky delete queue: exact priority order.
  std::uint64_t count = 0;
  while (auto t = h0.try_pop()) {
    EXPECT_EQ(t->priority, count);
    ++count;
  }
  EXPECT_EQ(count, 20u);
}

}  // namespace
}  // namespace smq

// Live rank probe: the real scheduler implementations must exhibit the
// rank behaviour their models predict.
#include "rank/live_rank.h"

#include <gtest/gtest.h>

#include "core/stealing_multiqueue.h"
#include "queues/mq_variants.h"
#include "queues/reld.h"
#include "queues/sequential_scheduler.h"
#include "queues/spraylist.h"
#include "registry/any_scheduler.h"

namespace smq {
namespace {

constexpr std::size_t kElements = 20000;

TEST(LiveRank, ExactSchedulerHasRankZero) {
  SequentialScheduler sched;
  const LiveRankResult r = measure_live_rank(sched, kElements);
  EXPECT_EQ(r.pops, kElements);
  EXPECT_EQ(r.mean_rank, 0.0);
  EXPECT_EQ(r.max_rank, 0u);
}

TEST(LiveRank, ClassicMqRankNearQueueCount) {
  OptimizedMultiQueue sched(4, {.queue_multiplier = 4, .seed = 3});
  const LiveRankResult r = measure_live_rank(sched, kElements);
  EXPECT_EQ(r.pops, kElements);
  // m = 16 queues: expected rank O(m); generous constant.
  EXPECT_LT(r.mean_rank, 16.0 * 8);
  EXPECT_GT(r.mean_rank, 0.5);  // but clearly not exact
}

TEST(LiveRank, SmqRankBoundedAndBetterThanReld) {
  StealingMultiQueue<> smq(8, {.steal_size = 1, .p_steal = 0.5, .seed = 4});
  const LiveRankResult smq_rank = measure_live_rank(smq, kElements);
  EXPECT_EQ(smq_rank.pops, kElements);

  ReldQueue reld(8, {.seed = 4});
  const LiveRankResult reld_rank = measure_live_rank(reld, kElements);
  EXPECT_EQ(reld_rank.pops, kElements);

  // RELD never steals by priority: its rank error must dominate the
  // SMQ's (the motivating observation of the paper).
  EXPECT_LT(smq_rank.mean_rank, reld_rank.mean_rank);
}

TEST(LiveRank, SmqRankDegradesWithLowerStealProbability) {
  StealingMultiQueue<> eager(8, {.steal_size = 1, .p_steal = 1.0, .seed = 5});
  const LiveRankResult eager_rank = measure_live_rank(eager, kElements);

  StealingMultiQueue<> lazy(8, {.steal_size = 1, .p_steal = 1.0 / 64, .seed = 5});
  const LiveRankResult lazy_rank = measure_live_rank(lazy, kElements);

  EXPECT_EQ(eager_rank.pops, kElements);
  EXPECT_EQ(lazy_rank.pops, kElements);
  EXPECT_GT(lazy_rank.mean_rank, eager_rank.mean_rank);
}

TEST(LiveRank, BatchingInflatesSmqRank) {
  StealingMultiQueue<> small(8, {.steal_size = 1, .p_steal = 0.25, .seed = 6});
  const LiveRankResult small_rank = measure_live_rank(small, kElements);

  StealingMultiQueue<> big(8, {.steal_size = 64, .p_steal = 0.25, .seed = 6});
  const LiveRankResult big_rank = measure_live_rank(big, kElements);

  EXPECT_GT(big_rank.mean_rank, small_rank.mean_rank);
}

TEST(LiveRank, SprayListRelaxedButBounded) {
  SprayList spray(8, {.seed = 7});
  const LiveRankResult r = measure_live_rank(spray, kElements);
  EXPECT_EQ(r.pops, kElements);
  EXPECT_LT(r.mean_rank, static_cast<double>(kElements) / 8);
}

/// The erased boundary adds no behaviour: the same seeded SMQ probed
/// directly and through its AnyScheduler wrapper pops in the same order.
TEST(LiveRank, AnySchedulerWrapperMatchesConcreteSmq) {
  const SmqConfig cfg{.steal_size = 4, .p_steal = 0.25, .seed = 9};
  StealingMultiQueue<> concrete(4, cfg);
  const LiveRankResult direct = measure_live_rank(concrete, kElements, 3);

  AnyScheduler erased = AnyScheduler::make<StealingMultiQueue<>>(4u, cfg);
  const LiveRankResult wrapped = measure_live_rank(erased, kElements, 3);

  EXPECT_EQ(direct.pops, kElements);
  EXPECT_EQ(wrapped.pops, direct.pops);
  EXPECT_EQ(wrapped.mean_rank, direct.mean_rank);
  EXPECT_EQ(wrapped.max_rank, direct.max_rank);
  EXPECT_GT(direct.mean_rank, 0.0);  // a relaxed order, not a trivial one
}

}  // namespace
}  // namespace smq

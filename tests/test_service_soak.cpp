// Service-mode soak: thousands of small queries through the persistent
// pool, watching the scheduler's memory footprint for a steady-state
// plateau (the epoch-reclaimed spraylist with quiesce-on-park, and
// OBIM's locked chunk bags, which free drained chunks at once), plus
// label epochs surviving their 16-bit wrap. Sizes shrink under TSan
// (the stress variant still runs, just smaller — TSan execution is ~10x
// slower).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "algorithms/astar.h"
#include "registry/graph_registry.h"
#include "registry/params.h"
#include "registry/service_factory.h"
#include "service/service_driver.h"
#include "service/versioned_labels.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SMQ_SOAK_TSAN 1
#endif
#endif
#ifndef SMQ_SOAK_TSAN
#define SMQ_SOAK_TSAN 0
#endif

namespace smq {
namespace {

constexpr bool kUnderTsan = SMQ_SOAK_TSAN != 0;

GraphInstance small_road() {
  ParamMap params;
  params.set("vertices", "800");
  params.set("seed", "31");
  return GraphRegistry::instance().create("road", params);
}

struct TrajectoryPoint {
  std::size_t queries = 0;
  std::size_t footprint = 0;
};

/// CI artifact hook: when SMQ_SOAK_TRAJECTORY_JSON names a file, dump
/// the footprint-over-queries curve there for the workflow to upload.
void maybe_write_trajectory(const std::string& label,
                            const std::vector<TrajectoryPoint>& points) {
  const char* path = std::getenv("SMQ_SOAK_TRAJECTORY_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << "{\"soak\":\"" << label << "\",\"trajectory\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"queries\":" << points[i].queries
        << ",\"footprint_bytes\":" << points[i].footprint << '}';
  }
  out << "]}\n";
}

/// Drive `total` queries in bursts through `service`, sampling the
/// footprint after each burst. Returns the trajectory; validates a
/// subsample of distances against the sequential oracle.
std::vector<TrajectoryPoint> soak(QueryService& service,
                                  const GraphInstance& gi, std::size_t total,
                                  std::size_t burst) {
  const std::vector<Query> queries = make_query_set(gi, total, /*seed=*/21);
  std::vector<TrajectoryPoint> trajectory;
  std::size_t done = 0;
  while (done < total) {
    const std::size_t n = std::min(burst, total - done);
    std::vector<QueryTicket> tickets;
    tickets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tickets.push_back(service.submit(queries[done + i]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const QueryResult r = tickets[i].get();
      if ((done + i) % 16 == 0) {
        const auto ref =
            sequential_astar(*gi.graph, queries[done + i].source,
                             queries[done + i].target, gi.weight_scale);
        EXPECT_EQ(r.distance, ref.distance) << "query " << done + i;
      }
    }
    done += n;
    trajectory.push_back({done, service.memory_footprint()});
  }
  return trajectory;
}

/// The plateau assertion: after the warmup prefix the footprint must
/// stop growing (modulo slack for in-flight limbo and pool ragged
/// edges). An unreclaimed leak grows linearly in the query count and
/// blows well past this.
void expect_plateau(const std::vector<TrajectoryPoint>& trajectory,
                    std::size_t warmup_points) {
  ASSERT_GT(trajectory.size(), warmup_points);
  std::size_t warmup_max = 0;
  for (std::size_t i = 0; i < warmup_points; ++i) {
    warmup_max = std::max(warmup_max, trajectory[i].footprint);
  }
  ASSERT_GT(warmup_max, 0u) << "scheduler reported no footprint at all";
  std::size_t later_max = 0;
  for (std::size_t i = warmup_points; i < trajectory.size(); ++i) {
    later_max = std::max(later_max, trajectory[i].footprint);
  }
  EXPECT_LE(later_max, warmup_max * 3 / 2 + (64u << 10))
      << "footprint still growing after warmup: " << warmup_max << " -> "
      << later_max << " bytes";
}

TEST(ServiceSoak, SmqSkiplistFootprintPlateaus) {
  const std::size_t total = kUnderTsan ? 600 : 3000;
  const GraphInstance gi = small_road();
  ParamMap params;
  auto service = make_service("smq-skiplist", 4, params, gi,
                              ServiceOptions{.lanes = 8, .batch_size = 8});
  const auto trajectory = soak(*service, gi, total, /*burst=*/100);
  service->stop();
  EXPECT_EQ(service->queries_completed(), total);
  maybe_write_trajectory("smq-skiplist", trajectory);
  // A third of the bursts is warmup: free lists fill to the working set.
  expect_plateau(trajectory, trajectory.size() / 3);
}

/// Four workers, default params: spraylist exercises the EBR path end
/// to end (every op pins, unlinked nodes retire, parked workers quiesce
/// between bursts so limbo drains while the pool idles; ASan turns any
/// premature free into a hard failure), and obim has no epochs at all
/// (the locked chunk stacks let a popper free a drained chunk at once).
class PoolSoak : public ::testing::TestWithParam<const char*> {};

TEST_P(PoolSoak, StaysBoundedAndCorrect) {
  const std::size_t total = kUnderTsan ? 300 : 1200;
  const GraphInstance gi = small_road();
  auto service = make_service(GetParam(), 4, ParamMap{}, gi,
                              ServiceOptions{.lanes = 8, .batch_size = 8});
  const auto trajectory = soak(*service, gi, total, /*burst=*/60);
  service->stop();
  EXPECT_EQ(service->queries_completed(), total);
  maybe_write_trajectory(GetParam(), trajectory);
  expect_plateau(trajectory, trajectory.size() / 3);
}

INSTANTIATE_TEST_SUITE_P(ServiceSoak, PoolSoak,
                         ::testing::Values("spraylist", "obim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ServiceSoak, SingleLaneChurnsLabelEpochs) {
  // One lane: every query bumps the same VersionedLabels epoch, so a
  // long stream exercises the per-query invalidation path the service
  // relies on instead of clearing O(V) labels between queries.
  const std::size_t total = kUnderTsan ? 200 : 800;
  const GraphInstance gi = small_road();
  ParamMap params;
  auto service = make_service("smq-skiplist", 2, params, gi,
                              ServiceOptions{.lanes = 1, .batch_size = 4});
  const auto trajectory = soak(*service, gi, total, /*burst=*/50);
  service->stop();
  EXPECT_EQ(service->queries_completed(), total);
  expect_plateau(trajectory, trajectory.size() / 3);
}

TEST(ServiceSoak, LabelsSurviveEpochWraparound) {
  // Drive one VersionedLabels lane through its full 16-bit epoch space
  // twice, spot-checking correctness around every scrub boundary — the
  // lane a long-lived service reuses for its 65534th query must behave
  // exactly like its first.
  VersionedLabels labels(64);
  const std::uint64_t laps = 2 * VersionedLabels::kEpochLimit + 10;
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < laps; ++i) {
    const std::uint64_t e = labels.new_epoch();
    ASSERT_NE(e, 0u);
    ASSERT_LT(e, VersionedLabels::kEpochLimit);
    if (e < last) {
      // Just wrapped: the scrub must have invalidated every slot.
      for (std::size_t v = 0; v < 64; ++v) {
        ASSERT_EQ(labels.load(v, e), VersionedLabels::kUnreached)
            << "slot " << v << " leaked through the wrap at lap " << i;
      }
    }
    last = e;
    // Light per-epoch churn so stale values exist to leak.
    labels.store(i % 64, i + 1, e);
    ASSERT_EQ(labels.load(i % 64, e), i + 1);
    ASSERT_EQ(labels.load((i + 1) % 64, e), VersionedLabels::kUnreached);
  }
}

}  // namespace
}  // namespace smq

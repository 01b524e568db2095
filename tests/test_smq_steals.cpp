// SMQ work distribution on the path real workloads take: one seed task,
// a queue that drains and refills, and T=4 workers that can only get
// work by stealing it. Oracle-correct distances alone cannot tell a
// stealing scheduler from one that quietly runs on a single thread, so
// these tests count steals and per-thread executions directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>

#include "algorithms/relax.h"
#include "algorithms/sssp.h"
#include "graph/generators.h"
#include "registry/scheduler_registry.h"
#include "sched/executor.h"

namespace smq {
namespace {

constexpr unsigned kThreads = 4;
constexpr VertexId kVertices = 100000;

const Graph& random_graph() {
  static const Graph g = make_erdos_renyi(kVertices, 8 * kVertices, 17);
  return g;
}

const SequentialSsspResult& oracle() {
  static const SequentialSsspResult ref = sequential_sssp(random_graph(), 0);
  return ref;
}

class SmqSteals
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(SmqSteals, SingleSourceSsspSpreadsOverThreads) {
  const auto& [name, batch] = GetParam();
  const Graph& graph = random_graph();
  AnyScheduler sched = SchedulerRegistry::instance().create(name, kThreads);

  DistanceArray dist(graph.num_vertices());
  dist.store(0, 0);
  std::array<std::atomic<std::uint64_t>, kThreads> executed{};
  const Task seed{0, 0};
  const RunResult run = run_parallel(
      sched, std::span<const Task>(&seed, 1),
      [&](Task task, auto& ctx) {
        executed[ctx.thread_id()].fetch_add(1, std::memory_order_relaxed);
        const auto v = static_cast<VertexId>(task.payload);
        if (dist.load(v) < task.priority) {
          ctx.mark_wasted();
          return;
        }
        for (const Graph::Neighbor& n : graph.neighbors(v)) {
          const std::uint64_t nd = task.priority + n.weight;
          if (dist.relax_min(n.to, nd)) ctx.push(Task{nd, n.to});
        }
      },
      kThreads, ExecutorOptions{.batch_size = batch});

  EXPECT_EQ(dist.snapshot(), oracle().distances);
  EXPECT_GT(run.stats.steals, 0u);

  // At least two workers each ran a non-trivial share of the tasks.
  std::uint64_t total = 0;
  for (const auto& n : executed) total += n.load();
  ASSERT_EQ(total, run.stats.pops);
  const auto busy = std::ranges::count_if(executed, [&](const auto& n) {
    return n.load() * 20 >= total;  // >= 5% of all tasks
  });
  EXPECT_GE(busy, 2) << "per-thread tasks: " << executed[0].load() << ' '
                     << executed[1].load() << ' ' << executed[2].load()
                     << ' ' << executed[3].load();
}

INSTANTIATE_TEST_SUITE_P(
    SmqFamilies, SmqSteals,
    ::testing::Combine(::testing::Values("smq", "smq-skiplist"),
                       ::testing::Values(std::size_t{1}, std::size_t{64})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_batch" +
                         std::to_string(std::get<1>(info.param));
      std::ranges::replace(name, '-', '_');
      return name;
    });

}  // namespace
}  // namespace smq

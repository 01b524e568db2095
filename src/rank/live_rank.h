// Live rank probe: measures the *empirical* rank error of a real
// scheduler implementation (not the Section 3 analytical model) by
// driving it single-threaded from multiple logical thread identities
// against an exact shadow multiset. Complements rank_sim.h: the
// simulator validates the theorems, the probe validates that the
// implementations actually behave like their models (e.g. that the SMQ's
// buffers do not silently destroy its rank behaviour).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "rank/order_statistics.h"
#include "sched/scheduler_traits.h"
#include "sched/task.h"
#include "support/rng.h"

namespace smq {

struct LiveRankResult {
  double mean_rank = 0;
  std::uint64_t max_rank = 0;
  std::uint64_t pops = 0;
};

/// Pre-fills `sched` with `num_elements` tasks (priority = insertion
/// index) spread round-robin over the logical threads, then pops
/// everything, rotating the popping thread identity uniformly at random.
/// The rank of each pop is its position in the exact shadow set. Each
/// logical thread's handle is acquired once, as the executor does.
template <PriorityScheduler S>
LiveRankResult measure_live_rank(S& sched, std::size_t num_elements,
                                 std::uint64_t seed = 1) {
  const unsigned threads = sched.num_threads();
  OrderStatistics shadow(num_elements);  // priorities are 0..N-1, unique
  Xoshiro256 rng(seed);
  std::vector<HandleOf<S>> handles;
  handles.reserve(threads);
  for (unsigned tid = 0; tid < threads; ++tid) {
    handles.push_back(handle_adapted(sched, tid));
  }

  for (std::size_t i = 0; i < num_elements; ++i) {
    handles[i % threads].push(Task{i, i});
    shadow.insert(i);
  }
  for (auto& handle : handles) handle.flush();

  LiveRankResult result;
  double rank_sum = 0;
  // Every element must eventually come out; rotate identities so owner
  // refill paths run (a scheduler may hide tasks from non-owners, never
  // from everyone).
  unsigned consecutive_failures = 0;
  while (shadow.size() > 0 && consecutive_failures < 4 * threads) {
    const unsigned tid = static_cast<unsigned>(rng.next_below(threads));
    const std::optional<Task> task = handles[tid].try_pop();
    if (!task) {
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    const std::uint64_t rank = shadow.rank_of(task->priority);
    shadow.erase(task->priority);
    rank_sum += static_cast<double>(rank);
    result.max_rank = std::max(result.max_rank, rank);
    ++result.pops;
  }
  if (result.pops > 0) {
    result.mean_rank = rank_sum / static_cast<double>(result.pops);
  }
  return result;
}

}  // namespace smq

// `--sched auto`: resolve a (graph, algorithm, threads) workload to a
// registered scheduler key plus params through a handful of compiled-in
// measured rows.
//
// Each row says that on one graph class and algorithm, from
// `min_threads` up, `scheduler` at `params` beat the paper's `smq` by
// more than the spread of smq's own repetitions. Every key without such
// a row runs `smq`. The result always names a key the SchedulerRegistry
// can create, and params that win over the caller's, so callers can
// feed it straight into virtual, batched, or static dispatch.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "registry/graph_registry.h"
#include "registry/params.h"
#include "tuning/fingerprint.h"

namespace smq::tuning {

/// The pseudo-scheduler name accepted by smq_run's sweeps and service.
inline constexpr std::string_view kAutoSchedulerName = "auto";

/// The answer for every key no row covers: the paper's scheduler.
inline constexpr std::string_view kDefaultScheduler = "smq";

struct AutoRow {
  GraphClass cls;
  std::string_view algorithm;
  unsigned min_threads;
  std::string_view scheduler;
  ParamMap params;            // tunables the scheduler runs at
  std::string_view measured;  // provenance: graph, times, command
};

/// The compiled-in rows, sorted by (class, algorithm, min_threads).
std::span<const AutoRow> auto_rows() noexcept;

/// How a resolution was made: a row matched, or none did.
enum class MatchKind { kExact, kDefault };

std::string_view to_string(MatchKind kind) noexcept;

struct AutoSelection {
  std::string scheduler;  // registry key, ready for create()
  ParamMap params;        // tunables the pick runs at (win over the CLI)
  MatchKind match = MatchKind::kDefault;
  GraphClass cls = GraphClass::kUniform;
  std::string why;  // explanation surfaced in table/JSON output
};

/// The (cls, algorithm) row with the largest min_threads <= threads;
/// kDefaultScheduler when there is none.
AutoSelection select_scheduler(GraphClass cls, std::string_view algorithm,
                               unsigned threads);

/// The one place `auto` is resolved: nullopt when `scheduler` is not
/// kAutoSchedulerName, else the select_scheduler() answer for `graph`'s
/// class (one O(V) degree pass), `algorithm` and `threads`. Sweeps call
/// it per thread count, the service driver once per service.
std::optional<AutoSelection> resolve_auto(std::string_view scheduler,
                                          const GraphInstance& graph,
                                          std::string_view algorithm,
                                          unsigned threads);

/// One-line provenance note, printed by drivers before running:
/// "auto: bfs @ 4t on road graph -> pmod/delta-shift=4 [exact] — ...".
std::string describe_selection(const AutoSelection& sel,
                               std::string_view algorithm, unsigned threads);

}  // namespace smq::tuning

// String-keyed scheduler factory registry.
//
// Every scheduler in src/queues/ and src/core/ registers itself under
// one stable name ("smq", "obim", ...) with a one-line description, its
// tunables, and a factory that parses a ParamMap into its config struct
// and returns a type-erased AnyScheduler. A grid point of the paper's
// evaluation is a key plus params ("obim" at delta-shift 4), never a
// key of its own; the run driver, benches, examples and tests all
// enumerate this registry instead of hand-listing template
// instantiations.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "registry/any_scheduler.h"
#include "registry/params.h"
#include "registry/registry.h"

namespace smq {

struct SchedulerEntry {
  std::string name;         // registry key, e.g. "smq"
  std::string description;  // one-liner for --list
  unsigned max_threads = 0; // 0 = unlimited; 1 = single-threaded baseline
  std::vector<Tunable> tunables;
  std::function<AnyScheduler(unsigned threads, const ParamMap&)> make;

  /// Whether the entry registers the tunable `name`.
  bool takes(std::string_view name) const {
    return std::ranges::any_of(
        tunables, [name](const Tunable& t) { return t.name == name; });
  }
};

class SchedulerRegistry : public NamedRegistry<SchedulerEntry> {
 public:
  /// The process-wide registry, with all built-in schedulers registered
  /// on first use.
  static SchedulerRegistry& instance();

  /// Build `name` for `threads` threads (clamped to the entry's
  /// max_threads). Throws std::invalid_argument on an unknown name.
  AnyScheduler create(std::string_view name, unsigned threads,
                      const ParamMap& params = {}) const;
};

/// The thread count `entry` will actually run with.
inline unsigned effective_threads(const SchedulerEntry& entry,
                                  unsigned requested) {
  if (requested == 0) requested = 1;
  return entry.max_threads != 0 && requested > entry.max_threads
             ? entry.max_threads
             : requested;
}

}  // namespace smq

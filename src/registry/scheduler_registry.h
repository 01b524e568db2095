// String-keyed scheduler factory registry.
//
// Every scheduler family in src/queues/ and src/core/ registers itself
// under a stable name ("smq", "obim", ...) with a one-line description,
// its tunables, and a factory that parses a ParamMap into the family's
// config struct and returns a type-erased AnyScheduler. This is the
// single place the scheduler x config matrix lives; the run driver,
// benches, examples and tests all enumerate it instead of hand-listing
// template instantiations.
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

  // Presets: a preset entry is a config family plus a fixed knob
  // assignment. `family` names the base entry whose factory (and static
  // dispatch row, if any) the preset reuses; empty for base entries.
  // `pinned` knobs always win over caller params (that is what makes the
  // key a preset); `defaults` fill in only when the caller left the key
  // unset. Both the virtual factory and the static-dispatch path resolve
  // params through resolve_preset_params(), so the two cannot drift.
  std::string family = {};
  ParamMap pinned = {};
  ParamMap defaults = {};

  /// Whether the entry registers the tunable `name`.
  bool takes(std::string_view name) const {
    return std::ranges::any_of(
        tunables, [name](const Tunable& t) { return t.name == name; });
  }
};

/// `params` with `defaults` filled in where unset and `pinned` forced.
ParamMap resolve_preset_params(const ParamMap& params, const ParamMap& defaults,
                               const ParamMap& pinned);

/// `params` with the entry's preset defaults filled in and its pinned
/// knobs forced. Identity for base (non-preset) entries.
ParamMap resolve_preset_params(const SchedulerEntry& entry,
                               const ParamMap& params);

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

// String-keyed graph-source registry: synthetic generators (road, rmat,
// rand, grid, path) plus file loaders (DIMACS .gr/.co text, binary CSR
// cache). A source turns a ParamMap into a GraphInstance — the graph
// itself plus the defaults an algorithm needs (source/target vertices,
// the A* heuristic scale).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "registry/params.h"
#include "registry/registry.h"

namespace smq {

struct GraphInstance {
  std::shared_ptr<const Graph> graph;
  std::string name;            // resolved, e.g. "road(vertices=40000)"
  VertexId default_source = 0;
  VertexId default_target = 0;  // A*: defaults to the last vertex
  double weight_scale = 100.0;  // A* heuristic scale (road generator's)
};

struct GraphSourceEntry {
  std::string name;         // registry key, e.g. "road"
  std::string description;  // one-liner for --list
  std::vector<Tunable> tunables;
  std::function<GraphInstance(const ParamMap&)> make;
  // File sources accept the "name:ARG" shorthand (e.g. --graph
  // dimacs:data/dimacs/sample.gr): the text after the first ':' binds to
  // this tunable. Empty = no shorthand.
  std::string inline_param = {};
};

class GraphRegistry : public NamedRegistry<GraphSourceEntry> {
 public:
  static GraphRegistry& instance();

  /// Build the graph named by `name`. File sources also accept the
  /// inline form "name:PATH" ("dimacs:usa.gr" == "dimacs --file
  /// usa.gr"). Throws std::invalid_argument on an unknown source; file
  /// sources throw std::runtime_error on bad input.
  GraphInstance create(std::string_view name, const ParamMap& params = {}) const;

  /// Like create(), but consult/populate a binary CSR cache under
  /// `cache_dir` (created if missing), keyed by a hash of (source name,
  /// binary format version, the entry's tunables as resolved from
  /// `params`). Repeated sweeps over the same graph spec skip
  /// generation/parsing entirely, and cache hits are memory-mapped
  /// (page-in, not parse — the difference between seconds and minutes
  /// on the 58M-arc USA graph); the "binary" source itself is never
  /// re-cached. Cached instances carry the source defaults for
  /// source/target metadata. An unreadable or stale cache file (including
  /// any v1 entry, whose key no longer matches) falls back to
  /// regeneration and is overwritten in the current format.
  GraphInstance create_cached(std::string_view name, const ParamMap& params,
                              const std::string& cache_dir) const;
};

}  // namespace smq

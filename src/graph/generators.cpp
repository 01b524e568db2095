#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "support/rng.h"

namespace smq {

namespace {

/// Append both directions of an undirected edge.
void add_undirected(std::vector<Edge>& edges, VertexId a, VertexId b,
                    Weight w) {
  edges.push_back(Edge{a, b, w});
  edges.push_back(Edge{b, a, w});
}

}  // namespace

Graph make_road_like(VertexId num_vertices, RoadLikeOptions opts) {
  // Square-ish lattice with jittered vertex positions: vertex (r, c) sits
  // near (r, c) in the plane. Lattice edges connect 4-neighbours; a small
  // number of longer "highway" shortcuts connect random lattice vertices
  // a few rows/columns apart, like motorways over local roads.
  const VertexId side =
      std::max<VertexId>(2, static_cast<VertexId>(std::sqrt(num_vertices)));
  const VertexId n = side * side;
  Xoshiro256 rng(opts.seed);

  Coordinates coords;
  coords.x.resize(n);
  coords.y.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    coords.x[v] = static_cast<double>(v % side) + 0.4 * rng.next_double();
    coords.y[v] = static_cast<double>(v / side) + 0.4 * rng.next_double();
  }

  auto distance = [&](VertexId a, VertexId b) {
    const double dx = coords.x[a] - coords.x[b];
    const double dy = coords.y[a] - coords.y[b];
    return std::sqrt(dx * dx + dy * dy);
  };
  auto road_weight = [&](VertexId a, VertexId b) -> Weight {
    // ceil(dist * scale) plus jitter keeps weight >= dist * scale, which
    // keeps the equirectangular A* heuristic admissible.
    const double base = distance(a, b) * opts.weight_scale;
    const Weight jitter = static_cast<Weight>(rng.next_below(16));
    return static_cast<Weight>(std::ceil(base)) + jitter + 1;
  };

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * 4 + 16);
  for (VertexId r = 0; r < side; ++r) {
    for (VertexId c = 0; c < side; ++c) {
      const VertexId v = r * side + c;
      if (c + 1 < side) add_undirected(edges, v, v + 1, road_weight(v, v + 1));
      if (r + 1 < side) {
        add_undirected(edges, v, v + side, road_weight(v, v + side));
      }
    }
  }
  const std::size_t shortcuts =
      static_cast<std::size_t>(opts.shortcut_fraction * n);
  for (std::size_t i = 0; i < shortcuts; ++i) {
    const VertexId a = static_cast<VertexId>(rng.next_below(n));
    // Jump up to 8 lattice steps away: medium-range connector roads.
    const std::int64_t dr = static_cast<std::int64_t>(rng.next_below(17)) - 8;
    const std::int64_t dc = static_cast<std::int64_t>(rng.next_below(17)) - 8;
    const std::int64_t r = static_cast<std::int64_t>(a / side) + dr;
    const std::int64_t c = static_cast<std::int64_t>(a % side) + dc;
    if (r < 0 || c < 0 || r >= static_cast<std::int64_t>(side) ||
        c >= static_cast<std::int64_t>(side)) {
      continue;
    }
    const VertexId b = static_cast<VertexId>(r) * side + static_cast<VertexId>(c);
    if (a == b) continue;
    add_undirected(edges, a, b, road_weight(a, b));
  }

  Graph g = Graph::from_edges(n, std::move(edges));
  g.set_coordinates(std::move(coords));
  return g;
}

Graph make_rmat(unsigned scale, RmatOptions opts) {
  const VertexId n = VertexId{1} << scale;
  const std::size_t m = static_cast<std::size_t>(n) * opts.edge_factor;
  Xoshiro256 rng(opts.seed);

  std::vector<Edge> edges;
  edges.reserve(m);
  const double ab = opts.a + opts.b;
  const double abc = opts.a + opts.b + opts.c;
  for (std::size_t i = 0; i < m; ++i) {
    VertexId row = 0, col = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double p = rng.next_double();
      if (p < opts.a) {
        // top-left quadrant: nothing to set
      } else if (p < ab) {
        col |= VertexId{1} << bit;
      } else if (p < abc) {
        row |= VertexId{1} << bit;
      } else {
        row |= VertexId{1} << bit;
        col |= VertexId{1} << bit;
      }
    }
    const Weight w =
        static_cast<Weight>(rng.next_below(std::uint64_t{opts.max_weight} + 1));
    edges.push_back(Edge{row, col, w});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph make_erdos_renyi(VertexId num_vertices, std::size_t num_edges,
                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (std::size_t i = 0; i < num_edges; ++i) {
    edges.push_back(
        Edge{static_cast<VertexId>(rng.next_below(num_vertices)),
             static_cast<VertexId>(rng.next_below(num_vertices)),
             static_cast<Weight>(1 + rng.next_below(255))});
  }
  return Graph::from_edges(num_vertices, std::move(edges));
}

Graph make_grid2d(VertexId width, VertexId height, bool unit_weights,
                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  auto weight = [&]() -> Weight {
    return unit_weights ? 1 : static_cast<Weight>(1 + rng.next_below(255));
  };
  for (VertexId r = 0; r < height; ++r) {
    for (VertexId c = 0; c < width; ++c) {
      const VertexId v = r * width + c;
      if (c + 1 < width) add_undirected(edges, v, v + 1, weight());
      if (r + 1 < height) add_undirected(edges, v, v + width, weight());
    }
  }
  return Graph::from_edges(width * height, std::move(edges));
}

Graph make_path(VertexId num_vertices, Weight weight) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < num_vertices; ++v) {
    add_undirected(edges, v, v + 1, weight);
  }
  return Graph::from_edges(num_vertices, std::move(edges));
}

}  // namespace smq

// Compressed-sparse-row directed graph with integer edge weights.
//
// The workload substrate for every benchmark in the paper: SSSP, BFS, A*
// and MST all run over this structure. Immutable after construction;
// parallel algorithm state (distance arrays etc.) lives outside.
//
// Storage is either *owned* (vectors filled by from_edges/from_csr) or
// *mapped* (spans into a memory-mapped binary cache file, kept alive by
// a shared backing handle — see binary_io.h's load_binary_graph_mmap).
// The read API is identical either way; mapped graphs page in lazily
// instead of being parsed, which is what makes the 24M-vertex DIMACS
// road networks routine inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace smq {

using VertexId = std::uint32_t;
using Weight = std::uint32_t;

struct Edge {
  VertexId from = 0;
  VertexId to = 0;
  Weight weight = 1;
};

/// Optional per-vertex planar coordinates (road graphs); consumed by A*.
struct Coordinates {
  std::vector<double> x;
  std::vector<double> y;

  bool empty() const noexcept { return x.empty(); }
};

class Graph {
 public:
  Graph() = default;

  /// Build CSR from an edge list. Self-loops are kept; duplicate edges
  /// are kept (multigraphs are fine for all our algorithms).
  static Graph from_edges(VertexId num_vertices, std::vector<Edge> edges);

  struct Neighbor {
    VertexId to;
    Weight weight;
  };

  /// Adopt already-built CSR arrays (the binary cache's v2 stream
  /// reader). Validates the CSR invariants: offsets is non-empty,
  /// starts at 0, is non-decreasing, ends at adjacency.size(), and
  /// every target id is < |V|. Throws std::invalid_argument otherwise.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<Neighbor> adjacency);

  /// Adopt CSR arrays that live in memory owned elsewhere (an mmap'd
  /// cache file); `backing` keeps that memory alive for the graph's
  /// lifetime and is shared by copies. Validates offsets (O(V) scan —
  /// pages in the offset array, deliberately not the adjacency array,
  /// whose pages fault in on first traversal).
  static Graph from_mapped(std::span<const std::size_t> offsets,
                           std::span<const Neighbor> adjacency,
                           std::shared_ptr<const void> backing);

  // Owned storage deep-copies; mapped storage shares the backing
  // mapping. Moves re-point the views (vector moves keep their heap
  // buffers, so views into owned storage stay valid).
  Graph(const Graph& other) { assign(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) assign(other);
    return *this;
  }
  Graph(Graph&& other) noexcept { assign_move(std::move(other)); }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) assign_move(std::move(other));
    return *this;
  }

  VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::size_t num_edges() const noexcept { return adjacency_.size(); }

  /// Out-neighbours of v as a contiguous span.
  std::span<const Neighbor> neighbors(VertexId v) const noexcept {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t out_degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// The raw CSR arrays (binary serialization, NUMA placement).
  std::span<const std::size_t> offsets() const noexcept { return offsets_; }
  std::span<const Neighbor> adjacency() const noexcept { return adjacency_; }

  /// True when the CSR views alias an external mapping (page-in
  /// storage) instead of owned vectors.
  bool is_mapped() const noexcept { return backing_ != nullptr; }

  /// Flat edge list reconstruction (used by MST and tests).
  std::vector<Edge> to_edges() const;

  const Coordinates& coordinates() const noexcept { return coords_; }
  void set_coordinates(Coordinates coords) { coords_ = std::move(coords); }

 private:
  void assign(const Graph& other);
  void assign_move(Graph&& other) noexcept;

  // Owned storage (empty when mapped).
  std::vector<std::size_t> offsets_owned_;
  std::vector<Neighbor> adjacency_owned_;
  // The views every accessor reads — into the owned vectors or into the
  // backing mapping.
  std::span<const std::size_t> offsets_;
  std::span<const Neighbor> adjacency_;
  std::shared_ptr<const void> backing_;
  Coordinates coords_;
};

}  // namespace smq

#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace smq {

namespace {

/// Offset-array invariants shared by from_csr and from_mapped; the
/// adjacency bound check is the caller's choice (owned storage checks
/// every target, mapped storage stays lazy).
void validate_offsets(std::span<const std::size_t> offsets,
                      std::size_t num_edges) {
  if (offsets.empty()) {
    throw std::invalid_argument("graph csr: offsets must have >= 1 entry");
  }
  if (offsets.front() != 0) {
    throw std::invalid_argument("graph csr: offsets[0] must be 0");
  }
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    if (offsets[v] < offsets[v - 1]) {
      throw std::invalid_argument("graph csr: offsets must be non-decreasing");
    }
  }
  if (offsets.back() != num_edges) {
    throw std::invalid_argument(
        "graph csr: offsets.back() must equal adjacency size");
  }
}

}  // namespace

Graph Graph::from_edges(VertexId num_vertices, std::vector<Edge> edges) {
  Graph g;
  g.offsets_owned_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    assert(e.from < num_vertices && e.to < num_vertices);
    ++g.offsets_owned_[e.from + 1];
  }
  for (std::size_t v = 1; v <= num_vertices; ++v) {
    g.offsets_owned_[v] += g.offsets_owned_[v - 1];
  }
  g.adjacency_owned_.resize(edges.size());
  std::vector<std::size_t> cursor(g.offsets_owned_.begin(),
                                  g.offsets_owned_.end() - 1);
  for (const Edge& e : edges) {
    g.adjacency_owned_[cursor[e.from]++] = Neighbor{e.to, e.weight};
  }
  g.offsets_ = g.offsets_owned_;
  g.adjacency_ = g.adjacency_owned_;
  return g;
}

Graph Graph::from_csr(std::vector<std::size_t> offsets,
                      std::vector<Neighbor> adjacency) {
  validate_offsets(offsets, adjacency.size());
  const auto num_vertices = static_cast<std::size_t>(offsets.size() - 1);
  for (const Neighbor& n : adjacency) {
    if (n.to >= num_vertices) {
      throw std::invalid_argument("graph csr: target vertex out of range");
    }
  }
  Graph g;
  g.offsets_owned_ = std::move(offsets);
  g.adjacency_owned_ = std::move(adjacency);
  g.offsets_ = g.offsets_owned_;
  g.adjacency_ = g.adjacency_owned_;
  return g;
}

Graph Graph::from_mapped(std::span<const std::size_t> offsets,
                         std::span<const Neighbor> adjacency,
                         std::shared_ptr<const void> backing) {
  validate_offsets(offsets, adjacency.size());
  Graph g;
  g.offsets_ = offsets;
  g.adjacency_ = adjacency;
  g.backing_ = std::move(backing);
  return g;
}

void Graph::assign(const Graph& other) {
  if (other.backing_ != nullptr) {
    // Mapped: share the mapping, alias the same views.
    offsets_owned_.clear();
    adjacency_owned_.clear();
    offsets_ = other.offsets_;
    adjacency_ = other.adjacency_;
    backing_ = other.backing_;
  } else {
    offsets_owned_.assign(other.offsets_.begin(), other.offsets_.end());
    adjacency_owned_.assign(other.adjacency_.begin(), other.adjacency_.end());
    offsets_ = offsets_owned_;
    adjacency_ = adjacency_owned_;
    backing_ = nullptr;
  }
  coords_ = other.coords_;
}

void Graph::assign_move(Graph&& other) noexcept {
  offsets_owned_ = std::move(other.offsets_owned_);
  adjacency_owned_ = std::move(other.adjacency_owned_);
  backing_ = std::move(other.backing_);
  if (backing_ != nullptr) {
    offsets_ = other.offsets_;
    adjacency_ = other.adjacency_;
  } else {
    // Vector moves transfer the heap buffer, so re-pointing at the
    // destination vectors lands on the same data.
    offsets_ = offsets_owned_;
    adjacency_ = adjacency_owned_;
  }
  other.offsets_ = {};
  other.adjacency_ = {};
  coords_ = std::move(other.coords_);
}

std::vector<Edge> Graph::to_edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (const Neighbor& n : neighbors(v)) {
      edges.push_back(Edge{v, n.to, n.weight});
    }
  }
  return edges;
}

}  // namespace smq

// Fingerprint extraction: class boundaries on synthetic graphs, and the
// registry generators the compiled-in `--sched auto` rows are keyed on
// (road -> road, rand -> uniform, rmat -> social).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "registry/graph_registry.h"
#include "tuning/fingerprint.h"

namespace smq::tuning {
namespace {

Graph ring_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<VertexId>((v + 1) % n), 100});
    edges.push_back({static_cast<VertexId>((v + 1) % n), v, 100});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph star_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) {
    edges.push_back({0, v, 7});
    edges.push_back({v, 0, 7});
  }
  return Graph::from_edges(n, std::move(edges));
}

// ---- classification boundaries ---------------------------------------------

TEST(Fingerprint, ClassifyDegreesBoundaries) {
  // Tight bounded-degree distributions are roads...
  EXPECT_EQ(classify_degrees(4.0, 8, 0.10), GraphClass::kRoad);
  EXPECT_EQ(classify_degrees(2.5, 12, 0.75), GraphClass::kRoad);
  // ...until either road bar breaks: degree 13, or cv just over 0.75.
  EXPECT_EQ(classify_degrees(2.5, 13, 0.75), GraphClass::kUniform);
  EXPECT_EQ(classify_degrees(2.5, 12, 0.76), GraphClass::kUniform);
  // Power-law signatures: heavy tail (cv > 1) or a hub 16x the mean.
  EXPECT_EQ(classify_degrees(8.0, 40, 1.01), GraphClass::kSocial);
  EXPECT_EQ(classify_degrees(8.0, 129, 0.5), GraphClass::kSocial);
  EXPECT_EQ(classify_degrees(8.0, 128, 0.5), GraphClass::kUniform);
  // Sparse graphs clamp the hub bar at 16 absolute (max(avg, 1)).
  EXPECT_EQ(classify_degrees(0.5, 17, 0.5), GraphClass::kSocial);
  // Erdos-Renyi-like: moderate spread, no hubs.
  EXPECT_EQ(classify_degrees(8.0, 20, 0.35), GraphClass::kUniform);
}

TEST(Fingerprint, RingGraphFingerprintsAsRoad) {
  const WorkloadFingerprint fp = fingerprint_graph(ring_graph(256));
  EXPECT_DOUBLE_EQ(fp.avg_degree, 2.0);
  EXPECT_EQ(fp.max_degree, 2u);
  EXPECT_NEAR(fp.degree_cv, 0.0, 1e-9);
  EXPECT_EQ(fp.cls, GraphClass::kRoad);
}

TEST(Fingerprint, StarGraphFingerprintsAsSocial) {
  const WorkloadFingerprint fp = fingerprint_graph(star_graph(256));
  EXPECT_EQ(fp.max_degree, 255u) << "the hub must dominate";
  EXPECT_GT(fp.degree_cv, 1.0);
  EXPECT_EQ(fp.cls, GraphClass::kSocial);
}

TEST(Fingerprint, EmptyGraphFingerprintsWithoutDividingByZero) {
  const WorkloadFingerprint fp = fingerprint_graph(Graph::from_edges(0, {}));
  EXPECT_EQ(fp.max_degree, 0u);
  EXPECT_DOUBLE_EQ(fp.degree_cv, 0.0);
}

// ---- the registry generators the auto rows are keyed on --------------------

GraphClass registry_class(const std::string& source, const ParamMap& params) {
  const GraphInstance inst = GraphRegistry::instance().create(source, params);
  return fingerprint_graph(*inst.graph).cls;
}

TEST(Fingerprint, RegistryGeneratorsClassifyAsTheirFamilies) {
  ParamMap road;
  road.set("vertices", "4000");
  EXPECT_EQ(registry_class("road", road), GraphClass::kRoad);

  ParamMap rand;
  rand.set("vertices", "4000");
  rand.set("edges", "32000");
  EXPECT_EQ(registry_class("rand", rand), GraphClass::kUniform);

  ParamMap rmat;
  rmat.set("scale", "12");
  EXPECT_EQ(registry_class("rmat", rmat), GraphClass::kSocial);
}

}  // namespace
}  // namespace smq::tuning

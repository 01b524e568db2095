#include "tuning/fingerprint.h"

#include <algorithm>
#include <cmath>

namespace smq::tuning {

std::string_view to_string(GraphClass cls) noexcept {
  switch (cls) {
    case GraphClass::kRoad: return "road";
    case GraphClass::kUniform: return "uniform";
    case GraphClass::kSocial: return "social";
  }
  return "uniform";
}

GraphClass classify_degrees(double avg_degree, std::uint64_t max_degree,
                            double degree_cv) noexcept {
  // Power-law tail: either a heavily skewed distribution or a hub far
  // above the mean. RMAT-style graphs land here (cv well above 1, hubs
  // hundreds of times the mean); Erdos-Renyi stays below both bars
  // (Poisson cv = 1/sqrt(mean), max ~ mean + a few sigma).
  const double hub_bar = 16.0 * std::max(avg_degree, 1.0);
  if (degree_cv > 1.0 || static_cast<double>(max_degree) > hub_bar) {
    return GraphClass::kSocial;
  }
  // Road networks and lattices: bounded degree (planar-ish graphs top
  // out around 8-12 even with shortcut edges) and a tight distribution.
  if (max_degree <= 12 && degree_cv <= 0.75) {
    return GraphClass::kRoad;
  }
  return GraphClass::kUniform;
}

WorkloadFingerprint fingerprint_graph(const Graph& g) {
  WorkloadFingerprint fp;
  if (g.num_vertices() == 0) return fp;

  // Degree moments in one O(V) pass over the offsets array.
  double sum = 0.0, sum_sq = 0.0;
  std::uint64_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto d = static_cast<double>(g.out_degree(v));
    sum += d;
    sum_sq += d * d;
    max_deg = std::max<std::uint64_t>(max_deg, g.out_degree(v));
  }
  const double n = static_cast<double>(g.num_vertices());
  const double mean = sum / n;
  const double variance = std::max(0.0, sum_sq / n - mean * mean);
  fp.avg_degree = mean;
  fp.max_degree = max_deg;
  fp.degree_cv = mean > 0 ? std::sqrt(variance) / mean : 0.0;
  fp.cls = classify_degrees(fp.avg_degree, fp.max_degree, fp.degree_cv);
  return fp;
}

}  // namespace smq::tuning

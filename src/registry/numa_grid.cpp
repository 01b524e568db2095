#include "registry/numa_grid.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "registry/scheduler_configs.h"
#include "sched/topology.h"
#include "support/cli.h"

namespace smq {

namespace {

/// Format K without trailing zeros ("8", "1.5").
std::string fmt_k(double k) {
  std::ostringstream os;
  os << k;
  return os.str();
}

}  // namespace

std::vector<std::string> parse_numa_grid(std::string_view spec) {
  std::vector<unsigned> nodes;
  std::vector<double> ks;
  for (const std::string& dim : split_list(spec, ':')) {
    const std::size_t eq = dim.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("numa-grid dimension '" + dim +
                                  "' is not key=v1,v2,...");
    }
    const std::string key = dim.substr(0, eq);
    std::vector<std::string> values = split_list(dim.substr(eq + 1), ',');
    if (values.empty()) {
      throw std::invalid_argument("numa-grid dimension '" + key +
                                  "' has no values");
    }
    if (key == "nodes") {
      for (const std::string& v : values) {
        char* end = nullptr;
        const unsigned long n = std::strtoul(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0') {
          throw std::invalid_argument("bad numa-grid node count: " + v);
        }
        nodes.push_back(static_cast<unsigned>(n == 0 ? 1 : n));
      }
    } else if (key == "k") {
      for (const std::string& v : values) {
        char* end = nullptr;
        const double k = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || k <= 0) {
          throw std::invalid_argument("bad numa-grid K weight: " + v);
        }
        ks.push_back(k);
      }
    } else {
      throw std::invalid_argument("unknown numa-grid dimension: " + key +
                                  " (expected nodes or k)");
    }
  }
  if (nodes.empty() && ks.empty()) {
    throw std::invalid_argument(
        "empty numa-grid spec (expected e.g. nodes=1,2,4:k=1,4,8,16)");
  }
  // A K sweep without a nodes dimension mirrors parse_numa's "k=8 alone
  // implies 2 nodes" rule; a nodes sweep without K pins K=1 (the
  // non-NUMA algorithm) — leaving K to the scheduler's own default
  // would make the recorded analytic E wrong for what actually ran.
  if (nodes.empty()) nodes.push_back(2);
  if (ks.empty()) ks.push_back(1.0);

  std::vector<std::string> grid;
  bool have_uma = false;
  for (const unsigned n : nodes) {
    // K has no effect without a topology, so a nodes<=1 entry collapses
    // to one UMA point instead of |ks| identical re-measurements.
    if (n <= 1) {
      if (!have_uma) grid.emplace_back("nodes=1,k=1");
      have_uma = true;
      continue;
    }
    for (const double k : ks) {
      grid.push_back("nodes=" + std::to_string(n) + ",k=" + fmt_k(k));
    }
  }
  return grid;
}

double expected_internal_fraction(const NumaOptions& numa, unsigned threads,
                                  bool exclude_own_queue) {
  if (numa.nodes <= 1 || threads == 0) return 1.0;
  return Topology(threads, numa.nodes)
      .expected_internal_fraction(std::max(numa.k, 1.0), exclude_own_queue);
}

}  // namespace smq

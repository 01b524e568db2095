#include "registry/scheduler_configs.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "support/cli.h"

namespace smq {

NumaOptions parse_numa(const ParamMap& params, unsigned threads,
                       double default_k) {
  NumaOptions numa;  // an explicit K (even K=1) is never overridden
  const std::string spec = params.get("numa");
  for (const std::string& part : split_list(spec, ',')) {
    if (const auto eq = part.find('='); eq != std::string::npos) {
      const std::string key = part.substr(0, eq);
      const double value = std::strtod(part.substr(eq + 1).c_str(), nullptr);
      if (key == "nodes") numa.nodes = static_cast<unsigned>(value);
      if (key == "k") {
        numa.k = value;
        numa.k_pinned = true;
      }
    } else {
      numa.nodes = static_cast<unsigned>(std::strtoul(part.c_str(), nullptr, 10));
    }
  }
  if (params.has("numa-k")) {
    numa.k = params.get_double("numa-k", numa.k);
    numa.k_pinned = true;
  }
  if (numa.k <= 0) numa.k = 1.0;
  // "--numa k=8" alone asks for weighted sampling without a node count.
  if (numa.nodes == 0 && numa.k > 1.0) numa.nodes = 2;
  if (!numa.k_pinned && numa.nodes > 1) numa.k = default_k;
  numa.nodes = std::min(numa.nodes, threads);
  return numa;
}

std::shared_ptr<Topology> make_topology(const NumaOptions& numa,
                                        unsigned threads) {
  if (numa.nodes <= 1) return nullptr;
  return std::make_shared<Topology>(threads, numa.nodes);
}

const std::vector<Tunable>& numa_tunables() {
  static const std::vector<Tunable> tunables = {
      {"numa", "0", "virtual NUMA nodes: \"2\", \"nodes=2,k=8\" or \"k=8\""},
      {"numa-k", "", "remote-queue sampling weight divisor K"},
  };
  return tunables;
}

SmqConfig make_smq_config(unsigned threads, const ParamMap& params,
                          std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = parse_numa(params, threads, /*default_k=*/8.0);
  topology = make_topology(numa, threads);
  SmqConfig cfg;
  cfg.steal_size = static_cast<std::size_t>(params.get_int("steal-size", 4));
  cfg.p_steal = params.get_probability("p-steal", 1.0 / 8.0);
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

OptimizedMqConfig make_optimized_mq_config(unsigned threads,
                                           const ParamMap& params,
                                           std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = parse_numa(params, threads, 8.0);
  topology = make_topology(numa, threads);
  OptimizedMqConfig cfg;
  cfg.queue_multiplier = static_cast<unsigned>(params.get_int("c", 4));
  cfg.insert_batch =
      static_cast<std::size_t>(params.get_int("insert-batch", 16));
  cfg.p_insert_change = params.get_probability("p-insert", 1.0);
  cfg.delete_batch =
      static_cast<std::size_t>(params.get_int("delete-batch", 16));
  cfg.p_delete_change = params.get_probability("p-delete", 1.0);
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

ReldConfig make_reld_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = parse_numa(params, threads, 8.0);
  topology = make_topology(numa, threads);
  ReldConfig cfg;
  cfg.queue_multiplier = static_cast<unsigned>(params.get_int("c", 1));
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

ObimConfig make_obim_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = parse_numa(params, threads, 1.0);
  topology = make_topology(numa, threads);
  ObimConfig cfg;
  cfg.chunk_size = static_cast<std::size_t>(params.get_int("chunk-size", 64));
  cfg.delta_shift = static_cast<unsigned>(params.get_int("delta-shift", 10));
  cfg.topology = topology.get();
  return cfg;
}

ObimConfig make_pmod_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology) {
  ObimConfig cfg = make_obim_config(threads, params, topology);
  cfg.adapt_interval =
      static_cast<unsigned>(params.get_int("adapt-interval", 64));
  cfg.split_threshold = params.get_int("split-threshold", 4096);
  return cfg;
}

}  // namespace smq

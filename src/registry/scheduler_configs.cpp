#include "registry/scheduler_configs.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace smq {

namespace {

/// A size knob (a batch or chunk length, or the queues per thread `c`)
/// as a size_t. Casting a value below 1 would yield an empty batch that
/// starves every pop, no queue of one's own, or a huge size_t, so it is
/// rejected naming the knob.
std::size_t size_knob(const ParamMap& params, const std::string& key,
                      std::int64_t fallback) {
  const std::int64_t value = params.get_int(key, fallback);
  if (value < 1) {
    throw std::invalid_argument(key + " must be at least 1 (got '" +
                                params.get(key) + "')");
  }
  return static_cast<std::size_t>(value);
}

/// The run's NUMA point; fills `topology` with its simulated topology,
/// or nullptr under UMA.
NumaOptions build_topology(const ParamMap& params, unsigned threads,
                           std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = parse_numa(params, threads);
  topology = numa.nodes > 1 ? std::make_shared<Topology>(threads, numa.nodes)
                            : nullptr;
  return numa;
}

}  // namespace

NumaOptions parse_numa(const ParamMap& params, unsigned threads) {
  NumaOptions numa;
  if (const std::string nodes = params.get("numa"); !nodes.empty()) {
    const char* end = nodes.data() + nodes.size();
    const auto [ptr, ec] = std::from_chars(nodes.data(), end, numa.nodes);
    if (ec != std::errc() || ptr != end) {
      throw std::invalid_argument("numa takes a node count (0 or 1 = UMA), "
                                  "got '" + nodes + "'; set K with --numa-k");
    }
  }
  if (const std::string k = params.get("numa-k"); !k.empty()) {
    char* end = nullptr;
    numa.k = std::strtod(k.c_str(), &end);
    if (*end != '\0' || !(numa.k > 0) || !std::isfinite(numa.k)) {
      throw std::invalid_argument("numa-k takes a positive weight K, got '" +
                                  k + "'");
    }
  }
  numa.nodes = std::min(numa.nodes, threads);
  return numa;
}

double expected_internal_fraction(const NumaOptions& numa, unsigned threads,
                                  bool exclude_own_queue) {
  if (numa.nodes <= 1 || threads == 0) return 1.0;
  // The sampler treats K <= 1 as uniform (core/numa_sampler.h).
  return Topology(threads, numa.nodes)
      .expected_internal_fraction(std::max(numa.k, 1.0), exclude_own_queue);
}

const std::vector<Tunable>& numa_tunables() {
  static const std::vector<Tunable> tunables = {
      {"numa", "0", "virtual NUMA nodes, a node count (0 or 1 = UMA)"},
      {"numa-k", std::to_string(kDefaultNumaK),
       "remote-queue sampling weight divisor K (with numa >= 2)"},
  };
  return tunables;
}

SmqConfig make_smq_config(unsigned threads, const ParamMap& params,
                          std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = build_topology(params, threads, topology);
  SmqConfig cfg;
  cfg.steal_size = size_knob(params, "steal-size", 4);
  cfg.p_steal = params.get_probability("p-steal", 1.0 / 8.0);
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

OptimizedMqConfig make_optimized_mq_config(unsigned threads,
                                           const ParamMap& params,
                                           std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = build_topology(params, threads, topology);
  OptimizedMqConfig cfg;
  cfg.queue_multiplier = static_cast<unsigned>(size_knob(params, "c", 4));
  cfg.insert_batch = size_knob(params, "insert-batch", 16);
  cfg.p_insert_change = params.get_probability("p-insert", 1.0);
  cfg.delete_batch = size_knob(params, "delete-batch", 16);
  cfg.p_delete_change = params.get_probability("p-delete", 1.0);
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

OptimizedMqConfig make_classic_mq_config(unsigned threads,
                                         const ParamMap& params,
                                         std::shared_ptr<Topology>& topology) {
  ParamMap classic = params;
  for (const char* key :
       {"insert-batch", "p-insert", "delete-batch", "p-delete"}) {
    classic.set(key, "1");
  }
  return make_optimized_mq_config(threads, classic, topology);
}

ReldConfig make_reld_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology) {
  const NumaOptions numa = build_topology(params, threads, topology);
  ReldConfig cfg;
  cfg.queue_multiplier = static_cast<unsigned>(size_knob(params, "c", 1));
  cfg.seed = params.get_uint("seed", 1);
  cfg.topology = topology.get();
  cfg.numa_weight_k = numa.k;
  return cfg;
}

ObimConfig make_obim_config(unsigned threads, const ParamMap& params,
                            std::shared_ptr<Topology>& topology) {
  build_topology(params, threads, topology);  // OBIM takes no K
  ObimConfig cfg;
  cfg.chunk_size = size_knob(params, "chunk-size", 64);
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

#include "sched/topology.h"

#include <cassert>

namespace smq {

Topology::Topology(unsigned num_threads, unsigned num_nodes)
    : num_threads_(num_threads),
      num_nodes_(num_nodes == 0 ? 1 : num_nodes),
      thread_node_(num_threads) {
  // A node with no threads would own no queues and break every
  // per-node invariant downstream (sampler groups, bag sharding).
  if (num_threads_ > 0 && num_nodes_ > num_threads_) num_nodes_ = num_threads_;
  node_threads_.resize(num_nodes_);
  // Balanced blocked assignment: contiguous thread-id ranges share a
  // node, the first T % N nodes take one extra thread. Plain ceil
  // division left trailing nodes empty whenever T % N != 0 (6 threads
  // over 4 nodes gave occupancy 2/2/2/0 instead of 2/2/1/1).
  const unsigned base = num_nodes_ == 0 ? 0 : num_threads / num_nodes_;
  const unsigned extra = num_nodes_ == 0 ? 0 : num_threads % num_nodes_;
  unsigned tid = 0;
  for (unsigned node = 0; node < num_nodes_; ++node) {
    const unsigned span = base + (node < extra ? 1 : 0);
    for (unsigned i = 0; i < span; ++i, ++tid) {
      thread_node_[tid] = node;
      node_threads_[node].push_back(tid);
    }
  }
  assert(tid == num_threads_ && "every thread must land on exactly one node");
  for (unsigned node = 0; num_threads_ > 0 && node < num_nodes_; ++node) {
    assert(!node_threads_[node].empty() && "no node may be left empty");
  }
}

double Topology::expected_internal_fraction(double k_weight,
                                            bool exclude_own_queue) const
    noexcept {
  if (num_threads_ == 0) return 0.0;
  // E = sum_i (T_i / T) * L_i / W_i with W_i = L_i + sum_{j!=i} T_j*C/K and
  // L_i = T_i*C local candidates (T_i - 1 with C = 1 when the chooser's
  // own queue is excluded). Otherwise the queue multiplier C cancels.
  double total = 0;
  for (unsigned node = 0; node < num_nodes_; ++node) {
    const double ti = static_cast<double>(node_threads_[node].size());
    const double local = exclude_own_queue ? ti - 1 : ti;
    const double remote = static_cast<double>(num_threads_) - ti;
    const double wi = local + remote / k_weight;
    if (wi > 0) total += (ti / num_threads_) * (local / wi);
  }
  return total;
}

}  // namespace smq

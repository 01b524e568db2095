// Simulated NUMA topology.
//
// The paper's NUMA-aware sampling (Section 4) only needs to know which
// *node* a thread and a queue belong to, and with what weight a remote
// queue should be sampled. Real sockets are not available in this
// environment (documented in DESIGN.md), so the topology is virtual:
// threads are partitioned round-robin into `nodes` groups. The sampling
// code path is identical to a physical-NUMA deployment.
#pragma once

#include <cstdint>
#include <vector>

namespace smq {

class Topology {
 public:
  /// Partition `num_threads` threads into `num_nodes` virtual NUMA nodes,
  /// blocked (threads [0, ceil/floor splits) on node 0, ...), mirroring
  /// how cores are numbered on the paper's EPYC/Xeon machines. The split
  /// is balanced: node occupancies differ by at most one, and no node is
  /// ever left empty (num_nodes is clamped to num_threads).
  Topology(unsigned num_threads, unsigned num_nodes);

  /// Single-node fallback (UMA).
  static Topology uma(unsigned num_threads) { return Topology(num_threads, 1); }

  unsigned num_threads() const noexcept { return num_threads_; }
  unsigned num_nodes() const noexcept { return num_nodes_; }

  unsigned node_of_thread(unsigned tid) const noexcept {
    return thread_node_[tid];
  }

  /// Threads living on `node`.
  const std::vector<unsigned>& threads_of_node(unsigned node) const noexcept {
    return node_threads_[node];
  }

  /// Expected fraction of queue choices that stay on the chooser's node
  /// when remote queues get weight 1/K — the paper's "NUMA-friendliness"
  /// metric E (Section 4). Assumes queues are distributed like threads.
  /// `exclude_own_queue` is SMQ's steal-victim choice: one queue per
  /// thread, drawn among the other T - 1 threads, so a node of T_i
  /// threads offers T_i - 1 local candidates.
  double expected_internal_fraction(double k_weight,
                                    bool exclude_own_queue = false) const
      noexcept;

 private:
  unsigned num_threads_;
  unsigned num_nodes_;
  std::vector<unsigned> thread_node_;
  std::vector<std::vector<unsigned>> node_threads_;
};

}  // namespace smq

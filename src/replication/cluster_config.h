#ifndef NASHDB_REPLICATION_CLUSTER_CONFIG_H_
#define NASHDB_REPLICATION_CLUSTER_CONFIG_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "replication/replication.h"

namespace nashdb {

/// Flat fragment handle within a ClusterConfig (index into `fragments`).
using FlatFragmentId = std::uint32_t;

/// A complete cluster configuration (paper §6): the fragment list with
/// replica counts, the provisioned node count, and the replica→node
/// assignment. Invariants (checked by Valid()):
///   - no node stores two replicas of the same fragment,
///   - per-node used space <= params.node_disk,
///   - each fragment f appears on exactly f.replicas distinct nodes.
class ClusterConfig {
 public:
  ClusterConfig() = default;
  ClusterConfig(ReplicationParams params, std::vector<FragmentInfo> fragments)
      : params_(params),
        fragments_(std::move(fragments)),
        fragment_nodes_(fragments_.size()) {}

  const ReplicationParams& params() const { return params_; }
  const std::vector<FragmentInfo>& fragments() const { return fragments_; }
  const FragmentInfo& fragment(FlatFragmentId id) const {
    return fragments_[id];
  }

  std::size_t node_count() const { return node_fragments_.size(); }

  /// Fragments stored on `node`.
  const std::vector<FlatFragmentId>& NodeFragments(NodeId node) const {
    return node_fragments_[node];
  }

  /// Nodes holding a replica of `frag`.
  const std::vector<NodeId>& FragmentNodes(FlatFragmentId frag) const {
    return fragment_nodes_[frag];
  }

  /// Tuples stored on `node`.
  TupleCount NodeUsage(NodeId node) const;

  /// Total monetary cost of the cluster per unit time (= nodes * rent).
  Money CostPerPeriod() const {
    return static_cast<Money>(node_count()) * params_.node_cost;
  }

  /// Total tuples stored across all replicas on all nodes.
  TupleCount TotalStoredTuples() const;

  /// Appends an empty node, returning its id.
  NodeId AddNode();

  /// Places one replica of `frag` on `node`. CHECK-fails on duplicate or
  /// capacity violation.
  void Place(NodeId node, FlatFragmentId frag);

  /// True if the node has room for `size` more tuples.
  bool Fits(NodeId node, TupleCount size) const {
    return NodeUsage(node) + size <= params_.node_disk;
  }

  /// True if `node` already stores `frag`.
  bool Holds(NodeId node, FlatFragmentId frag) const;

  /// Validates all configuration invariants; returns false with no side
  /// effects on violation.
  bool Valid() const;

  /// Test-only seam: overwrites the economic parameters in place. The
  /// checked mutators (Place) refuse to *build* invariant-violating
  /// states, so the ValidateConfig corruption tests (engine/validate.h)
  /// use this to create them after the fact — e.g. shrinking node_disk
  /// below what a node already stores yields an over-capacity node.
  void SetParamsForTest(const ReplicationParams& params) { params_ = params; }

 private:
  ReplicationParams params_;
  std::vector<FragmentInfo> fragments_;
  std::vector<std::vector<FlatFragmentId>> node_fragments_;
  std::vector<std::vector<NodeId>> fragment_nodes_;
  std::vector<TupleCount> node_usage_;
};

}  // namespace nashdb

#endif  // NASHDB_REPLICATION_CLUSTER_CONFIG_H_

// Pairwise oracle for the §7 overlap graph (transition/edge_cost.h): every
// (old, new) node pair priced straight from the paper's definition,
//   overlap(i, j) = |Data(j)| - |Data(j) - Data(i)|,
// with NodeData::TuplesNotIn. O(n_old * n_new) pair walks, so it is for
// test- and bench-sized instances only. transition_sparse_test compares
// BuildTransitionGraph with it edge for edge; bench_transition_scale
// checks every graph it times against it up to its dense cap.

#ifndef NASHDB_TESTS_TRANSITION_ORACLE_H_
#define NASHDB_TESTS_TRANSITION_ORACLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"
#include "transition/edge_cost.h"
#include "transition/planner.h"

namespace nashdb {
namespace oracle {

/// The overlap graph old_config -> new_config priced pair by pair. Old
/// nodes flagged in `old_node_dead` hold nothing readable, so they share
/// no tuples with any new node. Edges carry positive overlaps only and are
/// in (new_node, old_node) order.
inline TransitionGraph PairwiseTransitionGraph(
    const ClusterConfig& old_config, const ClusterConfig& new_config,
    const std::vector<bool>* old_node_dead) {
  TransitionGraph graph;
  graph.n_old = old_config.node_count();
  graph.n_new = new_config.node_count();
  std::vector<NodeData> old_data;
  old_data.reserve(graph.n_old);
  for (NodeId i = 0; i < graph.n_old; ++i) {
    const bool dead = old_node_dead != nullptr &&
                      i < old_node_dead->size() && (*old_node_dead)[i];
    old_data.push_back(dead ? NodeData() : NodeData::Of(old_config, i));
  }
  for (NodeId j = 0; j < graph.n_new; ++j) {
    const NodeData data = NodeData::Of(new_config, j);
    const TupleCount total = data.TotalTuples();
    graph.new_total.push_back(total);
    for (NodeId i = 0; i < graph.n_old; ++i) {
      const TupleCount overlap = total - data.TuplesNotIn(old_data[i]);
      if (overlap > 0) graph.edges.push_back(TransitionEdge{i, j, overlap});
    }
  }
  return graph;
}

/// Empty when `a` and `b` are the same graph (sizes, every new_total and
/// every edge in order); otherwise names the first difference.
inline std::string DiffGraphs(const TransitionGraph& a,
                              const TransitionGraph& b) {
  if (a.n_old != b.n_old || a.n_new != b.n_new) {
    return "node counts differ: " + std::to_string(a.n_old) + "x" +
           std::to_string(a.n_new) + " vs " + std::to_string(b.n_old) +
           "x" + std::to_string(b.n_new);
  }
  if (a.new_total != b.new_total) return "new_total differs";
  const std::size_t common =
      a.edges.size() < b.edges.size() ? a.edges.size() : b.edges.size();
  for (std::size_t e = 0; e < common; ++e) {
    const TransitionEdge& x = a.edges[e];
    const TransitionEdge& y = b.edges[e];
    if (x.old_node != y.old_node || x.new_node != y.new_node ||
        x.overlap != y.overlap) {
      return "edge " + std::to_string(e) + " differs: (" +
             std::to_string(x.old_node) + ", " + std::to_string(x.new_node) +
             ", " + std::to_string(x.overlap) + ") vs (" +
             std::to_string(y.old_node) + ", " + std::to_string(y.new_node) +
             ", " + std::to_string(y.overlap) + ")";
    }
  }
  if (a.edges.size() != b.edges.size()) {
    return "edge counts differ: " + std::to_string(a.edges.size()) + " vs " +
           std::to_string(b.edges.size());
  }
  return "";
}

}  // namespace oracle
}  // namespace nashdb

#endif  // NASHDB_TESTS_TRANSITION_ORACLE_H_

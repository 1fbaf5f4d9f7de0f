#include "transition/edge_cost.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

/// A (table, position) boundary between elementary segments, ordered by
/// (table, position) so one sorted list covers every table.
struct Cut {
  TableId table = 0;
  TupleIndex pos = 0;

  friend bool operator==(const Cut&, const Cut&) = default;
  friend bool operator<(const Cut& a, const Cut& b) {
    if (a.table != b.table) return a.table < b.table;
    return a.pos < b.pos;
  }
};

/// The old configuration cut at every fragment endpoint into elementary
/// segments. Segment k spans [cuts[k].pos, cuts[k+1].pos) of
/// cuts[k].table; each live old node whose coalesced intervals cover it is
/// listed once in holders[holder_begin[k], holder_begin[k+1]). A segment
/// whose two cuts lie in different tables has no holders.
struct OldSegments {
  std::vector<Cut> cuts;
  std::vector<std::size_t> holder_begin;  ///< size cuts.size() (CSR).
  std::vector<NodeId> holders;
};

bool IsDead(const std::vector<bool>* dead, NodeId m) {
  return dead != nullptr && m < dead->size() && (*dead)[m];
}

/// Cuts the old configuration at every fragment endpoint into elementary
/// segments and lists, per segment, the live old nodes (not flagged in
/// `dead`) holding a fragment that covers it. A node's coalesced interval
/// set (NodeData::Of) is the union of its fragments' ranges, so it covers
/// exactly the segments it is listed on; a node holding two overlapping
/// fragments is listed once.
OldSegments CutOldFragments(const ClusterConfig& config,
                            const std::vector<bool>* dead) {
  const std::vector<FragmentInfo>& frags = config.fragments();
  const auto start_of = [&](FlatFragmentId f) {
    return Cut{frags[f].table, frags[f].range.start};
  };
  // Non-empty fragments by (table, start). Configurations list each
  // table's fragments in position order, so both sorts are usually skipped.
  std::vector<FlatFragmentId> order;
  order.reserve(frags.size());
  for (FlatFragmentId f = 0; f < frags.size(); ++f) {
    if (!frags[f].range.empty()) order.push_back(f);
  }
  const auto by_start = [&](FlatFragmentId a, FlatFragmentId b) {
    return start_of(a) < start_of(b);
  };
  if (!std::is_sorted(order.begin(), order.end(), by_start)) {
    std::sort(order.begin(), order.end(), by_start);
  }
  OldSegments seg;
  if (order.empty()) return seg;
  seg.cuts.reserve(2 * order.size());
  for (const FlatFragmentId f : order) {
    seg.cuts.push_back(start_of(f));
    seg.cuts.push_back(Cut{frags[f].table, frags[f].range.end});
  }
  if (!std::is_sorted(seg.cuts.begin(), seg.cuts.end())) {
    std::sort(seg.cuts.begin(), seg.cuts.end());
  }
  seg.cuts.erase(std::unique(seg.cuts.begin(), seg.cuts.end()),
                 seg.cuts.end());

  // Segment span [first, second) of each fragment in `order`: the first
  // segment only moves forward along the start order.
  std::vector<std::pair<std::size_t, std::size_t>> spans(order.size());
  std::size_t k0 = 0;
  for (std::size_t o = 0; o < order.size(); ++o) {
    const FlatFragmentId f = order[o];
    while (seg.cuts[k0] < start_of(f)) ++k0;
    const Cut end{frags[f].table, frags[f].range.end};
    std::size_t k1 = k0;
    while (seg.cuts[k1] < end) ++k1;
    spans[o] = {k0, k1};
  }

  // Visits every (segment, live holder) pair once. A node's fragments come
  // in start order, so the segments it already covers are exactly those
  // below covered_until[node].
  std::vector<std::size_t> covered_until;
  const auto for_each_holder = [&](auto&& visit) {
    covered_until.assign(config.node_count(), 0);
    for (std::size_t o = 0; o < order.size(); ++o) {
      for (const NodeId m : config.FragmentNodes(order[o])) {
        if (IsDead(dead, m)) continue;
        const std::size_t from = std::max(spans[o].first, covered_until[m]);
        for (std::size_t k = from; k < spans[o].second; ++k) visit(k, m);
        covered_until[m] = std::max(covered_until[m], spans[o].second);
      }
    }
  };
  // Counting pass, prefix sum, then fill.
  seg.holder_begin.assign(seg.cuts.size(), 0);
  for_each_holder([&](std::size_t k, NodeId) { ++seg.holder_begin[k + 1]; });
  for (std::size_t k = 1; k < seg.holder_begin.size(); ++k) {
    seg.holder_begin[k] += seg.holder_begin[k - 1];
  }
  seg.holders.resize(seg.holder_begin.back());
  std::vector<std::size_t> fill(seg.holder_begin.begin(),
                                seg.holder_begin.end() - 1);
  for_each_holder([&](std::size_t k, NodeId m) { seg.holders[fill[k]++] = m; });
  return seg;
}

/// Adds |iv ∩ segment| to acc[h] for every holder h of every segment that
/// `iv` intersects, appending each old node seen for the first time (its
/// accumulator was 0) to `touched`.
void AccumulateOverlaps(const OldSegments& seg, const NodeData::Interval& iv,
                        std::vector<TupleCount>* acc,
                        std::vector<NodeId>* touched) {
  if (iv.range.empty() || seg.cuts.empty()) return;
  const Cut end{iv.table, iv.range.end};
  // First segment whose right cut lies past the interval's start.
  const auto first_after = std::upper_bound(
      seg.cuts.begin(), seg.cuts.end(), Cut{iv.table, iv.range.start});
  std::size_t k = first_after == seg.cuts.begin()
                      ? 0
                      : static_cast<std::size_t>(first_after -
                                                 seg.cuts.begin()) - 1;
  for (; k + 1 < seg.cuts.size() && seg.cuts[k] < end; ++k) {
    const std::size_t hb = seg.holder_begin[k];
    const std::size_t he = seg.holder_begin[k + 1];
    if (hb == he) continue;  // gap, or the cut pair straddles two tables
    const TupleCount overlap =
        iv.range.Intersect(TupleRange{seg.cuts[k].pos, seg.cuts[k + 1].pos})
            .size();
    if (overlap == 0) continue;
    for (std::size_t h = hb; h < he; ++h) {
      const NodeId old_node = seg.holders[h];
      if ((*acc)[old_node] == 0) touched->push_back(old_node);
      (*acc)[old_node] += overlap;
    }
  }
}

}  // namespace

TransitionGraph BuildTransitionGraph(const ClusterConfig& old_config,
                                     const ClusterConfig& new_config,
                                     const std::vector<bool>* old_node_dead) {
  TransitionGraph graph;
  graph.n_old = old_config.node_count();
  graph.n_new = new_config.node_count();
  graph.new_total.assign(graph.n_new, 0);

  const OldSegments seg = CutOldFragments(old_config, old_node_dead);
  // One dense scratch row over the old nodes, reset through `touched`
  // after each new node, so a new node's edges come out sorted by old
  // node with no global sort.
  std::vector<TupleCount> acc(graph.n_old, 0);
  std::vector<NodeId> touched;
  for (NodeId j = 0; j < graph.n_new; ++j) {
    const NodeData data = NodeData::Of(new_config, j);
    for (const NodeData::Interval& iv : data.intervals()) {
      graph.new_total[j] += iv.range.size();
      AccumulateOverlaps(seg, iv, &acc, &touched);
    }
    std::sort(touched.begin(), touched.end());
    for (const NodeId i : touched) {
      graph.edges.push_back(TransitionEdge{i, j, acc[i]});
      acc[i] = 0;
    }
    touched.clear();
  }
  return graph;
}

std::vector<std::vector<double>> DenseCostMatrix(const TransitionGraph& graph) {
  const std::size_t n = std::max(graph.n_old, graph.n_new);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  // Base fill: every real new column j costs its full bootstrap |Data(j)|
  // from any row (real or dummy); dummy columns (decommission) cost 0.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < graph.n_new; ++j) {
      cost[i][j] = static_cast<double>(graph.new_total[j]);
    }
  }
  // Discount the non-trivial edges: cost(i, j) = |Data(j)| - overlap(i, j).
  for (const TransitionEdge& e : graph.edges) {
    NASHDB_DCHECK(e.old_node < graph.n_old && e.new_node < graph.n_new);
    NASHDB_DCHECK(e.overlap <= graph.new_total[e.new_node]);
    cost[e.old_node][e.new_node] =
        static_cast<double>(graph.new_total[e.new_node] - e.overlap);
  }
  return cost;
}

}  // namespace nashdb

// Property tests for the scalable control plane (DESIGN.md "Scalable
// control plane"): the overlap graph must equal the pairwise §7 oracle
// edge for edge, the sparse successive-shortest-paths matcher must be
// bit-identical in total plan cost to the dense Hungarian solver on every
// instance, the parallel BFFD packer must produce the same configuration
// as the historical serial scan, and the streaming validators must report
// the same verdict (and the same first error) with and without a pool.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/validate.h"
#include "replication/cluster_config.h"
#include "replication/packer.h"
#include "replication/replication.h"
#include "transition/edge_cost.h"
#include "transition/planner.h"
#include "transition/sparse_matching.h"
#include "transition_oracle.h"

namespace nashdb {
namespace {

ReplicationParams Params(TupleCount disk) {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = disk;
  p.window_scans = 50;
  return p;
}

// Random fragment tiling: `tables` tables of `table_size` tuples each,
// fragment lengths uniform in [min_frag, max_frag], replica counts
// uniform in [1, max_replicas].
std::vector<FragmentInfo> RandomFragments(Rng& rng, std::size_t tables,
                                          TupleCount table_size,
                                          TupleCount min_frag,
                                          TupleCount max_frag,
                                          std::size_t max_replicas) {
  std::vector<FragmentInfo> frags;
  for (std::size_t t = 0; t < tables; ++t) {
    TupleCount start = 0;
    FragmentId index = 0;
    while (start < table_size) {
      const TupleCount len = std::min<TupleCount>(
          table_size - start, rng.UniformRange(min_frag, max_frag + 1));
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = index++;
      f.range = TupleRange{start, start + len};
      f.value = 1.0;
      f.replicas = 1 + rng.Uniform(max_replicas);
      frags.push_back(f);
      start += len;
    }
  }
  return frags;
}

ClusterConfig RandomConfig(Rng& rng, std::size_t tables,
                           TupleCount table_size, TupleCount min_frag,
                           TupleCount max_frag, std::size_t max_replicas,
                           TupleCount disk) {
  auto frags = RandomFragments(rng, tables, table_size, min_frag, max_frag,
                               max_replicas);
  auto config = PackReplicasBffd(Params(disk), std::move(frags));
  return std::move(config).value();
}

// Runs both solvers on the same instance and asserts the exactness
// contract: identical total transfer cost (integers, so bit-identical),
// both plans validated, and consistent added/removed bookkeeping.
void CheckSolversAgree(const ClusterConfig& old_config,
                       const ClusterConfig& new_config,
                       const std::vector<bool>* dead, const char* what) {
  TransitionPlannerOptions dense_opts;
  dense_opts.solver = TransitionSolver::kDense;
  TransitionPlannerOptions sparse_opts;
  sparse_opts.solver = TransitionSolver::kSparse;

  const TransitionPlan dense =
      PlanTransition(old_config, new_config, dead, dense_opts);
  const TransitionPlan sparse =
      PlanTransition(old_config, new_config, dead, sparse_opts);

  EXPECT_FALSE(dense.stats.used_sparse) << what;
  EXPECT_TRUE(sparse.stats.used_sparse) << what;
  EXPECT_EQ(dense.total_transfer_tuples, sparse.total_transfer_tuples)
      << what;

  const Status dense_ok =
      ValidatePlan(dense, old_config, new_config, dead);
  const Status sparse_ok =
      ValidatePlan(sparse, old_config, new_config, dead);
  EXPECT_TRUE(dense_ok.ok()) << what << ": " << dense_ok.ToString();
  EXPECT_TRUE(sparse_ok.ok()) << what << ": " << sparse_ok.ToString();

  // Net node-count delta is fixed by the instance; both plans must agree.
  const auto net = static_cast<std::int64_t>(new_config.node_count()) -
                   static_cast<std::int64_t>(old_config.node_count());
  EXPECT_EQ(static_cast<std::int64_t>(dense.nodes_added) -
                static_cast<std::int64_t>(dense.nodes_removed),
            net)
      << what;
  EXPECT_EQ(static_cast<std::int64_t>(sparse.nodes_added) -
                static_cast<std::int64_t>(sparse.nodes_removed),
            net)
      << what;
}

// ------------------------------------------------- overlap graph oracle

void ExpectGraphMatchesOracle(const ClusterConfig& old_config,
                              const ClusterConfig& new_config,
                              const std::vector<bool>* dead,
                              const std::string& what) {
  const TransitionGraph graph =
      BuildTransitionGraph(old_config, new_config, dead);
  const TransitionGraph want =
      oracle::PairwiseTransitionGraph(old_config, new_config, dead);
  EXPECT_EQ(oracle::DiffGraphs(graph, want), "") << what;
}

// A random tiling of `tables` tables with about a fifth of its fragments
// dropped, so each table has holes no node covers; table ids start at
// `first_table`.
std::vector<FragmentInfo> GappyFragments(Rng& rng, std::size_t tables,
                                         TableId first_table) {
  std::vector<FragmentInfo> frags;
  for (FragmentInfo f : RandomFragments(rng, tables, 300 + rng.Uniform(400),
                                        5, 60, 3)) {
    if (rng.Uniform(5) == 0) continue;
    f.table += first_table;
    frags.push_back(f);
  }
  return frags;
}

TEST(TransitionGraphTest, MatchesPairwiseOracle) {
  Rng rng(20261020);
  for (int trial = 0; trial < 16; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    // Different disks give n_old != n_new; shifting the new epoch's table
    // ids by one leaves a table only the old side holds and one only the
    // new side holds.
    const TableId shift = static_cast<TableId>(trial % 2);
    auto old_config = PackReplicasBffd(Params(80 + rng.Uniform(200)),
                                       GappyFragments(rng, 3, 0));
    auto new_config = PackReplicasBffd(Params(80 + rng.Uniform(200)),
                                       GappyFragments(rng, 3, shift));
    ASSERT_TRUE(old_config.ok()) << what;
    ASSERT_TRUE(new_config.ok()) << what;
    ExpectGraphMatchesOracle(*old_config, *new_config, nullptr, what);

    std::vector<bool> dead(old_config->node_count(), false);
    for (std::size_t m = 0; m < dead.size(); ++m) {
      dead[m] = rng.Uniform(3) == 0;
    }
    ExpectGraphMatchesOracle(*old_config, *new_config, &dead,
                             what + " some dead");
    // A short bitmap leaves the nodes past its end alive.
    dead.resize(dead.size() / 2);
    ExpectGraphMatchesOracle(*old_config, *new_config, &dead,
                             what + " short bitmap");
    const std::vector<bool> all_dead(old_config->node_count(), true);
    const TransitionGraph none =
        BuildTransitionGraph(*old_config, *new_config, &all_dead);
    EXPECT_TRUE(none.edges.empty()) << what;
    ExpectGraphMatchesOracle(*old_config, *new_config, &all_dead,
                             what + " all dead");
  }

  // Adjacent fragments on one node coalesce into one interval, and that
  // interval meets another node's interval across the shared boundary.
  std::vector<FragmentInfo> frags(4);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    frags[i].table = 0;
    frags[i].index_in_table = static_cast<FragmentId>(i);
    frags[i].range = TupleRange{10 * i, 10 * (i + 1)};
    frags[i].replicas = 1;
  }
  auto old_config =
      BuildConfigFromPlacement(Params(100), frags, {{0, 1, 2}, {3}});
  auto new_config =
      BuildConfigFromPlacement(Params(100), frags, {{1, 2, 3}, {0}, {}});
  ASSERT_TRUE(old_config.ok());
  ASSERT_TRUE(new_config.ok());
  ExpectGraphMatchesOracle(*old_config, *new_config, nullptr, "adjacent");
  const TransitionGraph graph =
      BuildTransitionGraph(*old_config, *new_config, nullptr);
  ASSERT_EQ(graph.edges.size(), 3u);
  EXPECT_EQ(graph.edges[0].overlap, 20u);  // old 0 [0,30) vs new 0 [10,40)
  EXPECT_EQ(graph.edges[1].overlap, 10u);  // old 1 [30,40) vs new 0
  EXPECT_EQ(graph.edges[2].overlap, 10u);  // old 0 vs new 1 [0,10)
  EXPECT_EQ(graph.new_total, (std::vector<TupleCount>{30, 10, 0}));

  // Overlapping fragments, listed out of position order: two tilings of
  // the same tables in one configuration, so a node can hold two fragments
  // that share tuples and must count those tuples once.
  for (int trial = 0; trial < 6; ++trial) {
    const std::string what = "overlapping trial " + std::to_string(trial);
    auto two_schemes = [&rng] {
      std::vector<FragmentInfo> frags = GappyFragments(rng, 2, 0);
      for (const FragmentInfo& f : GappyFragments(rng, 2, 0)) {
        frags.push_back(f);
      }
      return frags;
    };
    auto old_overlap = PackReplicasBffd(Params(300), two_schemes());
    auto new_overlap = PackReplicasBffd(Params(300), two_schemes());
    ASSERT_TRUE(old_overlap.ok()) << what;
    ASSERT_TRUE(new_overlap.ok()) << what;
    ExpectGraphMatchesOracle(*old_overlap, *new_overlap, nullptr, what);
    std::vector<bool> dead(old_overlap->node_count(), false);
    for (std::size_t m = 0; m < dead.size(); m += 3) dead[m] = true;
    ExpectGraphMatchesOracle(*old_overlap, *new_overlap, &dead,
                             what + " some dead");
  }
  std::vector<FragmentInfo> nested(3);
  nested[0].range = TupleRange{10, 30};
  nested[1].range = TupleRange{0, 20};
  nested[2].range = TupleRange{12, 15};
  for (FragmentInfo& f : nested) f.replicas = 1;
  auto old_nested =
      BuildConfigFromPlacement(Params(100), nested, {{0, 1, 2}, {2}});
  auto new_nested = BuildConfigFromPlacement(Params(100), nested, {{0}});
  ASSERT_TRUE(old_nested.ok());
  ASSERT_TRUE(new_nested.ok());
  ExpectGraphMatchesOracle(*old_nested, *new_nested, nullptr, "nested");
  const TransitionGraph nested_graph =
      BuildTransitionGraph(*old_nested, *new_nested, nullptr);
  ASSERT_EQ(nested_graph.edges.size(), 2u);
  EXPECT_EQ(nested_graph.edges[0].overlap, 20u);  // [0,30) vs [10,30)
  EXPECT_EQ(nested_graph.edges[1].overlap, 3u);   // [12,15) vs [10,30)

  // Fragments and nodes but no placement at all.
  ClusterConfig unplaced(Params(100), nested);
  unplaced.AddNode();
  ExpectGraphMatchesOracle(unplaced, *new_nested, nullptr, "unplaced old");
  ExpectGraphMatchesOracle(*new_nested, unplaced, nullptr, "unplaced new");

  // Empty sides: nothing to overlap, but new_total still prices the new
  // nodes.
  Rng side_rng(5);
  const ClusterConfig some = RandomConfig(side_rng, 2, 300, 10, 40, 2, 100);
  const ClusterConfig empty;
  ExpectGraphMatchesOracle(empty, some, nullptr, "empty old");
  ExpectGraphMatchesOracle(some, empty, nullptr, "empty new");
  ExpectGraphMatchesOracle(empty, empty, nullptr, "both empty");
}

// ------------------------------------------------- randomized instances

TEST(SparseMatchingPropertyTest, MatchesDenseOnRandomInstances) {
  Rng rng(20260808);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t tables = 1 + rng.Uniform(3);
    const TupleCount table_size = 200 + rng.Uniform(800);
    // Varying fragment granularity varies the overlap-graph sparsity:
    // coarse fragments give few nodes with heavy pairwise overlap, fine
    // fragments spread data over many nodes with local overlap.
    const TupleCount min_frag = 5 + rng.Uniform(20);
    const TupleCount max_frag = min_frag + 10 + rng.Uniform(60);
    const TupleCount disk = max_frag + rng.Uniform(4 * max_frag);
    const std::size_t max_replicas = 1 + rng.Uniform(3);

    const ClusterConfig old_config = RandomConfig(
        rng, tables, table_size, min_frag, max_frag, max_replicas, disk);
    // New epoch: re-tile the same tables with fresh boundaries and
    // replica counts — overlap-rich but never identical.
    const ClusterConfig new_config = RandomConfig(
        rng, tables, table_size, min_frag, max_frag, max_replicas, disk);

    const std::string what = "trial " + std::to_string(trial);
    CheckSolversAgree(old_config, new_config, nullptr, what.c_str());
  }
}

TEST(SparseMatchingPropertyTest, MatchesDenseWhenTablesDiverge) {
  // Low-overlap regime: the new epoch drops one table and introduces
  // another, so many nodes route through the fresh-bootstrap bypass.
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    auto old_frags = RandomFragments(rng, 2, 400, 10, 60, 2);
    auto new_frags = RandomFragments(rng, 2, 400, 10, 60, 2);
    for (FragmentInfo& f : new_frags) f.table += 1;  // tables {1,2} vs {0,1}
    auto old_config = PackReplicasBffd(Params(120), std::move(old_frags));
    auto new_config = PackReplicasBffd(Params(120), std::move(new_frags));
    const std::string what = "diverge trial " + std::to_string(trial);
    CheckSolversAgree(*old_config, *new_config, nullptr, what.c_str());
  }
}

TEST(SparseMatchingPropertyTest, MatchesDenseWithDeadOldNodes) {
  Rng rng(7777);
  for (int trial = 0; trial < 8; ++trial) {
    const ClusterConfig old_config =
        RandomConfig(rng, 2, 500, 10, 50, 3, 150);
    const ClusterConfig new_config =
        RandomConfig(rng, 2, 500, 10, 50, 3, 150);
    std::vector<bool> dead(old_config.node_count(), false);
    for (std::size_t m = 0; m < dead.size(); ++m) {
      dead[m] = rng.Uniform(4) == 0;  // ~25% crashed
    }
    const std::string what = "dead trial " + std::to_string(trial);
    CheckSolversAgree(old_config, new_config, &dead, what.c_str());
  }
}

// --------------------------------------------------- degenerate corners

TEST(SparseMatchingPropertyTest, AllNewNodes) {
  // Old side empty: every new node is a fresh provision and the plan pays
  // the full data size of the new epoch.
  Rng rng(11);
  ClusterConfig empty;
  const ClusterConfig target = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  CheckSolversAgree(empty, target, nullptr, "all-new");

  TransitionPlannerOptions sparse_opts;
  sparse_opts.solver = TransitionSolver::kSparse;
  const TransitionPlan plan =
      PlanTransition(empty, target, nullptr, sparse_opts);
  const TransitionGraph graph = BuildTransitionGraph(empty, target, nullptr);
  EXPECT_EQ(plan.total_transfer_tuples, graph.TotalNewTuples());
  EXPECT_EQ(plan.nodes_added, target.node_count());
  EXPECT_EQ(plan.nodes_removed, 0u);
}

TEST(SparseMatchingPropertyTest, FullDecommission) {
  // New side empty: every old node is decommissioned at zero transfer.
  Rng rng(12);
  const ClusterConfig old_config = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  ClusterConfig empty;
  CheckSolversAgree(old_config, empty, nullptr, "full-decommission");

  TransitionPlannerOptions sparse_opts;
  sparse_opts.solver = TransitionSolver::kSparse;
  const TransitionPlan plan =
      PlanTransition(old_config, empty, nullptr, sparse_opts);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  EXPECT_EQ(plan.nodes_removed, old_config.node_count());
  EXPECT_EQ(plan.nodes_added, 0u);
}

TEST(SparseMatchingPropertyTest, ZeroFragmentConfigs) {
  // Nodes exist but store nothing (zero-length fragments): every edge
  // weight is zero, the overlap graph has no edges, and both solvers must
  // still emit a valid zero-cost perfect matching.
  std::vector<FragmentInfo> frags(3);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    frags[i].table = 0;
    frags[i].index_in_table = static_cast<FragmentId>(i);
    frags[i].range = TupleRange{10 * (i + 1), 10 * (i + 1)};  // empty
    frags[i].replicas = 1;
  }
  auto old_config =
      BuildConfigFromPlacement(Params(100), frags, {{0, 1}, {2}});
  auto new_config =
      BuildConfigFromPlacement(Params(100), frags, {{0}, {1}, {2}});
  CheckSolversAgree(*old_config, *new_config, nullptr, "zero-fragment");

  TransitionPlannerOptions sparse_opts;
  sparse_opts.solver = TransitionSolver::kSparse;
  const TransitionPlan plan =
      PlanTransition(*old_config, *new_config, nullptr, sparse_opts);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  EXPECT_EQ(plan.stats.graph_edges, 0u);
}

TEST(SparseMatchingPropertyTest, SolverIsDeterministic) {
  Rng rng(31);
  const ClusterConfig old_config = RandomConfig(rng, 2, 400, 10, 50, 2, 120);
  const ClusterConfig new_config = RandomConfig(rng, 2, 400, 10, 50, 2, 120);
  TransitionPlannerOptions sparse_opts;
  sparse_opts.solver = TransitionSolver::kSparse;
  const TransitionPlan a =
      PlanTransition(old_config, new_config, nullptr, sparse_opts);
  const TransitionPlan b =
      PlanTransition(old_config, new_config, nullptr, sparse_opts);
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].old_node, b.moves[i].old_node) << i;
    EXPECT_EQ(a.moves[i].new_node, b.moves[i].new_node) << i;
    EXPECT_EQ(a.moves[i].transfer_tuples, b.moves[i].transfer_tuples) << i;
  }
}

// ------------------------------------------------------- kAuto selector

TEST(SparseMatchingPropertyTest, AutoSelectorIsDenseBelowThreshold) {
  // At or below the threshold kAuto must be *bit-identical in moves* to
  // the historical dense solver, not merely equal in cost.
  Rng rng(41);
  const ClusterConfig old_config = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  const ClusterConfig new_config = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  ASSERT_LE(std::max(old_config.node_count(), new_config.node_count()),
            TransitionPlannerOptions{}.dense_threshold);

  const TransitionPlan automatic = PlanTransition(old_config, new_config);
  TransitionPlannerOptions dense_opts;
  dense_opts.solver = TransitionSolver::kDense;
  const TransitionPlan dense =
      PlanTransition(old_config, new_config, nullptr, dense_opts);

  EXPECT_FALSE(automatic.stats.used_sparse);
  ASSERT_EQ(automatic.moves.size(), dense.moves.size());
  for (std::size_t i = 0; i < dense.moves.size(); ++i) {
    EXPECT_EQ(automatic.moves[i].old_node, dense.moves[i].old_node) << i;
    EXPECT_EQ(automatic.moves[i].new_node, dense.moves[i].new_node) << i;
    EXPECT_EQ(automatic.moves[i].transfer_tuples,
              dense.moves[i].transfer_tuples)
        << i;
  }
}

TEST(SparseMatchingPropertyTest, AutoSelectorGoesSparseAboveThreshold) {
  Rng rng(42);
  const ClusterConfig old_config = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  const ClusterConfig new_config = RandomConfig(rng, 2, 300, 10, 40, 2, 100);
  TransitionPlannerOptions opts;
  opts.solver = TransitionSolver::kAuto;
  opts.dense_threshold = 1;  // force the sparse path on a tiny instance
  const TransitionPlan plan =
      PlanTransition(old_config, new_config, nullptr, opts);
  EXPECT_TRUE(plan.stats.used_sparse);

  TransitionPlannerOptions dense_opts;
  dense_opts.solver = TransitionSolver::kDense;
  const TransitionPlan dense =
      PlanTransition(old_config, new_config, nullptr, dense_opts);
  EXPECT_EQ(plan.total_transfer_tuples, dense.total_transfer_tuples);
}

// ----------------------------------------------- raw matcher invariants

TEST(SparseMatchingPropertyTest, MatchingIsInjectiveAndSkipsZeroOverlap) {
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const ClusterConfig old_config =
        RandomConfig(rng, 2, 400, 10, 50, 2, 120);
    const ClusterConfig new_config =
        RandomConfig(rng, 2, 400, 10, 50, 2, 120);
    const TransitionGraph graph =
        BuildTransitionGraph(old_config, new_config, nullptr);
    const SparseMatchingResult result = SolveMaxOverlapMatching(graph);
    ASSERT_EQ(result.new_to_old.size(), graph.n_new);
    std::vector<bool> used(graph.n_old, false);
    TupleCount overlap_sum = 0;
    for (std::size_t j = 0; j < graph.n_new; ++j) {
      const NodeId i = result.new_to_old[j];
      if (i == kInvalidNode) continue;  // fresh bootstrap
      ASSERT_LT(i, graph.n_old) << "trial " << trial;
      EXPECT_FALSE(used[i]) << "trial " << trial;  // injective
      used[i] = true;
      // A matched pair must correspond to a positive-overlap edge.
      const auto it = std::find_if(
          graph.edges.begin(), graph.edges.end(), [&](const TransitionEdge& e) {
            return e.new_node == j && e.old_node == i;
          });
      ASSERT_NE(it, graph.edges.end()) << "trial " << trial;
      EXPECT_GT(it->overlap, 0u) << "trial " << trial;
      overlap_sum += it->overlap;
    }
    EXPECT_EQ(result.total_overlap, overlap_sum) << "trial " << trial;
  }
}

// ----------------------------------------------------- parallel packing

// The historical serial BFFD loop, kept as a golden reference: fragments
// in (replicas desc, size desc, id asc) order, each replica on the first
// node in list order that fits and does not already hold the fragment.
Result<ClusterConfig> ReferencePack(const ReplicationParams& params,
                                    std::vector<FragmentInfo> fragments) {
  std::vector<FlatFragmentId> order(fragments.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<FlatFragmentId>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](FlatFragmentId a, FlatFragmentId b) {
              if (fragments[a].replicas != fragments[b].replicas) {
                return fragments[a].replicas > fragments[b].replicas;
              }
              if (fragments[a].size() != fragments[b].size()) {
                return fragments[a].size() > fragments[b].size();
              }
              return a < b;
            });
  std::vector<TupleCount> remaining;
  std::vector<std::vector<FlatFragmentId>> plan;
  for (const FlatFragmentId f : order) {
    const TupleCount need = fragments[f].size();
    for (std::size_t r = 0; r < fragments[f].replicas; ++r) {
      std::size_t target = plan.size();
      for (std::size_t m = 0; m < plan.size(); ++m) {
        const bool holds = std::find(plan[m].begin(), plan[m].end(), f) !=
                           plan[m].end();
        if (!holds && remaining[m] >= need) {
          target = m;
          break;
        }
      }
      if (target == plan.size()) {
        plan.emplace_back();
        remaining.push_back(params.node_disk);
      }
      plan[target].push_back(f);
      remaining[target] -= need;
    }
  }
  return BuildConfigFromPlacement(params, std::move(fragments), plan);
}

void ExpectSameConfig(const ClusterConfig& a, const ClusterConfig& b,
                      const char* what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  for (NodeId m = 0; m < a.node_count(); ++m) {
    EXPECT_EQ(a.NodeFragments(m), b.NodeFragments(m)) << what << " node "
                                                      << m;
  }
}

TEST(ParallelPackPropertyTest, PoolAndSerialAreBitIdentical) {
  Rng rng(61);
  ThreadPool pool(4);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t tables = 1 + rng.Uniform(4);
    const TupleCount table_size = 100 + rng.Uniform(900);
    auto frags = RandomFragments(rng, tables, table_size, 5, 80, 4);
    const TupleCount disk = 100 + rng.Uniform(200);
    const std::string what = "pack trial " + std::to_string(trial);

    auto serial = PackReplicasBffd(Params(disk), frags, nullptr);
    auto pooled = PackReplicasBffd(Params(disk), frags, &pool);
    auto golden = ReferencePack(Params(disk), frags);
    ASSERT_TRUE(serial.ok()) << what;
    ASSERT_TRUE(pooled.ok()) << what;
    ASSERT_TRUE(golden.ok()) << what;
    ExpectSameConfig(*serial, *pooled, what.c_str());
    ExpectSameConfig(*serial, *golden, what.c_str());
  }
}

// ------------------------------------------------- streaming validation

TEST(StreamingValidatePropertyTest, PoolAndSerialAgreeOnValidConfig) {
  Rng rng(71);
  ThreadPool pool(4);
  const ClusterConfig config = RandomConfig(rng, 3, 600, 10, 60, 3, 180);
  EXPECT_TRUE(ValidateConfig(config, nullptr).ok());
  EXPECT_TRUE(ValidateConfig(config, &pool).ok());
}

TEST(StreamingValidatePropertyTest, PoolAndSerialReportSameFirstError) {
  Rng rng(72);
  ThreadPool pool(4);
  ClusterConfig config = RandomConfig(rng, 3, 600, 10, 60, 3, 180);
  // Shrink the disk after packing: several nodes are now over capacity;
  // the deterministic contract says the lowest-index violation wins, with
  // or without a pool.
  config.SetParamsForTest(Params(20));
  const Status serial = ValidateConfig(config, nullptr);
  const Status pooled = ValidateConfig(config, &pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(serial.ToString(), pooled.ToString());
}

TEST(StreamingValidatePropertyTest, PlanPoolAndSerialReportSameFirstError) {
  Rng rng(73);
  ThreadPool pool(4);
  const ClusterConfig old_config = RandomConfig(rng, 2, 500, 10, 50, 2, 150);
  const ClusterConfig new_config = RandomConfig(rng, 2, 500, 10, 50, 2, 150);
  TransitionPlan plan = PlanTransition(old_config, new_config);

  EXPECT_TRUE(ValidatePlan(plan, old_config, new_config, nullptr, &pool).ok());

  // Tamper with every move: the serial and pooled passes must agree on
  // which (the first) to report.
  for (NodeTransition& move : plan.moves) move.transfer_tuples += 1;
  const Status serial = ValidatePlan(plan, old_config, new_config);
  const Status pooled =
      ValidatePlan(plan, old_config, new_config, nullptr, &pool);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(serial.ToString(), pooled.ToString());
}

}  // namespace
}  // namespace nashdb

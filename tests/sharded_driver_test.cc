// Sharded data-plane suite (DESIGN.md §11). The contracts under test:
// a 1-shard run reproduces the serial driver's QueryRecord stream bit
// for bit (all four routers); each shard of an N-shard run reproduces a
// serial run of exactly its partition; block size never changes results;
// the table-hash partitioner is deterministic; and merged billing counts
// per-cluster quantities (rent, bootstrap copy) once while summing real
// per-shard work. The multi-thread cases double as the TSan pass over
// the SPSC rings (this file carries the tsan label).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/config_index.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/sharded_driver.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "routing_oracle.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace nashdb {
namespace {

Workload ShardedWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 80;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

NashDbOptions ShardedSystemOptions() {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  return opts;
}

/// The single Bernoulli epoch above holds one fragment on two nodes, so
/// every scan there resolves to one request. This TPC-H epoch spreads
/// eight tables over many replicated fragments and several nodes, so
/// scans resolve to several requests and the routers' multi-request paths
/// (MaxOfMins' two- and many-request cores, GreedySC's postings) run.
Workload TpchShardedWorkload() {
  TpchOptions wopts;
  wopts.db_gb = 10.0;
  wopts.num_queries = 88;
  wopts.price = 0.5;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeTpchWorkload(wopts);
}

NashDbOptions TpchSystemOptions() {
  NashDbOptions opts;
  opts.window_scans = 300;
  opts.block_tuples = 5000;
  opts.node_disk = 300000;
  return opts;
}

/// The single configuration epoch both drivers run against, built the
/// same way RunWorkload's warmup_observe path builds it: observe the
/// whole workload, then one BuildConfig.
ClusterConfig BuildEpoch(const Workload& workload,
                         const NashDbOptions& opts = ShardedSystemOptions()) {
  NashDbSystem sys(workload.dataset, opts);
  for (const TimedQuery& tq : workload.queries) sys.Observe(tq.query);
  return sys.BuildConfig();
}

/// Serial reference: the regular driver on the same epoch regime (whole
/// workload observed up front, no reconfiguration, no faults).
RunResult RunSerial(const Workload& workload, ScanRouter* router,
                    std::size_t route_batch_size,
                    const NashDbOptions& opts = ShardedSystemOptions()) {
  NashDbSystem sys(workload.dataset, opts);
  DriverOptions dopts;
  dopts.warmup_observe = true;
  dopts.periodic_reconfigure = false;
  dopts.collect_metrics = false;
  dopts.route_batch_size = route_batch_size;
  return RunWorkload(workload, &sys, router, dopts);
}

void ExpectSameRecords(const std::vector<QueryRecord>& a,
                       const std::vector<QueryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
    // EXPECT_EQ on doubles is exact comparison — bit-identity is the
    // contract, not approximate agreement.
    EXPECT_EQ(a[i].price, b[i].price) << "record " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
    EXPECT_EQ(a[i].completion, b[i].completion) << "record " << i;
    EXPECT_EQ(a[i].latency_s, b[i].latency_s) << "record " << i;
    EXPECT_EQ(a[i].span, b[i].span) << "record " << i;
    EXPECT_EQ(a[i].tuples_read, b[i].tuples_read) << "record " << i;
  }
}

using Factory = std::function<std::unique_ptr<ScanRouter>()>;

const Factory kFactories[] = {
    [] { return std::unique_ptr<ScanRouter>(new MaxOfMinsRouter); },
    [] { return std::unique_ptr<ScanRouter>(new ShortestQueueRouter); },
    [] { return std::unique_ptr<ScanRouter>(new GreedyScRouter); },
    [] { return std::unique_ptr<ScanRouter>(new PowerOfTwoRouter(1234)); },
};

void ExpectOneShardMatchesSerial(const Workload& workload,
                                 const NashDbOptions& opts) {
  const ClusterConfig config = BuildEpoch(workload, opts);
  for (const Factory& make_router : kFactories) {
    const std::unique_ptr<ScanRouter> serial_router = make_router();
    const RunResult serial =
        RunSerial(workload, serial_router.get(), 64, opts);

    ShardedDriverOptions so;
    so.shards = 1;
    so.batch_size = 64;
    const ShardedRunResult sharded =
        RunSharded(workload, config, make_router, so);

    ExpectSameRecords(sharded.merged.records, serial.records);
    EXPECT_EQ(sharded.merged.total_cost, serial.total_cost);
    EXPECT_EQ(sharded.merged.read_tuples, serial.read_tuples);
    EXPECT_EQ(sharded.merged.transferred_tuples, serial.transferred_tuples);
    EXPECT_EQ(sharded.merged.bootstrap_transfer_tuples,
              serial.bootstrap_transfer_tuples);
    EXPECT_EQ(sharded.merged.makespan_s, serial.makespan_s);
    EXPECT_EQ(sharded.merged.transitions, serial.transitions);
    EXPECT_EQ(sharded.merged.final_nodes, serial.final_nodes);
  }
}

TEST(ShardedDriverTest, OneShardMatchesSerialDriverForEveryRouter) {
  ExpectOneShardMatchesSerial(ShardedWorkload(), ShardedSystemOptions());

  // The multi-fragment epoch, after checking it really is one.
  const Workload tpch = TpchShardedWorkload();
  const ClusterConfig config = BuildEpoch(tpch, TpchSystemOptions());
  std::set<TableId> tables;
  std::size_t replicated = 0;
  for (FlatFragmentId f = 0; f < config.fragments().size(); ++f) {
    tables.insert(config.fragment(f).table);
    if (config.FragmentNodes(f).size() >= 2) ++replicated;
  }
  std::size_t scans = 0, multi = 0, widest = 0;
  for (const TimedQuery& tq : tpch.queries) {
    for (const Scan& scan : tq.query.scans) {
      const std::size_t n = oracle::RequestsFor(config, scan).size();
      ++scans;
      if (n >= 2) ++multi;
      widest = std::max(widest, n);
    }
  }
  EXPECT_GE(tables.size(), 2u);
  EXPECT_GT(config.fragments().size(), tables.size());
  EXPECT_GE(config.node_count(), 3u);
  EXPECT_GE(replicated, 2u);
  EXPECT_GE(4 * multi, scans);  // a quarter of scans span fragments
  EXPECT_GE(widest, 3u);
  ExpectOneShardMatchesSerial(tpch, TpchSystemOptions());
}

TEST(ShardedDriverTest, EachShardMatchesASerialRunOfItsPartition) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  constexpr std::size_t kShards = 4;
  for (const Factory& make_router : kFactories) {
    ShardedDriverOptions so;
    so.shards = kShards;
    so.batch_size = 32;
    const ShardedRunResult sharded =
        RunSharded(workload, config, make_router, so);

    std::size_t total_records = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      // The shard's partition as a standalone workload, same epoch.
      Workload partition;
      partition.name = workload.name;
      partition.dataset = workload.dataset;
      for (const TimedQuery& tq : workload.queries) {
        if (ShardOfQuery(tq.query, kShards) == s) {
          partition.queries.push_back(tq);
        }
      }
      ShardedDriverOptions serial_opts;
      serial_opts.shards = 1;
      serial_opts.batch_size = 32;
      const ShardedRunResult serial =
          RunSharded(partition, config, make_router, serial_opts);
      ExpectSameRecords(sharded.shards[s].records, serial.merged.records);
      EXPECT_EQ(sharded.shards[s].read_tuples, serial.merged.read_tuples);
      EXPECT_EQ(sharded.shards[s].makespan_s, serial.merged.makespan_s);
      total_records += sharded.shards[s].records.size();
    }
    EXPECT_EQ(total_records, workload.queries.size());
  }
}

TEST(ShardedDriverTest, BlockSizeNeverChangesResults) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  const Factory make_router = kFactories[0];

  ShardedRunResult reference;
  bool first = true;
  for (const std::size_t batch : {1u, 16u, 256u}) {
    ShardedDriverOptions so;
    so.shards = 3;
    so.batch_size = batch;
    ShardedRunResult r = RunSharded(workload, config, make_router, so);
    if (first) {
      reference = std::move(r);
      first = false;
      continue;
    }
    ExpectSameRecords(r.merged.records, reference.merged.records);
    EXPECT_EQ(r.merged.makespan_s, reference.merged.makespan_s);
    EXPECT_EQ(r.merged.read_tuples, reference.merged.read_tuples);
  }
}

TEST(ShardedDriverTest, RepeatedRunsAreBitIdentical) {
  // Thread scheduling must never leak into results: the partitioner and
  // the per-shard sims are deterministic, so two runs coincide exactly.
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  ShardedDriverOptions so;
  so.shards = 4;
  so.batch_size = 64;
  so.queue_capacity = 8;  // tiny ring: force producer/consumer contention
  const ShardedRunResult a = RunSharded(workload, config, kFactories[3], so);
  const ShardedRunResult b = RunSharded(workload, config, kFactories[3], so);
  ExpectSameRecords(a.merged.records, b.merged.records);
  for (std::size_t s = 0; s < 4; ++s) {
    ExpectSameRecords(a.shards[s].records, b.shards[s].records);
  }
}

TEST(ShardedDriverTest, MergedBillingCountsClusterQuantitiesOnce) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedDriverOptions so;
    so.shards = shards;
    const ShardedRunResult r = RunSharded(workload, config, kFactories[0], so);
    // Real work sums across shards...
    TupleCount shard_reads = 0;
    SimTime max_makespan = 0.0;
    for (const ShardResult& sr : r.shards) {
      shard_reads += sr.read_tuples;
      max_makespan = std::max(max_makespan, sr.makespan_s);
    }
    EXPECT_EQ(r.merged.read_tuples, shard_reads);
    EXPECT_EQ(r.merged.makespan_s, max_makespan);
    // ...while per-cluster quantities are independent of the shard count:
    // one bootstrap copy, one fleet of rented nodes, one transition.
    EXPECT_EQ(r.merged.transferred_tuples, r.merged.bootstrap_transfer_tuples);
    EXPECT_EQ(r.merged.transitions, 1u);
    EXPECT_EQ(r.merged.final_nodes, config.node_count());
  }
  // Total read volume is fragment coverage — every request is read
  // exactly once wherever it is routed — so it is invariant across shard
  // counts: check the 4-shard run against the serial driver.
  const std::unique_ptr<ScanRouter> serial_router = kFactories[0]();
  const RunResult serial = RunSerial(workload, serial_router.get(), 64);
  ShardedDriverOptions so;
  so.shards = 4;
  const ShardedRunResult four = RunSharded(workload, config, kFactories[0], so);
  EXPECT_EQ(four.merged.read_tuples, serial.read_tuples);
  EXPECT_EQ(four.merged.transferred_tuples, serial.transferred_tuples);
}

TEST(ShardedDriverTest, PartitionerIsDeterministicAndCoversAllShards) {
  // Pure function: same inputs, same shard — across calls and shard
  // counts (the sharded golden runs above depend on this).
  for (TableId t = 0; t < 64; ++t) {
    EXPECT_EQ(ShardOfTable(t, 4), ShardOfTable(t, 4));
    EXPECT_LT(ShardOfTable(t, 4), 4u);
    EXPECT_EQ(ShardOfTable(t, 1), 0u);
  }
  // The hash spreads: 64 consecutive table ids over 4 shards must not
  // collapse onto one shard.
  std::set<std::size_t> seen;
  for (TableId t = 0; t < 64; ++t) seen.insert(ShardOfTable(t, 4));
  EXPECT_EQ(seen.size(), 4u);

  Query scanless;
  scanless.id = 7;
  EXPECT_EQ(ShardOfQuery(scanless, 8), 0u);
}

/// Resolves `scans` as one block and checks every scan against the
/// configuration-derived oracle (tests/routing_oracle.h): same fragments,
/// same order, same tuple counts, same candidate nodes, every candidate
/// span pointing into the index's one pool. Returns the widest resolve.
std::size_t ExpectResolveMatchesOracle(const ClusterConfig& config,
                                       const std::vector<Scan>& scans) {
  const ConfigIndex index(config);
  ScanBatch batch;
  for (std::size_t i = 0; i < scans.size(); ++i) batch.AddScan(i, scans[i]);
  index.ResolveBatchInto(&batch);
  EXPECT_EQ(batch.req_off.size(), scans.size() + 1);
  std::size_t widest = 0;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const RequestBatch got = batch.ScanRequests(i);
    const std::vector<FragmentRequest> want =
        oracle::RequestsFor(config, scans[i]);
    EXPECT_EQ(got.count, want.size()) << "scan " << i;
    if (got.count != want.size()) continue;
    EXPECT_EQ(got.cand_pool, batch.cand_pool) << "scan " << i;
    for (std::size_t r = 0; r < got.count; ++r) {
      const FlatRequest& req = got.requests[r];
      EXPECT_EQ(req.frag, want[r].frag) << "scan " << i << " request " << r;
      EXPECT_EQ(req.tuples, want[r].tuples);
      EXPECT_EQ(std::vector<NodeId>(got.cands(req),
                                    got.cands(req) + req.cand_count),
                want[r].candidates)
          << "scan " << i << " request " << r;
    }
    widest = std::max(widest, got.count);
  }
  return widest;
}

TEST(ShardedDriverTest, ResolveBatchMatchesPerScanResolution) {
  // The NashDB-built epoch over the sharded workload's own scans, plus an
  // empty scan (which resolves to nothing).
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  std::vector<Scan> scans;
  for (const TimedQuery& tq : workload.queries) {
    for (const Scan& scan : tq.query.scans) scans.push_back(scan);
  }
  Scan empty = scans.front();
  empty.range = TupleRange{empty.range.start, empty.range.start};
  scans.push_back(empty);
  EXPECT_GE(ExpectResolveMatchesOracle(config, scans), 1u);

  // That epoch holds few fragments, so also a dense hand-built one: 4
  // tables of 16 uneven fragments (1–3 replicas over 8 nodes), scanned by
  // random ranges from empty to whole-table sweeps and by ranges on
  // fragment boundaries, so multi-fragment resolves and the bucket
  // index's forward steps are covered.
  Rng rng(11);
  ReplicationParams params;
  params.node_disk = 1'000'000'000;
  std::vector<FragmentInfo> frags;
  std::vector<TupleIndex> table_end(4, 0);
  for (TableId t = 0; t < 4; ++t) {
    for (FragmentId f = 0; f < 16; ++f) {
      FragmentInfo info;
      info.table = t;
      info.index_in_table = f;
      const TupleCount size = 1 + rng.Uniform(5000);
      info.range = TupleRange{table_end[t], table_end[t] + size};
      table_end[t] += size;
      info.replicas = 1 + rng.Uniform(3);
      frags.push_back(info);
    }
  }
  ClusterConfig dense(params, std::move(frags));
  for (int m = 0; m < 8; ++m) dense.AddNode();
  std::vector<NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  for (FlatFragmentId f = 0; f < dense.fragments().size(); ++f) {
    rng.Shuffle(&nodes);
    for (std::size_t k = 0; k < dense.fragment(f).replicas; ++k) {
      dense.Place(nodes[k], f);
    }
  }
  std::vector<Scan> dense_scans;
  for (int i = 0; i < 400; ++i) {
    Scan scan;
    scan.table = static_cast<TableId>(rng.Uniform(4));
    const TupleIndex a = rng.Uniform(table_end[scan.table] + 1);
    const TupleIndex b = rng.Uniform(table_end[scan.table] + 1);
    scan.range = TupleRange{std::min(a, b), std::max(a, b)};
    dense_scans.push_back(scan);
  }
  for (TableId t = 0; t < 4; ++t) {
    Scan sweep;
    sweep.table = t;
    sweep.range = TupleRange{0, table_end[t]};
    dense_scans.push_back(sweep);
  }
  // Scans that start or end exactly on a fragment boundary.
  for (const FragmentInfo& info : dense.fragments()) {
    Scan edge;
    edge.table = info.table;
    edge.range = TupleRange{info.range.start, info.range.start + 1};
    dense_scans.push_back(edge);
    edge.range = TupleRange{info.range.end - 1, info.range.end};
    dense_scans.push_back(edge);
    edge.range = TupleRange{info.range.end, table_end[info.table]};
    dense_scans.push_back(edge);
  }
  EXPECT_EQ(ExpectResolveMatchesOracle(dense, dense_scans), 16u);
}

}  // namespace
}  // namespace nashdb

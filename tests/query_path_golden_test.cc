// Golden guard for the serial query path (DESIGN.md §10–§11). Every query
// RunStream admits is routed through one PendingBlock flush: resolve →
// liveness filter (only while a node is down) → RouteBatchInto → per-scan
// commit, with coverage-gap retries and aborts handled inside the flush.
// The constants below were recorded from the query paths this one
// replaced (the per-scan RouteInto loop that fault and overload runs
// took, and the batched block that fault-free runs took), on multi-node
// queueing clusters where the four routers' record streams differ, for:
//
//   fault-free              the batched block at its default size;
//   faults, repair on       crashes + emergency re-replication;
//   faults, repair off      coverage gaps: backoff retries and aborts;
//   overload                admission control shedding at arrival;
//   faults + overload       both, with a shared per-query retry budget.
//
// Each case pins two digests: every QueryRecord field plus the RunResult
// totals (golden_digest.h RunDigest), and the run's faults.*, overload.*
// and routing.* metrics (MetricsDigest). Each case also asserts that it
// exercises its feature, so a digest can never go vacuous. A legitimate
// change of simulated outcomes must say why the old stream was wrong
// before these constants move.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "golden_digest.h"
#include "routing/router.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace nashdb {
namespace {

using golden::MetricsDigest;
using golden::RunDigest;
using RouterFactory = std::function<std::unique_ptr<ScanRouter>()>;

enum class Mode { kFaultFree, kFaults, kFaultsNoRepair, kOverload,
                  kFaultsOverload };

// Rack crashes (two with scheduled recoveries, one permanent), a rack
// partition, and a stochastic crash/repair process: enough dead replica
// holders to open coverage gaps on an 8-node cluster.
constexpr char kFaults[] =
    "racks=4;crash@1800:r1:for=900;crash@1800:r2:for=600;crash@5400:r3;"
    "partition@7200:r0:for=600;mttf=7200;mttr=1800";

DriverOptions ModeOptions(Mode mode) {
  DriverOptions d;
  d.reconfigure_interval_s = 1800.0;
  d.sim.tuples_per_second = 2.0e5;
  const bool faults = mode == Mode::kFaults ||
                      mode == Mode::kFaultsNoRepair ||
                      mode == Mode::kFaultsOverload;
  if (faults) {
    d.faults.spec = *FaultSpec::Parse(kFaults);
    d.faults.seed = 7;
  }
  if (mode == Mode::kFaultsNoRepair) {
    // Gaps stay open until the next round replaces the dead machine;
    // the per-query timeout is the rule that aborts.
    d.faults.emergency_repair = false;
    d.faults.max_scan_retries = 16;
    d.faults.query_timeout_s = 60.0;
  }
  if (mode == Mode::kFaultsOverload) {
    d.faults.emergency_repair = false;
    d.faults.max_scan_retries = 3;
    d.faults.query_retry_budget = 4;
  }
  if (mode == Mode::kOverload || mode == Mode::kFaultsOverload) {
    // Disks 25x slower than the other modes: queries overlap enough
    // for the pending budget to bind.
    d.sim.tuples_per_second = 8.0e3;
    d.overload.max_pending_queries = 2;
    d.overload.shed_keep_price = 1.0;
  }
  return d;
}

RunResult RunLoaded(const RouterFactory& make_router,
                    const DriverOptions& dopts) {
  const Workload workload = golden::LoadedWorkload();
  NashDbSystem sys(workload.dataset, golden::LoadedSystemOptions());
  const std::unique_ptr<ScanRouter> router = make_router();
  return RunWorkload(workload, &sys, router.get(), dopts);
}

// Each case must exercise what it is named after.
void ExpectExercised(Mode mode, const RunResult& run) {
  EXPECT_GT(run.final_nodes, 1u);
  switch (mode) {
    case Mode::kFaultFree:
      EXPECT_EQ(run.crashes, 0u);
      break;
    case Mode::kFaults:
      EXPECT_GT(run.crashes, 0u);
      EXPECT_GT(run.emergency_repairs, 0u);
      break;
    case Mode::kFaultsNoRepair:
      EXPECT_GT(run.scan_retries, 0u);
      EXPECT_GT(run.aborted_queries, 0u);
      EXPECT_EQ(run.emergency_repairs, 0u);
      break;
    case Mode::kOverload:
      EXPECT_GT(run.shed_queries, 0u);
      break;
    case Mode::kFaultsOverload:
      EXPECT_GT(run.scan_retries, 0u);
      EXPECT_GT(run.aborted_queries, 0u);
      EXPECT_GT(run.shed_queries, 0u);
      break;
  }
}

struct Golden {
  const char* records;
  const char* metrics;
};

void RunGoldenCase(const RouterFactory& make_router, Mode mode,
                   const Golden& golden) {
  const RunResult run = RunLoaded(make_router, ModeOptions(mode));
  ExpectExercised(mode, run);
  EXPECT_EQ(RunDigest(run), golden.records);
  EXPECT_EQ(MetricsDigest(run), golden.metrics);
}

RouterFactory MaxOfMins() {
  return [] { return std::make_unique<MaxOfMinsRouter>(); };
}
RouterFactory ShortestQueue() {
  return [] { return std::make_unique<ShortestQueueRouter>(); };
}
RouterFactory GreedySc() {
  return [] { return std::make_unique<GreedyScRouter>(); };
}
RouterFactory PowerOfTwo() {
  // Fixed seed: the digests include the RNG draw sequence.
  return [] { return std::make_unique<PowerOfTwoRouter>(1234); };
}

TEST(QueryPathGoldenTest, MaxOfMinsFaultFree) {
  RunGoldenCase(MaxOfMins(), Mode::kFaultFree,
                {"7fa42082c007fa14", "9d8e392dd0e10bde"});
}
TEST(QueryPathGoldenTest, MaxOfMinsUnderFaults) {
  RunGoldenCase(MaxOfMins(), Mode::kFaults,
                {"930fa2070d66d170", "e2f74fadb57fe88f"});
}
TEST(QueryPathGoldenTest, MaxOfMinsFaultsNoRepair) {
  RunGoldenCase(MaxOfMins(), Mode::kFaultsNoRepair,
                {"a2e6c3b2716b3e71", "9a1c361575ca5533"});
}
TEST(QueryPathGoldenTest, MaxOfMinsOverload) {
  RunGoldenCase(MaxOfMins(), Mode::kOverload,
                {"2b8f8bf694a4e781", "234696207e153286"});
}
TEST(QueryPathGoldenTest, MaxOfMinsFaultsOverload) {
  RunGoldenCase(MaxOfMins(), Mode::kFaultsOverload,
                {"1b6d86838e33e4c7", "a3e99053945a860a"});
}

TEST(QueryPathGoldenTest, ShortestQueueFaultFree) {
  RunGoldenCase(ShortestQueue(), Mode::kFaultFree,
                {"89ba31f0236e62e4", "86e594c114ef0d71"});
}
TEST(QueryPathGoldenTest, ShortestQueueUnderFaults) {
  RunGoldenCase(ShortestQueue(), Mode::kFaults,
                {"bb094a07f8b8689f", "7ece150b69c22cf6"});
}
TEST(QueryPathGoldenTest, ShortestQueueFaultsNoRepair) {
  RunGoldenCase(ShortestQueue(), Mode::kFaultsNoRepair,
                {"734f2db4eb7f36a9", "ff20fe08a209e7ef"});
}
TEST(QueryPathGoldenTest, ShortestQueueOverload) {
  RunGoldenCase(ShortestQueue(), Mode::kOverload,
                {"c5b6aeebbda5f549", "f1f9df7ef14d14db"});
}
TEST(QueryPathGoldenTest, ShortestQueueFaultsOverload) {
  RunGoldenCase(ShortestQueue(), Mode::kFaultsOverload,
                {"caff781dcf6696dc", "ee3c1db93af5e125"});
}

TEST(QueryPathGoldenTest, GreedyScFaultFree) {
  RunGoldenCase(GreedySc(), Mode::kFaultFree,
                {"1856a0ff4cf049e9", "4fb51b3cf1fa0b41"});
}
TEST(QueryPathGoldenTest, GreedyScUnderFaults) {
  RunGoldenCase(GreedySc(), Mode::kFaults,
                {"64f8d7c479ba0b6f", "48f09e7565e457f6"});
}
TEST(QueryPathGoldenTest, GreedyScFaultsNoRepair) {
  RunGoldenCase(GreedySc(), Mode::kFaultsNoRepair,
                {"5ce70e2cfd529aa5", "896f318a2a7c4377"});
}
TEST(QueryPathGoldenTest, GreedyScOverload) {
  RunGoldenCase(GreedySc(), Mode::kOverload,
                {"c42ecefaaccb92c1", "18afe6805d8bc55c"});
}
TEST(QueryPathGoldenTest, GreedyScFaultsOverload) {
  RunGoldenCase(GreedySc(), Mode::kFaultsOverload,
                {"498a6f167af1205b", "bcb8f32e33964b6c"});
}

TEST(QueryPathGoldenTest, PowerOfTwoFaultFree) {
  RunGoldenCase(PowerOfTwo(), Mode::kFaultFree,
                {"b561fb66db199da8", "bacd978965ffaf1c"});
}
TEST(QueryPathGoldenTest, PowerOfTwoUnderFaults) {
  RunGoldenCase(PowerOfTwo(), Mode::kFaults,
                {"8341fddaa486c9ca", "bb72ec86f0627a0a"});
}
TEST(QueryPathGoldenTest, PowerOfTwoFaultsNoRepair) {
  RunGoldenCase(PowerOfTwo(), Mode::kFaultsNoRepair,
                {"2da8a623d312c419", "f8a0e057f2af3c8f"});
}
TEST(QueryPathGoldenTest, PowerOfTwoOverload) {
  RunGoldenCase(PowerOfTwo(), Mode::kOverload,
                {"2205a341651eb1de", "b4c2a5c3ed1b1423"});
}
TEST(QueryPathGoldenTest, PowerOfTwoFaultsOverload) {
  RunGoldenCase(PowerOfTwo(), Mode::kFaultsOverload,
                {"e58a2381a293f2f6", "7caaa9b94d1f2381"});
}

// Multi-scan queries: TPC-H templates join several tables, so a coverage
// gap can hit a query's second or later scan after earlier scans already
// enqueued their reads (the partial-commit path), and an abort drops the
// query's remaining scans.
void RunMultiScanCase(const RouterFactory& make_router, const Golden& golden) {
  TpchOptions topts;
  topts.db_gb = 2.0;
  topts.num_queries = 440;
  topts.price = 0.5;
  topts.arrival_span_s = 4.0 * 3600.0;
  const Workload workload = MakeTpchWorkload(topts);
  NashDbOptions nopts;
  nopts.window_scans = 60;
  nopts.block_tuples = 2000;
  nopts.node_disk = 30000;
  NashDbSystem sys(workload.dataset, nopts);
  const std::unique_ptr<ScanRouter> router = make_router();
  DriverOptions dopts = ModeOptions(Mode::kFaultsOverload);
  dopts.sim.tuples_per_second = 1.0e3;  // the templates' scans are short
  // Backoff long enough (366 s over eight retries) that some scans route
  // after a scheduled recovery and their query's later scans continue.
  dopts.faults.max_scan_retries = 8;
  dopts.faults.query_retry_budget = 24;
  const RunResult run = RunWorkload(workload, &sys, router.get(), dopts);
  ExpectExercised(Mode::kFaultsOverload, run);
  EXPECT_EQ(RunDigest(run), golden.records);
  EXPECT_EQ(MetricsDigest(run), golden.metrics);
}

TEST(QueryPathGoldenTest, MultiScanQueriesEveryRouter) {
  SCOPED_TRACE("maxofmins");
  RunMultiScanCase(MaxOfMins(),
                   {"f3d1949ad736e3e9", "150edc180571e335"});
  SCOPED_TRACE("shortest");
  RunMultiScanCase(ShortestQueue(),
                   {"92d14ad6b69b153f", "dce104dc4c2b5fc1"});
  SCOPED_TRACE("greedysc");
  RunMultiScanCase(GreedySc(),
                   {"0781067bdb5b1dac", "932ffaa427182f10"});
  SCOPED_TRACE("power2");
  RunMultiScanCase(PowerOfTwo(),
                   {"649782919cd6fee7", "290649268562b28d"});
}

// Block size never changes results: blocks of 256 scans and one-query
// blocks (route_batch_size = 1) reproduce the default-size digests.
void RunBatchSizeCase(const RouterFactory& make_router, const Golden& golden) {
  for (const std::size_t size : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE(size);
    DriverOptions dopts = ModeOptions(Mode::kFaultFree);
    dopts.route_batch_size = size;
    const RunResult run = RunLoaded(make_router, dopts);
    EXPECT_EQ(RunDigest(run), golden.records);
    EXPECT_EQ(MetricsDigest(run), golden.metrics);
  }
}

TEST(QueryPathGoldenTest, MaxOfMinsBatchSizeInvariant) {
  RunBatchSizeCase(MaxOfMins(),
                   {"7fa42082c007fa14", "9d8e392dd0e10bde"});
}
TEST(QueryPathGoldenTest, ShortestQueueBatchSizeInvariant) {
  RunBatchSizeCase(ShortestQueue(),
                   {"89ba31f0236e62e4", "86e594c114ef0d71"});
}
TEST(QueryPathGoldenTest, GreedyScBatchSizeInvariant) {
  RunBatchSizeCase(GreedySc(),
                   {"1856a0ff4cf049e9", "4fb51b3cf1fa0b41"});
}
TEST(QueryPathGoldenTest, PowerOfTwoBatchSizeInvariant) {
  RunBatchSizeCase(PowerOfTwo(),
                   {"b561fb66db199da8", "bacd978965ffaf1c"});
}

}  // namespace
}  // namespace nashdb

// Batch-route equivalence suite (DESIGN.md §11): for each of the four
// scan routers, the block size must never change a decision. A sweep of
// block sizes is routed against one-scan blocks (the shape of the
// router's Route/RouteInto and of the driver's route_batch_size = 1) —
// node for node, tie for tie, RNG draw for RNG draw — under live
// busy-until state mutated between scans (the driver's enqueue-between-
// scans regime). Also pins the sink ordering contract, the partial-commit
// guarantee on unroutable scans, and the PowerOfTwo RNG-consumption
// contract per batch element.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "routing/router.h"
#include "routing/scan_batch.h"

namespace nashdb {
namespace {

FragmentRequest Req(FlatFragmentId frag, TupleCount tuples,
                    std::vector<NodeId> candidates) {
  FragmentRequest r;
  r.frag = frag;
  r.tuples = tuples;
  r.candidates = std::move(candidates);
  return r;
}

/// Owns a hand-built ScanBatch over arbitrary per-scan request sets (the
/// router-level analogue of what ConfigIndex::ResolveBatchInto produces).
struct BatchSet {
  ScanBatch batch;
  std::vector<NodeId> pool;
};

/// The block of scans [first, last) of `scans` (all of them by default).
BatchSet MakeBatch(const std::vector<std::vector<FragmentRequest>>& scans,
                   std::size_t first = 0,
                   std::size_t last = static_cast<std::size_t>(-1)) {
  last = std::min(last, scans.size());
  BatchSet bs;
  bs.batch.req_off.push_back(0);
  for (std::size_t s = first; s < last; ++s) {
    bs.batch.ids.push_back(s);
    bs.batch.tables.push_back(0);
    bs.batch.starts.push_back(0);
    bs.batch.ends.push_back(1);
    bs.batch.prices.push_back(1.0);
    for (const FragmentRequest& r : scans[s]) {
      FlatRequest fr;
      fr.frag = r.frag;
      fr.tuples = r.tuples;
      fr.cand_begin = static_cast<std::uint32_t>(bs.pool.size());
      fr.cand_count = static_cast<std::uint32_t>(r.candidates.size());
      bs.pool.insert(bs.pool.end(), r.candidates.begin(),
                     r.candidates.end());
      bs.batch.requests.push_back(fr);
    }
    bs.batch.req_off.push_back(
        static_cast<std::uint32_t>(bs.batch.requests.size()));
  }
  bs.batch.cand_pool = bs.pool.data();
  return bs;
}

/// Captures every sink callback verbatim.
class RecordingSink : public BatchSink {
 public:
  struct Event {
    std::size_t scan = 0;
    std::vector<RoutedRead> reads;
  };
  std::vector<Event> events;

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    events.push_back(Event{scan_index, {reads, reads + count}});
  }
};

/// Sink that applies each scan's reads to a live busy-until array the
/// moment they are reported — the driver's enqueue-between-scans shape —
/// so later scans of the block route against updated state.
class MutatingSink : public BatchSink {
 public:
  MutatingSink(const ScanBatch* batch, std::vector<SimTime>* busy,
               double seconds_per_tuple)
      : batch_(batch), busy_(busy), spt_(seconds_per_tuple) {}

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    const FlatRequest* reqs =
        batch_->requests.data() + batch_->req_off[scan_index];
    for (std::size_t k = 0; k < count; ++k) {
      (*busy_)[reads[k].node] +=
          static_cast<double>(reqs[reads[k].request_index].tuples) * spt_ +
          0.35;
    }
  }

 private:
  const ScanBatch* batch_;
  std::vector<SimTime>* busy_;
  const double spt_;
};

std::vector<std::vector<FragmentRequest>> RandomScans(Rng* rng,
                                                      std::size_t node_count,
                                                      std::size_t max_scans) {
  const std::size_t n_scans = rng->Uniform(max_scans + 1);
  std::vector<std::vector<FragmentRequest>> scans(n_scans);
  for (auto& scan : scans) {
    const std::size_t n_req = rng->Uniform(8);  // 0 = empty scan
    for (std::size_t i = 0; i < n_req; ++i) {
      std::vector<NodeId> all(node_count);
      std::iota(all.begin(), all.end(), NodeId{0});
      rng->Shuffle(&all);
      all.resize(1 + rng->Uniform(std::min<std::size_t>(node_count, 6)));
      scan.push_back(Req(static_cast<FlatFragmentId>(i),
                         1 + rng->Uniform(500000), std::move(all)));
    }
  }
  return scans;
}

/// One routing of a scan set in blocks: every read in order, every sink
/// event (scan indices relative to the whole set), and the final
/// busy-until array.
struct BlockRun {
  std::vector<RoutedRead> reads;
  std::vector<RecordingSink::Event> events;
  std::vector<SimTime> busy;
};

/// Routes `scans` through `router` in consecutive blocks of `block_size`
/// scans (the last block may be shorter; 0 = one block of everything),
/// each scan's reads committed into the live busy-until array by the sink
/// before the next scan is routed. One scratch serves every block (the
/// driver's shape) unless `fresh_scratch` gives each block its own, so
/// that per-scan state a core fails to reset cannot leak between scans.
BlockRun RouteInBlocks(ScanRouter* router,
                       const std::vector<std::vector<FragmentRequest>>& scans,
                       std::size_t block_size, bool fresh_scratch,
                       const std::vector<SimTime>& base_busy, double rspt,
                       double phi) {
  if (block_size == 0) block_size = std::max<std::size_t>(1, scans.size());
  BlockRun run;
  run.busy = base_busy;
  RouterScratch shared_scratch;
  std::vector<RoutedRead> out;
  for (std::size_t first = 0; first < scans.size(); first += block_size) {
    RouterScratch own_scratch;
    RouterScratch& scratch = fresh_scratch ? own_scratch : shared_scratch;
    const BatchSet bs = MakeBatch(scans, first, first + block_size);
    struct BothSinks : BatchSink {
      RecordingSink* rec;
      MutatingSink* mut;
      void OnScanRouted(std::size_t i, const RoutedRead* r,
                        std::size_t n) override {
        rec->OnScanRouted(i, r, n);
        mut->OnScanRouted(i, r, n);
      }
    };
    RecordingSink rec;
    MutatingSink mut(&bs.batch, &run.busy, rspt);
    BothSinks sink;
    sink.rec = &rec;
    sink.mut = &mut;
    const WaitView view(run.busy.data(), run.busy.size(), /*at=*/0.0);
    EXPECT_TRUE(router
                    ->RouteBatchInto(bs.batch, view, rspt, phi, &scratch,
                                     &out, &sink)
                    .ok());
    run.reads.insert(run.reads.end(), out.begin(), out.end());
    for (RecordingSink::Event& e : rec.events) {
      e.scan += first;
      run.events.push_back(std::move(e));
    }
  }
  return run;
}

/// Block sizes swept against one-scan blocks; 0 = the whole set as one
/// block.
constexpr std::size_t kBlockSizes[] = {2, 3, 5, 0};
constexpr std::size_t kSweep = sizeof(kBlockSizes) / sizeof(kBlockSizes[0]);

/// Routes `scans` as one-scan blocks, each with its own scratch, through
/// `one_scan` and in blocks of every kBlockSizes entry, with one scratch
/// across blocks, through the matching `blocked` router, and asserts
/// identical decisions, identical sink slices (exactly one event per
/// scan, in order, empty scans included), and bit-identical final
/// busy-until arrays. The routers may all be the same object for
/// deterministic routers; PowerOfTwo passes same-seeded instances.
void ExpectBlockSizesAgree(
    ScanRouter* one_scan, ScanRouter* const (&blocked)[kSweep],
    const std::vector<std::vector<FragmentRequest>>& scans,
    const std::vector<SimTime>& base_busy, double rspt, double phi) {
  const BlockRun ref = RouteInBlocks(one_scan, scans, 1,
                                    /*fresh_scratch=*/true, base_busy, rspt,
                                    phi);
  ASSERT_EQ(ref.events.size(), scans.size()) << one_scan->name();
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < scans.size(); ++s) {
    EXPECT_EQ(ref.events[s].scan, s);
    cursor += ref.events[s].reads.size();
  }
  EXPECT_EQ(cursor, ref.reads.size()) << one_scan->name();

  for (std::size_t b = 0; b < kSweep; ++b) {
    const BlockRun got =
        RouteInBlocks(blocked[b], scans, kBlockSizes[b],
                      /*fresh_scratch=*/false, base_busy, rspt, phi);
    const std::string_view name = blocked[b]->name();
    const std::size_t k = kBlockSizes[b];
    ASSERT_EQ(got.reads.size(), ref.reads.size()) << name << " k=" << k;
    for (std::size_t i = 0; i < ref.reads.size(); ++i) {
      EXPECT_EQ(got.reads[i].request_index, ref.reads[i].request_index)
          << name << " k=" << k << " diverged at position " << i;
      EXPECT_EQ(got.reads[i].node, ref.reads[i].node)
          << name << " k=" << k << " diverged at position " << i;
    }
    ASSERT_EQ(got.events.size(), ref.events.size()) << name << " k=" << k;
    for (std::size_t s = 0; s < ref.events.size(); ++s) {
      EXPECT_EQ(got.events[s].scan, ref.events[s].scan);
      ASSERT_EQ(got.events[s].reads.size(), ref.events[s].reads.size())
          << name << " k=" << k << " scan " << s;
      for (std::size_t r = 0; r < ref.events[s].reads.size(); ++r) {
        EXPECT_EQ(got.events[s].reads[r].node, ref.events[s].reads[r].node);
        EXPECT_EQ(got.events[s].reads[r].request_index,
                  ref.events[s].reads[r].request_index);
      }
    }
    // The recorded waits the two runs produced — the busy-until arrays —
    // must agree to the last double bit.
    for (std::size_t m = 0; m < base_busy.size(); ++m) {
      EXPECT_EQ(got.busy[m], ref.busy[m])
          << name << " k=" << k << " wait diverged on node " << m;
    }
  }
}

std::vector<SimTime> RandomBusy(Rng* rng, std::size_t node_count) {
  std::vector<SimTime> busy(node_count);
  for (SimTime& b : busy) b = rng->NextDouble() * 10.0;
  return busy;
}

class BatchRouteTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchRouteTest, DeterministicRoutersMatchPerScanPath) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  ScanRouter* const mm_sweep[kSweep] = {&mm, &mm, &mm, &mm};
  ScanRouter* const sq_sweep[kSweep] = {&sq, &sq, &sq, &sq};
  ScanRouter* const gsc_sweep[kSweep] = {&gsc, &gsc, &gsc, &gsc};
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 4; ++round) {
      const auto scans = RandomScans(&rng, node_count, 12);
      const auto busy = RandomBusy(&rng, node_count);
      const double rspt = 1e-6 * (1 + rng.Uniform(100));
      const double phi = rng.NextDouble();
      ExpectBlockSizesAgree(&mm, mm_sweep, scans, busy, rspt, phi);
      ExpectBlockSizesAgree(&sq, sq_sweep, scans, busy, rspt, phi);
      ExpectBlockSizesAgree(&gsc, gsc_sweep, scans, busy, rspt, phi);
    }
  }
}

TEST_P(BatchRouteTest, PowerOfTwoMatchesWithPairedRngStreams) {
  Rng rng(GetParam());
  // Same-seeded instances, one per block size plus the one-scan
  // reference: each consumes its own stream. They stay in lockstep across
  // many blocks only if every scan of every block consumes identically,
  // whatever the block size.
  PowerOfTwoRouter one_scan(GetParam());
  PowerOfTwoRouter b0(GetParam()), b1(GetParam()), b2(GetParam()),
      b3(GetParam());
  ScanRouter* const sweep[kSweep] = {&b0, &b1, &b2, &b3};
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 4; ++round) {
      const auto scans = RandomScans(&rng, node_count, 12);
      const auto busy = RandomBusy(&rng, node_count);
      ExpectBlockSizesAgree(&one_scan, sweep, scans, busy, 1e-5, 0.35);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchRouteTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------ edge cases

TEST(BatchRouteEdgeTest, EmptyBatchRoutesToNothing) {
  MaxOfMinsRouter mm;
  RouterScratch scratch;
  std::vector<RoutedRead> out = {RoutedRead{}};  // must be cleared
  const BatchSet bs = MakeBatch({});
  const std::vector<SimTime> busy = {1.0, 2.0};
  RecordingSink sink;
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, &sink)
          .ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(sink.events.empty());
}

TEST(BatchRouteEdgeTest, EmptyScansReportedWithZeroCount) {
  MaxOfMinsRouter mm;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs =
      MakeBatch({{}, {Req(0, 10, {0}), Req(1, 20, {1})}, {}});
  const std::vector<SimTime> busy = {0.0, 0.0};
  RecordingSink sink;
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, &sink)
          .ok());
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].scan, 0u);
  EXPECT_TRUE(sink.events[0].reads.empty());
  EXPECT_EQ(sink.events[1].reads.size(), 2u);
  EXPECT_TRUE(sink.events[2].reads.empty());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BatchRouteEdgeTest, NullSinkIsAllowed) {
  ShortestQueueRouter sq;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs = MakeBatch({{Req(0, 10, {0, 1})}, {Req(1, 5, {1})}});
  const std::vector<SimTime> busy = {0.0, 4.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      sq.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, nullptr)
          .ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BatchRouteEdgeTest, PartialCommitOnUnroutableScan) {
  // Scan 2 carries a request with no live replica: the batch call must
  // fail *after* fully routing and reporting scans 0 and 1, leaving scans
  // 2 and 3 untouched — the driver's fallback resumes from the first
  // unreported scan.
  for (int which = 0; which < 4; ++which) {
    MaxOfMinsRouter mm;
    ShortestQueueRouter sq;
    GreedyScRouter gsc;
    PowerOfTwoRouter p2(7);
    ScanRouter* routers[] = {&mm, &sq, &gsc, &p2};
    ScanRouter* router = routers[which];

    RouterScratch scratch;
    std::vector<RoutedRead> out;
    const BatchSet bs = MakeBatch({{Req(0, 10, {0}), Req(1, 10, {1, 2})},
                                   {Req(2, 10, {2})},
                                   {Req(3, 10, {0}), Req(4, 10, {})},
                                   {Req(5, 10, {1})}});
    const std::vector<SimTime> busy = {0.0, 1.0, 2.0};
    RecordingSink sink;
    const WaitView view(busy.data(), busy.size(), 0.0);
    const Status st = router->RouteBatchInto(bs.batch, view, 1e-5, 0.35,
                                             &scratch, &out, &sink);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << router->name();
    ASSERT_EQ(sink.events.size(), 2u) << router->name();
    EXPECT_EQ(sink.events[0].scan, 0u);
    EXPECT_EQ(sink.events[1].scan, 1u);
    // Only the committed scans' reads are in the output: 2 + 1.
    EXPECT_EQ(out.size(), 3u) << router->name();
  }
}

// ---------------------------------- PowerOfTwo RNG contract, per element

TEST(BatchRouteRngContractTest, ExactDrawSequenceAcrossTheBlock) {
  // Candidate counts per scan: {1, 5}, {2}, {3, 3}. Only the three
  // requests with > 2 candidates draw, two draws each, in block order:
  // U(5) U(4), then U(3) U(2), U(3) U(2).
  PowerOfTwoRouter router(42);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs =
      MakeBatch({{Req(0, 10, {0}), Req(1, 10, {0, 1, 2, 3, 4})},
                 {Req(2, 10, {1, 2})},
                 {Req(3, 10, {2, 3, 4}), Req(4, 10, {0, 1, 3})}});
  const std::vector<SimTime> busy = {0.0, 0.5, 1.0, 1.5, 2.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      router.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out,
                            nullptr)
          .ok());
  Rng reference(42);
  (void)reference.Uniform(5);
  (void)reference.Uniform(4);
  (void)reference.Uniform(3);
  (void)reference.Uniform(2);
  (void)reference.Uniform(3);
  (void)reference.Uniform(2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(router.mutable_rng_for_test()->NextU64(), reference.NextU64())
        << "draw count/order mismatch at comparison " << i;
  }
}

TEST(BatchRouteRngContractTest, SmallRequestsDrawNothingAcrossTheBlock) {
  PowerOfTwoRouter router(42);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs = MakeBatch(
      {{Req(0, 10, {0})}, {Req(1, 10, {1, 2}), Req(2, 10, {0, 1})}, {}});
  const std::vector<SimTime> busy = {0.0, 1.0, 2.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      router.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out,
                            nullptr)
          .ok());
  Rng untouched(42);
  EXPECT_EQ(router.mutable_rng_for_test()->NextU64(), untouched.NextU64())
      << "a <= 2-candidate block consumed randomness";
}

}  // namespace
}  // namespace nashdb

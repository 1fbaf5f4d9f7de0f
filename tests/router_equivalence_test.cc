// Router equivalence suite (DESIGN.md §10): for each of the four scan
// routers, a one-scan block — the router's Route and RouteInto, both
// written once in ScanRouter over RouteBatchInto — must make exactly the
// decisions of the seed router kept in tests/routing_oracle.h — node for
// node, tie for tie, RNG draw for RNG draw — on randomized request sets
// including empty batches, empty candidate lists, and single-node
// clusters. Also pins the PowerOfTwo RNG-consumption contract that the
// bit-identical golden tests depend on.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "routing/router.h"
#include "routing_oracle.h"

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

/// Owns the flat form of an owning request set (what ConfigIndex /
/// LivenessOverlay produce on the driver's hot path).
struct FlatSet {
  std::vector<FlatRequest> requests;
  std::vector<NodeId> pool;

  RequestBatch Batch() const {
    return RequestBatch{requests.data(), requests.size(), pool.data()};
  }
};

FlatSet Flatten(const std::vector<FragmentRequest>& reqs) {
  FlatSet fs;
  for (const FragmentRequest& r : reqs) {
    FlatRequest fr;
    fr.frag = r.frag;
    fr.tuples = r.tuples;
    fr.cand_begin = static_cast<std::uint32_t>(fs.pool.size());
    fr.cand_count = static_cast<std::uint32_t>(r.candidates.size());
    fs.pool.insert(fs.pool.end(), r.candidates.begin(), r.candidates.end());
    fs.requests.push_back(fr);
  }
  return fs;
}

std::vector<FragmentRequest> RandomRequests(Rng* rng, std::size_t node_count,
                                            std::size_t max_requests) {
  const std::size_t n_req = rng->Uniform(max_requests + 1);
  std::vector<FragmentRequest> reqs;
  reqs.reserve(n_req);
  for (std::size_t i = 0; i < n_req; ++i) {
    std::vector<NodeId> all(node_count);
    std::iota(all.begin(), all.end(), NodeId{0});
    rng->Shuffle(&all);
    const std::size_t n_cand =
        1 + rng->Uniform(std::min<std::size_t>(node_count, 6));
    all.resize(n_cand);
    reqs.push_back(Req(static_cast<FlatFragmentId>(i),
                       1 + rng->Uniform(500000), std::move(all)));
  }
  return reqs;
}

std::vector<double> RandomWaits(Rng* rng, std::size_t node_count) {
  std::vector<double> waits(node_count);
  for (double& w : waits) w = rng->NextDouble() * 10.0;
  return waits;
}

/// A seed router from tests/routing_oracle.h.
using OracleFn = std::function<Result<std::vector<RoutedRead>>(
    const std::vector<FragmentRequest>&, std::vector<double>, double,
    double)>;

/// The seed PowerOfTwo drawing from `*rng`, which the caller seeds like
/// the router under test.
OracleFn SeedPowerOfTwo(Rng* rng) {
  return [rng](const std::vector<FragmentRequest>& r, std::vector<double> w,
               double rspt, double phi) {
    return oracle::PowerOfTwoRoute(r, std::move(w), rspt, phi, rng);
  };
}

void ExpectSameReads(const std::vector<RoutedRead>& got,
                     const std::vector<RoutedRead>& want,
                     std::string_view router, const char* path) {
  ASSERT_EQ(got.size(), want.size()) << router << " " << path;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].request_index, want[i].request_index)
        << router << " " << path << " diverged at position " << i;
    EXPECT_EQ(got[i].node, want[i].node)
        << router << " " << path << " diverged at position " << i;
  }
}

/// Routes `reqs` through the seed `oracle`, through `via_route`'s Route
/// and through `via_into`'s RouteInto (over the flattened batch + a
/// WaitView), and asserts identical outcomes. The two router pointers may
/// be the same object for deterministic routers; the PowerOfTwo tests
/// pass two instances seeded like the oracle's generator, so each of the
/// three paths keeps its own RNG stream.
void ExpectSameRouting(const OracleFn& oracle, ScanRouter* via_route,
                       ScanRouter* via_into,
                       const std::vector<FragmentRequest>& reqs,
                       const std::vector<double>& waits, double rspt,
                       double phi, RouterScratch* scratch,
                       std::vector<RoutedRead>* out) {
  const FlatSet fs = Flatten(reqs);
  const Result<std::vector<RoutedRead>> ref = oracle(reqs, waits, rspt, phi);
  const Result<std::vector<RoutedRead>> routed =
      via_route->Route(reqs, waits, rspt, phi);
  const WaitView view(waits.data(), waits.size(), /*at=*/0.0);
  const Status st =
      via_into->RouteInto(fs.Batch(), view, rspt, phi, scratch, out);
  ASSERT_EQ(ref.ok(), routed.ok()) << via_route->name() << ": Route";
  ASSERT_EQ(ref.ok(), st.ok()) << via_into->name() << ": RouteInto";
  if (!ref.ok()) {
    EXPECT_EQ(routed.status().code(), ref.status().code());
    EXPECT_EQ(routed.status().message(), ref.status().message());
    EXPECT_EQ(st.code(), ref.status().code());
    EXPECT_EQ(st.message(), ref.status().message());
    return;
  }
  ExpectSameReads(*routed, *ref, via_route->name(), "Route");
  ExpectSameReads(*out, *ref, via_into->name(), "RouteInto");
}

class RouterEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RouterEquivalenceTest, DeterministicRoutersMatchOnRandomSets) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  RouterScratch scratch;  // deliberately reused across routers and scans
  std::vector<RoutedRead> out;
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 8; ++round) {
      const auto reqs = RandomRequests(&rng, node_count, 20);
      const auto waits = RandomWaits(&rng, node_count);
      const double rspt = 1e-6 * (1 + rng.Uniform(100));
      const double phi = rng.NextDouble();
      ExpectSameRouting(oracle::MaxOfMinsRoute, &mm, &mm, reqs, waits, rspt,
                        phi, &scratch, &out);
      ExpectSameRouting(oracle::ShortestQueueRoute, &sq, &sq, reqs, waits,
                        rspt, phi, &scratch, &out);
      ExpectSameRouting(oracle::GreedyScRoute, &gsc, &gsc, reqs, waits, rspt,
                        phi, &scratch, &out);
    }
  }
}

TEST_P(RouterEquivalenceTest, PowerOfTwoMatchesWithPairedRngStreams) {
  Rng rng(GetParam());
  // Three same-seeded streams: the seed oracle's, the Route path's and
  // the RouteInto path's. They stay in lockstep across many calls only if
  // every call consumes identically — a drift anywhere poisons all later
  // comparisons, which is exactly the property the driver relies on.
  Rng oracle_rng(GetParam());
  PowerOfTwoRouter via_route(GetParam());
  PowerOfTwoRouter via_into(GetParam());
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 8; ++round) {
      const auto reqs = RandomRequests(&rng, node_count, 20);
      const auto waits = RandomWaits(&rng, node_count);
      ExpectSameRouting(SeedPowerOfTwo(&oracle_rng), &via_route, &via_into,
                        reqs, waits, 1e-5, 0.35, &scratch, &out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ edge cases

TEST(RouterEquivalenceEdgeTest, EmptyBatchRoutesToNothing) {
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  Rng p2_rng(7);
  PowerOfTwoRouter p2r(7), p2i(7);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const std::vector<FragmentRequest> none;
  const std::vector<double> waits = {1.0, 2.0};
  ExpectSameRouting(oracle::MaxOfMinsRoute, &mm, &mm, none, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::ShortestQueueRoute, &sq, &sq, none, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::GreedyScRoute, &gsc, &gsc, none, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2r, &p2i, none, waits, 1e-5,
                    0.35, &scratch, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RouterEquivalenceEdgeTest, EmptyCandidateListFailsOnBothPaths) {
  // A fragment with no live replica (mid-fault): the seed router, Route
  // and RouteInto must all return the same FailedPrecondition, and
  // RouteInto must not have touched the output.
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  Rng p2_rng(7);
  PowerOfTwoRouter p2r(7), p2i(7);
  RouterScratch scratch;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {1}), Req(1, 10, {})};
  const std::vector<double> waits = {0.0, 0.0, 0.0};
  const std::vector<RoutedRead> sentinel = {RoutedRead{5, 2}};
  std::vector<RoutedRead> out = sentinel;
  ExpectSameRouting(oracle::MaxOfMinsRoute, &mm, &mm, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::ShortestQueueRoute, &sq, &sq, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::GreedyScRoute, &gsc, &gsc, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2r, &p2i, reqs, waits, 1e-5,
                    0.35, &scratch, &out);

  const FlatSet fs = Flatten(reqs);
  const WaitView view(waits.data(), waits.size(), 0.0);
  const Status st = mm.RouteInto(fs.Batch(), view, 1e-5, 0.35, &scratch, &out);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_EQ(out.size(), sentinel.size());
  EXPECT_EQ(out[0].request_index, sentinel[0].request_index);
  EXPECT_EQ(out[0].node, sentinel[0].node);
}

TEST(RouterEquivalenceEdgeTest, SingleNodeClusterPinsEverything) {
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  Rng p2_rng(9);
  PowerOfTwoRouter p2r(9), p2i(9);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  std::vector<FragmentRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(Req(i, 100 * (i + 1), {0}));
  const std::vector<double> waits = {3.5};
  ExpectSameRouting(oracle::MaxOfMinsRoute, &mm, &mm, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::ShortestQueueRoute, &sq, &sq, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(oracle::GreedyScRoute, &gsc, &gsc, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2r, &p2i, reqs, waits, 1e-5,
                    0.35, &scratch, &out);
  ASSERT_EQ(out.size(), reqs.size());
  for (const RoutedRead& rr : out) EXPECT_EQ(rr.node, 0u);
}

TEST(RouterEquivalenceEdgeTest, WaitViewAppliesTheWaitSecondsFormula) {
  // WaitView must clamp exactly like ClusterSim::WaitSeconds: busy-until
  // values in the past read as zero wait, not negative.
  const std::vector<SimTime> busy_until = {5.0, 100.0, 250.0};
  const WaitView view(busy_until.data(), busy_until.size(), /*at=*/100.0);
  EXPECT_EQ(view.At(0), 0.0);
  EXPECT_EQ(view.At(1), 0.0);
  EXPECT_EQ(view.At(2), 150.0);
}

// ----------------------------------------- PowerOfTwo RNG contract (§10)

/// The three ways one scan can be routed with a PowerOfTwo generator.
enum class Path { kOracle, kRoute, kRouteInto };

const char* PathName(Path path) {
  switch (path) {
    case Path::kOracle:
      return "seed oracle";
    case Path::kRoute:
      return "Route";
    case Path::kRouteInto:
      return "RouteInto";
  }
  return "?";
}

/// Routes `reqs` once along `path` with generator seed 42 and returns the
/// generator in its post-routing state.
Rng RouteWithSeed42(Path path, const std::vector<FragmentRequest>& reqs,
                    const std::vector<double>& waits) {
  Rng rng(42);
  PowerOfTwoRouter router(42);
  switch (path) {
    case Path::kOracle:
      EXPECT_TRUE(oracle::PowerOfTwoRoute(reqs, waits, 1e-5, 0.35, &rng).ok());
      return rng;
    case Path::kRoute:
      EXPECT_TRUE(router.Route(reqs, waits, 1e-5, 0.35).ok());
      break;
    case Path::kRouteInto: {
      const FlatSet fs = Flatten(reqs);
      RouterScratch scratch;
      std::vector<RoutedRead> out;
      const WaitView view(waits.data(), waits.size(), 0.0);
      EXPECT_TRUE(
          router.RouteInto(fs.Batch(), view, 1e-5, 0.35, &scratch, &out).ok());
      break;
    }
  }
  return *router.mutable_rng_for_test();
}

// A request with <= 2 candidates must not consume randomness at all.
TEST(PowerOfTwoRngContractTest, NoDrawForTwoOrFewerCandidates) {
  for (const Path path : {Path::kOracle, Path::kRoute, Path::kRouteInto}) {
    const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                               Req(1, 10, {1, 2})};
    const std::vector<double> waits = {0.0, 1.0, 2.0};
    Rng after = RouteWithSeed42(path, reqs, waits);
    // The generator must be exactly where a fresh same-seeded generator
    // starts.
    Rng untouched(42);
    EXPECT_EQ(after.NextU64(), untouched.NextU64())
        << PathName(path) << " consumed randomness";
  }
}

// A request with > 2 candidates draws exactly twice: Uniform(c) then
// Uniform(c - 1).
TEST(PowerOfTwoRngContractTest, ExactlyTwoDrawsPerLargeRequest) {
  for (const Path path : {Path::kOracle, Path::kRoute, Path::kRouteInto}) {
    // Candidate counts 1, 5, 2, 3: draws only for the 5 and the 3.
    const std::vector<FragmentRequest> reqs = {
        Req(0, 10, {0}), Req(1, 10, {0, 1, 2, 3, 4}), Req(2, 10, {1, 2}),
        Req(3, 10, {2, 3, 4})};
    const std::vector<double> waits = {0.0, 0.5, 1.0, 1.5, 2.0};
    Rng after = RouteWithSeed42(path, reqs, waits);
    Rng reference(42);
    (void)reference.Uniform(5);
    (void)reference.Uniform(4);
    (void)reference.Uniform(3);
    (void)reference.Uniform(2);
    // After replaying the expected draws the two streams must coincide.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(after.NextU64(), reference.NextU64())
          << PathName(path) << " draw count/order mismatch";
    }
  }
}

}  // namespace
}  // namespace nashdb

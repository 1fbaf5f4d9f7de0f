#ifndef NASHDB_ROUTING_ROUTER_H_
#define NASHDB_ROUTING_ROUTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "replication/cluster_config.h"

namespace nashdb {

/// One fragment that a range scan must fetch, with the replica-holding
/// candidate nodes (E(s) restricted to this fragment).
struct FragmentRequest {
  FlatFragmentId frag = 0;
  TupleCount tuples = 0;
  std::vector<NodeId> candidates;
};

/// A scheduled fragment read: request `request_index` is served by `node`.
/// The order of RoutedReads is the order in which reads are enqueued.
struct RoutedRead {
  std::size_t request_index = 0;
  NodeId node = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Allocation-free hot path (steady-state query path, DESIGN.md §10–§11).
// The driver resolves blocks of scans into flat request records whose
// candidate lists are spans into a shared NodeId pool, evaluates per-node
// waits lazily through a WaitView over the sim's incrementally-maintained
// busy-until array, and routes through RouteBatchInto with a reusable
// RouterScratch — no per-scan vector allocations and no work proportional
// to the cluster size.
// ---------------------------------------------------------------------------

/// Flat form of one FragmentRequest: candidates are `cand_count` entries
/// starting at `cand_begin` in the batch's candidate pool.
struct FlatRequest {
  FlatFragmentId frag = 0;
  TupleCount tuples = 0;
  std::uint32_t cand_begin = 0;
  std::uint32_t cand_count = 0;
};

/// Non-owning view of one scan's requests plus the candidate pool the
/// requests' spans index into. Candidate lists must be duplicate-free (the
/// ClusterConfig invariant — no node holds two replicas of one fragment).
struct RequestBatch {
  const FlatRequest* requests = nullptr;
  std::size_t count = 0;
  const NodeId* cand_pool = nullptr;

  const NodeId* cands(const FlatRequest& r) const {
    return cand_pool + r.cand_begin;
  }
};

/// O(1) per-node wait lookup at a fixed scheduling time: wait(m) =
/// max(0, busy_until[m] - at), the exact ClusterSim::WaitSeconds formula
/// over the sim's busy-until array (which the sim already maintains
/// incrementally on every enqueue / transition / fault). Replaces the
/// per-scan O(node_count) wait-vector rebuild. For tests, any array of
/// non-negative base waits with at = 0 is an equivalent source.
class WaitView {
 public:
  WaitView(const SimTime* busy_until, std::size_t node_count, SimTime at)
      : busy_until_(busy_until), node_count_(node_count), at_(at) {}

  NASHDB_HOT double At(NodeId m) const {
    return std::max<SimTime>(0.0, busy_until_[m] - at_);
  }
  std::size_t node_count() const { return node_count_; }

  /// Moves the scheduling time (batched routing: a BatchSink advances the
  /// view to the next scan's attempt time between scans; RouterScratch's lazy
  /// first-touch init re-reads the view each scan, so the new time is
  /// observed exactly as if a fresh view had been built per scan).
  NASHDB_HOT void set_at(SimTime at) { at_ = at; }

 private:
  const SimTime* busy_until_;
  std::size_t node_count_;
  SimTime at_;
};

/// Reusable working state for RouteBatchInto. One scratch may serve any
/// number of routers and blocks; it grows to the largest node count /
/// block seen and never shrinks. Per-node state (working wait, span
/// membership) is epoch-stamped, so beginning a new scan is O(1) — stale
/// entries from earlier scans are simply never read.
///
/// Treat everything below as opaque router working memory; the members are
/// public only because the four router implementations share them.
class RouterScratch {
 public:
  /// Binds the scratch to `waits` for a batch of scans: the view pointer
  /// is stored and the node-state array grown once, so the per-scan cost
  /// inside the batch is a single epoch bump (NextScan). The WaitView may
  /// be backed by live state (the sim's busy-until array): each scan's
  /// lazy first-touch init re-reads it, so updates applied between scans
  /// (the driver enqueuing one scan's reads before routing the next) are
  /// observed exactly as if each scan were routed as its own block.
  void BeginBatch(const WaitView& waits) {
    view_ = &waits;
    if (nodes_.size() < waits.node_count()) nodes_.resize(waits.node_count());
  }

  /// Starts the next scan of the current batch: O(1), invalidating every
  /// node's cached wait/used/local-id state via the epoch stamp.
  void NextScan() { ++epoch_; }

  /// Node m's working wait: lazily initialized from the view on first
  /// touch this scan, then advanced in place by AddWait — the same
  /// accumulate-into-one-double sequence as the legacy waits vector, so
  /// results are bit-identical.
  double Wait(NodeId m) { return Touch(m).wait; }
  void AddWait(NodeId m, double delta) { Touch(m).wait += delta; }

  /// Span membership of node m within the current scan.
  bool Used(NodeId m) { return Touch(m).used; }
  void MarkUsed(NodeId m) { Touch(m).used = true; }

  /// Node m's span-adjusted wait in a single epoch check: bitwise the
  /// same `Wait(m) + (Used(m) ? 0.0 : phi_s)` sum the routers compute,
  /// without touching the node state twice.
  double AdjustedWait(NodeId m, double phi_s) {
    const NodeState& st = Touch(m);
    return st.wait + (st.used ? 0.0 : phi_s);
  }

  /// Per-request scheduled flags (sized per call by the router).
  std::vector<std::uint8_t> scheduled;

  // --- Greedy set-cover state (postings lists, built per call) ---------
  /// Dense local id per node touched this call, in first-appearance order.
  std::uint32_t LocalId(NodeId m) {
    NodeState& st = Touch(m);
    if (st.local_id == kNoLocalId) {
      st.local_id = static_cast<std::uint32_t>(call_nodes_.size());
      call_nodes_.push_back(m);
    }
    return st.local_id;
  }

  std::vector<NodeId> call_nodes_;       // local id -> NodeId
  std::vector<std::uint32_t> post_off_;  // per local id: offset into post_req_
  std::vector<std::uint32_t> post_req_;  // request indices, ascending per node
  std::vector<std::uint32_t> post_cursor_;  // fill cursors (build pass 2)
  std::vector<std::uint64_t> round_stamp_;  // per local id, Greedy SC rounds
  std::uint64_t round_epoch_ = 0;

 private:
  static constexpr std::uint32_t kNoLocalId = 0xffffffffu;

  struct NodeState {
    std::uint64_t stamp = 0;
    double wait = 0.0;
    bool used = false;
    std::uint32_t local_id = kNoLocalId;
  };

  NodeState& Touch(NodeId m) {
    NodeState& st = nodes_[m];
    if (st.stamp != epoch_) {
      st.stamp = epoch_;
      st.wait = view_->At(m);
      st.used = false;
      st.local_id = kNoLocalId;
    }
    return st;
  }

  std::vector<NodeState> nodes_;
  std::uint64_t epoch_ = 0;
  const WaitView* view_ = nullptr;
};

/// A structure-of-arrays block of scans with resolved requests
/// (routing/scan_batch.h), routed as one unit by RouteBatchInto.
struct ScanBatch;

/// Per-scan completion hook for RouteBatchInto. The router calls
/// OnScanRouted exactly once per scan of the batch, in batch order,
/// immediately after that scan's reads are appended and *before* the next
/// scan's waits are first read — so a sink that advances the WaitView's
/// backing state (the driver enqueuing reads into the sim) makes the next
/// scan observe exactly the state it would see routed as its own block.
/// `reads[k].request_index` is relative to the scan's own request span.
/// A scan that resolved to zero requests is reported with count == 0.
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                            std::size_t count) = 0;
};

/// Strategy for routing the fragment reads of range scans to replica
/// nodes (paper §8). A router implements one kernel, RouteBatchInto; the
/// single-scan entry points Route and RouteInto are written once, here,
/// as one-scan blocks through it.
class ScanRouter {
 public:
  virtual ~ScanRouter() = default;

  virtual std::string_view name() const = 0;

  /// Routes every scan of `batch` against one WaitView in a single pass
  /// (DESIGN.md §11), amortizing scratch setup, candidate-span resolution
  /// and virtual dispatch across the block. `waits.At(m)` is node m's
  /// queued work in seconds at scheduling time; `read_seconds_per_tuple`
  /// converts a request's tuple count to disk time; `phi_s` is the
  /// estimated penalty for growing a query's span by one node (the
  /// paper's φ = 350 ms). Every request is assigned exactly one candidate
  /// node. Scans are routed in batch order, and the block size never
  /// changes a decision — node for node, tie for tie, RNG draw for RNG
  /// draw (the batch equivalence suite sweeps block sizes against
  /// one-scan blocks, and the router equivalence suite checks one-scan
  /// blocks against the seed routers kept in tests/routing_oracle.h). All
  /// reads accumulate into `*out` (cleared first), each scan's slice
  /// reported to `sink` (may be null) as it completes.
  ///
  /// Candidate lists reflect the *live* replicas of a fragment; under
  /// node failures a list can be empty, which makes the scan unroutable
  /// right now: RouteBatchInto returns FailedPrecondition with a
  /// partial-commit guarantee — every scan before the failing one is
  /// fully routed and reported to the sink; the failing scan and all
  /// later scans are untouched. The caller resumes from the first
  /// unreported scan (the driver's retry path retries it alone as a
  /// one-scan block, then routes the rest as a new block).
  virtual Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                                double read_seconds_per_tuple, double phi_s,
                                RouterScratch* scratch,
                                std::vector<RoutedRead>* out,
                                BatchSink* sink) = 0;

  /// Convenience form for one scan given as owning request vectors and a
  /// plain wait vector (`waits[m]`, non-negative seconds): a one-scan
  /// block over a WaitView at time 0. Allocates; the query path routes
  /// blocks instead.
  ///
  /// Route and RouteInto are virtual only so a decorator can intercept
  /// them (perfbench/perfbench.cc's timing BenchRouter overrides all
  /// three entry points); no router overrides them.
  virtual Result<std::vector<RoutedRead>> Route(
      const std::vector<FragmentRequest>& requests, std::vector<double> waits,
      double read_seconds_per_tuple, double phi_s);

  /// One scan's flat requests as a one-scan block: the same decisions as
  /// RouteBatchInto, resolved into `*out`. Validates first, so a scan with
  /// an empty candidate span returns FailedPrecondition with `*out`
  /// untouched. Copies the request span into a fresh block, so it
  /// allocates.
  virtual Status RouteInto(const RequestBatch& requests,
                           const WaitView& waits,
                           double read_seconds_per_tuple, double phi_s,
                           RouterScratch* scratch,
                           std::vector<RoutedRead>* out);
};

/// The paper's Max-of-mins router: repeatedly schedules the request whose
/// *minimum achievable* wait (over candidates, adding φ for nodes the scan
/// does not already use) is *largest* — the bottleneck read — onto its
/// minimum-wait node. Grows span only when doing so beats every
/// already-used node despite the penalty (Eq. 11).
class MaxOfMinsRouter : public ScanRouter {
 public:
  std::string_view name() const override { return "Max of mins"; }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override;
};

/// Baseline: each request goes to its shortest-queue candidate, ignoring
/// span entirely (the paper's "Shortest queue").
class ShortestQueueRouter : public ScanRouter {
 public:
  std::string_view name() const override { return "Shortest queue"; }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override;
};

/// Baseline: greedy set cover minimizing query span ([24]; the paper's
/// "Greedy SC"): repeatedly pick the node covering the most remaining
/// tuples and assign it all requests it can serve. Each scan builds
/// node→requests postings lists, making a round O(total candidate
/// entries) instead of the seed implementation's O(requests² · |cand|)
/// std::find loops, while visiting nodes in the identical
/// first-appearance order (so decisions, including ties, match exactly).
class GreedyScRouter : public ScanRouter {
 public:
  std::string_view name() const override { return "Greedy SC"; }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override;
};

/// "Power of two choices" variant (the paper's footnote 3, after [32,
/// 35]): for workloads of many small scans, evaluating every replica's
/// queue is wasteful; instead each request samples two random candidate
/// nodes and takes the better one under the Eq. 11 criterion
/// (wait + φ if the node is not yet in the query's span). O(1) per
/// request regardless of replication factor.
///
/// RNG-consumption contract (pinned by unit test; determinism tests
/// depend on the draw order): a request with <= 2 candidates draws
/// nothing; a request with > 2 candidates draws exactly two values
/// (Uniform(c) then Uniform(c - 1)), in block order, whatever the block
/// size.
class PowerOfTwoRouter : public ScanRouter {
 public:
  explicit PowerOfTwoRouter(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::string_view name() const override { return "Power of two"; }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override;

  /// Test-only seam for the RNG-consumption contract test: exposes the
  /// internal generator so a test can compare its state against a
  /// reference Rng that replayed the expected draws.
  Rng* mutable_rng_for_test() { return &rng_; }

 private:
  Rng rng_;
};

/// Number of distinct nodes in a routing (the query-span contribution of
/// one scan).
std::size_t SpanOf(const std::vector<RoutedRead>& reads);

}  // namespace nashdb

#endif  // NASHDB_ROUTING_ROUTER_H_

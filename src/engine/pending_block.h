#ifndef NASHDB_ENGINE_PENDING_BLOCK_H_
#define NASHDB_ENGINE_PENDING_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "cluster/sim.h"
#include "common/logging.h"
#include "common/status.h"
#include "engine/config_index.h"
#include "engine/driver.h"
#include "engine/liveness_overlay.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/workload.h"

namespace nashdb {

/// What a flush needs to route around failed nodes (DESIGN.md §8): the
/// driver's liveness overlay and the retry/abort rules.
struct FlushFaults {
  const LivenessOverlay* liveness = nullptr;
  const FaultOptions* options = nullptr;
};

/// The serial query path (DESIGN.md §10–§11), also run by every shard of
/// the sharded data plane: admitted queries' scans gather into one SoA
/// block, which is routed with one resolve pass and one RouteBatchInto
/// call — one scratch bind and one virtual dispatch per block instead of
/// per scan.
///
/// As the router's BatchSink it commits each scan's reads into the sim the
/// moment the router reports them — before the next scan's waits are first
/// read — then advances the shared WaitView to the next scan's attempt
/// time. Together with RouterScratch's per-scan lazy re-init this makes a
/// block of any size bit-identical to routing the same scans one at a
/// time (enforced by the golden digests). Callers flush before every
/// configuration change, so a routed block never spans epochs.
class PendingBlock final : public BatchSink {
 public:
  /// Routes against `sim`'s queue state with the routers' φ = `phi_s`.
  /// `collect` records the per-read routing.requests / routing.queue_wait_s
  /// metrics (the serial driver's registry; shards record none).
  PendingBlock(ClusterSim* sim, double phi_s, bool collect)
      : sim_(sim),
        spt_(1.0 / sim->options().tuples_per_second),
        phi_s_(phi_s),
        collect_(collect) {}

  /// Scans waiting in the block.
  std::size_t scans() const { return block_.size(); }

  /// Opens `tq`'s record, stamped with the configuration `epoch` it will
  /// be routed against, and appends its scans to the block.
  void Admit(const TimedQuery& tq, std::uint64_t epoch);

  /// Routes the block against `index` and hands every admitted query's
  /// finalized record to `commit(const QueryRecord&)` in admission order,
  /// then empties the block.
  ///
  /// `faults` is null when no fault can make a candidate unroutable (the
  /// fault-free driver, the shards): every candidate span is non-empty
  /// (ResolveBatchInto CHECKs replica coverage), so a routing failure is
  /// a bug. Otherwise, while some node is down, each scan routes over
  /// its candidates routable at its attempt time, and a scan left with
  /// an empty span (a coverage gap) retries alone with capped
  /// exponential backoff (RetryBackoffSeconds) — the scans routed before
  /// it stay committed — until it routes or its query aborts (retries,
  /// shared budget or timeout exhausted), dropping the query's remaining
  /// scans.
  template <typename Commit>
  void Flush(const ConfigIndex& index, ScanRouter* router, Commit&& commit,
             const FlushFaults* faults = nullptr) {
    if (pending_.empty()) return;
    if (!block_.empty()) {
      index.ResolveBatchInto(&block_);
      if (faults != nullptr &&
          faults->liveness->AnyDeadAt(scan_at_.front())) {
        RouteDegraded(router, *faults);
      } else {
        const Status status = RouteScans(router, block_, 0);
        NASHDB_CHECK(status.ok()) << status.message();
      }
    }
    for (PendingQuery& pq : pending_) {
      pq.record.completion = pq.completion;
      pq.record.latency_s = pq.completion - pq.record.arrival;
      pq.record.span = pq.nodes_used.size();
      commit(pq.record);
    }
    pending_.clear();
    block_.Clear();
    scan_slot_.clear();
    scan_at_.clear();
  }

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override;

 private:
  /// One admitted query's routing state while its scans sit in the block.
  struct PendingQuery {
    QueryRecord record;
    std::set<NodeId> nodes_used;
    SimTime completion = 0.0;
  };

  /// Routes `batch`, whose scan k is block scan `begin + k`, each scan at
  /// its attempt time. On FailedPrecondition the scans before the failing
  /// one are committed (the routers' partial-commit contract) and
  /// `next_scan_` names the failing scan.
  Status RouteScans(ScanRouter* router, const ScanBatch& batch,
                    std::size_t begin);

  /// Rebuilds `live_` from block scans [begin, end), each scan's
  /// candidates filtered to the nodes routable at its attempt time, and
  /// routes it.
  Status RouteLive(ScanRouter* router, const LivenessOverlay& liveness,
                   std::size_t begin, std::size_t end);

  /// The degraded route of a resolved block: routes the live block and
  /// retries each coverage gap until every scan is routed or dropped.
  void RouteDegraded(ScanRouter* router, const FlushFaults& faults);

  /// Retries block scan `s` alone until it routes or its query aborts;
  /// returns the next block scan to route.
  std::size_t RetryScan(ScanRouter* router, const FlushFaults& faults,
                        std::size_t s);

  ClusterSim* const sim_;
  const double spt_;
  const double phi_s_;
  const bool collect_;
  ScanBatch block_;
  std::vector<std::size_t> scan_slot_;  // block scan -> pending slot
  /// Block scan -> attempt time: the arrival, moved forward by retries.
  std::vector<SimTime> scan_at_;
  std::vector<PendingQuery> pending_;
  RouterScratch scratch_;
  std::vector<RoutedRead> routed_;
  /// The block's routable-candidates view while some node is down
  /// (candidate spans index into `live_cands_`).
  ScanBatch live_;
  std::vector<NodeId> live_cands_;
  // Set only while a batch is being routed: its view, and the block scans
  // it covers, [route_begin_, route_end_).
  WaitView* view_ = nullptr;
  std::size_t route_begin_ = 0;
  std::size_t route_end_ = 0;
  std::size_t next_scan_ = 0;  // first block scan not yet routed
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_PENDING_BLOCK_H_

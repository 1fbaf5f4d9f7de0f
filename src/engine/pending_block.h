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
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/workload.h"

namespace nashdb {

/// The batched block path (DESIGN.md §11), shared by the serial driver and
/// every shard of the sharded data plane: admitted queries' scans gather
/// into one SoA block, which is routed with one resolve pass and one
/// RouteBatchInto call — one scratch bind and one virtual dispatch per
/// block instead of per scan.
///
/// As the router's BatchSink it commits each scan's reads into the sim the
/// moment the router reports them — before the next scan's waits are first
/// read — then advances the shared WaitView to the next scan's arrival.
/// Together with RouterScratch's per-scan lazy re-init this makes a block
/// of any size bit-identical to routing the same scans one at a time
/// (enforced by the batch golden tests). Callers flush before every
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
  /// then empties the block. Routing cannot fail here: the block path only
  /// runs fault-free, where every candidate span is non-empty
  /// (ResolveBatchInto CHECKs replica coverage), so a failure is a bug,
  /// not a condition to retry.
  template <typename Commit>
  void Flush(const ConfigIndex& index, ScanRouter* router, Commit&& commit) {
    if (pending_.empty()) return;
    if (!block_.empty()) {
      index.ResolveBatchInto(&block_);
      WaitView waits(sim_->BusyUntil().data(), sim_->node_count(),
                     scan_arrival_.front());
      view_ = &waits;
      const Status status = router->RouteBatchInto(
          block_, waits, spt_, phi_s_, &scratch_, &routed_, this);
      view_ = nullptr;
      NASHDB_CHECK(status.ok()) << status.message();
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
    scan_arrival_.clear();
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

  ClusterSim* const sim_;
  const double spt_;
  const double phi_s_;
  const bool collect_;
  ScanBatch block_;
  std::vector<std::size_t> scan_slot_;  // block scan -> pending slot
  std::vector<SimTime> scan_arrival_;   // block scan -> arrival time
  std::vector<PendingQuery> pending_;
  RouterScratch scratch_;
  std::vector<RoutedRead> routed_;
  WaitView* view_ = nullptr;  // set only while a block is being routed
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_PENDING_BLOCK_H_

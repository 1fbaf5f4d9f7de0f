#include "engine/pending_block.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace nashdb {

void PendingBlock::Admit(const TimedQuery& tq, std::uint64_t epoch) {
  PendingQuery pq;
  pq.record.id = tq.query.id;
  pq.record.price = tq.query.price;
  pq.record.arrival = tq.arrival;
  pq.record.epoch = epoch;
  pq.completion = tq.arrival;
  pending_.push_back(std::move(pq));
  const std::size_t slot = pending_.size() - 1;
  for (const Scan& scan : tq.query.scans) {
    block_.AddScan(tq.query.id, scan);
    scan_slot_.push_back(slot);
    scan_arrival_.push_back(tq.arrival);
  }
}

void PendingBlock::OnScanRouted(std::size_t scan_index,
                                const RoutedRead* reads, std::size_t count) {
  PendingQuery& pq = pending_[scan_slot_[scan_index]];
  const SimTime at = scan_arrival_[scan_index];
  const FlatRequest* reqs = block_.requests.data() + block_.req_off[scan_index];
  for (std::size_t k = 0; k < count; ++k) {
    const RoutedRead& rr = reads[k];
    const bool first_use = pq.nodes_used.insert(rr.node).second;
    const TupleCount tuples = reqs[rr.request_index].tuples;
    if (collect_) {
      metrics::Count("routing.requests");
      metrics::Observe("routing.queue_wait_s", sim_->WaitSeconds(rr.node, at));
    }
    const SimTime done = sim_->EnqueueRead(rr.node, tuples, at, first_use);
    pq.completion = std::max(pq.completion, done);
    pq.record.tuples_read += tuples;
  }
  if (scan_index + 1 < scan_arrival_.size()) {
    view_->set_at(scan_arrival_[scan_index + 1]);
  }
}

}  // namespace nashdb

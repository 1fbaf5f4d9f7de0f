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
    scan_at_.push_back(tq.arrival);
  }
}

void PendingBlock::OnScanRouted(std::size_t scan_index,
                                const RoutedRead* reads, std::size_t count) {
  const std::size_t s = route_begin_ + scan_index;
  PendingQuery& pq = pending_[scan_slot_[s]];
  const SimTime at = scan_at_[s];
  const FlatRequest* reqs = block_.requests.data() + block_.req_off[s];
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
  next_scan_ = s + 1;
  if (next_scan_ < route_end_) view_->set_at(scan_at_[next_scan_]);
}

Status PendingBlock::RouteScans(ScanRouter* router, const ScanBatch& batch,
                                std::size_t begin) {
  WaitView waits(sim_->BusyUntil().data(), sim_->node_count(),
                 scan_at_[begin]);
  view_ = &waits;
  route_begin_ = begin;
  route_end_ = begin + batch.size();
  next_scan_ = begin;
  const Status status = router->RouteBatchInto(batch, waits, spt_, phi_s_,
                                               &scratch_, &routed_, this);
  view_ = nullptr;
  return status;
}

Status PendingBlock::RouteLive(ScanRouter* router,
                               const LivenessOverlay& liveness,
                               std::size_t begin, std::size_t end) {
  live_.Clear();
  live_cands_.clear();
  live_.req_off.push_back(0);
  for (std::size_t i = begin; i < end; ++i) {
    live_.ids.push_back(block_.ids[i]);
    live_.tables.push_back(block_.tables[i]);
    live_.starts.push_back(block_.starts[i]);
    live_.ends.push_back(block_.ends[i]);
    live_.prices.push_back(block_.prices[i]);
    liveness.FilterLive(block_.ScanRequests(i), scan_at_[i], &live_.requests,
                        &live_cands_);
    live_.req_off.push_back(static_cast<std::uint32_t>(live_.requests.size()));
  }
  live_.cand_pool = live_cands_.data();
  return RouteScans(router, live_, begin);
}

void PendingBlock::RouteDegraded(ScanRouter* router,
                                 const FlushFaults& faults) {
  std::size_t next = 0;
  while (next < block_.size()) {
    if (RouteLive(router, *faults.liveness, next, block_.size()).ok()) return;
    next = RetryScan(router, faults, next_scan_);
  }
}

std::size_t PendingBlock::RetryScan(ScanRouter* router,
                                    const FlushFaults& faults, std::size_t s) {
  const FaultOptions& opts = *faults.options;
  QueryRecord& record = pending_[scan_slot_[s]].record;
  // Scheduled recoveries are visible to future-time liveness queries, so
  // waiting can succeed without any new event delivery.
  for (std::size_t attempt = 1; attempt <= opts.max_scan_retries; ++attempt) {
    // Shared per-query pool (when configured): the retry about to be
    // consumed must still fit, so the budget is exhausted exactly at the
    // documented bound (record.retries == budget on abort).
    if (opts.query_retry_budget > 0 &&
        record.retries >= opts.query_retry_budget) {
      break;
    }
    scan_at_[s] += RetryBackoffSeconds(opts, attempt);
    ++record.retries;
    if (scan_at_[s] - record.arrival > opts.query_timeout_s) break;
    if (RouteLive(router, *faults.liveness, s, s + 1).ok()) return s + 1;
  }
  // Abort: reads enqueued by the query's earlier scans stay queued; its
  // remaining scans are dropped.
  record.aborted = true;
  const std::size_t slot = scan_slot_[s];
  while (s < block_.size() && scan_slot_[s] == slot) ++s;
  return s;
}

}  // namespace nashdb

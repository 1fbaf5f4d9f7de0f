#include "routing/router.h"

#include <algorithm>
#include <limits>
#include <set>

#include <string>

#include "common/logging.h"
#include "routing/scan_batch.h"

namespace nashdb {

namespace {

// The shared no-live-replica failure, so every validation site — the
// standalone passes and the fused check inside the MaxOfMins batch core —
// produces the identical status.
Status NoLiveReplica(FlatFragmentId frag) {
  return Status::FailedPrecondition("fragment " + std::to_string(frag) +
                                    " has no live replica-holding node");
}

// Shared batch loop (DESIGN.md §11): one scratch bind per block, then the
// router's per-scan core. A core that reads the scratch must open every
// scan with scratch->NextScan() (the scratch-free MaxOfMins fast paths
// skip the bump entirely). `core(reqs, out)` must append exactly
// reqs.count reads with scan-relative request indices, depending on
// nothing but the scan, the view and the scratch — so a scan routes the
// same in a block of any size (the batch equivalence suite sweeps block
// sizes). Partial-commit contract on failure: scans before the failing
// one are routed and reported; the failing scan's partial output (a core
// may fail mid-append) is rolled back, so it leaves no trace.
template <typename Core>
NASHDB_HOT Status RouteBatchImpl(const ScanBatch& batch, const WaitView& waits,
                                 RouterScratch* scratch,
                                 std::vector<RoutedRead>* out, BatchSink* sink,
                                 Core&& core) {
  out->clear();
  // One read per request on success; `out` keeps its capacity across
  // blocks, so the steady state re-reserves into existing storage.
  // NASHDB_LINT_ALLOW(hot-alloc): reserve into caller-reused capacity
  out->reserve(batch.requests.size());
  scratch->BeginBatch(waits);
  for (std::size_t s = 0; s < batch.size(); ++s) {
    const RequestBatch reqs = batch.ScanRequests(s);
    if (reqs.count == 0) {
      // A scan overlapping no fragment routes nothing; the sink still
      // hears about it so commit counting stays one-call-per-scan.
      if (sink != nullptr) sink->OnScanRouted(s, nullptr, 0);
      continue;
    }
    const std::size_t base = out->size();
    const Status st = core(reqs, out);
    if (!st.ok()) {
      // NASHDB_LINT_ALLOW(hot-alloc): shrink-only rollback, no growth
      out->resize(base);
      return st;
    }
    if (sink != nullptr) {
      sink->OnScanRouted(s, out->data() + base, out->size() - base);
    }
  }
  return Status::OK();
}

// Shared precondition for the routers whose cores do not fuse it: every
// request must have at least one candidate replica. Returns
// FailedPrecondition naming the first fragment with none.
Status ValidateRoutable(const RequestBatch& requests) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    if (req.cand_count == 0) return NoLiveReplica(req.frag);
  }
  return Status::OK();
}

}  // namespace

std::size_t SpanOf(const std::vector<RoutedRead>& reads) {
  std::set<NodeId> nodes;
  for (const RoutedRead& r : reads) nodes.insert(r.node);
  return nodes.size();
}

// ----------------------------------------------------- one-scan entries

Result<std::vector<RoutedRead>> ScanRouter::Route(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  std::vector<FlatRequest> flat;
  std::vector<NodeId> pool;
  for (const FragmentRequest& r : requests) {
    const auto cand_count = static_cast<std::uint32_t>(r.candidates.size());
    flat.push_back(FlatRequest{r.frag, r.tuples,
                               static_cast<std::uint32_t>(pool.size()),
                               cand_count});
    pool.insert(pool.end(), r.candidates.begin(), r.candidates.end());
  }
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  NASHDB_RETURN_IF_ERROR(ScanRouter::RouteInto(
      RequestBatch{flat.data(), flat.size(), pool.data()},
      WaitView(waits.data(), waits.size(), /*at=*/0.0),
      read_seconds_per_tuple, phi_s, &scratch, &out));
  return out;
}

Status ScanRouter::RouteInto(const RequestBatch& requests,
                             const WaitView& waits,
                             double read_seconds_per_tuple, double phi_s,
                             RouterScratch* scratch,
                             std::vector<RoutedRead>* out) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  // One placeholder scan: routing reads only the resolved request table.
  ScanBatch block;
  block.tables.push_back(0);
  block.req_off = {0, static_cast<std::uint32_t>(requests.count)};
  block.requests.assign(requests.requests, requests.requests + requests.count);
  block.cand_pool = requests.cand_pool;
  return RouteBatchInto(block, waits, read_seconds_per_tuple, phi_s, scratch,
                        out, /*sink=*/nullptr);
}

// ------------------------------------------------------------ MaxOfMins

namespace {

// Max-of-mins core: the seed router's rounds (tests/routing_oracle.h) —
// node for node, tie for tie, float op for float op — with the
// block-dominant shapes specialized (DESIGN.md §11):
//
// - A single-request scan needs no rounds and no scratch state at all.
//   At scan start every node is outside the span (used == false), so the
//   adjusted wait is exactly `view wait + phi` — the identical addition
//   the generic round computes through the scratch's lazy init — and the
//   scan reduces to one strict-min sweep over the candidate span (first
//   minimum wins, as in the generic loop's `<` compare).
// - Validation is fused into the scheduling rounds instead of a separate
//   pass: an empty candidate span leaves that request's minimum at +inf,
//   which wins the max-of-mins in round one before anything has been
//   scheduled, so the failure surfaces with zero reads appended and the
//   partial-commit contract intact.
// - Candidate evaluation touches the epoch-stamped node state once per
//   candidate (AdjustedWait) instead of twice (Wait + Used).
NASHDB_HOT Status MaxOfMinsBatchCore(const RequestBatch& requests,
                                     const WaitView& waits,
                                     double read_seconds_per_tuple,
                                     double phi_s, RouterScratch* scratch,
                                     std::vector<RoutedRead>* out) {
  if (requests.count == 1) {
    const FlatRequest& req = requests.requests[0];
    if (req.cand_count == 0) return NoLiveReplica(req.frag);
    const NodeId* cand = requests.cands(req);
    double min_wait = std::numeric_limits<double>::infinity();
    NodeId min_node = kInvalidNode;
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      const NodeId m = cand[k];
      const double w = waits.At(m) + phi_s;
      if (w < min_wait) {
        min_wait = w;
        min_node = m;
      }
    }
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{0, min_node});
    return Status::OK();
  }

  if (requests.count == 2) {
    // Two requests, two rounds, no scratch: round one evaluates both
    // against untouched state (adjusted wait == view wait + phi), picks
    // the larger minimum (ties keep the first request, as the generic
    // loop's strict `>` does); round two re-evaluates the loser with the
    // winner's node advanced by its read — the only node whose state
    // round one changed. An empty candidate span yields an infinite
    // minimum, wins round one, and errors before any read is appended.
    const FlatRequest& ra = requests.requests[0];
    const FlatRequest& rb = requests.requests[1];
    double min_a = std::numeric_limits<double>::infinity();
    double min_b = std::numeric_limits<double>::infinity();
    NodeId node_a = kInvalidNode;
    NodeId node_b = kInvalidNode;
    const NodeId* ca = requests.cands(ra);
    for (std::uint32_t k = 0; k < ra.cand_count; ++k) {
      const double w = waits.At(ca[k]) + phi_s;
      if (w < min_a) {
        min_a = w;
        node_a = ca[k];
      }
    }
    const NodeId* cb = requests.cands(rb);
    for (std::uint32_t k = 0; k < rb.cand_count; ++k) {
      const double w = waits.At(cb[k]) + phi_s;
      if (w < min_b) {
        min_b = w;
        node_b = cb[k];
      }
    }
    const bool b_first = min_b > min_a;
    const std::size_t i1 = b_first ? 1 : 0;
    const FlatRequest& r1 = requests.requests[i1];
    const NodeId n1 = b_first ? node_b : node_a;
    if (n1 == kInvalidNode) return NoLiveReplica(r1.frag);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i1, n1});
    // The winner's node after its read: the same lazy-init + `+=` float
    // sequence the scratch performs, so round two is bit-identical.
    const double advanced =
        waits.At(n1) +
        static_cast<double>(r1.tuples) * read_seconds_per_tuple;
    const std::size_t i2 = b_first ? 0 : 1;
    const FlatRequest& r2 = requests.requests[i2];
    const NodeId* c2 = requests.cands(r2);
    double min2 = std::numeric_limits<double>::infinity();
    NodeId n2 = kInvalidNode;
    for (std::uint32_t k = 0; k < r2.cand_count; ++k) {
      const NodeId m = c2[k];
      // Candidate lists are duplicate-free, so at most one candidate is
      // n1; `advanced + 0.0 == advanced` for the non-negative waits the
      // sim produces, matching the generic `wait + 0.0` of a used node.
      const double w = m == n1 ? advanced : waits.At(m) + phi_s;
      if (w < min2) {
        min2 = w;
        n2 = m;
      }
    }
    NASHDB_DCHECK(n2 != kInvalidNode);  // an empty r2 loses round one
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i2, n2});
    return Status::OK();
  }

  // Three or more requests: the scratch-based rounds, whose O(1)
  // epoch-stamped node lookups stay cheap on wide candidate spans.
  scratch->NextScan();
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);
  for (std::size_t round = 0; round < requests.count; ++round) {
    double best_min = -1.0;
    std::size_t best_req = requests.count;
    NodeId best_node = kInvalidNode;
    for (std::size_t i = 0; i < requests.count; ++i) {
      if (scratch->scheduled[i]) continue;
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      double min_wait = std::numeric_limits<double>::infinity();
      NodeId min_node = kInvalidNode;
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        const double w = scratch->AdjustedWait(m, phi_s);
        if (w < min_wait) {
          min_wait = w;
          min_node = m;
        }
      }
      if (min_wait > best_min) {
        best_min = min_wait;
        best_req = i;
        best_node = min_node;
      }
    }
    if (best_node == kInvalidNode) {
      // Only an empty candidate span produces an infinite minimum, and an
      // infinite minimum wins round one — so this fires before any read
      // of the scan was appended.
      return NoLiveReplica(requests.requests[best_req].frag);
    }
    scratch->scheduled[best_req] = 1;
    scratch->MarkUsed(best_node);
    scratch->AddWait(best_node,
                     static_cast<double>(requests.requests[best_req].tuples) *
                         read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{best_req, best_node});
  }
  return Status::OK();
}

}  // namespace

NASHDB_HOT Status MaxOfMinsRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        return MaxOfMinsBatchCore(reqs, waits, read_seconds_per_tuple, phi_s,
                                  scratch, o);
      });
}

// -------------------------------------------------------- ShortestQueue

namespace {

NASHDB_HOT void ShortestQueueCore(const RequestBatch& requests,
                                  double read_seconds_per_tuple,
                                  RouterScratch* scratch,
                                  std::vector<RoutedRead>* out) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    NodeId best = cand[0];
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      if (scratch->Wait(cand[k]) < scratch->Wait(best)) best = cand[k];
    }
    scratch->AddWait(best, static_cast<double>(req.tuples) *
                               read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i, best});
  }
}

}  // namespace

NASHDB_HOT Status ShortestQueueRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  (void)phi_s;
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        scratch->NextScan();
        NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
        ShortestQueueCore(reqs, read_seconds_per_tuple, scratch, o);
        return Status::OK();
      });
}

// ------------------------------------------------------------ Greedy SC

namespace {

NASHDB_HOT void GreedyScCore(const RequestBatch& requests,
                             RouterScratch* scratch,
                             std::vector<RoutedRead>* out) {
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);

  // Build the node→requests postings lists for this call: one dense local
  // id per candidate node (first-appearance order), then the request
  // indices holding each node, ascending. Each round below computes a
  // node's remaining cover by walking its postings — O(total candidate
  // entries) per round instead of the seed router's
  // O(requests² · |cand|) std::find sweeps.
  std::vector<NodeId>& call_nodes = scratch->call_nodes_;
  std::vector<std::uint32_t>& off = scratch->post_off_;
  std::vector<std::uint32_t>& post = scratch->post_req_;
  call_nodes.clear();
  off.clear();
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      const std::uint32_t lid = scratch->LocalId(cand[k]);
      // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
      if (lid == off.size()) off.push_back(0);
      ++off[lid];
    }
  }
  const std::size_t local_count = call_nodes.size();
  std::uint32_t total = 0;
  for (std::uint32_t& v : off) {
    const std::uint32_t cnt = v;
    v = total;
    total += cnt;
  }
  // Sentinel: node l's span is [off[l], off[l + 1]). All three arrays
  // reuse the scratch's capacity across calls (§10 contract).
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  off.push_back(total);
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  post.resize(total);
  {
    std::vector<std::uint32_t>& cursor = scratch->post_cursor_;
    // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
    cursor.assign(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < requests.count; ++i) {
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const std::uint32_t lid = scratch->LocalId(cand[k]);
        post[cursor[lid]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  if (scratch->round_stamp_.size() < local_count) {
    // NASHDB_LINT_ALLOW(hot-alloc): grows once to the largest call seen
    scratch->round_stamp_.resize(local_count, 0);
  }

  std::size_t remaining = requests.count;
  while (remaining > 0) {
    // One round = the seed router's `considered` sweep: nodes are
    // evaluated in first-appearance order over the *unscheduled* requests
    // (the round stamp replaces the std::set dedup), with the identical
    // better-cover-wins comparison.
    ++scratch->round_epoch_;
    NodeId best_node = kInvalidNode;
    std::uint32_t best_lid = 0;
    TupleCount best_cover = 0;
    for (std::size_t i = 0; i < requests.count; ++i) {
      if (scratch->scheduled[i]) continue;
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const std::uint32_t lid = scratch->LocalId(cand[k]);
        if (scratch->round_stamp_[lid] == scratch->round_epoch_) continue;
        scratch->round_stamp_[lid] = scratch->round_epoch_;
        TupleCount cover = 0;
        for (std::uint32_t p = off[lid]; p < off[lid + 1]; ++p) {
          const std::uint32_t j = post[p];
          if (!scratch->scheduled[j]) cover += requests.requests[j].tuples;
        }
        if (cover > best_cover ||
            (cover == best_cover && best_node == kInvalidNode)) {
          best_cover = cover;
          best_node = cand[k];
          best_lid = lid;
        }
      }
    }
    NASHDB_DCHECK(best_node != kInvalidNode);
    for (std::uint32_t p = off[best_lid]; p < off[best_lid + 1]; ++p) {
      const std::uint32_t j = post[p];
      if (scratch->scheduled[j]) continue;
      scratch->scheduled[j] = 1;
      --remaining;
      // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
      out->push_back(RoutedRead{j, best_node});
    }
  }
}

}  // namespace

NASHDB_HOT Status GreedyScRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  (void)read_seconds_per_tuple;
  (void)phi_s;
  return RouteBatchImpl(batch, waits, scratch, out, sink,
                        [&](const RequestBatch& reqs,
                            std::vector<RoutedRead>* o) {
                          scratch->NextScan();
                          NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
                          GreedyScCore(reqs, scratch, o);
                          return Status::OK();
                        });
}

// ----------------------------------------------------------- PowerOfTwo

PowerOfTwoRouter::PowerOfTwoRouter(std::uint64_t seed) : rng_(seed) {}

namespace {

// One scan's two-choice pass. Consumes RNG draws exactly as the seed
// router does (<= 2 candidates: none; > 2: two), per batch element.
NASHDB_HOT void PowerOfTwoCore(const RequestBatch& requests,
                               double read_seconds_per_tuple, double phi_s,
                               RouterScratch* scratch, Rng* rng,
                               std::vector<RoutedRead>* out) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    NodeId pick;
    if (req.cand_count <= 2) {
      pick = cand[0];
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        const double w =
            scratch->Wait(m) + (scratch->Used(m) ? 0.0 : phi_s);
        const double wp =
            scratch->Wait(pick) + (scratch->Used(pick) ? 0.0 : phi_s);
        if (w < wp) pick = m;
      }
    } else {
      const std::size_t a =
          static_cast<std::size_t>(rng->Uniform(req.cand_count));
      std::size_t b =
          static_cast<std::size_t>(rng->Uniform(req.cand_count - 1));
      if (b >= a) ++b;
      const NodeId ma = cand[a];
      const NodeId mb = cand[b];
      const double wa =
          scratch->Wait(ma) + (scratch->Used(ma) ? 0.0 : phi_s);
      const double wb =
          scratch->Wait(mb) + (scratch->Used(mb) ? 0.0 : phi_s);
      pick = wa <= wb ? ma : mb;
    }
    scratch->MarkUsed(pick);
    scratch->AddWait(pick, static_cast<double>(req.tuples) *
                               read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i, pick});
  }
}

}  // namespace

NASHDB_HOT Status PowerOfTwoRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        scratch->NextScan();
        NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
        PowerOfTwoCore(reqs, read_seconds_per_tuple, phi_s, scratch, &rng_, o);
        return Status::OK();
      });
}

}  // namespace nashdb

// Routing and resolve oracles for the equivalence suites: the seed
// implementations the production kernels replaced, kept verbatim as free
// functions. Every router implements one kernel (RouteBatchInto) and the
// index one resolve walk (ConfigIndex::ResolveBatchInto); the suites check
// them against these references. router_equivalence_test routes one-scan
// blocks through each router's Route and RouteInto and compares them with
// the seed router; sharded_driver_test compares the block resolve with a
// resolve computed straight from the ClusterConfig.

#ifndef NASHDB_TESTS_ROUTING_ORACLE_H_
#define NASHDB_TESTS_ROUTING_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/query.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "replication/cluster_config.h"
#include "routing/router.h"

namespace nashdb {
namespace oracle {

inline Status NoLiveReplica(FlatFragmentId frag) {
  return Status::FailedPrecondition("fragment " + std::to_string(frag) +
                                    " has no live replica-holding node");
}

/// The seed precondition: every request must have at least one candidate
/// replica; FailedPrecondition names the first fragment with none.
inline Status ValidateRoutable(const std::vector<FragmentRequest>& requests) {
  for (const FragmentRequest& req : requests) {
    if (req.candidates.empty()) return NoLiveReplica(req.frag);
  }
  return Status::OK();
}

/// Seed Max-of-mins (paper §8, Eq. 11): the bottleneck request first.
inline Result<std::vector<RoutedRead>> MaxOfMinsRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> scheduled(requests.size(), false);
  std::vector<bool> used(waits.size(), false);

  for (std::size_t round = 0; round < requests.size(); ++round) {
    // For every unscheduled request, find its minimum achievable wait and
    // the node achieving it; then pick the request whose minimum is
    // maximal (Eq. 11) — the bottleneck — and schedule it first.
    double best_min = -1.0;
    std::size_t best_req = requests.size();
    NodeId best_node = kInvalidNode;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (scheduled[i]) continue;
      double min_wait = std::numeric_limits<double>::infinity();
      NodeId min_node = kInvalidNode;
      for (NodeId m : requests[i].candidates) {
        const double w = waits[m] + (used[m] ? 0.0 : phi_s);
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
    NASHDB_DCHECK(best_req < requests.size());
    scheduled[best_req] = true;
    used[best_node] = true;
    waits[best_node] +=
        static_cast<double>(requests[best_req].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{best_req, best_node});
  }
  return out;
}

/// Seed Shortest queue: each request to its least-loaded candidate.
inline Result<std::vector<RoutedRead>> ShortestQueueRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    NodeId best = requests[i].candidates.front();
    for (NodeId m : requests[i].candidates) {
      if (waits[m] < waits[best]) best = m;
    }
    waits[best] +=
        static_cast<double>(requests[i].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{i, best});
  }
  return out;
}

/// Seed Greedy SC: the node covering the most remaining tuples first.
inline Result<std::vector<RoutedRead>> GreedyScRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  (void)waits;
  (void)read_seconds_per_tuple;
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> scheduled(requests.size(), false);
  std::size_t remaining = requests.size();

  while (remaining > 0) {
    // Pick the node covering the most remaining tuples.
    // (Candidate lists are small, so a simple scan suffices.)
    NodeId best_node = kInvalidNode;
    TupleCount best_cover = 0;
    std::set<NodeId> considered;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (scheduled[i]) continue;
      for (NodeId m : requests[i].candidates) {
        if (!considered.insert(m).second) continue;
        TupleCount cover = 0;
        for (std::size_t j = 0; j < requests.size(); ++j) {
          if (scheduled[j]) continue;
          const auto& cand = requests[j].candidates;
          if (std::find(cand.begin(), cand.end(), m) != cand.end()) {
            cover += requests[j].tuples;
          }
        }
        if (cover > best_cover ||
            (cover == best_cover && best_node == kInvalidNode)) {
          best_cover = cover;
          best_node = m;
        }
      }
    }
    NASHDB_DCHECK(best_node != kInvalidNode);
    for (std::size_t j = 0; j < requests.size(); ++j) {
      if (scheduled[j]) continue;
      const auto& cand = requests[j].candidates;
      if (std::find(cand.begin(), cand.end(), best_node) != cand.end()) {
        scheduled[j] = true;
        --remaining;
        out.push_back(RoutedRead{j, best_node});
      }
    }
  }
  return out;
}

/// Seed Power of two choices, drawing from `*rng` (the router's own
/// generator in production): <= 2 candidates draw nothing, > 2 draw
/// Uniform(c) then Uniform(c - 1).
inline Result<std::vector<RoutedRead>> PowerOfTwoRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s, Rng* rng) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> used(waits.size(), false);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& cand = requests[i].candidates;
    NodeId pick;
    if (cand.size() <= 2) {
      // Two or fewer replicas: a d=2 sample without replacement would
      // examine every candidate anyway, so evaluate them all and pick the
      // best deterministically (no RNG draw). Sampling only kicks in when
      // there are strictly more than two candidates.
      pick = cand.front();
      for (NodeId m : cand) {
        const double w = waits[m] + (used[m] ? 0.0 : phi_s);
        const double wp = waits[pick] + (used[pick] ? 0.0 : phi_s);
        if (w < wp) pick = m;
      }
    } else {
      // Sample two distinct random replicas; keep the better one under
      // the Eq. 11 criterion.
      const std::size_t a = static_cast<std::size_t>(rng->Uniform(cand.size()));
      std::size_t b = static_cast<std::size_t>(rng->Uniform(cand.size() - 1));
      if (b >= a) ++b;
      const NodeId ma = cand[a];
      const NodeId mb = cand[b];
      const double wa = waits[ma] + (used[ma] ? 0.0 : phi_s);
      const double wb = waits[mb] + (used[mb] ? 0.0 : phi_s);
      pick = wa <= wb ? ma : mb;
    }
    used[pick] = true;
    waits[pick] +=
        static_cast<double>(requests[i].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{i, pick});
  }
  return out;
}

/// Resolve oracle: the requests `scan` needs, straight from the
/// configuration — every fragment of the scan's table overlapping its
/// range, in range order, with its full tuple count and the nodes holding
/// a replica. An empty range needs nothing.
inline std::vector<FragmentRequest> RequestsFor(const ClusterConfig& config,
                                                const Scan& scan) {
  std::vector<FlatFragmentId> hits;
  if (scan.range.empty()) return {};
  for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
    const FragmentInfo& info = config.fragment(fid);
    if (info.table == scan.table && info.range.start < scan.range.end &&
        scan.range.start < info.range.end) {
      hits.push_back(fid);
    }
  }
  std::sort(hits.begin(), hits.end(), [&](FlatFragmentId a, FlatFragmentId b) {
    return config.fragment(a).range.start < config.fragment(b).range.start;
  });
  std::vector<FragmentRequest> requests;
  for (const FlatFragmentId fid : hits) {
    FragmentRequest req;
    req.frag = fid;
    req.tuples = config.fragment(fid).size();
    req.candidates = config.FragmentNodes(fid);
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace oracle
}  // namespace nashdb

#endif  // NASHDB_TESTS_ROUTING_ORACLE_H_

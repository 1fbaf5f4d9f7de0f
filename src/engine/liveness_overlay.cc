#include "engine/liveness_overlay.h"

#include <algorithm>

namespace nashdb {

void LivenessOverlay::SyncFrom(const ClusterSim& sim) {
  const std::size_t n = sim.node_count();
  routable_until_.resize(n);
  max_routable_until_ = 0.0;
  for (NodeId m = 0; m < n; ++m) {
    routable_until_[m] = sim.RoutableUntil(m);
    max_routable_until_ = std::max(max_routable_until_, routable_until_[m]);
  }
}

void LivenessOverlay::FilterLive(const RequestBatch& src, SimTime at,
                                 std::vector<FlatRequest>* requests,
                                 std::vector<NodeId>* cands) const {
  for (std::size_t i = 0; i < src.count; ++i) {
    const FlatRequest& req = src.requests[i];
    const NodeId* cand = src.cands(req);
    FlatRequest out = req;
    out.cand_begin = static_cast<std::uint32_t>(cands->size());
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      if (AliveAt(cand[k], at)) cands->push_back(cand[k]);
    }
    out.cand_count = static_cast<std::uint32_t>(cands->size()) - out.cand_begin;
    requests->push_back(out);
  }
}

}  // namespace nashdb

// Golden-digest helpers shared by the end-to-end record-stream suites
// (query_path_golden_test, online_reconfig_test): one 64-bit FNV-1a
// constant pins a whole run down to the last double bit, so a deleted
// code path can be replaced by the digests it produced.

#ifndef NASHDB_TESTS_GOLDEN_DIGEST_H_
#define NASHDB_TESTS_GOLDEN_DIGEST_H_

#include <bit>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>

#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "workload/synthetic.h"

namespace nashdb {
namespace golden {

/// FNV-1a over 64-bit words (bytes in little-endian order).
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  void Add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every QueryRecord field (bit patterns of the doubles) plus the
/// RunResult totals.
inline std::string RunDigest(const RunResult& r) {
  Digest d;
  for (const QueryRecord& q : r.records) {
    d.Add(static_cast<std::uint64_t>(q.id));
    d.Add(q.price);
    d.Add(q.arrival);
    d.Add(q.completion);
    d.Add(q.latency_s);
    d.Add(static_cast<std::uint64_t>(q.span));
    d.Add(static_cast<std::uint64_t>(q.tuples_read));
    d.Add(static_cast<std::uint64_t>(q.retries));
    d.Add(q.epoch);
    d.Add(static_cast<std::uint64_t>(q.aborted));
    d.Add(static_cast<std::uint64_t>(q.shed));
  }
  for (const std::size_t v :
       {r.total_queries, r.transitions, r.transitions_skipped, r.final_nodes,
        r.crashes, r.partitions, r.aborted_queries, r.scan_retries,
        r.shed_queries, r.emergency_repairs}) {
    d.Add(static_cast<std::uint64_t>(v));
  }
  for (const TupleCount v :
       {r.transferred_tuples, r.bootstrap_transfer_tuples, r.read_tuples,
        r.repair_transfer_tuples}) {
    d.Add(static_cast<std::uint64_t>(v));
  }
  for (const double v : {r.total_cost, r.makespan_s, r.completed_latency_sum_s,
                         r.completed_span_sum}) {
    d.Add(v);
  }
  return d.Hex();
}

/// The run's `faults.*`, `overload.*` and `routing.*` metrics — counters,
/// gauges and histograms (count, sum, min, max, buckets) — as serialized
/// in RunResult::metrics_json, one metric per line. Histogram sums are
/// order-sensitive doubles, so this also pins the order of observations.
inline std::string MetricsDigest(const RunResult& r) {
  Digest d;
  std::istringstream lines(r.metrics_json);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find_first_not_of(' ');
    if (at == std::string::npos) continue;
    const std::string_view key = std::string_view(line).substr(at);
    for (const std::string_view family :
         {"\"faults.", "\"overload.", "\"routing."}) {
      if (key.starts_with(family)) d.Add(key);
    }
  }
  return d.Hex();
}

/// A queueing multi-node workload where routing choices matter: priced
/// high enough to rent 8–20 nodes, arrivals dense enough to queue.
inline Workload LoadedWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 10.0;
  wopts.num_queries = 600;
  wopts.price = 0.5;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

inline NashDbOptions LoadedSystemOptions() {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 20000;
  opts.node_disk = 300000;
  return opts;
}

}  // namespace golden
}  // namespace nashdb

#endif  // NASHDB_TESTS_GOLDEN_DIGEST_H_

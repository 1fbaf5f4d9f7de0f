#ifndef NASHDB_ENGINE_SHARDED_DRIVER_H_
#define NASHDB_ENGINE_SHARDED_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/sim.h"
#include "engine/driver.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "workload/workload.h"

namespace nashdb {

/// Per-core sharded data plane (DESIGN.md §11). One producer thread walks
/// the workload in arrival order and partitions queries across N driver
/// shards by a deterministic hash of the table they scan; each shard is a
/// thread consuming from its own bounded lock-free SPSC ring, routing
/// scans in batches (ScanBatch + RouteBatchInto) against one shared
/// read-only configuration epoch, with a private ClusterSim carrying its
/// queue state.
///
/// Memory model of one epoch: the ClusterConfig, its ConfigIndex, and the
/// bootstrap TransitionPlan are built once on the calling thread before
/// any shard starts and are immutable for the run — shards take const
/// references, so the only cross-thread communication is the SPSC rings
/// (release/acquire pairs) and the done flag. Each shard owns its sim,
/// router, and scratch outright; results are collected after join.
struct ShardedDriverOptions {
  /// Driver shards (consumer threads). 1 reproduces the serial flat path.
  std::size_t shards = 1;
  /// Scans per routed block within a shard (RouteBatchInto block size).
  std::size_t batch_size = 64;
  /// Per-shard SPSC ring capacity, in queries (rounded up to a power of
  /// two). The producer spins (yielding) when a ring is full.
  std::size_t queue_capacity = 1024;
  ClusterSimOptions sim;
  /// φ passed to the scan routers (seconds).
  double phi_s = 0.35;
};

/// Outcome of one shard: the records of exactly the queries the
/// partitioner fed it, in feed order (= workload order filtered to the
/// shard — bit-identical to a serial run of that partition).
struct ShardResult {
  std::size_t shard = 0;
  std::vector<QueryRecord> records;
  TupleCount read_tuples = 0;
  SimTime makespan_s = 0.0;
};

/// Aggregate of a sharded run. `merged` restores the workload-order
/// record stream and merges billing under the single-epoch invariant
/// (DESIGN.md §11): every shard sim was bootstrapped identically, so rent
/// and the bootstrap copy are counted once (they are per-cluster, not
/// per-shard) while read volume — real per-shard work — is summed.
struct ShardedRunResult {
  std::vector<ShardResult> shards;
  RunResult merged;
};

/// Deterministic query partitioner: SplitMix64 over the table id, reduced
/// modulo the shard count. Pure function of (table, shards) — no state,
/// no RNG — so a workload partitions identically on every run and every
/// host (the sharded golden tests depend on this).
std::size_t ShardOfTable(TableId table, std::size_t shards);

/// A query lands on the shard of its first scan's table (scans of one
/// query are routed by one shard so span/latency semantics match the
/// serial driver); a query with no scans lands on shard 0.
std::size_t ShardOfQuery(const Query& query, std::size_t shards);

/// Builds one router per shard. Shards route independently, so stateful
/// routers (PowerOfTwoRouter's RNG) must be constructed per shard; give
/// every shard the same seed to make per-shard streams reproducible.
using RouterFactory = std::function<std::unique_ptr<ScanRouter>()>;

/// Runs `workload` against one fixed configuration epoch on
/// `options.shards` shard threads: RunShardedOnline with an empty
/// schedule. Fault-free, single-epoch regime: no Observe feedback, no
/// reconfiguration, no fault injection — the elastic control loop stays
/// on the serial driver (RunWorkload); this is the data plane underneath
/// it.
ShardedRunResult RunSharded(const Workload& workload,
                            const ClusterConfig& config,
                            const RouterFactory& router_factory,
                            const ShardedDriverOptions& options);

/// One scheduled configuration change of an online sharded run: the
/// cluster adopts `config` at simulated time `at`. Entries must be sorted
/// by `at` (strictly increasing) and `at` must be positive (time 0 is the
/// bootstrap epoch).
struct ScheduledEpoch {
  ClusterConfig config;
  SimTime at = 0.0;
};

/// Online variant of RunSharded (DESIGN.md §12): routing starts against
/// `bootstrap` (epoch 0) and each ScheduledEpoch is published while the
/// shards are routing. The producer thread builds the epoch's ConfigIndex
/// and minimal-transfer plan immediately before pushing the first query
/// arriving at or after its activation time, then publishes it with one
/// release store onto an atomic epoch chain; each shard adopts the next
/// link at the first query it admits with arrival >= activate_at —
/// flushing its pending block first, so a routed block never spans
/// epochs, then applying the shared plan to its private sim at the
/// activation's simulated time.
///
/// Determinism: publication order is fixed (workload arrival order) and a
/// shard's adoption points are a pure function of its own query stream —
/// the SPSC push of the triggering query happens-after the link's release
/// store, so the link is always visible when an adoption becomes due.
/// Records are therefore bit-identical run to run regardless of thread
/// timing, and each shard's stream equals a shards=1 run of its
/// partition. Epochs scheduled after the last pushed query are never
/// published (mirroring the serial driver, which publishes only at
/// admissions) and are not billed.
ShardedRunResult RunShardedOnline(const Workload& workload,
                                  const ClusterConfig& bootstrap,
                                  const std::vector<ScheduledEpoch>& epochs,
                                  const RouterFactory& router_factory,
                                  const ShardedDriverOptions& options);

}  // namespace nashdb

#endif  // NASHDB_ENGINE_SHARDED_DRIVER_H_

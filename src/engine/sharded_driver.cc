#include "engine/sharded_driver.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/spsc_queue.h"
#include "engine/config_index.h"
#include "engine/pending_block.h"
#include "engine/validate.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Queries a shard pops from its ring per iteration (bulk drain — one
/// acquire pays for up to this many queries).
constexpr std::size_t kPopChunk = 32;

/// One node of the epoch chain (DESIGN.md §12). Everything but `next` is
/// immutable once the link is published: the producer fills config, its
/// index, and the transition plan from the previous link's config, then
/// publishes with one release store on the predecessor's `next`; shards
/// follow the chain with acquire loads and only ever read published
/// links. The root link (epoch 0, activate_at 0) carries the bootstrap
/// plan and is visible to every shard before any thread starts.
struct EpochLink {
  EpochLink(std::uint64_t epoch_arg, SimTime at, ClusterConfig cfg,
            TransitionPlan plan_arg)
      : epoch(epoch_arg),
        activate_at(at),
        config(std::move(cfg)),
        index(config, epoch_arg),
        plan(std::move(plan_arg)) {}

  const std::uint64_t epoch;
  const SimTime activate_at;
  const ClusterConfig config;
  const ConfigIndex index;   // points into the pinned config above
  const TransitionPlan plan; // previous link's config -> this config
  std::atomic<EpochLink*> next{nullptr};
};

/// Everything one shard thread needs, built on the calling thread before
/// the shard starts. The epoch chain is shared read-only across all
/// shards (links are immutable once published); queue, done, and the
/// chain's `next` pointers are the only cross-thread channels; the rest
/// is shard-private.
struct ShardTask {
  const EpochLink* chain = nullptr;
  ClusterSimOptions sim_options;
  double phi_s = 0.35;
  std::size_t batch_size = 64;
  SpscQueue<const TimedQuery*>* queue = nullptr;
  const std::atomic<bool>* done = nullptr;
  std::unique_ptr<ScanRouter> router;
  ShardResult result;
};

void ShardMain(ShardTask* t) {
  const EpochLink* link = t->chain;
  ClusterSim sim(t->sim_options);
  sim.ApplyConfig(link->config, 0.0, &link->plan);

  PendingBlock block(&sim, t->phi_s, /*collect=*/false);
  const std::size_t batch_cap = std::max<std::size_t>(1, t->batch_size);

  // Routes the pending block against the shard's current epoch and keeps
  // its records, in feed order. The sharded plane is fault-free at every
  // epoch, so every candidate span is non-empty and routing cannot fail.
  const auto flush = [&]() {
    block.Flush(link->index, t->router.get(), [&](const QueryRecord& record) {
      t->result.makespan_s = std::max(t->result.makespan_s, record.completion);
      t->result.records.push_back(record);
    });
  };

  const auto admit = [&](const TimedQuery& tq) {
    // Epoch adoption at batch boundaries: follow the chain while the next
    // published link activates at or before this query's arrival. The
    // producer publishes a link before pushing the first query with
    // arrival >= its activation (and the ring's release/acquire pair
    // makes the publish visible with the query), so adoption points are a
    // pure function of the shard's own query stream — deterministic
    // regardless of thread timing. The pending block is flushed first, so
    // a routed block never spans epochs.
    for (const EpochLink* nl = link->next.load(std::memory_order_acquire);
         nl != nullptr && tq.arrival >= nl->activate_at;
         nl = link->next.load(std::memory_order_acquire)) {
      flush();
      sim.ApplyConfig(nl->config, nl->activate_at, &nl->plan);
      link = nl;
    }
    block.Admit(tq, link->epoch);
    if (block.scans() >= batch_cap) flush();
  };

  const TimedQuery* popped[kPopChunk];
  for (;;) {
    std::size_t n = t->queue->TryPopBulk(popped, kPopChunk);
    if (n == 0) {
      if (t->done->load(std::memory_order_acquire)) {
        // The done flag is set only after the last push; its acquire
        // makes every push visible, so one more drain empties the ring.
        n = t->queue->TryPopBulk(popped, kPopChunk);
        if (n == 0) break;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) admit(*popped[i]);
  }
  flush();
  t->result.read_tuples = sim.TotalReadTuples();
}

}  // namespace

std::size_t ShardOfTable(TableId table, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(
      SplitMix64(static_cast<std::uint64_t>(table)) % shards);
}

std::size_t ShardOfQuery(const Query& query, std::size_t shards) {
  if (query.scans.empty()) return 0;
  return ShardOfTable(query.scans.front().table, shards);
}

namespace {

/// Builds the bootstrap link: epoch 0 at t = 0, planned from an empty
/// cluster, validated before any shard starts.
std::unique_ptr<EpochLink> MakeRootLink(const ClusterConfig& config) {
  ClusterConfig empty;
  TransitionPlan bootstrap = PlanTransition(empty, config);
  NASHDB_VALIDATE_OR_DIE(ValidateConfig(config));
  NASHDB_VALIDATE_OR_DIE(ValidatePlan(bootstrap, empty, config));
  return std::make_unique<EpochLink>(0, 0.0, config, std::move(bootstrap));
}

}  // namespace

ShardedRunResult RunSharded(const Workload& workload,
                            const ClusterConfig& config,
                            const RouterFactory& router_factory,
                            const ShardedDriverOptions& options) {
  // Single-epoch run: the chain is just the bootstrap link.
  return RunShardedOnline(workload, config, {}, router_factory, options);
}

// Merge invariant: the record stream is re-interleaved into workload order
// (each shard's stream preserves it, so a cursor walk suffices); rent and
// transition copies are per-cluster quantities every shard charged
// identically — counted once, via a billing sim replaying the published
// epoch chain — while read volume, real per-shard work, is summed across
// shards.
ShardedRunResult RunShardedOnline(const Workload& workload,
                                  const ClusterConfig& bootstrap,
                                  const std::vector<ScheduledEpoch>& epochs,
                                  const RouterFactory& router_factory,
                                  const ShardedDriverOptions& options) {
  NASHDB_CHECK(router_factory != nullptr);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    NASHDB_CHECK(epochs[i].at > 0.0)
        << "scheduled epoch " << i << " must activate after t=0";
    NASHDB_CHECK(i == 0 || epochs[i - 1].at < epochs[i].at)
        << "scheduled epochs must be sorted by activation time";
  }
  const std::unique_ptr<EpochLink> root = MakeRootLink(bootstrap);
  std::vector<std::unique_ptr<EpochLink>> links;  // outlive the shards
  links.reserve(epochs.size());
  const std::size_t shards = std::max<std::size_t>(1, options.shards);

  std::vector<std::unique_ptr<SpscQueue<const TimedQuery*>>> queues;
  std::vector<ShardTask> tasks(shards);
  std::atomic<bool> done{false};
  queues.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues.push_back(std::make_unique<SpscQueue<const TimedQuery*>>(
        std::max<std::size_t>(2, options.queue_capacity)));
    ShardTask& t = tasks[s];
    t.chain = root.get();
    t.sim_options = options.sim;
    t.phi_s = options.phi_s;
    t.batch_size = options.batch_size;
    t.queue = queues[s].get();
    t.done = &done;
    t.router = router_factory();
    NASHDB_CHECK(t.router != nullptr);
    t.result.shard = s;
  }

  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back(ShardMain, &tasks[s]);
  }

  // Producer: feed queries in workload (arrival) order; each shard then
  // sees exactly the workload-order subsequence the partitioner assigns
  // it, independent of thread timing. Each scheduled epoch is published
  // immediately before pushing the first query arriving at or after its
  // activation: the index + plan build runs here while the shards keep
  // routing against the current chain, and the single release store is
  // the publication point shards synchronize with.
  EpochLink* tail = root.get();
  std::size_t next_epoch = 0;
  for (const TimedQuery& tq : workload.queries) {
    while (next_epoch < epochs.size() && tq.arrival >= epochs[next_epoch].at) {
      const ScheduledEpoch& se = epochs[next_epoch];
      TransitionPlan plan = PlanTransition(tail->config, se.config);
      NASHDB_VALIDATE_OR_DIE(ValidateConfig(se.config));
      NASHDB_VALIDATE_OR_DIE(ValidatePlan(plan, tail->config, se.config));
      auto link = std::make_unique<EpochLink>(tail->epoch + 1, se.at,
                                              se.config, std::move(plan));
      EpochLink* raw = link.get();
      links.push_back(std::move(link));
      tail->next.store(raw, std::memory_order_release);
      tail = raw;
      ++next_epoch;
    }
    SpscQueue<const TimedQuery*>* q =
        queues[ShardOfQuery(tq.query, shards)].get();
    while (!q->TryPush(&tq)) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  ShardedRunResult out;
  out.shards.reserve(shards);
  for (ShardTask& t : tasks) out.shards.push_back(std::move(t.result));

  RunResult& merged = out.merged;
  std::vector<std::size_t> cursor(shards, 0);
  merged.records.reserve(workload.queries.size());
  for (const TimedQuery& tq : workload.queries) {
    const std::size_t s = ShardOfQuery(tq.query, shards);
    NASHDB_CHECK(cursor[s] < out.shards[s].records.size());
    merged.records.push_back(out.shards[s].records[cursor[s]++]);
  }
  for (const ShardResult& sr : out.shards) {
    merged.read_tuples += sr.read_tuples;
    merged.makespan_s = std::max(merged.makespan_s, sr.makespan_s);
  }
  // The sharded plane runs fault-free with records always kept, so the
  // merged stream is complete; the streaming aggregates mirror it for
  // accessor parity with the serial driver.
  merged.total_queries = merged.records.size();
  for (const QueryRecord& r : merged.records) {
    merged.completed_latency_sum_s += r.latency_s;
    merged.completed_span_sum += static_cast<double>(r.span);
    merged.latency_histogram.Add(r.latency_s);
  }

  // Billing replay over the published chain (the producer is done, so a
  // relaxed walk suffices). Activations never exceed the makespan: a link
  // is only published when a query with arrival >= activate_at was
  // pushed, and that query completes no earlier than it arrives.
  ClusterSim billing(options.sim);
  billing.ApplyConfig(root->config, 0.0, &root->plan);
  merged.bootstrap_transfer_tuples = billing.TotalTransferredTuples();
  const EpochLink* last = root.get();
  for (const EpochLink* l = root->next.load(std::memory_order_relaxed);
       l != nullptr; l = l->next.load(std::memory_order_relaxed)) {
    billing.ApplyConfig(l->config, l->activate_at, &l->plan);
    last = l;
  }
  merged.total_cost = billing.AccruedCost(merged.makespan_s);
  merged.transferred_tuples = billing.TotalTransferredTuples();
  merged.transitions = static_cast<std::size_t>(last->epoch) + 1;
  merged.final_nodes = last->config.node_count();
  return out;
}

}  // namespace nashdb

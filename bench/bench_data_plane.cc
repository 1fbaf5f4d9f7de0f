// Batched + sharded data-plane benchmark (DESIGN.md §11): aggregate
// routing throughput of the SPSC-fed shard pipeline — producer thread
// partitioning scans by table hash into per-shard lock-free rings, shard
// consumers draining in bulk, accumulating `ScanBatch` blocks and routing
// them with `RouteBatchInto` against live per-shard `ClusterSim` wait
// state — swept over batch size {1, 16, 64, 256} × shard count
// {1, 2, 4, 8}.
//
// The workload is 16 tables with the paper's skew (most scans read a
// small hot range, a minority sweep many fragments), one shared immutable
// ConfigIndex, MaxOfMins routing. Before any timing, every sweep point
// verifies route identity: blocks of the point's batch size (fresh sims)
// must schedule every read of every shard partition onto exactly the node
// one-scan blocks pick, and leave bit-identical busy-until state. Timing
// then measures the threaded pipeline with two clock reads around the
// whole run (aggregate scans/s); per-shard p50/p99 ns/scan come from a
// separate single-threaded per-block-timed sampling pass so no timer
// overhead pollutes the throughput numbers.
//
// Batch size 1 is the baseline: one-scan blocks through the same
// pipeline — what route_batch_size = 1 means in the driver. Larger
// batches amortize the block's fixed costs (ring traffic, resolve setup,
// scratch bind, out reservation, virtual dispatch) over more scans. The
// headline comparison is 4 shards/batch 256 against the 1-shard/batch-1
// baseline. Writes BENCH_data_plane.json for the CI artifact.
//
// Flags: --smoke (tiny scan count for CI), --out=PATH (JSON path,
// default BENCH_data_plane.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim.h"
#include "common/query.h"
#include "common/random.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_index.h"
#include "engine/sharded_driver.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"

namespace nashdb {
namespace {

constexpr std::size_t kTables = 16;
constexpr std::size_t kFragsPerTable = 16;
constexpr TupleCount kFragSize = 10'000;
constexpr std::size_t kNodes = 16;
constexpr double kPhi = 0.35;
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kPopChunk = 32;
/// Timed repetitions per sweep point; the reported throughput is the best
/// (min-time) rep, which estimates the plane's speed rather than the
/// host's background load.
constexpr std::size_t kThroughputReps = 3;

using Clock = std::chrono::steady_clock;

ClusterConfig MakeConfig(Rng* rng) {
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = kTables * kFragsPerTable * kFragSize * 8;
  params.window_scans = 50;
  std::vector<FragmentInfo> frags;
  frags.reserve(kTables * kFragsPerTable);
  for (std::size_t t = 0; t < kTables; ++t) {
    for (std::size_t i = 0; i < kFragsPerTable; ++i) {
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = static_cast<FragmentId>(i);
      f.range = TupleRange{i * kFragSize, (i + 1) * kFragSize};
      f.replicas = std::min<std::size_t>(kNodes, 1 + rng->Uniform(3));
      frags.push_back(f);
    }
  }
  ClusterConfig config(params, std::move(frags));
  for (std::size_t m = 0; m < kNodes; ++m) config.AddNode();
  std::vector<NodeId> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  const std::size_t frag_count = config.fragments().size();
  for (FlatFragmentId f = 0; f < frag_count; ++f) {
    rng->Shuffle(&nodes);
    for (std::size_t k = 0; k < config.fragment(f).replicas; ++k) {
      config.Place(nodes[k], f);
    }
  }
  return config;
}

std::vector<Scan> MakeScans(std::size_t count, Rng* rng) {
  std::vector<Scan> scans;
  scans.reserve(count);
  const TupleCount table_end = kFragsPerTable * kFragSize;
  for (std::size_t i = 0; i < count; ++i) {
    Scan s;
    s.table = static_cast<TableId>(rng->Uniform(kTables));
    const TupleCount start = rng->Uniform(table_end - 1);
    // The paper's workload skew: most scans read a small hot range (1-2
    // fragments); a minority are long analytical sweeps.
    const bool long_scan = rng->Uniform(100) < 15;
    const TupleCount len = long_scan ? 1 + rng->Uniform(8 * kFragSize)
                                     : 1 + rng->Uniform(kFragSize);
    s.range = TupleRange{start, std::min<TupleCount>(table_end, start + len)};
    s.price = 1.0;
    scans.push_back(s);
  }
  return scans;
}

// ------------------------------------------------------------- shard lane

/// Enqueues every routed read into the shard's sim, exactly as the
/// sharded driver's sink does — the WaitView aliases the sim's busy-until
/// array, so the next scan of the block observes the reads of this one.
class EnqueueSink : public BatchSink {
 public:
  explicit EnqueueSink(ClusterSim* sim) : sim_(sim) {}

  void Bind(const ScanBatch* block) { block_ = block; }

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    const FlatRequest* reqs =
        block_->requests.data() + block_->req_off[scan_index];
    for (std::size_t k = 0; k < count; ++k) {
      (void)sim_->EnqueueRead(reads[k].node, reqs[reads[k].request_index].tuples,
                              /*now=*/0.0, /*first_use_by_query=*/true);
    }
  }

 private:
  ClusterSim* sim_;
  const ScanBatch* block_ = nullptr;
};

/// One shard's private routing state: its own sim (wait state), router,
/// block buffer, and scratch — nothing shared with other lanes except the
/// read-only ConfigIndex.
struct ShardLane {
  explicit ShardLane(const ClusterConfig& config)
      : sim((ClusterSimOptions())), router(), sink(&sim) {
    sim.ApplyConfig(config, 0.0, nullptr);
  }

  ClusterSim sim;
  MaxOfMinsRouter router;
  EnqueueSink sink;
  ScanBatch block;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  std::uint64_t scans_routed = 0;
};

void FlushBlock(const ConfigIndex& index, double spt, ShardLane* lane) {
  if (lane->block.empty()) return;
  index.ResolveBatchInto(&lane->block);
  const WaitView waits(lane->sim.BusyUntil().data(), lane->sim.node_count(),
                       /*at=*/0.0);
  lane->sink.Bind(&lane->block);
  const Status st =
      lane->router.RouteBatchInto(lane->block, waits, spt, kPhi,
                                  &lane->scratch, &lane->out, &lane->sink);
  if (!st.ok()) {
    std::fprintf(stderr, "RouteBatchInto failed: %s\n",
                 std::string(st.message()).c_str());
    std::exit(1);
  }
  lane->scans_routed += lane->block.size();
  lane->block.Clear();
}

/// Shard consumer: bulk-drains the ring, accumulates the block, flushes
/// when it holds `batch_cap` scans; after the producer's done flag, one
/// more drain settles the question (done is released after the last push)
/// and the tail block is flushed.
void ShardLoop(SpscQueue<std::uint32_t>* ring, const std::atomic<bool>* done,
               const ConfigIndex& index, const std::vector<Scan>& scans,
               std::size_t batch_cap, double spt, ShardLane* lane) {
  std::uint32_t buf[kPopChunk];
  for (;;) {
    std::size_t n = ring->TryPopBulk(buf, kPopChunk);
    if (n == 0) {
      if (done->load(std::memory_order_acquire)) {
        n = ring->TryPopBulk(buf, kPopChunk);
        if (n == 0) {
          FlushBlock(index, spt, lane);
          return;
        }
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      lane->block.AddScan(buf[i], scans[buf[i]]);
      if (lane->block.size() >= batch_cap) FlushBlock(index, spt, lane);
    }
  }
}

// ------------------------------------------------------ identity check

/// Routes one shard partition through `*lane` (fresh) in fixed blocks of
/// `block_size` scans; returns every read's node in routing order and
/// leaves the sim's final state in the lane.
std::vector<NodeId> RouteFixedBlocks(
    const ConfigIndex& index, const std::vector<Scan>& scans,
    const std::vector<std::uint32_t>& partition, std::size_t block_size,
    double spt, ShardLane* lane) {
  std::vector<NodeId> nodes;
  const auto flush = [&] {
    if (lane->block.empty()) return;
    FlushBlock(index, spt, lane);
    for (const RoutedRead& r : lane->out) nodes.push_back(r.node);
  };
  for (const std::uint32_t id : partition) {
    lane->block.AddScan(id, scans[id]);
    if (lane->block.size() >= block_size) flush();
  }
  flush();
  return nodes;
}

/// Routes one shard partition as one-scan blocks and as fixed blocks of
/// `batch_cap`, both from fresh sims, and requires identical read streams
/// and bit-identical final busy-until state. Guards the bench itself:
/// every batch size must measure the same computation.
void VerifyIdentity(const ClusterConfig& config, const ConfigIndex& index,
                    const std::vector<Scan>& scans,
                    const std::vector<std::uint32_t>& partition,
                    std::size_t batch_cap, double spt) {
  ShardLane ref(config);
  const std::vector<NodeId> ref_nodes =
      RouteFixedBlocks(index, scans, partition, 1, spt, &ref);
  ShardLane lane(config);
  const std::vector<NodeId> got_nodes =
      RouteFixedBlocks(index, scans, partition, batch_cap, spt, &lane);
  if (got_nodes != ref_nodes) {
    std::fprintf(stderr, "route identity violated (read streams differ)\n");
    std::exit(1);
  }
  if (lane.sim.BusyUntil() != ref.sim.BusyUntil()) {
    std::fprintf(stderr, "route identity violated (busy-until differs)\n");
    std::exit(1);
  }
}

// ------------------------------------------------------------ measurement

struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t scans = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

struct PointResult {
  std::size_t shards = 0;
  std::size_t batch = 0;
  double scans_per_sec = 0.0;
  std::vector<ShardStats> per_shard;
};

PointResult MeasurePoint(const ClusterConfig& config, const ConfigIndex& index,
                         const std::vector<Scan>& scans,
                         const std::vector<std::vector<std::uint32_t>>&
                             partitions,
                         std::size_t shards, std::size_t batch_cap,
                         double spt) {
  PointResult point;
  point.shards = shards;
  point.batch = batch_cap;

  std::vector<std::unique_ptr<ShardLane>> lanes;
  std::vector<std::unique_ptr<SpscQueue<std::uint32_t>>> rings;
  for (std::size_t s = 0; s < shards; ++s) {
    lanes.push_back(std::make_unique<ShardLane>(config));
    rings.push_back(std::make_unique<SpscQueue<std::uint32_t>>(kRingCapacity));
  }

  // Warm-up: page code in and grow every lane's block/scratch/out buffers
  // to steady-state capacity, off the clock, single-threaded.
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<std::uint32_t>& part = partitions[s];
    const std::size_t warm = std::min<std::size_t>(part.size(), 4096);
    ShardLane* lane = lanes[s].get();
    for (std::size_t i = 0; i < warm; ++i) {
      lane->block.AddScan(part[i], scans[part[i]]);
      if (lane->block.size() >= batch_cap) FlushBlock(index, spt, lane);
    }
    FlushBlock(index, spt, lane);
    lane->scans_routed = 0;
  }

  // Throughput: the real pipeline — producer partitioning into the rings,
  // one consumer thread per shard — two clock reads around the whole run.
  // Best of kThroughputReps repetitions: the point is the plane's speed,
  // not the host's background load, and min-time is the standard
  // noise-robust estimator for that.
  std::vector<std::size_t> shard_of(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    shard_of[i] = ShardOfTable(scans[i].table, shards);
  }
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kThroughputReps; ++rep) {
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back(ShardLoop, rings[s].get(), &done, std::cref(index),
                           std::cref(scans), batch_cap, spt, lanes[s].get());
    }
    const auto t0 = Clock::now();
    // Admission: the `--batch` knob configures the plane end to end, so
    // the producer stages ids per shard and hands each chunk (of at most
    // the batch size) to the ring with one bulk push. Staging preserves
    // per-shard FIFO order — ids enter a shard's buffer in global order
    // and flush in order — so the routed streams are untouched.
    const std::size_t chunk = std::min<std::size_t>(batch_cap, 64);
    std::vector<std::vector<std::uint32_t>> staging(shards);
    for (auto& st : staging) st.reserve(chunk);
    const auto flush_shard = [&](std::size_t s) {
      const std::vector<std::uint32_t>& st = staging[s];
      std::size_t pushed = 0;
      while (pushed < st.size()) {
        const std::size_t n =
            rings[s]->TryPushBulk(st.data() + pushed, st.size() - pushed);
        if (n == 0) std::this_thread::yield();
        pushed += n;
      }
      staging[s].clear();
    };
    for (std::size_t i = 0; i < scans.size(); ++i) {
      const std::size_t s = shard_of[i];
      staging[s].push_back(static_cast<std::uint32_t>(i));
      if (staging[s].size() >= chunk) flush_shard(s);
    }
    for (std::size_t s = 0; s < shards; ++s) flush_shard(s);
    done.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const auto t1 = Clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }

  std::uint64_t routed = 0;
  for (const auto& lane : lanes) routed += lane->scans_routed;
  if (routed != scans.size() * kThroughputReps) {
    std::fprintf(stderr, "lost scans: routed %llu of %zu\n",
                 static_cast<unsigned long long>(routed),
                 scans.size() * kThroughputReps);
    std::exit(1);
  }
  point.scans_per_sec = static_cast<double>(scans.size()) / best_s;

  // Tails: a separate single-threaded sampling pass per shard with
  // deterministic fixed blocks, per-block timed — ns/scan within each
  // block, so per-scan timer overhead never touches the throughput
  // number above.
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<std::uint32_t>& part = partitions[s];
    ShardStats stats;
    stats.shard = s;
    stats.scans = part.size();
    if (!part.empty()) {
      ShardLane lane(config);
      std::vector<double> samples_ns;
      const auto flush_timed = [&] {
        if (lane.block.empty()) return;
        const std::size_t n = lane.block.size();
        const auto b0 = Clock::now();
        FlushBlock(index, spt, &lane);
        const auto b1 = Clock::now();
        samples_ns.push_back(
            std::chrono::duration<double, std::nano>(b1 - b0).count() /
            static_cast<double>(n));
      };
      for (const std::uint32_t id : part) {
        lane.block.AddScan(id, scans[id]);
        if (lane.block.size() >= batch_cap) flush_timed();
      }
      flush_timed();
      std::sort(samples_ns.begin(), samples_ns.end());
      stats.p50_ns = samples_ns[samples_ns.size() / 2];
      stats.p99_ns = samples_ns[samples_ns.size() * 99 / 100];
    }
    point.per_shard.push_back(stats);
  }
  return point;
}

void Run(bool smoke, const std::string& out_path) {
  const std::size_t n_scans = smoke ? 8'000 : 200'000;
  Rng rng(0xda7a);
  const ClusterConfig config = MakeConfig(&rng);
  const ConfigIndex index(config);
  const std::vector<Scan> scans = MakeScans(n_scans, &rng);
  const ClusterSimOptions sim_opts;
  const double spt = 1.0 / sim_opts.tuples_per_second;

  std::printf("data-plane throughput, router=max_of_mins, %zu scans, "
              "%zu tables, %zu nodes%s\n",
              n_scans, kTables, kNodes, smoke ? " (smoke)" : "");
  std::printf("%-8s %-8s %15s %12s  per-shard p50/p99 ns\n", "shards",
              "batch", "scans/s", "speedup");

  std::vector<PointResult> sweep;
  double baseline = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    // Partition once per shard count: the table-hash partitioner is
    // deterministic, so every batch size sees the same split.
    std::vector<std::vector<std::uint32_t>> partitions(shards);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      partitions[ShardOfTable(scans[i].table, shards)].push_back(
          static_cast<std::uint32_t>(i));
    }
    for (const std::size_t batch : {1u, 16u, 64u, 256u}) {
      for (std::size_t s = 0; s < shards; ++s) {
        VerifyIdentity(config, index, scans, partitions[s], batch, spt);
      }
      PointResult point =
          MeasurePoint(config, index, scans, partitions, shards, batch, spt);
      if (shards == 1 && batch == 1) baseline = point.scans_per_sec;
      std::printf("%-8zu %-8zu %15.0f %11.2fx ", point.shards, point.batch,
                  point.scans_per_sec, point.scans_per_sec / baseline);
      for (const ShardStats& st : point.per_shard) {
        std::printf(" [%zu] %.0f/%.0f", st.shard, st.p50_ns, st.p99_ns);
      }
      std::printf("\n");
      sweep.push_back(std::move(point));
    }
  }

  double best4 = 0.0;
  for (const PointResult& p : sweep) {
    if (p.shards == 4 && p.batch == 256) best4 = p.scans_per_sec;
  }
  std::printf("\n4-shard/batch-256 vs 1-shard/batch-1 baseline: %.2fx\n",
              best4 / baseline);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"data_plane\",\n");
  std::fprintf(f, "  \"router\": \"max_of_mins\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"scans\": %zu,\n  \"tables\": %zu,\n", n_scans, kTables);
  std::fprintf(f, "  \"node_count\": %zu,\n", kNodes);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"baseline_scans_per_sec\": %.1f,\n", baseline);
  std::fprintf(f, "  \"speedup_4shard_batch256_vs_baseline\": %.3f,\n",
               best4 / baseline);
  std::fprintf(f,
               "  \"note\": \"speedups are per-core kernel gains only when "
               "hardware_concurrency < shards + 1; shards share no mutable "
               "state, so on a multi-core host the shard axis multiplies on "
               "top of the batch gain\",\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& p = sweep[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"batch\": %zu, "
                 "\"scans_per_sec\": %.1f,\n     \"per_shard\": [",
                 p.shards, p.batch, p.scans_per_sec);
    for (std::size_t s = 0; s < p.per_shard.size(); ++s) {
      const ShardStats& st = p.per_shard[s];
      std::fprintf(f,
                   "%s{\"shard\": %zu, \"scans\": %llu, \"p50_ns\": %.1f, "
                   "\"p99_ns\": %.1f}",
                   s == 0 ? "" : ", ", st.shard,
                   static_cast<unsigned long long>(st.scans), st.p50_ns,
                   st.p99_ns);
    }
    std::fprintf(f, "]}%s\n", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace nashdb

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_data_plane.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  nashdb::Run(smoke, out_path);
  return 0;
}

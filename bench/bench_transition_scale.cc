// Control-plane scale bench (DESIGN.md "Scalable control plane"): sweeps
// cluster sizes 64 -> 8192 nodes through the full transition pipeline —
// parallel BFFD packing, sparse overlap-graph construction, the sparse
// successive-shortest-paths matcher, and the streaming validators — and
// emits machine-readable BENCH_transition.json next to the human table.
//
// Exactness gates, run on every instance small enough for the dense
// Hungarian solver (<= kDenseCap nodes) before anything is timed: the
// overlap graph must equal the pairwise §7 oracle (tests/
// transition_oracle.h) edge for edge, and both solvers must produce
// bit-identical plan costs (integer tuple counts, so "equal" means
// equal). The bench CHECK-fails on either mismatch. Past the cap the dense
// O(n^3) matrix and the O(n^2) oracle are the infeasible regime the sparse
// path exists for; the full sweep asserts the 4096-node instance plans in
// under five seconds (median).
//
// Every timed stage runs `reps` times per size and is reported as median,
// min and max, next to a host block (hardware threads, compiler, build
// type, git revision).
//
// Flags: --smoke (64/256-node sizes only, for CI), --out=PATH (JSON
// path, default BENCH_transition.json).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/validate.h"
#include "replication/packer.h"
#include "replication/replication.h"
#include "tests/transition_oracle.h"
#include "transition/edge_cost.h"
#include "transition/planner.h"
#include "transition/sparse_matching.h"

#ifndef NASHDB_BENCH_BUILD_TYPE
#define NASHDB_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define NASHDB_BENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define NASHDB_BENCH_COMPILER "g++ " __VERSION__
#else
#define NASHDB_BENCH_COMPILER "unknown"
#endif

namespace nashdb::bench {
namespace {

// Dense Hungarian is O(n^3) on the dummy-padded matrix; past this many
// nodes one solve takes minutes and the sweep skips it (logged below).
constexpr std::size_t kDenseCap = 512;
constexpr TupleCount kDisk = 1'000;
constexpr int kReps = 5;
constexpr int kSmokeReps = 3;

/// Median, min and max of one timed stage over the repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread Summarize(std::vector<double> samples) {
  NASHDB_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return Spread{median, samples.front(), samples.back()};
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct SizeResult {
  std::size_t target_nodes = 0;
  std::size_t nodes_old = 0;
  std::size_t nodes_new = 0;
  std::size_t fragments = 0;
  std::size_t edges = 0;            // positive-overlap graph edges
  std::uint64_t iterations = 0;     // sparse Dijkstra settles
  TupleCount transfer_tuples = 0;
  Spread pack_ms;                   // BFFD pack of the new epoch
  Spread graph_ms;                  // overlap graph build
  Spread solve_ms;                  // sparse matcher alone
  Spread plan_ms;                   // end-to-end PlanTransition (sparse)
  Spread validate_ms;               // ValidateConfig + ValidatePlan
  Spread dense_ms;                  // only when dense_run
  bool dense_run = false;           // false past kDenseCap
  bool graph_identity_checked = false;
  bool cost_identity_checked = false;
};

// A synthetic epoch sized to pack onto roughly `target_nodes` nodes:
// fragment tilings over target_nodes/64 tables, replica counts in {1, 2},
// total replica volume ~90% of the target cluster's disk.
std::vector<FragmentInfo> EpochFragments(Rng* rng, std::size_t target_nodes) {
  const std::size_t tables = target_nodes < 64 ? 1 : target_nodes / 64;
  const TupleCount table_size =
      target_nodes * 600 / tables;  // * ~1.5 replicas / kDisk ~= target
  std::vector<FragmentInfo> frags;
  for (std::size_t t = 0; t < tables; ++t) {
    TupleCount start = 0;
    FragmentId index = 0;
    while (start < table_size) {
      const TupleCount len = std::min<TupleCount>(
          table_size - start, 20 + rng->Uniform(101));
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = index++;
      f.range = TupleRange{start, start + len};
      f.value = 1.0;
      f.replicas = 1 + rng->Uniform(2);
      frags.push_back(f);
      start += len;
    }
  }
  return frags;
}

ReplicationParams Params() {
  ReplicationParams p;
  p.node_cost = 1.0;
  p.node_disk = kDisk;
  p.window_scans = 50;
  return p;
}

SizeResult RunSize(std::size_t target_nodes, int reps, ThreadPool* pool) {
  Rng rng(0xC0FFEE + target_nodes);
  SizeResult r;
  r.target_nodes = target_nodes;

  // Old epoch, and the new epoch: re-tiled boundaries and re-rolled
  // replica counts over the same tables — the overlap-rich
  // "reconfiguration step" regime. The timed packs below repack the
  // new epoch's fragments.
  auto old_frags = EpochFragments(&rng, target_nodes);
  auto old_config = PackReplicasBffd(Params(), std::move(old_frags), pool);
  NASHDB_CHECK(old_config.ok()) << old_config.status().ToString();
  const std::vector<FragmentInfo> new_frags =
      EpochFragments(&rng, target_nodes);
  r.fragments = new_frags.size();
  auto new_config = PackReplicasBffd(Params(), new_frags, pool);
  NASHDB_CHECK(new_config.ok()) << new_config.status().ToString();
  r.nodes_old = old_config->node_count();
  r.nodes_new = new_config->node_count();
  r.dense_run = std::max(r.nodes_old, r.nodes_new) <= kDenseCap;

  // Graph identity gate, before anything is timed.
  const TransitionGraph reference =
      BuildTransitionGraph(*old_config, *new_config, nullptr);
  r.edges = reference.edges.size();
  if (r.dense_run) {
    const std::string diff = oracle::DiffGraphs(
        reference,
        oracle::PairwiseTransitionGraph(*old_config, *new_config, nullptr));
    NASHDB_CHECK(diff.empty())
        << "overlap graph differs from the pairwise oracle at "
        << target_nodes << " nodes: " << diff;
    r.graph_identity_checked = true;
  }

  std::array<std::vector<double>, 6> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t_pack = std::chrono::steady_clock::now();
    auto repacked = PackReplicasBffd(Params(), new_frags, pool);
    samples[0].push_back(MsSince(t_pack));
    NASHDB_CHECK(repacked.ok()) << repacked.status().ToString();

    // Stage timings on the explicit primitives.
    const auto t_graph = std::chrono::steady_clock::now();
    const TransitionGraph graph =
        BuildTransitionGraph(*old_config, *new_config, nullptr);
    samples[1].push_back(MsSince(t_graph));
    NASHDB_CHECK_EQ(graph.edges.size(), r.edges);

    const auto t_solve = std::chrono::steady_clock::now();
    const SparseMatchingResult matching = SolveMaxOverlapMatching(graph);
    samples[2].push_back(MsSince(t_solve));
    r.iterations = matching.iterations;

    // End-to-end sparse plan (re-runs graph + solve: this is the number a
    // control plane actually pays per reconfiguration).
    TransitionPlannerOptions sparse_opts;
    sparse_opts.solver = TransitionSolver::kSparse;
    const auto t_plan = std::chrono::steady_clock::now();
    const TransitionPlan sparse =
        PlanTransition(*old_config, *new_config, nullptr, sparse_opts);
    samples[3].push_back(MsSince(t_plan));
    r.transfer_tuples = sparse.total_transfer_tuples;
    NASHDB_CHECK_EQ(sparse.total_transfer_tuples,
                    graph.TotalNewTuples() - matching.total_overlap);

    const auto t_val = std::chrono::steady_clock::now();
    const Status cfg_ok = ValidateConfig(*new_config, pool);
    const Status plan_ok =
        ValidatePlan(sparse, *old_config, *new_config, nullptr, pool);
    samples[4].push_back(MsSince(t_val));
    NASHDB_CHECK(cfg_ok.ok()) << cfg_ok.ToString();
    NASHDB_CHECK(plan_ok.ok()) << plan_ok.ToString();

    // Cost-identity gate against the paper-verbatim dense solver.
    if (r.dense_run) {
      TransitionPlannerOptions dense_opts;
      dense_opts.solver = TransitionSolver::kDense;
      const auto t_dense = std::chrono::steady_clock::now();
      const TransitionPlan dense =
          PlanTransition(*old_config, *new_config, nullptr, dense_opts);
      samples[5].push_back(MsSince(t_dense));
      NASHDB_CHECK_EQ(dense.total_transfer_tuples,
                      sparse.total_transfer_tuples)
          << "plan-cost identity broken at " << target_nodes << " nodes";
      r.cost_identity_checked = true;
    }
  }
  r.pack_ms = Summarize(samples[0]);
  r.graph_ms = Summarize(samples[1]);
  r.solve_ms = Summarize(samples[2]);
  r.plan_ms = Summarize(samples[3]);
  r.validate_ms = Summarize(samples[4]);
  if (r.dense_run) r.dense_ms = Summarize(samples[5]);
  return r;
}

/// `git describe --always --dirty` of the working directory, or "unknown"
/// outside a git checkout.
std::string GitRevision() {
  std::string rev;
  std::FILE* p = popen("git describe --always --dirty --abbrev=12 2>/dev/null",
                       "r");
  if (p == nullptr) return "unknown";
  char buf[128];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) rev += buf;
  pclose(p);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// Minimal JSON string escaping for the host strings.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintSpread(std::FILE* f, const char* key, const Spread& s) {
  std::fprintf(f, "\"%s\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f}",
               key, s.median, s.min, s.max);
}

void WriteJson(const std::string& out_path, int reps, std::size_t threads,
               const std::vector<SizeResult>& results) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"transition_scale\",\n");
  std::fprintf(f,
               "  \"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"git_sha\": \"%s\", "
               "\"pool_threads\": %zu},\n",
               std::thread::hardware_concurrency(),
               JsonEscape(NASHDB_BENCH_COMPILER).c_str(),
               JsonEscape(NASHDB_BENCH_BUILD_TYPE).c_str(),
               JsonEscape(GitRevision()).c_str(), threads);
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"dense_cap\": %zu,\n", kDenseCap);
  std::fprintf(f, "  \"node_disk\": %llu,\n",
               static_cast<unsigned long long>(kDisk));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"target_nodes\": %zu, \"nodes_old\": %zu, "
        "\"nodes_new\": %zu, \"fragments\": %zu, \"edges\": %zu, "
        "\"iterations\": %llu, \"transfer_tuples\": %llu,\n     ",
        r.target_nodes, r.nodes_old, r.nodes_new, r.fragments, r.edges,
        static_cast<unsigned long long>(r.iterations),
        static_cast<unsigned long long>(r.transfer_tuples));
    PrintSpread(f, "pack_ms", r.pack_ms);
    std::fprintf(f, ", ");
    PrintSpread(f, "graph_ms", r.graph_ms);
    std::fprintf(f, ",\n     ");
    PrintSpread(f, "solve_ms", r.solve_ms);
    std::fprintf(f, ", ");
    PrintSpread(f, "plan_ms", r.plan_ms);
    std::fprintf(f, ",\n     ");
    PrintSpread(f, "validate_ms", r.validate_ms);
    std::fprintf(f, ", ");
    if (r.dense_run) {
      PrintSpread(f, "dense_ms", r.dense_ms);
    } else {
      std::fprintf(f, "\"dense_ms\": null");
    }
    std::fprintf(f,
                 ",\n     \"graph_identity_checked\": %s, "
                 "\"cost_identity_checked\": %s}%s\n",
                 r.graph_identity_checked ? "true" : "false",
                 r.cost_identity_checked ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu sizes)\n", out_path.c_str(), results.size());
}

int Run(bool smoke, const std::string& out_path) {
  std::vector<std::size_t> sweep = {64, 256, 512, 1024, 4096, 8192};
  if (smoke) sweep = {64, 256};
  const int reps = smoke ? kSmokeReps : kReps;

  const std::size_t threads = ThreadPool::DefaultThreads();
  ThreadPool pool(threads);

  PrintTitle("Transition scale: sparse SSP matcher vs dense Hungarian");
  std::printf("(median of %d repetitions per stage)\n", reps);
  PrintRow({"nodes", "frags", "edges", "pack ms", "graph ms", "solve ms",
            "plan ms", "dense ms"});

  std::vector<SizeResult> results;
  for (const std::size_t n : sweep) {
    const SizeResult r = RunSize(n, reps, &pool);
    PrintRow({std::to_string(r.nodes_new), std::to_string(r.fragments),
              std::to_string(r.edges), Fmt(r.pack_ms.median),
              Fmt(r.graph_ms.median), Fmt(r.solve_ms.median),
              Fmt(r.plan_ms.median),
              r.dense_run ? Fmt(r.dense_ms.median) : std::string("(skipped)")});
    if (!r.dense_run) {
      std::printf("  (dense Hungarian and graph oracle skipped at %zu "
                  "nodes: O(n^3) matrix is the infeasible regime)\n",
                  r.nodes_new);
    }
    // The headline SLO of the sweep: planning a 4096-node transition
    // stays interactive even though dense would take minutes.
    if (!smoke && n == 4096) {
      NASHDB_CHECK_LE(r.plan_ms.median, 5'000.0)
          << "4096-node sparse plan exceeded the 5 s budget";
    }
    results.push_back(r);
  }

  WriteJson(out_path, reps, threads, results);
  return 0;
}

}  // namespace
}  // namespace nashdb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_transition.json";
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
  return nashdb::bench::Run(smoke, out_path);
}

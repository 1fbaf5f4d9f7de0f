// nashdb_sim — run any workload x system x router combination on the
// simulated elastic cluster and report latency / cost / transfer metrics.
//
// Examples:
//   nashdb_sim --workload=bernoulli --system=nashdb --price=4
//   nashdb_sim --workload=real2 --system=threshold --nodes=24
//   nashdb_sim --workload=tpch --system=hypergraph --nodes=16
//              --router=greedysc --scale=0.25  (one command line)
//   nashdb_sim --workload=real1 --system=nashdb --adaptive
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "nashdb/nashdb.h"

namespace {

using namespace nashdb;

struct Flags {
  std::string workload = "tpch";
  std::string system = "nashdb";
  std::string router = "maxofmins";
  double scale = 0.25;
  Money price = 1.0;
  std::size_t nodes = 16;           // baselines' fixed cluster size
  std::size_t window = 250;         // |W|
  Money node_cost = -1.0;           // rent per period (-1 = calibrate)
  TupleCount node_disk = 120'000;   // tuples per node
  TupleCount block = 4'000;         // average fragment size
  std::size_t max_replicas = 128;
  double interval_s = 3600.0;       // reconfiguration interval
  bool adaptive = false;
  std::string metrics_path;         // write the metrics snapshot here
  std::string faults;               // fault scenario spec (empty = none)
  std::string scenario;             // scenario spec file (empty = flags)
  std::string report_path;          // write the scenario JSON report here
  std::uint64_t seed = 0;           // seed for all stochastic components
  bool no_repair = false;           // disable emergency re-replication
  std::size_t shards = 1;           // driver shards (1 = serial driver)
  std::size_t batch = 64;           // scans per routed block
  bool online = false;              // sharded online epoch replay
  double build_window_s = 0.0;      // round publish delay (sim seconds)
  bool help = false;
};

void PrintHelp() {
  std::printf(
      "nashdb_sim: simulate a data-distribution system on a workload\n\n"
      "  --workload=tpch|bernoulli|random|real1|real2|real1-static\n"
      "  --system=nashdb|threshold|hypergraph\n"
      "  --router=maxofmins|shortestqueue|greedysc|power2\n"
      "  --scale=F          workload scale factor (default 0.25)\n"
      "  --price=F          uniform query price for nashdb (default 1)\n"
      "  --nodes=N          fixed cluster size for baselines (default 16)\n"
      "  --window=N         scan window |W| (default 250)\n"
      "  --node-cost=F      rent per period (default: calibrated to the\n"
      "                     window turnover; see DESIGN.md 4c)\n"
      "  --node-disk=N      tuples per node (default 120000)\n"
      "  --block=N          average fragment tuples (default 4000)\n"
      "  --max-replicas=N   replica cap (default 128)\n"
      "  --interval=SECONDS reconfiguration interval (default 3600)\n"
      "  --adaptive         adaptive transition detection\n"
      "  --metrics=PATH     write the end-to-end metrics/trace snapshot\n"
      "                     (JSON; see DESIGN.md \"Observability\")\n"
      "\n"
      "Data plane (DESIGN.md 11):\n"
      "  --batch=N          scans per routed block (RouteBatchInto block\n"
      "                     size; default 64, 1 = one-query blocks;\n"
      "                     fault and overload runs always route\n"
      "                     one-query blocks; never changes results,\n"
      "                     only throughput)\n"
      "  --shards=N         per-core driver shards, each consuming from a\n"
      "                     lock-free SPSC ring and routing against one\n"
      "                     shared configuration epoch. Default 1 = the\n"
      "                     serial elastic driver. N > 1 runs the\n"
      "                     fault-free single-epoch data plane (the\n"
      "                     configuration is built once from the whole\n"
      "                     workload; no reconfiguration) and is\n"
      "                     incompatible with --faults, --adaptive, and\n"
      "                     --metrics\n"
      "\n"
      "Online reconfiguration (DESIGN.md 12):\n"
      "  --build-window=S   simulated seconds between a reconfiguration\n"
      "                     boundary and the publish of the configuration\n"
      "                     built there, which routing overlaps with the\n"
      "                     background build (default 0 = publish at the\n"
      "                     boundary: the admission loop stalls for the\n"
      "                     whole build; the summary's 'reconfig stall'\n"
      "                     line shows the wall-clock it lost)\n"
      "  --online-reconfig  with --shards=N>1, replay a prefix-derived\n"
      "                     epoch schedule on the sharded data plane,\n"
      "                     publishing epochs while the shards route; if\n"
      "                     --faults is also given, the serial elastic\n"
      "                     control plane runs first under the faults and\n"
      "                     the fault-free sharded replay follows. Serial\n"
      "                     runs need no flag: every round is built online\n"
      "\n"
      "Fault injection (DESIGN.md 8):\n"
      "  --faults=SPEC      semicolon-separated clauses:\n"
      "                       crash@T:nID[:for=D]    crash node ID at T s,\n"
      "                                              recover after D s\n"
      "                       recover@T:nID          revive node ID at T\n"
      "                       slow@T:nID:xF[:for=D]  straggler at F x speed\n"
      "                       interrupt@T            restart the transfers\n"
      "                                              of the next transition\n"
      "                       mttf=S                 stochastic crashes,\n"
      "                                              Exp(S) apart\n"
      "                       mttr=S                 crash repair Exp(S)\n"
      "                                              (omit: permanent)\n"
      "                       straggle-every=S / straggle-for=S /\n"
      "                       straggle-x=F           stochastic stragglers\n"
      "                       pinterrupt=P           per-transfer restart\n"
      "                                              probability\n"
      "                     e.g. --faults='mttf=1800;mttr=600'\n"
      "  --seed=N           seeds every stochastic fault draw (victim\n"
      "                     choice, Exp() times, transfer interrupts) and\n"
      "                     the power2 router's sampling. Identical\n"
      "                     --faults + --seed replay a bit-identical fault\n"
      "                     history and faults.* metrics on every run and\n"
      "                     at any thread count; changing the seed changes\n"
      "                     only the stochastic draws, never scripted\n"
      "                     events. Default 0.\n"
      "  --no-repair        disable emergency re-replication (measure pure\n"
      "                     degraded operation)\n"
      "\n"
      "Chaos scenarios (DESIGN.md 13):\n"
      "  --scenario=FILE    run a declarative scenario spec (INI-subset:\n"
      "                     [scenario]/[topology]/[workload]/[phase]/\n"
      "                     [faults]/[overload]/[driver]/[assert]; see\n"
      "                     scenarios/*.scn and src/scenario/scenario.h).\n"
      "                     Replaces every workload/system flag above;\n"
      "                     per-scenario SLO assertions are evaluated at\n"
      "                     the end of the run\n"
      "  --report=PATH      write the per-scenario JSON report\n"
      "\n"
      "Exit codes: 0 ok; 1 I/O error; 2 bad flags or malformed\n"
      "--faults/--scenario spec (the message names the bad token and the\n"
      "expected grammar); 3 at least one query aborted (retry budget /\n"
      "timeout exhausted under faults, flag-driven runs only); 4 a\n"
      "scenario SLO assertion was violated (each violation is named on\n"
      "stderr).\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      f.help = true;
    } else if (std::strcmp(a, "--adaptive") == 0) {
      f.adaptive = true;
    } else if (std::strcmp(a, "--no-repair") == 0) {
      f.no_repair = true;
    } else if (std::strcmp(a, "--online-reconfig") == 0) {
      f.online = true;
    } else if (ParseFlag(a, "--build-window", &v)) {
      f.build_window_s = std::atof(v.c_str());
    } else if (ParseFlag(a, "--workload", &f.workload) ||
               ParseFlag(a, "--system", &f.system) ||
               ParseFlag(a, "--router", &f.router) ||
               ParseFlag(a, "--faults", &f.faults) ||
               ParseFlag(a, "--scenario", &f.scenario) ||
               ParseFlag(a, "--report", &f.report_path) ||
               ParseFlag(a, "--metrics", &f.metrics_path)) {
    } else if (ParseFlag(a, "--scale", &v)) {
      f.scale = std::atof(v.c_str());
    } else if (ParseFlag(a, "--price", &v)) {
      f.price = std::atof(v.c_str());
    } else if (ParseFlag(a, "--nodes", &v)) {
      f.nodes = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--window", &v)) {
      f.window = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--node-cost", &v)) {
      f.node_cost = std::atof(v.c_str());
    } else if (ParseFlag(a, "--node-disk", &v)) {
      f.node_disk = static_cast<TupleCount>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--block", &v)) {
      f.block = static_cast<TupleCount>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--max-replicas", &v)) {
      f.max_replicas = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--interval", &v)) {
      f.interval_s = std::atof(v.c_str());
    } else if (ParseFlag(a, "--seed", &v)) {
      f.seed = static_cast<std::uint64_t>(std::strtoull(v.c_str(), nullptr, 10));
    } else if (ParseFlag(a, "--shards", &v)) {
      f.shards = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(a, "--batch", &v)) {
      f.batch = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", a);
      std::exit(2);
    }
  }
  return f;
}

Workload BuildWorkload(const Flags& f) {
  const TupleCount tpg = 1000;  // 1 simulated tuple = 1 MB
  if (f.workload == "tpch") {
    TpchOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(220 * f.scale) + 10;
    o.price = f.price;
    o.arrival_span_s = 24.0 * 3600.0;
    return MakeTpchWorkload(o);
  }
  if (f.workload == "bernoulli") {
    BernoulliOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(500 * f.scale) + 10;
    o.price = f.price;
    o.arrival_span_s = 24.0 * 3600.0;
    return MakeBernoulliWorkload(o);
  }
  if (f.workload == "random") {
    RandomWorkloadOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(2000 * f.scale) + 10;
    o.price = f.price;
    return MakeRandomWorkload(o);
  }
  if (f.workload == "real1") {
    RealData1DynamicOptions o;
    o.db_gb = 300.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(1220 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData1DynamicWorkload(o);
  }
  if (f.workload == "real2") {
    RealData2DynamicOptions o;
    o.db_gb = 3000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(2500 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData2DynamicWorkload(o);
  }
  if (f.workload == "real1-static") {
    RealData1StaticOptions o;
    o.db_gb = 800.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(1000 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData1StaticWorkload(o);
  }
  std::fprintf(stderr, "unknown workload: %s\n", f.workload.c_str());
  std::exit(2);
}

std::unique_ptr<DistributionSystem> BuildSystem(const Flags& f,
                                                const Dataset& dataset) {
  if (f.system == "nashdb") {
    NashDbOptions o;
    o.window_scans = f.window;
    o.block_tuples = f.block;
    o.node_cost = f.node_cost;
    o.node_disk = f.node_disk;
    o.max_replicas = f.max_replicas;
    return std::make_unique<NashDbSystem>(dataset, o);
  }
  if (f.system == "threshold") {
    ThresholdOptions o;
    o.window_scans = f.window;
    o.num_nodes = f.nodes;
    o.node_disk = f.node_disk;
    o.node_cost = f.node_cost;
    o.cold_block_tuples = f.block * 4;
    return std::make_unique<ThresholdSystem>(dataset, o);
  }
  if (f.system == "hypergraph") {
    HypergraphSystemOptions o;
    o.window_scans = f.window;
    o.num_partitions = f.nodes;
    o.node_disk = f.node_disk;
    o.node_cost = f.node_cost;
    return std::make_unique<HypergraphSystem>(dataset, o);
  }
  std::fprintf(stderr, "unknown system: %s\n", f.system.c_str());
  std::exit(2);
}

std::unique_ptr<ScanRouter> BuildRouter(const Flags& f) {
  if (f.router == "maxofmins") return std::make_unique<MaxOfMinsRouter>();
  if (f.router == "shortestqueue") {
    return std::make_unique<ShortestQueueRouter>();
  }
  if (f.router == "greedysc") return std::make_unique<GreedyScRouter>();
  if (f.router == "power2") {
    // --seed also pins the router's two-choice sampling, so a power2 run
    // is reproducible end to end. Seed 0 keeps the router's default.
    return f.seed == 0 ? std::make_unique<PowerOfTwoRouter>()
                       : std::make_unique<PowerOfTwoRouter>(f.seed);
  }
  std::fprintf(stderr, "unknown router: %s\n", f.router.c_str());
  std::exit(2);
}

void PrintSerialSummary(const Flags& f, const Workload& wl,
                        const RunResult& r) {
  std::printf("workload           : %s (%zu queries, %lu tuples)\n",
              wl.name.c_str(), wl.queries.size(),
              static_cast<unsigned long>(wl.dataset.TotalTuples()));
  std::printf("system / router    : %s / %s\n", f.system.c_str(),
              f.router.c_str());
  std::printf("mean latency       : %10.1f s\n", r.MeanLatency());
  std::printf("p50 / p95 / p99    : %10.1f / %.1f / %.1f s\n",
              r.TailLatency(50), r.TailLatency(95), r.TailLatency(99));
  std::printf("mean query span    : %10.2f nodes\n", r.MeanSpan());
  std::printf("total cost         : %10.1f cents\n", r.total_cost);
  std::printf("final cluster size : %10zu nodes\n", r.final_nodes);
  std::printf("transitions        : %10zu (+%zu skipped)\n", r.transitions,
              r.transitions_skipped);
  std::printf("reconfig stall     : %10.4f s wall-clock (build window "
              "%g s: kick + residual build wait + plan, every round)\n",
              r.reconfig_stall_s, f.build_window_s);
  std::printf("data moved         : %10.1f GB (bootstrap %.1f GB)\n",
              static_cast<double>(r.transferred_tuples) / 1000.0,
              static_cast<double>(r.bootstrap_transfer_tuples) / 1000.0);
  std::printf("data served        : %10.1f GB\n",
              static_cast<double>(r.read_tuples) / 1000.0);
  std::printf("makespan           : %10.1f h\n", r.makespan_s / 3600.0);
  if (!f.faults.empty()) {
    std::printf("faults             : %10zu crashes, %zu retries, "
                "%zu aborted queries\n",
                r.crashes, r.scan_retries, r.aborted_queries);
    std::printf("emergency repairs  : %10zu (%.1f GB re-replicated)\n",
                r.emergency_repairs,
                static_cast<double>(r.repair_transfer_tuples) / 1000.0);
  }
}

/// Prefix-derived epoch schedule for the sharded online data plane: the
/// bootstrap is built from the first interval's arrivals, then one epoch
/// per subsequent boundary, each built from exactly the queries arriving
/// before it (no lookahead) and activating at the boundary — the data
/// plane's replay of what the serial control loop would publish.
std::vector<ScheduledEpoch> BuildEpochSchedule(const Flags& f,
                                               const Workload& wl,
                                               DistributionSystem* system,
                                               ClusterConfig* bootstrap) {
  std::size_t qi = 0;
  const auto observe_until = [&](SimTime t) {
    while (qi < wl.queries.size() && wl.queries[qi].arrival < t) {
      system->Observe(wl.queries[qi++].query);
    }
  };
  observe_until(f.interval_s);
  *bootstrap = system->BuildConfig();
  std::vector<ScheduledEpoch> schedule;
  const SimTime last_arrival =
      wl.queries.empty() ? 0.0 : wl.queries.back().arrival;
  for (SimTime b = 2.0 * f.interval_s; b <= last_arrival;
       b += f.interval_s) {
    observe_until(b);
    schedule.push_back({system->BuildConfig(), b});
  }
  return schedule;
}

}  // namespace

namespace {

/// --scenario mode: load, run, report, and gate on the SLO assertions.
/// Exit codes: 0 ok, 1 I/O, 2 malformed spec, 4 assertion violated.
int RunScenarioMode(const Flags& f) {
  Result<ScenarioSpec> spec = ScenarioSpec::Load(f.scenario);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return spec.status().code() == StatusCode::kNotFound ? 1 : 2;
  }
  std::printf("scenario           : %s (%s)\n", spec->name.c_str(),
              f.scenario.c_str());
  if (!spec->description.empty()) {
    std::printf("description        : %s\n", spec->description.c_str());
  }
  const ScenarioOutcome out = RunScenario(*spec);
  const RunResult& r = out.result;
  std::printf("queries            : %10zu total, %zu completed, "
              "%zu aborted, %zu shed\n",
              r.total_queries, r.CompletedQueries(), r.aborted_queries,
              r.shed_queries);
  std::printf("mean latency       : %10.1f s\n", r.MeanLatency());
  std::printf("p50 / p95 / p99    : %10.1f / %.1f / %.1f s\n",
              r.TailLatency(50), r.TailLatency(95), r.TailLatency(99));
  std::printf("total cost         : %10.1f cents\n", r.total_cost);
  std::printf("faults             : %10zu crashes, %zu partitions, "
              "%zu retries, %zu repairs\n",
              r.crashes, r.partitions, r.scan_retries, r.emergency_repairs);
  std::printf("recovery time      : %10.1f s after the last fault\n",
              out.recovery_time_s);
  std::printf("peak RSS           : %10.1f MB\n", out.rss_peak_mb);
  std::printf("makespan           : %10.1f h\n", r.makespan_s / 3600.0);
  if (!f.report_path.empty()) {
    std::FILE* rf = std::fopen(f.report_path.c_str(), "w");
    if (rf == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   f.report_path.c_str());
      return 1;
    }
    std::fprintf(rf, "%s", out.report_json.c_str());
    std::fclose(rf);
    std::printf("report             : %s\n", f.report_path.c_str());
  }
  if (!out.violations.empty()) {
    for (const std::string& v : out.violations) {
      std::fprintf(stderr, "scenario SLO violation: %s\n", v.c_str());
    }
    return 4;
  }
  std::printf("assertions         : %10zu checked, all met\n",
              spec->assertions.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.help) {
    PrintHelp();
    return 0;
  }
  if (!flags.scenario.empty()) {
    return RunScenarioMode(flags);
  }

  Workload wl = BuildWorkload(flags);
  Flags flags_resolved = flags;
  if (flags.node_cost < 0.0) {
    // Calibrate rent to the window turnover (DESIGN.md 4c); fall back to
    // 3.0 for batch workloads with no time extent.
    nashdb::bench::NamedWorkload nw{wl.name, wl, false};
    const auto econ =
        nashdb::bench::CalibratedEconomics(nw, flags.window, 1.0, 3.0);
    flags_resolved.node_cost = econ.node_cost;
    std::printf("calibrated node_cost = %.2f cents/period\n",
                flags_resolved.node_cost);
  }
  const Flags& f = flags_resolved;
  if (f.shards < 1 || f.batch < 1) {
    std::fprintf(stderr, "--shards and --batch must be >= 1\n");
    return 2;
  }
  if (f.shards > 1 && (f.adaptive || !f.metrics_path.empty())) {
    std::fprintf(stderr,
                 "--shards=N>1 runs the sharded data plane; "
                 "drop --adaptive/--metrics\n");
    return 2;
  }
  if (f.shards > 1 && !f.faults.empty() && !f.online) {
    std::fprintf(stderr,
                 "--shards=N>1 is fault-free; combine --faults with "
                 "--online-reconfig to run the serial control plane under "
                 "the faults first, or drop --faults\n");
    return 2;
  }
  auto system = BuildSystem(f, wl.dataset);
  auto router = BuildRouter(f);

  DriverOptions d;
  d.sim.tuples_per_second = 150.0;
  d.sim.transfer_tuples_per_second = 500.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = f.interval_s;
  d.adaptive_reconfigure = f.adaptive;
  d.prewarm_scans = f.window;
  const bool is_static = wl.queries.empty() || wl.queries.back().arrival == 0.0;
  d.warmup_observe = is_static;
  d.periodic_reconfigure = !is_static;
  if (!f.faults.empty()) {
    Result<FaultSpec> spec = FaultSpec::Parse(f.faults);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    d.faults.spec = std::move(*spec);
    d.faults.seed = f.seed;
    d.faults.emergency_repair = !f.no_repair;
  }

  d.online_build_window_s = f.build_window_s;
  d.route_batch_size = f.batch;

  if (f.shards > 1) {
    if (!f.faults.empty()) {
      // Control plane first: the serial elastic loop runs the whole
      // workload online under the fault scenario (the sharded data plane
      // below is fault-free by construction).
      std::printf("== control plane: serial online run under faults ==\n");
      const RunResult r = RunWorkload(wl, system.get(), router.get(), d);
      PrintSerialSummary(f, wl, r);
      std::printf(
          "\n== data plane: sharded online epoch replay (fault-free) ==\n");
    }
    // Fresh observation state for the data plane (the control run above
    // fed the shared system its own observations).
    auto ssys = BuildSystem(f, wl.dataset);
    ShardedDriverOptions so;
    so.shards = f.shards;
    so.batch_size = f.batch;
    so.sim = d.sim;
    so.phi_s = d.phi_s;
    const auto factory = [&f] { return BuildRouter(f); };
    ShardedRunResult sr;
    if (f.online) {
      // Sharded online data plane: epochs published while shards route.
      ClusterConfig boot;
      const std::vector<ScheduledEpoch> schedule =
          BuildEpochSchedule(f, wl, ssys.get(), &boot);
      sr = RunShardedOnline(wl, boot, schedule, factory, so);
    } else {
      // Single-epoch data plane: one configuration built from the whole
      // workload, then N per-core shards route their partitions against
      // it.
      for (const TimedQuery& tq : wl.queries) ssys->Observe(tq.query);
      const ClusterConfig config = ssys->BuildConfig();
      sr = RunSharded(wl, config, factory, so);
    }
    const RunResult& r = sr.merged;
    std::printf("workload           : %s (%zu queries, %lu tuples)\n",
                wl.name.c_str(), wl.queries.size(),
                static_cast<unsigned long>(wl.dataset.TotalTuples()));
    std::printf("system / router    : %s / %s (%zu shards, batch %zu%s)\n",
                f.system.c_str(), f.router.c_str(), f.shards, f.batch,
                f.online ? ", online epochs" : "");
    std::printf("mean latency       : %10.1f s\n", r.MeanLatency());
    std::printf("p50 / p95 / p99    : %10.1f / %.1f / %.1f s\n",
                r.TailLatency(50), r.TailLatency(95), r.TailLatency(99));
    std::printf("mean query span    : %10.2f nodes\n", r.MeanSpan());
    std::printf("total cost         : %10.1f cents\n", r.total_cost);
    std::printf("cluster size       : %10zu nodes\n", r.final_nodes);
    std::printf("epochs published   : %10zu (bootstrap + %zu transitions)\n",
                r.transitions, r.transitions - 1);
    std::printf("data moved         : %10.1f GB (bootstrap %.1f GB)\n",
                static_cast<double>(r.transferred_tuples) / 1000.0,
                static_cast<double>(r.bootstrap_transfer_tuples) / 1000.0);
    std::printf("data served        : %10.1f GB\n",
                static_cast<double>(r.read_tuples) / 1000.0);
    std::printf("makespan           : %10.1f h\n", r.makespan_s / 3600.0);
    for (const ShardResult& s : sr.shards) {
      std::printf("  shard %-2zu         : %7zu queries, %8.1f GB served, "
                  "makespan %.1f h\n",
                  s.shard, s.records.size(),
                  static_cast<double>(s.read_tuples) / 1000.0,
                  s.makespan_s / 3600.0);
    }
    return 0;
  }

  const RunResult r = RunWorkload(wl, system.get(), router.get(), d);
  PrintSerialSummary(f, wl, r);
  if (!f.metrics_path.empty() && !r.metrics_json.empty()) {
    std::FILE* mf = std::fopen(f.metrics_path.c_str(), "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   f.metrics_path.c_str());
      return 1;
    }
    std::fprintf(mf, "%s\n", r.metrics_json.c_str());
    std::fclose(mf);
    std::printf("metrics snapshot   : %s\n", f.metrics_path.c_str());
  }
  if (r.aborted_queries > 0) {
    std::fprintf(stderr,
                 "%zu queries aborted without retry budget; exiting 3\n",
                 r.aborted_queries);
    return 3;
  }
  return 0;
}

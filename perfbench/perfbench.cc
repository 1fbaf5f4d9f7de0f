// nashdb_perfbench: one repetition of one benchmark workload, reported as
// one JSON object on stdout. perfbench/run.py drives it (repetitions,
// medians, the correctness gate); see perfbench/README.md.
//
//   nashdb_perfbench --workload=stream_serve --seed=1 --traced=0
//                    --queries=200000
//
// Untraced repetitions call the public entry points directly: the only
// clock reads are around input construction, at the first admission and
// around the run call, and the metrics registry stays off. Traced
// repetitions turn the registry on, time every call the driver makes into
// the DistributionSystem / ScanRouter / QueryStream interfaces through
// the decorators below, and afterwards replay the captured configuration
// sequence through ConfigIndex, PlanTransition, the validators and the
// Definition 6.1 audit.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "engine/validate.h"
#include "nashdb/nashdb.h"

namespace {

using namespace nashdb;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  double scale = 0.25;            // elastic_control: Real data 2 scale
  std::size_t queries = 0;        // stream/chaos/sharded query count
  bool check_partitions = false;  // sharded_plane: shards=1 replays
  // setup_s (and sharded_plane's build stall) is the median over this many
  // setups: the measured run's own and setups-1 probes after it.
  std::size_t setups = 1;
  bool probe = false;  // set up only: stop at the first admission
  // Threads stay within the hardware: the serial driver thread plus
  // nproc-1 refragmentation workers, or nproc/2 shards plus the producer.
  // The busiest shard bounds a sharded run, so on 4 hardware threads 2 and
  // 3 shards route equally fast; 2 leave threads idle and vary less.
  std::size_t workers = std::max(2u, std::thread::hardware_concurrency()) - 1;
  std::size_t shards = std::max(2u, std::thread::hardware_concurrency()) / 2;
};

// chaos_serve: racks 1-3 (75% of the cluster) crash together for 30
// minutes during day one, on top of random crash-stops.
constexpr char kChaosFaults[] =
    "racks=4;crash@30000:r1:for=1800;crash@30000:r2:for=1800;"
    "crash@30000:r3:for=1800;mttf=7200;mttr=3600";

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (Flag(a, "--workload", &v)) {
      o.workload = v;
    } else if (Flag(a, "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(a, "--traced", &v)) {
      o.traced = v == "1";
    } else if (Flag(a, "--scale", &v)) {
      o.scale = std::atof(v.c_str());
    } else if (Flag(a, "--queries", &v)) {
      o.queries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(a, "--setups", &v)) {
      o.setups = std::max<std::size_t>(
          1, std::strtoull(v.c_str(), nullptr, 10));
    } else if (Flag(a, "--check-partitions", &v)) {
      o.check_partitions = v == "1";
    } else {
      std::fprintf(stderr, "nashdb_perfbench: unknown flag %s\n", a);
      std::exit(2);
    }
  }
  return o;
}

// ------------------------------------------------------------ JSON output

class Json {
 public:
  Json& Key(std::string_view k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(std::uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Str(std::string_view s) {
    Sep();
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  /// Splices an already-serialized JSON value.
  Json& Raw(std::string_view json) {
    Sep();
    out_ += json.empty() ? std::string_view("null") : json;
    return *this;
  }
  Json& Open() {
    Sep();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& Close() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  Json& OpenList() {
    Sep();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  Json& CloseList() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// --------------------------------------------------------- timed boundary

/// One layer boundary of the traced run: calls, busy wall time, and either
/// per-call latencies (bucketed, ns) or per-round durations (exact, ms).
struct Boundary {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;   // scans, for the routing boundaries
  std::uint64_t failed = 0;  // non-OK routing statuses
  double busy_s = 0.0;
  LogHistogram call_ns;
  std::vector<double> round_ms;
  bool per_round = false;

  void Add(double s) {
    ++calls;
    busy_s += s;
    if (per_round) {
      round_ms.push_back(s * 1e3);
    } else {
      call_ns.Add(s * 1e9);
    }
  }

  void Write(Json* j) const {
    j->Open();
    j->Key("calls").Int(calls);
    j->Key("items").Int(items);
    j->Key("failed").Int(failed);
    j->Key("busy_s").Num(busy_s);
    if (per_round) {
      j->Key("round_ms").OpenList();
      for (const double ms : round_ms) j->Num(ms);
      j->CloseList();
    } else {
      j->Key("p50_ns").Num(call_ns.Percentile(50));
    }
    j->Close();
  }
};

/// Times one call into `b`; a null boundary reads no clock.
class Span {
 public:
  explicit Span(Boundary* b) : b_(b) {
    if (b_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (b_ != nullptr) b_->Add(Seconds(start_, Clock::now()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Boundary* b_;
  Clock::time_point start_;
};

// ------------------------------------------------------------- decorators

/// Forwards every DistributionSystem call to `inner`. Always: keeps a copy
/// of every configuration the cluster runs (built or applied by repair)
/// and stamps the first admission (the first Observe after the bootstrap
/// build). Traced: times Observe and BuildConfig.
class BenchSystem : public DistributionSystem {
 public:
  BenchSystem(DistributionSystem* inner, Boundary* observe, Boundary* build)
      : inner_(inner), observe_(observe), build_(build) {}

  std::string_view name() const override { return inner_->name(); }

  void Observe(const Query& query) override {
    if (awaiting_admission_ && builds_ > 0) {
      first_admission_ = Clock::now();
      awaiting_admission_ = false;
    }
    Span span(observe_);
    inner_->Observe(query);
  }

  ClusterConfig BuildConfig() override {
    ClusterConfig config;
    {
      Span span(build_);
      config = inner_->BuildConfig();
    }
    ++builds_;
    applied_.push_back(config);
    return config;
  }

  void NoteAppliedConfig(const ClusterConfig& config) override {
    applied_.push_back(config);
    inner_->NoteAppliedConfig(config);
  }

  void Reset() override { inner_->Reset(); }

  std::size_t builds() const { return builds_; }
  const std::vector<ClusterConfig>& applied() const { return applied_; }
  bool admitted() const { return !awaiting_admission_; }
  Clock::time_point first_admission() const { return first_admission_; }

 private:
  DistributionSystem* inner_;
  Boundary* observe_;
  Boundary* build_;
  std::size_t builds_ = 0;
  std::vector<ClusterConfig> applied_;
  bool awaiting_admission_ = true;
  Clock::time_point first_admission_;
};

/// Counts the queries a stream hands out; traced, times each Next.
class BenchStream : public QueryStream {
 public:
  BenchStream(QueryStream* inner, Boundary* next)
      : inner_(inner), next_(next) {}
  bool Next(TimedQuery* out) override {
    bool more = false;
    {
      Span span(next_);
      more = inner_->Next(out);
    }
    if (more) ++produced_;
    return more;
  }
  std::uint64_t produced() const { return produced_; }

 private:
  QueryStream* inner_;
  Boundary* next_;
  std::uint64_t produced_ = 0;
};

/// Hands out a materialized workload in order, as RunWorkload does.
class WorkloadStream : public QueryStream {
 public:
  explicit WorkloadStream(const Workload& wl) : wl_(wl) {}
  bool Next(TimedQuery* out) override {
    if (next_ >= wl_.queries.size()) return false;
    *out = wl_.queries[next_++];
    return true;
  }

 private:
  const Workload& wl_;
  std::size_t next_ = 0;
};

/// Setup probes: ends the stream once the system has admitted a query, so
/// the driver runs only its set-up path (prewarm, bootstrap build and
/// plan) and drains the prewarm prefix.
class UntilAdmitted : public QueryStream {
 public:
  UntilAdmitted(QueryStream* inner, const BenchSystem* system)
      : inner_(inner), system_(system) {}
  bool Next(TimedQuery* out) override {
    return !system_->admitted() && inner_->Next(out);
  }

 private:
  QueryStream* inner_;
  const BenchSystem* system_;
};

/// Times the three routing entry points (the batched one includes the
/// driver's per-scan sink, i.e. the simulator enqueue of each scan).
class BenchRouter : public ScanRouter {
 public:
  BenchRouter(std::unique_ptr<ScanRouter> inner, Boundary* batch,
              Boundary* scalar)
      : inner_(std::move(inner)), batch_(batch), scalar_(scalar) {}

  std::string_view name() const override { return inner_->name(); }

  Result<std::vector<RoutedRead>> Route(
      const std::vector<FragmentRequest>& requests, std::vector<double> waits,
      double read_seconds_per_tuple, double phi_s) override {
    Span span(scalar_);
    ++scalar_->items;
    Result<std::vector<RoutedRead>> r = inner_->Route(
        requests, std::move(waits), read_seconds_per_tuple, phi_s);
    if (!r.ok()) ++scalar_->failed;
    return r;
  }

  Status RouteInto(const RequestBatch& requests, const WaitView& waits,
                   double read_seconds_per_tuple, double phi_s,
                   RouterScratch* scratch,
                   std::vector<RoutedRead>* out) override {
    Span span(scalar_);
    ++scalar_->items;
    Status s = inner_->RouteInto(requests, waits, read_seconds_per_tuple,
                                 phi_s, scratch, out);
    if (!s.ok()) ++scalar_->failed;
    return s;
  }

  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override {
    Span span(batch_);
    batch_->items += batch.size();
    Status s = inner_->RouteBatchInto(batch, waits, read_seconds_per_tuple,
                                      phi_s, scratch, out, sink);
    if (!s.ok()) ++batch_->failed;
    return s;
  }

 private:
  std::unique_ptr<ScanRouter> inner_;
  Boundary* batch_;
  Boundary* scalar_;
};

// ---------------------------------------------------------------- checks

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddRecord(Digest* d, const QueryRecord& q) {
  d->Add(static_cast<std::uint64_t>(q.id));
  d->Add(q.price);
  d->Add(q.arrival);
  d->Add(q.completion);
  d->Add(q.latency_s);
  d->Add(static_cast<std::uint64_t>(q.span));
  d->Add(static_cast<std::uint64_t>(q.tuples_read));
  d->Add(static_cast<std::uint64_t>(q.retries));
  d->Add(q.epoch);
  d->Add(static_cast<std::uint64_t>(q.aborted));
  d->Add(static_cast<std::uint64_t>(q.shed));
}

/// Every simulated outcome of a run; equal digests mean the decisions
/// (routing, provisioning, transfers, faults, shedding) were identical.
std::string OutcomeDigest(const RunResult& r) {
  Digest d;
  for (const QueryRecord& q : r.records) AddRecord(&d, q);
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.total_queries),
        static_cast<std::uint64_t>(r.transferred_tuples),
        static_cast<std::uint64_t>(r.bootstrap_transfer_tuples),
        static_cast<std::uint64_t>(r.read_tuples),
        static_cast<std::uint64_t>(r.transitions),
        static_cast<std::uint64_t>(r.final_nodes),
        static_cast<std::uint64_t>(r.crashes),
        static_cast<std::uint64_t>(r.aborted_queries),
        static_cast<std::uint64_t>(r.scan_retries),
        static_cast<std::uint64_t>(r.shed_queries),
        static_cast<std::uint64_t>(r.emergency_repairs),
        static_cast<std::uint64_t>(r.repair_transfer_tuples),
        static_cast<std::uint64_t>(r.latency_histogram.count())}) {
    d.Add(v);
  }
  for (const double v : {r.total_cost, r.makespan_s, r.completed_latency_sum_s,
                         r.completed_span_sum, r.latency_histogram.max()}) {
    d.Add(v);
  }
  return d.Hex();
}

bool SameRecord(const QueryRecord& a, const QueryRecord& b) {
  return a.id == b.id && a.price == b.price && a.arrival == b.arrival &&
         a.completion == b.completion && a.latency_s == b.latency_s &&
         a.span == b.span && a.tuples_read == b.tuples_read &&
         a.retries == b.retries && a.epoch == b.epoch &&
         a.aborted == b.aborted && a.shed == b.shed;
}

/// total = completed + aborted + shed, each side counted independently:
/// `seen` by the bench (queries handed to the driver), completed by the
/// streaming latency histogram, and (when kept) the per-query records.
Check Conservation(const RunResult& r, std::uint64_t seen) {
  Check c{"conservation", true, ""};
  const std::uint64_t completed = r.latency_histogram.count();
  const std::uint64_t sum = completed + r.aborted_queries + r.shed_queries;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "seen=%" PRIu64 " total=%zu completed=%" PRIu64
                " aborted=%zu shed=%zu",
                seen, r.total_queries, completed, r.aborted_queries,
                r.shed_queries);
  c.detail = buf;
  c.ok = seen == r.total_queries && sum == r.total_queries;
  if (!r.records.empty()) {
    std::uint64_t aborted = 0;
    std::uint64_t shed = 0;
    for (const QueryRecord& q : r.records) {
      aborted += q.aborted ? 1 : 0;
      shed += q.shed ? 1 : 0;
    }
    c.ok = c.ok && r.records.size() == r.total_queries &&
           aborted == r.aborted_queries && shed == r.shed_queries;
  }
  return c;
}

// ---------------------------------------------------------------- results

struct Layers {
  Boundary next, observe, build, route_batch, route_scalar;
  // Post-run replay of the captured configuration sequence.
  Boundary index_build, plan, validate, nash_audit;
  std::uint64_t planned_transfer_tuples = 0;
  std::uint64_t nash_violations = 0;
  double nodes_sum = 0.0;
  double placed_replicas_sum = 0.0;
  std::size_t configs = 0;
  // sharded_plane: one routing boundary per shard.
  std::vector<Boundary> shard_route;

  Layers() {
    for (Boundary* b : {&build, &index_build, &plan, &validate, &nash_audit}) {
      b->per_round = true;
    }
  }
};

struct Rep {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double wall_s = 0.0;
  double total_s = 0.0;  // repetition start to the end of the run call
  std::size_t rounds = 0;
  double stall_s = 0.0;
  RunResult result;
  std::vector<Check> checks;
  std::string digest;
  std::string fault_spec;
  std::size_t reconfig_threads = 0;
  std::size_t shards = 0;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Rent calibrated to the window turnover (DESIGN.md 4c): a node's rent
/// per period equals what it accrues while one window of scans arrives.
Money CalibratedNodeCost(const Workload& wl, std::size_t window_scans) {
  std::size_t scans = 0;
  for (const TimedQuery& tq : wl.queries) scans += tq.query.scans.size();
  const SimTime span = wl.queries.empty() ? 0.0 : wl.queries.back().arrival;
  if (span <= 0.0 || scans == 0) return 3.0;
  const double scans_per_hour = static_cast<double>(scans) / (span / 3600.0);
  return static_cast<double>(window_scans) / scans_per_hour;
}

/// Checks the captured configuration sequence. Every repetition runs
/// ValidateConfig on each configuration the cluster ran. Traced
/// repetitions also replay, timed, the index build, the transition plan
/// from each configuration to the next (checked by ValidatePlan), and the
/// Definition 6.1 audit.
void ReplayConfigs(const std::vector<ClusterConfig>& configs, bool traced,
                   Layers* layers, std::vector<Check>* checks) {
  Check valid{"configs_and_plans_valid", true, ""};
  const auto fail = [&valid](std::size_t i, const Status& s) {
    if (!valid.ok || s.ok()) return;
    valid.ok = false;
    valid.detail = "config " + std::to_string(i) + ": " + s.ToString() + "; ";
  };
  const ClusterConfig empty;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ClusterConfig& cur = configs[i];
    layers->nodes_sum += static_cast<double>(cur.node_count());
    for (const FragmentInfo& f : cur.fragments()) {
      layers->placed_replicas_sum += static_cast<double>(f.replicas);
    }
    if (!traced) {
      fail(i, ValidateConfig(cur));
      continue;
    }
    const ClusterConfig& prev = i == 0 ? empty : configs[i - 1];
    {
      Span span(&layers->index_build);
      const ConfigIndex index(cur, i);
    }
    TransitionPlan plan;
    {
      Span span(&layers->plan);
      plan = PlanTransition(prev, cur);
    }
    layers->planned_transfer_tuples += plan.total_transfer_tuples;
    {
      Span span(&layers->validate);
      fail(i, ValidateConfig(cur));
      fail(i, ValidatePlan(plan, prev, cur));
    }
    NashReport nash;
    {
      Span span(&layers->nash_audit);
      nash = CheckNashEquilibrium(cur, /*exempt_min_replicas=*/true);
    }
    if (!nash.is_equilibrium) ++layers->nash_violations;
  }
  layers->configs = configs.size();
  valid.detail += std::to_string(configs.size()) + " configs";
  checks->push_back(valid);
}

// -------------------------------------------------------------- workloads

NashDbOptions BaseNashOptions(const Options& o) {
  NashDbOptions n;
  n.window_scans = 250;
  n.block_tuples = 4'000;
  n.node_disk = 120'000;
  n.max_replicas = 128;
  n.reconfig_threads = o.workers;
  return n;
}

/// Runs one serial workload (RunWorkload when `wl` is set, else
/// RunQueryStream over `stream`).
Rep RunSerial(const Options& o, Clock::time_point start, const Workload* wl,
              QueryStream* stream, NashDbSystem* system, DriverOptions d,
              Layers* layers) {
  Rep rep;
  rep.reconfig_threads = system->options().reconfig_threads;
  Boundary* tn = o.traced ? &layers->next : nullptr;
  BenchSystem bsys(system, o.traced ? &layers->observe : nullptr,
                   o.traced ? &layers->build : nullptr);
  std::unique_ptr<ScanRouter> router = std::make_unique<MaxOfMinsRouter>();
  if (o.traced) {
    router = std::make_unique<BenchRouter>(std::move(router),
                                           &layers->route_batch,
                                           &layers->route_scalar);
  }
  d.collect_metrics = o.traced;
  if (o.probe) {
    // RunWorkload is RunQueryStream over the workload in order.
    std::unique_ptr<QueryStream> whole;
    if (wl != nullptr) {
      whole = std::make_unique<WorkloadStream>(*wl);
      stream = whole.get();
    }
    UntilAdmitted until(stream, &bsys);
    // The driver still routes the prewarm prefix after the admission;
    // with no periodic round due, that costs milliseconds, not seconds.
    // The interval is first read after the bootstrap.
    d.reconfigure_interval_s = 1e12;
    RunQueryStream(&until, &bsys, router.get(), d);
    rep.setup_s = Seconds(
        start, bsys.admitted() ? bsys.first_admission() : Clock::now());
    return rep;
  }
  std::uint64_t seen = 0;
  const Clock::time_point call = Clock::now();
  if (wl != nullptr) {
    rep.result = RunWorkload(*wl, &bsys, router.get(), d);
    seen = wl->queries.size();
  } else {
    BenchStream bstream(stream, tn);
    rep.result = RunQueryStream(&bstream, &bsys, router.get(), d);
    seen = bstream.produced();
  }
  const Clock::time_point end = Clock::now();
  rep.wall_s = Seconds(call, end);
  rep.total_s = Seconds(start, end);
  rep.setup_s =
      Seconds(start, bsys.admitted() ? bsys.first_admission() : end);
  rep.rounds = bsys.builds() > 0 ? bsys.builds() - 1 : 0;
  rep.stall_s = rep.result.reconfig_stall_s;
  rep.checks.push_back(Conservation(rep.result, seen));
  rep.checks.push_back({"admitted", bsys.admitted() && rep.rounds > 0,
                        "rounds=" + std::to_string(rep.rounds)});
  ReplayConfigs(bsys.applied(), o.traced, layers, &rep.checks);
  rep.digest = OutcomeDigest(rep.result);
  return rep;
}

Rep ElasticControl(const Options& o, Layers* layers) {
  const Clock::time_point start = Clock::now();
  RealData2DynamicOptions w;
  w.db_gb = 3000.0 * o.scale;
  w.tuples_per_gb = 1000;
  w.num_queries = static_cast<std::size_t>(2500 * o.scale) + 10;
  w.price = 1.0;
  w.seed = o.seed;
  const Workload wl = MakeRealData2DynamicWorkload(w);
  NashDbOptions n = BaseNashOptions(o);
  n.node_cost = CalibratedNodeCost(wl, n.window_scans);
  NashDbSystem system(wl.dataset, n);
  DriverOptions d;
  d.sim.tuples_per_second = 150.0;
  d.sim.transfer_tuples_per_second = 500.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = 3600.0;
  d.prewarm_scans = n.window_scans;
  return RunSerial(o, start, &wl, nullptr, &system, d, layers);
}

/// The streaming_10m scenario's shape: one 10⁴-tuple table, a diurnal
/// cycle, 2-hour rounds, constant-memory records.
Rep StreamServe(const Options& o, Layers* layers) {
  const Clock::time_point start = Clock::now();
  PhasedStreamOptions s;
  s.db_gb = 100.0;
  s.tuples_per_gb = 100;
  s.num_queries = o.queries;
  s.price = 1.0;
  s.duration_s = 3.0 * 86400.0;
  s.scan_frac = 0.02;
  s.seed = o.seed;
  StreamPhase diurnal;
  diurnal.kind = StreamPhase::Kind::kDiurnal;
  diurnal.period_s = 86400.0;
  diurnal.amplitude = 0.5;
  s.phases.push_back(diurnal);
  PhasedQueryStream stream(s);
  NashDbOptions n = BaseNashOptions(o);
  n.block_tuples = 500;
  n.node_cost = 3.0;
  NashDbSystem system(stream.dataset(), n);
  DriverOptions d;
  d.sim.tuples_per_second = 1500.0;
  d.sim.transfer_tuples_per_second = 5000.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = 7200.0;
  d.prewarm_scans = n.window_scans;
  d.keep_records = false;
  return RunSerial(o, start, nullptr, &stream, &system, d, layers);
}

/// The flash_crowd / rack_failure scenarios' shape (a 10⁵-tuple table
/// whose cold fragments hold few replicas, so crashes open coverage gaps)
/// at their density of 9000 queries per day; --queries sets the length.
Rep ChaosServe(const Options& o, Layers* layers) {
  const Clock::time_point start = Clock::now();
  PhasedStreamOptions s;
  s.db_gb = 100.0;
  s.tuples_per_gb = 1000;
  s.num_queries = o.queries;
  s.price = 1.0;
  s.duration_s = 86400.0 * static_cast<double>(o.queries) / 9000.0;
  s.seed = o.seed;
  StreamPhase crowd;
  crowd.kind = StreamPhase::Kind::kFlashCrowd;
  crowd.start_s = 36000.0;
  crowd.end_s = 39600.0;
  crowd.rate_x = 6.0;
  s.phases.push_back(crowd);
  PhasedQueryStream stream(s);
  NashDbOptions n = BaseNashOptions(o);
  n.node_cost = 3.0;
  NashDbSystem system(stream.dataset(), n);
  DriverOptions d;
  d.sim.tuples_per_second = 150.0;
  d.sim.transfer_tuples_per_second = 500.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = 3600.0;
  d.prewarm_scans = n.window_scans;
  d.keep_records = false;
  Result<FaultSpec> spec = FaultSpec::Parse(kChaosFaults);
  NASHDB_CHECK(spec.ok()) << spec.status().ToString();
  d.faults.spec = std::move(*spec);
  d.faults.seed = o.seed;
  d.faults.max_scan_retries = 6;
  d.faults.query_retry_budget = 12;
  // Admission-time emergency repair closes every coverage gap before the
  // next scan routes, so with it on no scan ever retries; off, crashes
  // open gaps that scans must retry across (and sometimes abort on).
  d.faults.emergency_repair = false;
  d.overload.max_pending_queries = 24;
  d.overload.shed_keep_price = 2.0;
  Rep rep = RunSerial(o, start, nullptr, &stream, &system, d, layers);
  rep.fault_spec = kChaosFaults;
  return rep;
}

Rep ShardedPlane(const Options& o, Layers* layers) {
  const Clock::time_point start = Clock::now();
  TpchOptions t;
  t.db_gb = 250.0;
  t.tuples_per_gb = 1000;
  t.num_queries = o.queries;
  t.price = 1.0;
  // 20000 queries per simulated day at any size, so the offered load (and
  // with it the simulated latencies) does not grow with --queries.
  t.arrival_span_s = 86400.0 * static_cast<double>(o.queries) / 20000.0;
  t.seed = o.seed;
  const Workload wl = MakeTpchWorkload(t);
  NashDbOptions n = BaseNashOptions(o);
  n.node_cost = CalibratedNodeCost(wl, n.window_scans);
  NashDbSystem system(wl.dataset, n);
  Boundary* observe = o.traced ? &layers->observe : nullptr;
  BenchSystem bsys(&system, observe, o.traced ? &layers->build : nullptr);
  for (const TimedQuery& tq : wl.queries) bsys.Observe(tq.query);
  const Clock::time_point build = Clock::now();
  const ClusterConfig config = bsys.BuildConfig();
  const double build_s = Seconds(build, Clock::now());
  if (o.probe) {
    Rep probe;
    probe.setup_s = Seconds(start, Clock::now());
    probe.stall_s = build_s;
    return probe;
  }

  ShardedDriverOptions so;
  so.shards = o.shards;
  so.batch_size = 64;
  so.sim.tuples_per_second = 150.0;
  so.sim.transfer_tuples_per_second = 500.0;
  so.sim.node_cost_per_hour = 1.0;
  layers->shard_route.assign(so.shards, Boundary{});
  std::size_t made = 0;
  const RouterFactory factory = [&]() -> std::unique_ptr<ScanRouter> {
    auto router = std::make_unique<MaxOfMinsRouter>();
    if (!o.traced) return router;
    // RunSharded builds every shard's router on the calling thread before
    // any shard starts, so `made` needs no synchronization.
    Boundary* b = &layers->shard_route[made++ % so.shards];
    return std::make_unique<BenchRouter>(std::move(router), b, b);
  };

  Rep rep;
  rep.reconfig_threads = o.workers;
  rep.shards = so.shards;
  const Clock::time_point call = Clock::now();
  ShardedRunResult sr = RunSharded(wl, config, factory, so);
  const Clock::time_point end = Clock::now();
  rep.wall_s = Seconds(call, end);
  rep.total_s = Seconds(start, end);
  rep.setup_s = Seconds(start, call);
  rep.rounds = 1;
  rep.stall_s = build_s;
  rep.result = std::move(sr.merged);
  rep.checks.push_back(Conservation(rep.result, wl.queries.size()));
  std::size_t shard_records = 0;
  for (const ShardResult& s : sr.shards) shard_records += s.records.size();
  rep.checks.push_back({"shard_records_cover_workload",
                        shard_records == wl.queries.size(),
                        std::to_string(shard_records) + " records"});
  ReplayConfigs(bsys.applied(), o.traced, layers, &rep.checks);

  Digest d;
  d.Add(static_cast<std::uint64_t>(0));
  for (const ShardResult& s : sr.shards) {
    for (const QueryRecord& q : s.records) AddRecord(&d, q);
  }
  rep.digest = OutcomeDigest(rep.result) + d.Hex();

  if (o.check_partitions) {
    // Each shard's record stream must equal a shards=1 run of its
    // partition (DESIGN.md §11).
    Check part{"shard_streams_equal_serial_partitions", true, ""};
    ShardedDriverOptions one = so;
    one.shards = 1;
    const RouterFactory plain = [] {
      return std::make_unique<MaxOfMinsRouter>();
    };
    for (const ShardResult& s : sr.shards) {
      Workload piece;
      piece.name = wl.name;
      piece.dataset = wl.dataset;
      for (const TimedQuery& tq : wl.queries) {
        if (ShardOfQuery(tq.query, so.shards) == s.shard) {
          piece.queries.push_back(tq);
        }
      }
      const ShardedRunResult serial = RunSharded(piece, config, plain, one);
      const std::vector<QueryRecord>& want = serial.shards[0].records;
      const bool same =
          want.size() == s.records.size() &&
          std::equal(want.begin(), want.end(), s.records.begin(), SameRecord);
      if (!same && part.ok) {
        part.ok = false;
        part.detail = "shard " + std::to_string(s.shard) + " differs";
      }
    }
    if (part.ok) part.detail = std::to_string(sr.shards.size()) + " shards";
    rep.checks.push_back(part);
  }
  return rep;
}

// ----------------------------------------------------------------- output

void WriteLayers(const Layers& l, Json* j) {
  j->Key("layers").Open();
  j->Key("workload.next");
  l.next.Write(j);
  j->Key("value.observe");
  l.observe.Write(j);
  j->Key("engine.build_config");
  l.build.Write(j);
  j->Key("routing.route_batch");
  l.route_batch.Write(j);
  j->Key("routing.route_scalar");
  l.route_scalar.Write(j);
  j->Key("engine.index_build");
  l.index_build.Write(j);
  j->Key("transition.plan");
  l.plan.Write(j);
  j->Key("engine.validate");
  l.validate.Write(j);
  j->Key("replication.nash_audit");
  l.nash_audit.Write(j);
  j->Key("shards").OpenList();
  for (const Boundary& b : l.shard_route) b.Write(j);
  j->CloseList();
  j->Close();
  j->Key("replay").Open();
  j->Key("configs").Int(l.configs);
  j->Key("planned_transfer_tuples").Int(l.planned_transfer_tuples);
  j->Key("nash_violations").Int(l.nash_violations);
  j->Key("nodes_sum").Num(l.nodes_sum);
  j->Key("placed_replicas_sum").Num(l.placed_replicas_sum);
  j->Close();
}

void WriteRep(const Options& o, const Rep& rep, const Layers& layers) {
  const RunResult& r = rep.result;
  Json j;
  j.Open();
  j.Key("workload").Str(o.workload);
  j.Key("seed").Int(o.seed);
  j.Key("traced").Bool(o.traced);
  j.Key("build").Open();
  j.Key("compiler").Str(__VERSION__);
  j.Key("build_type").Str(NASHDB_PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  j.Key("ndebug").Bool(true);
#else
  j.Key("ndebug").Bool(false);
#endif
  j.Key("validate").Bool(ValidationEnabled());
  j.Key("hardware_concurrency").Int(std::thread::hardware_concurrency());
  j.Key("reconfig_threads").Int(rep.reconfig_threads);
  j.Key("shards").Int(rep.shards);
  j.Key("fault_spec").Str(rep.fault_spec);
  j.Close();
  j.Key("setup_s").Num(rep.setup_s);
  j.Key("wall_s").Num(rep.wall_s);
  j.Key("total_s").Num(rep.total_s);
  j.Key("peak_rss_mb").Num(rep.peak_rss_mb);
  j.Key("rounds").Int(rep.rounds);
  j.Key("stall_s").Num(rep.stall_s);
  j.Key("total_queries").Int(r.total_queries);
  j.Key("completed").Int(r.latency_histogram.count());
  j.Key("aborted").Int(r.aborted_queries);
  j.Key("shed").Int(r.shed_queries);
  j.Key("scan_retries").Int(r.scan_retries);
  j.Key("emergency_repairs").Int(r.emergency_repairs);
  j.Key("crashes").Int(r.crashes);
  j.Key("cost_cents").Num(r.total_cost);
  j.Key("transferred_tuples").Int(r.transferred_tuples);
  j.Key("final_nodes").Int(r.final_nodes);
  j.Key("latency_s").Open();
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    char key[16];
    std::snprintf(key, sizeof(key), "%g", p);
    j.Key(key).Num(r.TailLatency(p));
  }
  j.Close();
  j.Key("digest").Str(rep.digest);
  j.Key("checks").OpenList();
  for (const Check& c : rep.checks) {
    j.Open();
    j.Key("name").Str(c.name);
    j.Key("ok").Bool(c.ok);
    j.Key("detail").Str(c.detail);
    j.Close();
  }
  j.CloseList();
  if (o.traced) {
    WriteLayers(layers, &j);
    j.Key("registry").Raw(r.metrics_json);
  }
  j.Close();
  std::printf("%s\n", j.str().c_str());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  Rep (*run)(const Options&, Layers*) = nullptr;
  if (o.workload == "elastic_control") {
    run = ElasticControl;
  } else if (o.workload == "stream_serve") {
    run = StreamServe;
  } else if (o.workload == "chaos_serve") {
    run = ChaosServe;
  } else if (o.workload == "sharded_plane") {
    run = ShardedPlane;
  } else {
    std::fprintf(stderr, "nashdb_perfbench: unknown --workload=%s\n",
                 o.workload.c_str());
    return 2;
  }
  Layers layers;
  Rep rep = run(o, &layers);
  rep.peak_rss_mb = PeakRssMb();
  // A single 8-80 ms set-up varies by 1.5x between processes: report the
  // median of the measured run's and setups-1 probes'. The probes run
  // after the peak RSS is read.
  Options probe = o;
  probe.probe = true;
  probe.traced = false;
  std::vector<double> setup{rep.setup_s};
  std::vector<double> stall{rep.stall_s};
  for (std::size_t k = 1; k < o.setups; ++k) {
    Layers unused;
    const Rep p = run(probe, &unused);
    setup.push_back(p.setup_s);
    stall.push_back(p.stall_s);
  }
  rep.setup_s = Median(setup);
  // sharded_plane's one round is the pre-admission build: its stall is
  // the median build of the same setups.
  if (o.workload == "sharded_plane") rep.stall_s = Median(stall);
  WriteRep(o, rep, layers);
  return 0;
}

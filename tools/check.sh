#!/usr/bin/env bash
# Repo health check: builds and runs the tier-1 suite plus the chaos
# scenario gates (ctest -L scenario, DESIGN.md 13) in a plain build,
# then the tier-1 suite again under each sanitizer — thread (data races
# in the multithreaded reconfiguration pipeline; also one full scenario
# run), address (heap errors in the fault-injection / retry paths), and
# undefined (UB anywhere).
#
# Usage: tools/check.sh [--quick | --static | --bench-smoke]
#   --quick    in the sanitizer passes, run only the targeted labels
#              (ctest -L 'tsan|online|transition' for TSan, -L faults
#              for ASan/UBSan) instead of the full suite. The online
#              label marks the online-reconfiguration suites (epoch
#              publish concurrent with routing, DESIGN.md 12); the
#              transition label marks the control-plane matching /
#              packing / validation suites (DESIGN.md 15).
#   --static   the static gates only, no tests. In order, with a distinct
#              exit code per gate so CI and humans can tell at a glance
#              which one broke:
#                10  tools/nashdb_lint.py — the project-contract linter
#                    (determinism sources, NASHDB_HOT allocation freedom,
#                    lock coverage, status discards, include hygiene;
#                    DESIGN.md 14). Always runs: stdlib python only.
#                11  header_tu_gate — every public src/ header compiled
#                    as a standalone TU (cmake/header_tu_gate.cmake).
#                    Always runs: needs only the configured compiler.
#                12  tools/format.sh --check (clang-format against the
#                    committed .clang-format; skipped without the tool).
#                13  tools/tidy.sh --all (clang-tidy with the curated
#                    .clang-tidy; skipped without the tool).
#                14  the -Wthread-safety -Werror=thread-safety compile of
#                    the NASHDB_GUARDED_BY / NASHDB_REQUIRES annotations
#                    (skipped without clang++; GCC lacks the analysis).
#   --bench-smoke
#              build and run bench_data_plane --smoke and
#              bench_transition_scale --smoke in the plain Release tree
#              and validate the BENCH_data_plane.json /
#              BENCH_transition.json they write under build/bench-smoke/
#              (never over the committed reference JSONs at the repo
#              root; CI runs this and uploads the JSONs as artifacts).
#              Smoke iteration counts keep it to seconds; the numbers
#              are noise-level, the point is that the benches run, the
#              identity checks inside them pass (block-size route
#              identity for the data plane, sparse-vs-dense plan-cost
#              identity for the transition sweep), and the JSON is
#              well-formed.
#
# Unknown flags are an error — a typo like --qick silently running the
# slow full suite (or worse, skipping it) is exactly the failure mode a
# gate script must not have.
#
# Build trees: ./build (plain), ./build-tsan, ./build-asan, ./build-ubsan,
# ./build-clang (--static thread-safety pass). Existing trees are reused;
# no generator is forced, so whatever a tree was configured with stays.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
}

QUICK=0
STATIC=0
BENCH_SMOKE=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --static) STATIC=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    -h|--help)
      usage
      exit 0
      ;;
    *)
      echo "check.sh: unknown flag '${arg}'" >&2
      echo >&2
      usage >&2
      exit 2
      ;;
  esac
done
if (( QUICK + STATIC + BENCH_SMOKE > 1 )); then
  echo "check.sh: --quick, --static and --bench-smoke are mutually" \
       "exclusive" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "${BENCH_SMOKE}" == "1" ]]; then
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  # Smoke numbers are noise-level: keep them out of the committed
  # reference JSONs at the repo root.
  smoke_dir="build/bench-smoke"
  mkdir -p "${smoke_dir}"
  echo "== data-plane bench (smoke) =="
  cmake --build build -j "${JOBS}" --target bench_data_plane
  dp_out="${smoke_dir}/BENCH_data_plane.json"
  ./build/bench/bench_data_plane --smoke --out="${dp_out}"
  # Validate: parseable JSON covering the full shards x batch sweep, with
  # positive throughput and tails at every point.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dp_out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "data_plane", doc
assert doc["baseline_scans_per_sec"] > 0, doc
assert doc["speedup_4shard_batch256_vs_baseline"] > 0, doc
points = {(p["shards"], p["batch"]) for p in doc["sweep"]}
want = {(s, b) for s in (1, 2, 4, 8) for b in (1, 16, 64, 256)}
assert points == want, points ^ want
for p in doc["sweep"]:
    assert p["scans_per_sec"] > 0, p
    assert len(p["per_shard"]) == p["shards"], p
    for st in p["per_shard"]:
        assert st["p50_ns"] > 0 and st["p99_ns"] >= st["p50_ns"], st
print("bench artifact OK:", len(points), "sweep points")
EOF
  else
    grep -q '"bench": "data_plane"' "${dp_out}"
    grep -q '"speedup_4shard_batch256_vs_baseline"' "${dp_out}"
    echo "bench artifact OK (grep fallback)"
  fi
  echo
  echo "== transition-scale bench (smoke) =="
  cmake --build build -j "${JOBS}" --target bench_transition_scale
  tr_out="${smoke_dir}/BENCH_transition.json"
  ./build/bench/bench_transition_scale --smoke --out="${tr_out}"
  # Validate: parseable JSON; every size planned and validated, and the
  # sparse-vs-dense plan-cost identity was exercised on at least one
  # instance (the bench itself CHECK-fails on any mismatch).
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${tr_out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "transition_scale", doc
assert doc["results"], doc
for r in doc["results"]:
    assert r["nodes_new"] > 0 and r["fragments"] > 0, r
    assert r["plan_ms"] > 0 and r["validate_ms"] > 0, r
assert any(r["cost_identity_checked"] for r in doc["results"]), doc
print("bench artifact OK:", len(doc["results"]), "sizes")
EOF
  else
    grep -q '"bench": "transition_scale"' "${tr_out}"
    grep -q '"cost_identity_checked": true' "${tr_out}"
    echo "bench artifact OK (grep fallback)"
  fi
  echo
  echo "check.sh: bench smoke green (${dp_out}, ${tr_out})"
  exit 0
fi

if [[ "${STATIC}" == "1" ]]; then
  echo "== nashdb_lint (project-contract gates) =="
  # The lint gate runs first, before cmake has ever created build/ —
  # on a fresh checkout the report directory must exist up front.
  mkdir -p build
  python3 tools/nashdb_lint.py --json build/nashdb_lint.json || exit 10

  echo
  echo "== header self-containment (header_tu_gate) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target header_tu_gate || exit 11
  echo "header_tu_gate: every public src/ header compiles standalone"

  echo
  echo "== clang-format (tools/format.sh --check) =="
  tools/format.sh --check || exit 12

  echo
  echo "== clang-tidy (tools/tidy.sh --all) =="
  tools/tidy.sh --all || exit 13

  echo
  echo "== thread-safety analysis =="
  if command -v clang++ >/dev/null 2>&1; then
    # The root CMakeLists adds -Wthread-safety -Werror=thread-safety
    # whenever the compiler is Clang; a clean build IS the check.
    cmake -B build-clang -S . -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ >/dev/null || exit 14
    cmake --build build-clang -j "${JOBS}" || exit 14
    echo "thread-safety: clean"
  else
    echo "check.sh: clang++ not found; skipping the thread-safety pass" \
         "(GCC does not implement the analysis)"
  fi

  echo
  echo "check.sh: static analysis green (report: build/nashdb_lint.json)"
  exit 0
fi

echo "== plain build + tier-1 tests =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build -L tier1 --no-tests=error --output-on-failure \
      -j "${JOBS}"

# Chaos-scenario acceptance gates (DESIGN.md 13): every committed
# scenarios/*.scn spec end to end through nashdb_sim --scenario,
# including the negative SLO gate and the malformed-spec gate. JSON
# reports land in build/scenario_reports/ (CI uploads them).
echo
echo "== scenario gates (ctest -L scenario) =="
ctest --test-dir build -L scenario --no-tests=error --output-on-failure \
      -j "${JOBS}"

# sanitized_pass NAME SANITIZE_VALUE QUICK_LABEL [ENV=VAL ...]
sanitized_pass() {
  local name="$1" sanitize="$2" quick_label="$3"
  shift 3
  echo
  echo "== ${name}-sanitized build =="
  cmake -B "build-${name}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNASHDB_SANITIZE="${sanitize}" >/dev/null
  cmake --build "build-${name}" -j "${JOBS}"
  local label="tier1"
  if [[ "${QUICK}" == "1" ]]; then
    label="${quick_label}"
  fi
  env "$@" ctest --test-dir "build-${name}" -L "${label}" \
      --no-tests=error --output-on-failure -j "${JOBS}"
}

sanitized_pass tsan thread 'tsan|online|transition'

# The sharded data plane's real concurrency — one SPSC ring per shard,
# consumers against a shared read-only epoch — under TSan: one tpch run
# with 4 shards. Races here would never surface in the single-threaded
# tier-1 tests.
echo
echo "== TSan sharded-driver run (--shards=4) =="
cmake --build build-tsan -j "${JOBS}" --target nashdb_sim
./build-tsan/tools/nashdb_sim --workload=tpch --shards=4 --batch=64 \
    >/dev/null
echo "sharded driver: clean under TSan"

# Online reconfiguration under TSan (DESIGN.md 12): the serial control
# plane runs the fault scenario with background epoch builds
# (BuildConfigAsync racing the admission loop), then the sharded data
# plane publishes epochs over the release/acquire chain while 4 shards
# route. Both concurrency surfaces are exercised by one command.
echo
echo "== TSan online-reconfig run (--online-reconfig --faults --shards=4) =="
./build-tsan/tools/nashdb_sim --workload=bernoulli --scale=0.05 \
    --online-reconfig --build-window=600 \
    --faults='crash@7200:n0:for=1800;mttf=43200;mttr=3600' \
    --shards=4 --batch=64 >/dev/null
echo "online reconfiguration: clean under TSan"

# One full chaos scenario under TSan: correlated rack failure with
# emergency repair — fault delivery, coverage-gap retries, and repair
# transitions all race the reconfiguration thread pool here and nowhere
# in the single-threaded tier-1 tests. (streaming_10m is deliberately
# not run under TSan; its 10^7 queries would take tens of minutes.)
echo
echo "== TSan scenario run (rack_failure.scn) =="
./build-tsan/tools/nashdb_sim --scenario=scenarios/rack_failure.scn \
    >/dev/null
echo "scenario engine: clean under TSan"

sanitized_pass asan address faults ASAN_OPTIONS=halt_on_error=1
sanitized_pass ubsan undefined faults \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

echo
echo "check.sh: all suites green"

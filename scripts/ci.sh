#!/usr/bin/env bash
# Tier-1 gate: every PR must pass this locally before merge.
#
#   scripts/ci.sh          # full gate (fmt, clippy, build, tests)
#   scripts/ci.sh --quick  # skip the cross-crate test sweep
#
# The first four steps are the ROADMAP tier-1 contract; the full gate
# additionally runs every crate's unit, property, and compat-shim tests
# (called out below: the fault-injection/recovery and determinism suites),
# the transform-cache tests (one shared dropout transform per graph and
# alpha), lints and tests the standalone benchmark package and runs its
# sim-g1 workload (seed-0 golden digests) and its serve-sophie-k512
# workload (every served K512 report, cache hits included, byte-compared
# with a cold in-process solve), builds the examples, denies rustdoc
# warnings, and smoke-runs the
# `repro` binary (the solver-registry listing, bench-summary with a
# preprocessing/baselines suite-presence gate, the kernel timing smoke
# with its 1.3x forward-speedup gate, the problem-compiler sweep with a
# feasible-decode gate on every annealer row, a JSONL event trace, a JSONL
# command timeline with an exact-cost-sum and probe/solve-overlap gate,
# the robustness sweep on a tiny graph, the serving layer: an
# ephemeral-port daemon driven through submit/ctl/loadgen, and the cluster
# layer: a router over 3 replicas with a forced replica kill mid-workload,
# gated on zero lost jobs).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --all-targets --workspace -- -D warnings
# Every crate feature must build: nothing else turns one on, so a feature
# that cannot compile would go unnoticed.
run cargo check --workspace --all-features --all-targets
run cargo build --release
run cargo test -q

# One-entry-point gate: every job runs through `Solver::solve` or, for a
# chosen backend, health monitor, schedule or warm start, the engine's one
# backend-generic core `SophieSolver::solve_job`. No `*_observed` solve
# entry point or `SophieOutcome` may come back anywhere in the code. The
# one exception is a zero-argument `fn ..._observed()` line: a test's
# name, not an entry point.
echo "==> grep gate: no *_observed entry points or SophieOutcome under crates/ src/ tests/ examples/"
if grep -rnE "_observed\(|SophieOutcome" crates/ src/ tests/ examples/ \
    | grep -vE "^[^:]+:[0-9]+:\s*fn [a-z0-9_]+_observed\(\) \{$"; then
    echo "solvers have one entry point (Solver::solve, or SophieSolver::solve_job for a chosen backend); no *_observed APIs or SophieOutcome" >&2
    exit 1
fi

# One-JSON-module gate: every JSON text the workspace writes is a `Json`
# value rendered by its one `Display` (crates/solve/src/json.rs), which
# owns string escaping. Hand-escaped strings spliced into `format!`
# templates may not come back anywhere in the code.
echo "==> grep gate: no escape( outside crates/solve/src/json.rs"
if grep -rn "escape(" crates/ src/ tests/ examples/ | grep -v "^crates/solve/src/json.rs:"; then
    echo "build JSON as sophie_solve::Json values rendered by Display; escape() belongs to the json module alone" >&2
    exit 1
fi

# Device-runtime gate: engine stage modules submit commands through the
# queue; direct MvmUnit reads live only in the queue's executor
# (crates/core/src/queue/exec.rs).
echo "==> grep gate: no direct MvmUnit reads under crates/core/src/engine/"
if grep -rn "\.forward(\|\.transposed(" crates/core/src/engine/; then
    echo "engine stages must submit Mvm commands through the device queue, not call MvmUnit::forward/transposed" >&2
    exit 1
fi

# Streamed-rounds gate: a job with no schedule takes each round from
# RoundGenerator as the stage loop reaches it, so no run builds its whole
# schedule (O(global_iters) rounds) before the first one. Only the engine's
# tests collect a Schedule to compare with the streamed rounds.
echo "==> grep gate: no Schedule::generate under crates/core/src/engine/ outside tests.rs"
if grep -rn "Schedule::generate" crates/core/src/engine/ | grep -v "^crates/core/src/engine/tests.rs:"; then
    echo "the engine streams its rounds from RoundGenerator; a run must not collect a Schedule up front" >&2
    exit 1
fi

# Kernel-stack gate: core code reaches the MVM kernels only through a
# KernelPlan (KernelPlan::resolve: the SOPHIE_KERNEL override, else the
# fixed per-size rule KernelPlan::for_size); raw Tile::mvm/mvm_transposed
# calls would bypass both.
echo "==> grep gate: no direct Tile::mvm calls under crates/core/src/"
if grep -rn "\.mvm(\|\.mvm_transposed(" crates/core/src/; then
    echo "core code must dispatch MVMs through KernelPlan, never Tile::mvm/mvm_transposed directly" >&2
    exit 1
fi

# Clock gate: the library crates make no decision by timing themselves
# (kernel plans are a fixed rule), so none of them reads the wall clock. Job deadlines in sophie-solve, and the
# bench, serve and benchmark timing harnesses, are outside these crates.
echo "==> grep gate: no Instant or SystemTime under the library crates' src/"
if grep -rnE "\bInstant\b|\bSystemTime\b" \
    crates/{linalg,core,graph,hw,pris,problems,baselines}/src/; then
    echo "library crates must not read the clock; time kernels in crates/bench (repro tune)" >&2
    exit 1
fi

# Problem-compiler gate: bench and serve code obtains Ising instances only
# through the front-end compilers (ProblemSpec::compile / *Problem::compile);
# assembling instances by hand would skip offset bookkeeping, ancilla
# handling, and the decode contract.
echo "==> grep gate: no direct IsingInstance assembly under crates/bench/ or crates/serve/"
if grep -rn "IsingInstance::assemble\|IsingInstance {" crates/bench/src/ crates/serve/src/; then
    echo "bench/serve code must lower problems via the compiler front ends, never assemble IsingInstance directly" >&2
    exit 1
fi

# Router gate: the router reaches replicas only through the typed Client
# (Client::connect checks the greeting and the protocol version), from
# each replica's connection slots, the prober and list-solvers; a raw
# socket dial would skip the handshake and the health bookkeeping.
echo "==> grep gate: no raw TcpStream dials under crates/serve/src/router/"
if grep -rn "TcpStream::connect" crates/serve/src/router/; then
    echo "router code must dial replicas via Client::connect, never raw TcpStream::connect" >&2
    exit 1
fi

# Router thread gate: every router thread (dispatch, connection reader,
# prober) is started through std::thread::Builder, so it is named and a
# failed spawn is an error the router handles, never a panic.
echo "==> grep gate: no bare thread::spawn( under crates/serve/src/router/"
if grep -rn "thread::spawn(" crates/serve/src/router/; then
    echo "router threads are started with std::thread::Builder (named, spawn errors handled), never bare thread::spawn" >&2
    exit 1
fi

# Connection front-end gate: the daemon and the router run one front end
# (crates/serve/src/conn.rs) whose accept blocks until a connection or the
# shutdown wake-up arrives, so no listener is polled; and a thread that
# cannot be spawned is a typed start error, a refused connection or a
# failed job, never a panic.
echo "==> grep gate: no set_nonblocking(true) or .expect(\"spawn under crates/serve/src/"
if grep -rn 'set_nonblocking(true)\|\.expect("spawn' crates/serve/src/; then
    echo "serving code must block in accept (woken at shutdown) and handle thread-spawn errors, never poll a listener or panic on spawn" >&2
    exit 1
fi

# ISA gate: instruction-set dispatch lives in one module,
# crates/linalg/src/isa.rs, which checks the host before it calls
# AVX2-compiled code; target features or intrinsics anywhere else would
# escape that check (and no global target-cpu or RUSTFLAGS is set).
echo "==> grep gate: #[target_feature, is_x86_feature_detected! and std::arch only in crates/linalg/src/isa.rs"
if grep -rnE '#\[target_feature|is_x86_feature_detected!|std::arch' crates/ src/ tests/ examples/ \
    | grep -v "^crates/linalg/src/isa.rs:"; then
    echo "instruction-set dispatch belongs to sophie-linalg's isa module alone" >&2
    exit 1
fi

# Block-noise gate: the executor draws threshold noise through the block
# sampler (gaussian::GaussianBlock), whose samples are bit-equal to
# GaussianSource's; a per-sample GaussianSource draw in the queue would
# bring back the branchy one-at-a-time loop.
echo "==> grep gate: no per-sample GaussianSource draw under crates/core/src/queue/"
if grep -rnE 'GaussianSource|\.sample\(' crates/core/src/queue/; then
    echo "the queue executor draws threshold noise in blocks (GaussianBlock::take), never one GaussianSource sample at a time" >&2
    exit 1
fi

# Exact-scoring gate: the engine and the PRIS runner score every
# synchronized state through sophie_graph::cut::CutScorer, which sums in
# integers where the weights allow it and has the bits of the ordered edge
# sum either way; a direct cut_value_binary call there would bring back
# the serial walk over every edge on every sync.
echo "==> grep gate: no cut_value_binary( under crates/core/src/engine/ or in crates/pris/src/runner.rs"
if grep -rn "cut_value_binary(" crates/core/src/engine/ crates/pris/src/runner.rs; then
    echo "the engine and PRIS score states through CutScorer (built once per job), never cut_value_binary directly" >&2
    exit 1
fi

# Exact-gain gate: simulated annealing, parallel tempering and breakout
# local search read every flip gain from sophie_graph::cut::FlipGains,
# which keeps integer local fields where the weights allow it and has the
# bits of flip_gain either way; a direct flip_gain call there would bring
# back the serial walk over a node's neighbours on every proposal.
echo "==> grep gate: no flip_gain( in crates/baselines/src/{sa,tempering,local_search}.rs"
if grep -n "flip_gain(" crates/baselines/src/{sa,tempering,local_search}.rs; then
    echo "SA, PT and BLS read their gains from FlipGains, never flip_gain directly" >&2
    exit 1
fi

if [[ "$quick" -eq 0 ]]; then
    run cargo test -q --workspace
    # Fault-aware runtime: injection/recovery behavior and the
    # thread-count bit-determinism of the fault/recovery event streams.
    run cargo test -q -p sophie-hw --test fault_injection --test fault_recovery --test command_queue
    run cargo test -q -p sophie --test fault_determinism --test thread_determinism --test kernel_determinism --test eigen_determinism --test engine_golden
    run cargo test -q -p sophie-pris -p sophie-core -p sophie-hw -p sophie --lib transform_cache
    # The benchmark package is its own Cargo workspace (see BENCHMARK.json),
    # so the workspace-wide lint and test sweeps above never reach it.
    run cargo clippy --release --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings
    run cargo test --release --manifest-path benchmark/Cargo.toml
    # End-to-end golden: sim-g1 checks the digests of its seed-0 jobs
    # against benchmark/golden-sim-g1.txt and exits non-zero on a mismatch.
    run cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --workload sim-g1
    # Served bytes: every K512 report the daemon sent, including those whose
    # preprocessing came from its transform cache, must equal a cold
    # in-process solve; the run exits non-zero otherwise.
    run cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --workload serve-sophie-k512
    run cargo build --release --examples
    echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    # Registry smoke: lists all seven solvers and runs each through the
    # batch scheduler on a tiny instance.
    run cargo run --release -q -p sophie-bench --bin repro -- solvers
    run cargo run --release -q -p sophie-bench --bin repro -- bench-summary --out "$smoke_dir"
    # Bench gate (quick mode): the preprocessing stages and the baseline
    # jobs must be recorded (presence only: no speed floor).
    python3 - "$smoke_dir/BENCH_sophie.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
ids = {r["id"] for r in doc["results"]}
for needed in tuple(
    f"preprocess/{stage}/{graph}"
    for stage in ("symmetric_eigen", "compose_nonnegative", "from_transform")
    for graph in ("K512", "G1")
) + tuple(
    f"baselines/{solver}/{graph}"
    for solver in ("sa", "pt", "bls")
    for graph in ("K60", "QUBO-64", "GSET-64")
):
    assert needed in ids, f"bench summary missing {needed}"
print("bench gate: preprocess and baselines suites present")
PY
    # Kernel timing smoke: times the three variants (scalar, axpy, b32u2)
    # on distinct 0/1 inputs at the acceptance tile sizes, records the
    # kernel_tune block with each size's fixed plan, and --check enforces
    # the speedup claim inside the binary (the plan's forward 64^2 >= 1.3x
    # scalar).
    run cargo run --release -q -p sophie-bench --bin repro -- tune --check --out "$smoke_dir"
    python3 - "$smoke_dir/BENCH_sophie.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
kt = doc["kernel_tune"]
assert kt["schema"] == "sophie-kernel-tune-v2", "kernel_tune schema"
tiles = [p["tile"] for p in kt["plans"]]
assert tiles == [64, 256, 500], f"kernel_tune plans cover {tiles}"
variants = [r["variant"] for r in kt["table_64"]]
assert variants == ["scalar", "axpy", "b32u2"], f"one row per kernel variant, got {variants}"
assert "pair_64" not in kt, "the fused pair kernel is gone"
sp = kt["forward_64_speedup"]
assert sp >= 1.3, f"tuned forward 64^2 speedup regressed to {sp}x (floor: 1.3)"
# bench-summary regeneration must have preserved the block alongside its own
assert "results" in doc and "tile_kernel_asymmetry_fix" in doc, "kernel_tune upsert dropped sibling blocks"
print(f"kernel_tune gate: plans for {tiles}, forward 64^2 speedup {sp:.2f}x")
PY
    # Problem-compiler smoke: every front end (QUBO, MAX-CUT, coloring,
    # LDPC) compiled, solved through the registry, and decoded; the gate
    # requires a feasible decode on every annealer row and the `problems`
    # block upserted without dropping siblings.
    run cargo run --release -q -p sophie-bench --bin repro -- problems --fast --out "$smoke_dir"
    python3 - "$smoke_dir/BENCH_sophie.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
pb = doc["problems"]
assert pb["schema"] == "sophie-problems-v1", "problems schema"
entries = pb["entries"]
kinds = {e["kind"] for e in entries}
assert kinds == {"qubo", "max-cut", "coloring", "ldpc"}, f"kinds covered: {kinds}"
for e in entries:
    assert e["decoded"]["kind"] == e["kind"], "decoded metrics match the kind"
    if e["solver"] == "sa":
        assert e["feasible_runs"] >= 1, f"{e['label']} via sa never decoded feasibly"
assert "kernel_tune" in doc and "results" in doc, "problems upsert dropped sibling blocks"
sa = [e for e in entries if e["solver"] == "sa"]
print(f"problems gate: {len(kinds)} kinds, {len(sa)} annealer rows all feasible")
PY
    run cargo run --release -q -p sophie-bench --bin repro -- trace --fast \
        --graph K100 --seed 0 --out "$smoke_dir/trace.jsonl"
    [[ -s "$smoke_dir/trace.jsonl" ]] || { echo "trace smoke test wrote nothing" >&2; exit 1; }
    # Command-timeline smoke: per-record costs must sum exactly to the
    # run aggregate, and the health monitor's probes must interleave with
    # solve MVMs inside the same round (the overlap the device runtime
    # exists for).
    run cargo run --release -q -p sophie-bench --bin repro -- timeline --fast \
        --graph K100 --seed 0 --out "$smoke_dir/timeline.jsonl"
    python3 - "$smoke_dir/timeline.jsonl" <<'PY'
import collections, json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines[0]["record"] == "run" and lines[-1]["record"] == "total", "framing"
total = lines[-1]
device = [l for l in lines if l["record"] == "device"]
host = [l for l in lines if l["record"] == "host"]
sums = collections.Counter()
for r in device + host:
    for k, v in r["ops"].items():
        sums[k] += v
for k, v in total["ops"].items():
    assert sums[k] == v, f"timeline ops.{k}: records sum to {sums[k]}, aggregate says {v}"
rounds = collections.defaultdict(lambda: {"probe": [], "mvm": []})
for r in device:
    if r["kind"] == "probe":
        rounds[r["round"]]["probe"].append(r["wave"])
    elif r["kind"].startswith("mvm_"):
        rounds[r["round"]]["mvm"].append(r["wave"])
overlapped = [
    rd for rd, w in rounds.items()
    if w["probe"] and w["mvm"] and min(w["probe"]) < max(w["mvm"])
]
assert overlapped, "no round shows probe submissions interleaved with solve MVMs"
print(f"timeline gate: {len(device)}+{len(host)} records sum exactly; "
      f"probes overlap solve MVMs in {len(overlapped)} round(s)")
PY
    run cargo run --release -q -p sophie-bench --bin repro -- robustness --fast --out "$smoke_dir"
    [[ -s "$smoke_dir/robustness.jsonl" ]] || { echo "robustness smoke test wrote no JSONL" >&2; exit 1; }
    [[ -s "$smoke_dir/robustness.csv" ]] || { echo "robustness smoke test wrote no CSV" >&2; exit 1; }

    # Serving smoke: daemon on an ephemeral port, one plain SA job and one
    # streaming SOPHIE job through the client, stats, a loadgen micro-run,
    # and a clean protocol shutdown. Every stdout line must be valid JSONL.
    echo "==> serve smoke test (ephemeral-port daemon + submit/ctl/loadgen)"
    cargo run --release -q -p sophie-bench --bin repro -- serve \
        --port-file "$smoke_dir/serve.port" --queue 16 --workers 2 &
    serve_pid=$!
    # `|| true`: by shutdown the daemon has already exited (we `wait` on
    # it), and a failing kill inside the trap would turn a fully green
    # run into exit 1 under `set -e`.
    trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    # No shell polling loop here: `--port-file` consumers wait for the
    # daemon's address themselves (bounded-backoff poll in the binary).
    # Plain `run` would echo its banner into the redirected JSONL, so these
    # three announce themselves on stderr instead.
    echo "==> repro submit (plain sa) > submit_sa.jsonl" >&2
    cargo run --release -q -p sophie-bench --bin repro -- submit \
        --port-file "$smoke_dir/serve.port" --solver sa --graph K40 \
        --config '{"sweeps":50}' --deadline-ms 30000 > "$smoke_dir/submit_sa.jsonl"
    serve_addr=$(cat "$smoke_dir/serve.port")
    echo "==> repro submit (streaming sophie) > submit_sophie.jsonl" >&2
    cargo run --release -q -p sophie-bench --bin repro -- submit \
        --addr "$serve_addr" --solver sophie --graph K20 --stream \
        --config '{"global_iters":2,"tile_size":10,"local_iters":2}' > "$smoke_dir/submit_sophie.jsonl"
    grep -q '"event":"run_finished"' "$smoke_dir/submit_sophie.jsonl" \
        || { echo "streaming submit produced no run_finished event" >&2; exit 1; }
    echo "==> repro ctl stats > stats.jsonl" >&2
    cargo run --release -q -p sophie-bench --bin repro -- ctl stats --addr "$serve_addr" \
        > "$smoke_dir/stats.jsonl"
    grep -q '"completed":2' "$smoke_dir/stats.jsonl" \
        || { echo "daemon stats do not account for both submitted jobs" >&2; exit 1; }
    run cargo run --release -q -p sophie-bench --bin repro -- loadgen \
        --addr "$serve_addr" --clients 2 --requests 3 --solver sa --graph K20 \
        --config '{"sweeps":20}' --out "$smoke_dir/loadgen.jsonl"
    [[ -s "$smoke_dir/loadgen.jsonl" ]] || { echo "loadgen wrote no JSONL" >&2; exit 1; }
    run cargo run --release -q -p sophie-bench --bin repro -- ctl shutdown --addr "$serve_addr"
    wait "$serve_pid"
    python3 - "$smoke_dir"/submit_sa.jsonl "$smoke_dir"/submit_sophie.jsonl \
        "$smoke_dir"/stats.jsonl "$smoke_dir"/loadgen.jsonl <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    assert lines, f"{path}: empty"
    for line in lines:
        json.loads(line)
print(f"serve smoke: {len(sys.argv) - 1} JSONL artifacts valid")
PY

    # Cluster smoke: router over 3 replicas, chaos loadgen kills replica 0
    # a quarter into the workload and restarts it past 60%. The gate:
    # every record is valid JSONL and retry/failover hid the kill — every
    # request completed `done`, none were lost or errored.
    run cargo run --release -q -p sophie-bench --bin repro -- loadgen \
        --cluster --replicas 3 --chaos --clients 4 --requests 6 --solver sa --graph K20 \
        --config '{"sweeps":400}' --out "$smoke_dir/cluster.jsonl"
    python3 - "$smoke_dir/cluster.jsonl" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
summary = lines[-1]
assert summary["type"] == "summary", "last line must be the summary"
requests = [l for l in lines if l["type"] == "request"]
assert len(requests) == summary["requests"] == 24, "one record per request"
assert summary["replicas"] == 3 and summary["chaos"] is True, "cluster provenance"
assert summary["done"] == summary["requests"], (
    f"chaos run lost jobs: {summary['done']}/{summary['requests']} done"
)
print(f"cluster smoke: {summary['done']}/{summary['requests']} done under replica kill/restart")
PY
fi

echo "ci.sh: all gates passed"

#!/usr/bin/env bash
# Tier-1 gate: build, test, and lint the whole workspace.
#
# Run from the repo root. Fails on the first error; clippy warnings are
# promoted to errors so lint drift cannot accumulate. The `vendor/`
# directory holds offline dependency stubs and is excluded from the
# workspace, so it is not linted here.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --workspace --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# Criterion benches compile against the crates' public API; build them
# so an API change cannot leave them broken.
cargo bench --workspace --no-run --offline

# The benchmark is its own package (own workspace and lock file) that
# compiles against the crates' public API: build and test it here, so a
# crate API change that breaks it fails tier-1, not the acceptance run.
cargo test --offline --manifest-path benchmark/Cargo.toml -q

# The demo dataset is generated, not committed (`demo/` is gitignored);
# materialise it on a fresh checkout so the smokes below can run.
if [ ! -f demo/gwdb.ddlog ]; then
    ./target/release/experiments export-demo > /dev/null
fi

# Observability smoke: a demo run must produce a valid metrics dump
# (schema, per-phase timings, grounding cardinalities, convergence
# series) and a JSON-lines trace. `metrics_smoke` validates the keys.
./target/release/sya run demo/gwdb.ddlog \
    --table Well=demo/wells.csv --evidence demo/evidence.csv \
    --epochs 200 \
    --metrics-out /tmp/sya_ci_metrics.json \
    --trace-out /tmp/sya_ci_trace.jsonl > /dev/null
./target/release/metrics_smoke /tmp/sya_ci_metrics.json
test -s /tmp/sya_ci_trace.jsonl

# Determinism smoke: the same seed gives the same scores on any worker
# count — the contract of the one Gibbs driver (DESIGN.md §5).
demo_seeded=(./target/release/sya run demo/gwdb.ddlog
    --table Well=demo/wells.csv --evidence demo/evidence.csv
    --epochs 200 --seed 7)
"${demo_seeded[@]}" --workers 1 --output /tmp/sya_ci_w1.csv > /dev/null
"${demo_seeded[@]}" --workers 2 --output /tmp/sya_ci_w2.csv > /dev/null
cmp /tmp/sya_ci_w1.csv /tmp/sya_ci_w2.csv
echo "determinism smoke: --workers 1 and --workers 2 scores are byte-identical"

# Crash-recovery smoke: SIGKILL a checkpointed demo run mid-inference,
# resume it from the surviving checkpoint, and require the final scores
# to match an uninterrupted reference run byte for byte. It runs the
# default (spatial, multi-instance) engine: every draw's stream is
# derived from (seed, epoch, phase, variable), so any divergence means
# the resume path replayed the chain incorrectly.
ckpt_dir=/tmp/sya_ci_ckpt
rm -rf "$ckpt_dir" /tmp/sya_ci_ref.csv /tmp/sya_ci_resumed.csv
demo_run=(./target/release/sya run demo/gwdb.ddlog
    --table Well=demo/wells.csv --evidence demo/evidence.csv
    --epochs 4000 --seed 7)
"${demo_run[@]}" --output /tmp/sya_ci_ref.csv > /dev/null
"${demo_run[@]}" --checkpoint-dir "$ckpt_dir" --checkpoint-every 1 \
    --output /tmp/sya_ci_resumed.csv > /dev/null &
victim=$!
for _ in $(seq 1 3000); do
    if ls "$ckpt_dir"/ckpt-*.syackpt > /dev/null 2>&1; then break; fi
    if ! kill -0 "$victim" 2> /dev/null; then break; fi
    sleep 0.01
done
kill -9 "$victim" 2> /dev/null || {
    echo "crash smoke: run finished before it could be killed" >&2
    exit 1
}
wait "$victim" 2> /dev/null || true
ls "$ckpt_dir"/ckpt-*.syackpt > /dev/null
"${demo_run[@]}" --checkpoint-dir "$ckpt_dir" --checkpoint-every 1 --resume \
    --output /tmp/sya_ci_resumed.csv > /dev/null
diff /tmp/sya_ci_ref.csv /tmp/sya_ci_resumed.csv
echo "crash-recovery smoke: resumed scores match the reference"

# Serving smoke: boot `sya serve` on the demo KB (ephemeral port), drive
# it with the bench HTTP client — health, a marginal read, a batch
# query, an evidence POST that must re-sample something and bump the KB
# epoch, and a /metrics scrape that must parse as Prometheus text —
# then check SIGTERM produces a clean (exit 0) shutdown.
serve_log=/tmp/sya_ci_serve.log
rm -f "$serve_log"
./target/release/sya serve demo/gwdb.ddlog \
    --table Well=demo/wells.csv --evidence demo/evidence.csv \
    --epochs 200 --listen 127.0.0.1:0 --serve-workers 2 > "$serve_log" &
server=$!
addr=""
for _ in $(seq 1 3000); do
    addr=$(sed -n 's|^serving on http://||p' "$serve_log")
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$server" 2> /dev/null; then break; fi
    sleep 0.01
done
if [ -z "$addr" ]; then
    echo "serve smoke: server never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi
./target/release/serve_smoke "$addr" IsSafe 0
kill -TERM "$server"
if ! wait "$server"; then
    echo "serve smoke: server did not shut down cleanly on SIGTERM" >&2
    exit 1
fi
echo "serve smoke: queries, evidence, metrics, and shutdown all clean"

# Shard smoke: the demo KB constructed at --shards 2 must reproduce the
# 1-shard scores byte for byte (a shard is an owner table over the one
# driver's units, not an approximation). In-process shards checkpoint
# into the flat store, so a --resume rerun at another shard count must
# replay to the same bytes.
shard_dir=/tmp/sya_ci_shard_ckpt
rm -rf "$shard_dir" /tmp/sya_ci_shard1.csv /tmp/sya_ci_shard2.csv /tmp/sya_ci_shard3.csv
shard_run=(./target/release/sya run demo/gwdb.ddlog
    --table Well=demo/wells.csv --evidence demo/evidence.csv
    --epochs 300 --seed 7)
"${shard_run[@]}" --shards 1 --output /tmp/sya_ci_shard1.csv > /dev/null
"${shard_run[@]}" --shards 2 --checkpoint-dir "$shard_dir" --checkpoint-every 50 \
    --output /tmp/sya_ci_shard2.csv > /dev/null
diff /tmp/sya_ci_shard1.csv /tmp/sya_ci_shard2.csv
ls "$shard_dir"/ckpt-*.syackpt > /dev/null
"${shard_run[@]}" --shards 3 --checkpoint-dir "$shard_dir" --checkpoint-every 50 --resume \
    --output /tmp/sya_ci_shard3.csv > /dev/null
cmp /tmp/sya_ci_shard2.csv /tmp/sya_ci_shard3.csv
echo "shard smoke: 2-shard scores match 1-shard; a --resume at 3 shards replays them byte for byte"

# One-line HTTP GET over bash's /dev/tcp (no curl in the image): used to
# read the cluster status board below. The body runs in an explicit
# subshell: a refused connect or a SIGPIPE'd write then kills only that
# fork and surfaces as a non-zero status the caller can retry on,
# instead of terminating the whole script under `set -e`.
http_get() {
    local host=${1%:*} port=${1##*:} path=$2 hostport=$1
    (
        exec 3<> "/dev/tcp/$host/$port"
        printf 'GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' \
            "$path" "$hostport" >&3
        cat <&3
    ) 2> /dev/null
}

# Cluster chaos smoke (DESIGN.md §13): a 2-worker multi-process cluster
# on ephemeral ports. SIGKILL one worker mid-run; the coordinator must
# restart it from its newest checkpoint and the final merged scores must
# byte-match an uninterrupted in-process reference — recovery is replay,
# not approximation.
cluster_dir=/tmp/sya_ci_cluster_ckpt
rm -rf "$cluster_dir" /tmp/sya_ci_cluster_ref.csv /tmp/sya_ci_cluster.csv
cluster_common=(demo/gwdb.ddlog
    --table Well=demo/wells.csv --evidence demo/evidence.csv
    --epochs 600 --seed 7 --shards 2)
./target/release/sya run "${cluster_common[@]}" \
    --output /tmp/sya_ci_cluster_ref.csv > /dev/null
./target/release/sya shard-coordinator "${cluster_common[@]}" \
    --heartbeat-ms 10000 --backoff-ms 50 \
    --checkpoint-dir "$cluster_dir" --checkpoint-every 5 \
    --output /tmp/sya_ci_cluster.csv > /dev/null &
coord=$!
for _ in $(seq 1 3000); do
    if ls "$cluster_dir"/shard-01/ckpt-*.syackpt > /dev/null 2>&1; then break; fi
    if ! kill -0 "$coord" 2> /dev/null; then break; fi
    sleep 0.01
done
pkill -9 -f 'shard-worker.*--shard 1 --connect' || {
    echo "cluster chaos smoke: run finished before a worker could be killed" >&2
    exit 1
}
if ! wait "$coord"; then
    echo "cluster chaos smoke: coordinator failed after the worker kill" >&2
    exit 1
fi
diff /tmp/sya_ci_cluster_ref.csv /tmp/sya_ci_cluster.csv
echo "cluster chaos smoke: killed worker restarted from checkpoint; scores match the reference"

# Degraded-not-failed: with a zero restart budget the killed shard is
# lost, but the coordinator must still exit 0, emit scores for every
# atom (the lost shard's marginals recovered from its checkpoint), and
# the lingering status board must name the lost shard.
degraded_dir=/tmp/sya_ci_cluster_degraded_ckpt
degraded_log=/tmp/sya_ci_cluster_degraded.log
rm -rf "$degraded_dir" /tmp/sya_ci_cluster_degraded.csv "$degraded_log"
./target/release/sya shard-coordinator "${cluster_common[@]}" \
    --heartbeat-ms 10000 --backoff-ms 50 --restart-budget 0 \
    --checkpoint-dir "$degraded_dir" --checkpoint-every 5 \
    --status-listen 127.0.0.1:0 --status-linger \
    --output /tmp/sya_ci_cluster_degraded.csv > "$degraded_log" &
coord=$!
status_addr=""
for _ in $(seq 1 3000); do
    status_addr=$(sed -n 's|^status on http://||p' "$degraded_log")
    if [ -n "$status_addr" ]; then break; fi
    if ! kill -0 "$coord" 2> /dev/null; then break; fi
    sleep 0.01
done
test -n "$status_addr"
for _ in $(seq 1 3000); do
    if ls "$degraded_dir"/shard-01/ckpt-*.syackpt > /dev/null 2>&1; then break; fi
    if ! kill -0 "$coord" 2> /dev/null; then break; fi
    sleep 0.01
done
pkill -9 -f 'shard-worker.*--shard 1 --connect' || {
    echo "cluster degraded smoke: run finished before a worker could be killed" >&2
    exit 1
}
board=""
for _ in $(seq 1 6000); do
    board=$(http_get "$status_addr" / 2> /dev/null || true)
    case "$board" in *'"done":true'*) break ;; esac
    sleep 0.01
done
case "$board" in
*'"status":"degraded"'*) : ;;
*)  echo "cluster degraded smoke: status board never reported degradation: $board" >&2
    exit 1 ;;
esac
case "$board" in
*'"health":"lost"'*) : ;;
*)  echo "cluster degraded smoke: status board does not name the lost shard: $board" >&2
    exit 1 ;;
esac
kill -TERM "$coord"
if ! wait "$coord"; then
    echo "cluster degraded smoke: coordinator did not exit cleanly" >&2
    exit 1
fi
test -s /tmp/sya_ci_cluster_degraded.csv
echo "cluster degraded smoke: lost shard reported, run degraded instead of failing"

# Fleet-metrics smoke (DESIGN.md §14): a clean 2-worker cluster with a
# lingering status board must serve fleet-aggregated Prometheus metrics
# — a positive fleet samples rollup, per-shard labelled series, and the
# per-shard max_delta / staleness gauges the telemetry plane exists for.
fleet_log=/tmp/sya_ci_fleet.log
rm -f "$fleet_log" /tmp/sya_ci_fleet.csv
./target/release/sya shard-coordinator "${cluster_common[@]}" \
    --heartbeat-ms 10000 \
    --status-listen 127.0.0.1:0 --status-linger \
    --output /tmp/sya_ci_fleet.csv > "$fleet_log" &
coord=$!
fleet_addr=""
for _ in $(seq 1 3000); do
    fleet_addr=$(sed -n 's|^status on http://||p' "$fleet_log")
    if [ -n "$fleet_addr" ]; then break; fi
    if ! kill -0 "$coord" 2> /dev/null; then break; fi
    sleep 0.01
done
test -n "$fleet_addr"
board=""
for _ in $(seq 1 6000); do
    board=$(http_get "$fleet_addr" / 2> /dev/null || true)
    case "$board" in *'"done":true'*) break ;; esac
    sleep 0.01
done
metrics=$(http_get "$fleet_addr" /metrics 2> /dev/null || true)
fleet_samples=$(printf '%s\n' "$metrics" \
    | sed -n 's/^sya_fleet_infer_shard_samples_total \([0-9]*\).*/\1/p')
if [ -z "$fleet_samples" ] || [ "$fleet_samples" -le 0 ]; then
    echo "fleet metrics smoke: fleet samples_total missing or zero" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
fi
for needle in \
    'sya_infer_shard_samples_total{shard="0"}' \
    'sya_infer_shard_samples_total{shard="1"}' \
    'sya_shard_max_delta{shard="0"}' \
    'sya_fleet_shard_staleness_epochs{shard="1"}'; do
    case "$metrics" in
    *"$needle"*) : ;;
    *)  echo "fleet metrics smoke: /metrics is missing $needle" >&2
        printf '%s\n' "$metrics" >&2
        exit 1 ;;
    esac
done
case "$(http_get "$fleet_addr" /fleet 2> /dev/null || true)" in
*'"schema": "sya.fleet.v1"'*) : ;;
*)  echo "fleet metrics smoke: /fleet is not a sya.fleet.v1 document" >&2
    exit 1 ;;
esac
kill -TERM "$coord"
if ! wait "$coord"; then
    echo "fleet metrics smoke: coordinator did not exit cleanly" >&2
    exit 1
fi
echo "fleet metrics smoke: $fleet_samples fleet samples, per-shard labels and drift gauges served"

# Sampler hot-path baseline: the bench bin must produce a valid
# BENCH_sampler.json (three samplers x three graph sizes, positive
# throughput) — the floor the ROADMAP 10x sampler item measures against.
./target/release/sampler_hotpath /tmp/sya_ci_bench_sampler.json 60 2> /dev/null
./target/release/sampler_bench_smoke /tmp/sya_ci_bench_sampler.json
echo "sampler hot-path smoke: BENCH_sampler.json schema valid"

# Overload smoke (DESIGN.md §15): a deliberately tiny serve envelope —
# one worker, queue depth 4 — driven well past capacity by the
# open-loop load generator in evidence mode (each accepted request is a
# real incremental re-inference). The health plane must answer 200
# through the whole storm (the shed lane), every 503 must carry
# Retry-After, the BENCH_serve.json the generator writes must validate,
# and the admission ledger must land on /metrics.
overload_log=/tmp/sya_ci_overload.log
rm -f "$overload_log" /tmp/sya_ci_bench_serve.json
./target/release/sya serve demo/gwdb.ddlog \
    --table Well=demo/wells.csv --evidence demo/evidence.csv \
    --epochs 200 --listen 127.0.0.1:0 --serve-workers 1 \
    --max-queue 4 --request-timeout-ms 5000 > "$overload_log" &
server=$!
addr=""
for _ in $(seq 1 3000); do
    addr=$(sed -n 's|^serving on http://||p' "$overload_log")
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$server" 2> /dev/null; then break; fi
    sleep 0.01
done
if [ -z "$addr" ]; then
    echo "overload smoke: server never reported its address" >&2
    cat "$overload_log" >&2
    exit 1
fi
./target/release/serve_load "$addr" --mode evidence --rates 400 \
    --duration-secs 3 --connections 16 \
    --out /tmp/sya_ci_bench_serve.json 2> /dev/null &
load=$!
# Poll the health plane mid-storm: every probe must come back 200 even
# while the main queue is rejecting work.
for _ in $(seq 1 20); do
    health=$(http_get "$addr" /healthz || true)
    case "$health" in
    *'HTTP/1.1 200'*) : ;;
    *)  echo "overload smoke: /healthz did not answer 200 under load" >&2
        printf '%s\n' "$health" >&2
        kill "$load" "$server" 2> /dev/null || true
        exit 1 ;;
    esac
    sleep 0.1
done
if ! wait "$load"; then
    echo "overload smoke: serve_load failed" >&2
    kill "$server" 2> /dev/null || true
    exit 1
fi
# The sweep must have shed (every shed with Retry-After) and the
# accepted requests must have kept the request-timeout budget.
./target/release/serve_bench_smoke /tmp/sya_ci_bench_serve.json \
    --expect-shed --max-p99-ms 6000
metrics=$(http_get "$addr" /metrics 2> /dev/null || true)
case "$metrics" in
*sya_serve_admission_shed_queue_full_total*) : ;;
*)  echo "overload smoke: /metrics is missing the admission shed counters" >&2
    printf '%s\n' "$metrics" >&2
    exit 1 ;;
esac
case "$metrics" in
*'sya_serve_admission_queued 0'*) : ;;
*)  echo "overload smoke: admission queue did not drain to zero" >&2
    printf '%s\n' "$metrics" >&2
    exit 1 ;;
esac
kill -TERM "$server"
if ! wait "$server"; then
    echo "overload smoke: server did not shut down cleanly after the storm" >&2
    exit 1
fi
echo "overload smoke: healthz stayed 200, sheds carried Retry-After, BENCH_serve.json valid"

# Lazy-serve smoke (DESIGN.md §16): boot `sya serve --lazy` on the demo
# KB — which is never fully grounded — and require the health plane to
# announce lazy mode, a bound marginal to answer 200 twice (second time
# from the epoch-keyed cache), the cache ledger to land on /metrics,
# and SIGTERM to produce a clean exit.
lazy_log=/tmp/sya_ci_lazy_serve.log
rm -f "$lazy_log"
./target/release/sya serve demo/gwdb.ddlog \
    --table Well=demo/wells.csv --evidence demo/evidence.csv \
    --lazy --listen 127.0.0.1:0 --serve-workers 2 > "$lazy_log" &
server=$!
addr=""
for _ in $(seq 1 3000); do
    addr=$(sed -n 's|^serving on http://||p' "$lazy_log")
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$server" 2> /dev/null; then break; fi
    sleep 0.01
done
if [ -z "$addr" ]; then
    echo "lazy serve smoke: server never reported its address" >&2
    cat "$lazy_log" >&2
    exit 1
fi
health=$(http_get "$addr" /healthz || true)
case "$health" in
*'"mode":"lazy"'*) : ;;
*)  echo "lazy serve smoke: /healthz does not report lazy mode" >&2
    printf '%s\n' "$health" >&2
    exit 1 ;;
esac
# Well 0 is a query atom in the demo evidence split; ask twice so the
# second answer must come from the cache.
for _ in 1 2; do
    reply=$(http_get "$addr" '/v1/marginal/IsSafe?args=0' || true)
    case "$reply" in
    *'HTTP/1.1 200'*'"score":'*) : ;;
    *)  echo "lazy serve smoke: marginal read failed" >&2
        printf '%s\n' "$reply" >&2
        exit 1 ;;
    esac
done
metrics=$(http_get "$addr" /metrics 2> /dev/null || true)
for needle in \
    'sya_serve_query_cache_miss_total 1' \
    'sya_serve_query_cache_hit_total 1'; do
    case "$metrics" in
    *"$needle"*) : ;;
    *)  echo "lazy serve smoke: /metrics is missing $needle" >&2
        printf '%s\n' "$metrics" >&2
        exit 1 ;;
    esac
done
kill -TERM "$server"
if ! wait "$server"; then
    echo "lazy serve smoke: server did not shut down cleanly on SIGTERM" >&2
    exit 1
fi
echo "lazy serve smoke: lazy mode served, cache hit recorded, shutdown clean"

# Delta rows smoke (DESIGN.md §17): boot `sya serve` on the demo KB and
# drive POST /v1/rows end to end — insert a synthetic well next to the
# demo's well 0 (new ground atom born, epoch bumped, conclique
# re-sampled, delta.* counters on /metrics), then retract it (atom
# buried, neighbor's marginal back to baseline within sampler
# tolerance) — live maintenance, never a full re-ground. It runs twice:
# unsharded and at --shards 2, which only shapes construction and then
# serves the same one live KB.
rows_log=/tmp/sya_ci_rows_serve.log
for shard_flags in "" "--shards 2"; do
    rm -f "$rows_log"
    # shellcheck disable=SC2086 # word-split the optional shard flags
    ./target/release/sya serve demo/gwdb.ddlog \
        --table Well=demo/wells.csv --evidence demo/evidence.csv \
        --epochs 200 --listen 127.0.0.1:0 --serve-workers 2 $shard_flags > "$rows_log" &
    server=$!
    addr=""
    for _ in $(seq 1 3000); do
        addr=$(sed -n 's|^serving on http://||p' "$rows_log")
        if [ -n "$addr" ]; then break; fi
        if ! kill -0 "$server" 2> /dev/null; then break; fi
        sleep 0.01
    done
    if [ -z "$addr" ]; then
        echo "delta rows smoke (${shard_flags:-unsharded}): server never reported its address" >&2
        cat "$rows_log" >&2
        exit 1
    fi
    ./target/release/serve_rows_smoke "$addr" IsSafe 0
    kill -TERM "$server"
    if ! wait "$server"; then
        echo "delta rows smoke (${shard_flags:-unsharded}): server did not shut down cleanly on SIGTERM" >&2
        exit 1
    fi
    echo "delta rows smoke (${shard_flags:-unsharded}): insert/retract round trip restored baseline marginals"
done

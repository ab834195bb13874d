#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and a scaled-down
# `repro table1` smoke run that must stay inside a wall-time budget and
# produce a well-formed table. Run from the repository root:
#
#   scripts/tier1.sh [smoke-budget-seconds]
#
# The smoke budget (default 120 s) is generous: at --scale 0.25 the sweep
# takes ~2 s on one core with the strided engine; blowing the budget means
# a serious performance regression, not noise.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${1:-120}"

echo "== tier1: cargo build --release"
# default-members covers crates/*, so this builds the repro binary too.
cargo build --release

echo "== tier1: cargo test -q"
# The whole workspace (default-members): the differential, chaos, native
# and serve suites, the CLI smokes (crates/serve/tests/cli.rs: cached
# runs, race check, explain, chaos, native) and the 256-case three-way
# fuzz smoke among them.
cargo test -q

echo "== tier1: replay, cursor-memo and kernel differentials, release build"
# Time-step replay decides on a state digest in release builds and
# re-checks the full state only under debug assertions (the test profile);
# likewise a bumped segment entry's cursors, kernel streams and verdicts
# are derived again and compared only there. So the release decisions
# need their own run against the reference walk and the interpreter.
cargo test --release -q -p dct-spmd --test differential
cargo test --release -q -p dct-spmd --test kernel_differential

echo "== tier1: repository benchmark, quick pass (every cell against golden.json)"
# Numbers from a --quick pass mean nothing; what it checks does: cycles,
# clock digest and checksum bits of every simulated cell, and the
# emitted-C digests, against benchmark/golden.json. All six workloads
# must report that no operation failed.
bench_out=$(bash benchmark/run.sh run --quick 2>/dev/null || true)
bench_ok=$(grep -cE '^ +failed_frac +0\.0+ ratio +\(0 of [1-9][0-9]*\)' <<<"$bench_out" || true)
if [ "${bench_ok:-0}" -ne 6 ]; then
    echo "tier1 FAIL: benchmark/run.sh run --quick: ${bench_ok:-0} of 6 workloads report failed_frac 0" >&2
    grep -E '^== |failed_frac' <<<"$bench_out" >&2 || true
    exit 1
fi
echo "  benchmark --quick: failed_frac 0 on all 6 workloads"

echo "== tier1: panic-site ratchet"
# New panic!/unwrap() sites must not appear in a crate or file above its
# pinned count (scripts/panic_baseline.txt: one path and count per line).
# Lowering a count is fine — update the baseline downward when you remove
# panic sites. The 0 entries are the code that runs unattended or inside
# every simulation and must never take the process down: the profiler,
# the native backend, the serve service, the race detector, the segment
# kernels, the shared schedule and the chaos supervisor (its one injected
# panicking site lives in the sweep worker, under the bench count).
while read -r path pinned; do
    [ -z "$path" ] && continue
    # `|| true`: grep exits 1 on zero matches, which pipefail would
    # otherwise turn into a silent script death for panic-free paths.
    count=$(grep -rhoE 'panic!|\.unwrap\(\)' "$path" --include='*.rs' | wc -l || true)
    if [ "$count" -gt "$pinned" ]; then
        echo "tier1 FAIL: $path has $count panic!/unwrap() sites (baseline $pinned)" >&2
        echo "  use DctError/Result instead, or justify and bump scripts/panic_baseline.txt" >&2
        exit 1
    fi
    echo "  $path: $count/$pinned"
done < scripts/panic_baseline.txt

echo "== tier1: repro serve smoke (HTTP API end-to-end)"
# The sweep service: bind an ephemeral port, submit the suite as a job,
# poll it to completion, and require the served table to be byte-for-byte
# what a direct `repro table1` with the same parameters prints — then a
# clean drain-and-exit through POST /api/shutdown.
rm -rf results/serve-smoke
mkdir -p results/serve-smoke
./target/release/repro serve --port 0 \
    --cache-dir results/serve-smoke/cache --out results/serve-smoke/ckpt \
    --workers 2 \
    >results/serve-smoke/stdout.log 2>results/serve-smoke/stderr.log &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -nE 's|.*127\.0\.0\.1:([0-9]+).*|\1|p' results/serve-smoke/stdout.log 2>/dev/null || true)
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "tier1 FAIL: serve never reported its listening port" >&2
    cat results/serve-smoke/stderr.log >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
sub=$(curl -sS -X POST "http://127.0.0.1:$port/api/sweep" --data '{"scale_milli":100,"procs":8}')
job=$(sed -nE 's|.*"job":([0-9]+).*|\1|p' <<<"$sub")
if [ -z "$job" ]; then
    echo "tier1 FAIL: sweep submission rejected: $sub" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
state=""
for _ in $(seq 1 600); do
    state=$(curl -sS "http://127.0.0.1:$port/api/job/$job")
    grep -q '"state":"done"' <<<"$state" && break
    sleep 0.2
done
if ! grep -q '"state":"done"' <<<"$state"; then
    echo "tier1 FAIL: serve job $job never finished: $state" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
table=$(curl -sS "http://127.0.0.1:$port/api/job/$job/table")
direct=$(./target/release/repro table1 --scale 0.1 --procs 8 \
    --cache --cache-dir results/serve-smoke/direct-cache \
    --out results/serve-smoke/direct-ckpt 2>/dev/null)
if [ "$table" != "$direct" ]; then
    echo "tier1 FAIL: served table differs from direct 'repro table1' output" >&2
    diff <(echo "$table") <(echo "$direct") >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The same job again is warm: it must compile for no key, write no
# checkpoint, and leave every file under ckpt/ as it is.
stat_of() { sed -nE "s|.*\"$1\":([0-9]+).*|\1|p" <<<"$2"; }
stamps() { find "$1" -type f -printf '%p %i %T@\n' | sort; }
stats_cold=$(curl -sS "http://127.0.0.1:$port/api/stats")
ckpt_before=$(stamps results/serve-smoke/ckpt)
resub=$(curl -sS -X POST "http://127.0.0.1:$port/api/sweep" --data '{"scale_milli":100,"procs":8}')
rejob=$(sed -nE 's|.*"job":([0-9]+).*|\1|p' <<<"$resub")
state=""
for _ in $(seq 1 100); do
    state=$(curl -sS "http://127.0.0.1:$port/api/job/$rejob")
    grep -q '"state":"done"' <<<"$state" && break
    sleep 0.1
done
stats_warm=$(curl -sS "http://127.0.0.1:$port/api/stats")
retable=$(curl -sS "http://127.0.0.1:$port/api/job/$rejob/table")
warm_ok=1
grep -q '"state":"done"' <<<"$state" || warm_ok=0
[ "$retable" = "$table" ] || warm_ok=0
for counter in keys_derived checkpoints_written executed; do
    [ -n "$(stat_of "$counter" "$stats_cold")" ] || warm_ok=0
    [ "$(stat_of "$counter" "$stats_warm")" = "$(stat_of "$counter" "$stats_cold")" ] || warm_ok=0
done
[ "$(stat_of checkpoints_current "$stats_warm")" = "28" ] || warm_ok=0
[ "$(stamps results/serve-smoke/ckpt)" = "$ckpt_before" ] || warm_ok=0
if [ "$warm_ok" -ne 1 ]; then
    echo "tier1 FAIL: warm serve job compiled for a key, wrote a checkpoint or served a different table" >&2
    echo "  before: $stats_cold" >&2
    echo "  after:  $stats_warm" >&2
    diff <(echo "$ckpt_before") <(stamps results/serve-smoke/ckpt) >&2 || true
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
curl -sS -X POST "http://127.0.0.1:$port/api/shutdown" >/dev/null
shut=1
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then shut=0; break; fi
    sleep 0.1
done
if [ "$shut" -ne 0 ]; then
    echo "tier1 FAIL: serve did not exit within 10s of /api/shutdown" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" 2>/dev/null || true
if ! grep -q "shut down cleanly" results/serve-smoke/stderr.log; then
    echo "tier1 FAIL: serve exited without draining cleanly" >&2
    cat results/serve-smoke/stderr.log >&2 || true
    exit 1
fi
echo "  serve: submit/poll/fetch matches table1 byte-for-byte, warm resubmit writes nothing, clean shutdown"

echo "== tier1: repro table1 --scale 0.25 smoke (budget ${BUDGET}s)"
start=$(date +%s)
out=$(./target/release/repro table1 --scale 0.25 2>/dev/null)
end=$(date +%s)
elapsed=$((end - start))

echo "$out"
echo "[smoke took ${elapsed}s]"

# The table must contain every benchmark row.
for bench in vpenta lu stencil adi erlebacher swm256 tomcatv; do
    if ! grep -q "$bench" <<<"$out"; then
        echo "tier1 FAIL: '$bench' missing from table1 output" >&2
        exit 1
    fi
done

if [ "$elapsed" -gt "$BUDGET" ]; then
    echo "tier1 FAIL: smoke run took ${elapsed}s > budget ${BUDGET}s" >&2
    exit 1
fi

echo "tier1 OK"

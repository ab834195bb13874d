#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, the release-build
# differentials, the repository benchmark's quick pass and the panic-site
# ratchet. Run from the repository root:
#
#   scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release"
# default-members covers crates/*, so this builds the repro binary too.
cargo build --release

echo "== tier1: cargo test -q"
# The whole workspace (default-members): the differential, chaos, native
# and serve suites, the CLI smokes (crates/serve/tests/cli.rs: cached
# runs, race check, explain, chaos, native, the `repro serve` service and
# the `table1 --scale 0.25` smoke with its 120 s bound) and the 256-case
# three-way fuzz smoke among them.
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

echo "tier1 OK"

#!/usr/bin/env bash
# Build the benchmark package (offline, release) and run it.
#
#   benchmark/run.sh run|trace|selfcheck [--seed N] [--seconds S] [--quick]
#   benchmark/run.sh golden        # regenerate golden.json from the reference walk
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, one workload
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dct-benchmark" "$@"

#!/usr/bin/env bash
# Builds the programs under test (focal-serve, suite) and the benchmark
# driver from source, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# driver's result is the last line of stdout, everything else is stderr.
# The driver runs as a child rather than replacing this shell, so the
# peak memory it reads for its own children excludes the builds.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p focal-serve --bin focal-serve >&2
cargo build --release --offline -q -p focal-bench --bin suite >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/focal-perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"

#!/usr/bin/env bash
# Builds xsd-serve and the benchmark from source, then runs the
# benchmark with the given arguments (see xsbench/NOTES.md):
#
#   bash xsbench/run.sh --workload query_wide --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default: target).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p xsserver --bin xsd-serve >&2
cargo build --release --offline --quiet --manifest-path xsbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/xsbench" --server "$CARGO_TARGET_DIR/release/xsd-serve" "$@"

#!/usr/bin/env bash
# Builds the `mdr` binary and the benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-mem --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `target`); scratch data
# directories go under it too and are removed when the run ends.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path Cargo.toml -p mdr-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --mdr "$target/release/mdr" --work "$target/perfbench-work" "$@"

#!/bin/sh
# Benchmark gate: build, self-tests, then a one-second smoke of the
# untraced and the traced run. Fails on any wrong output (the runs exit
# non-zero) and on any file the runs leave behind in the git tree.
set -eu

cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
tree_before=$(git status --porcelain)

echo "==> build"
cargo build --release --offline --manifest-path "$manifest"

echo "==> self-tests"
cargo test --offline --manifest-path "$manifest"

echo "==> smoke: every workload untraced"
cargo run --release --offline -q --manifest-path "$manifest" -- run --seconds 1

echo "==> smoke: every workload traced (twin checks)"
cargo run --release --offline -q --manifest-path "$manifest" -- run --trace 1 --seconds 1

echo "==> the runs left the tree as they found it"
tree_after=$(git status --porcelain)
if [ "$tree_before" != "$tree_after" ]; then
    echo "benchmark runs changed the tree:" >&2
    printf '%s\n' "$tree_after" >&2
    exit 1
fi

echo "benchmark CI green."

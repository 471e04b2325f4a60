#!/bin/sh
# Repository CI gate: formatting, lints, the full test suite, the CLI
# smokes and the host benchmark's own gate.
# Everything runs offline; the workspace has no network dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --examples"
cargo build --workspace --examples --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> fault-campaign smoke (deterministic)"
cargo run -q -p neve-cli --offline --bin neve -- faults --smoke

echo "==> fuzz-campaign smoke (snapshot/restore + oracle stack, double-run byte-identity)"
cargo run -q -p neve-cli --offline --bin neve -- fuzz --smoke

echo "==> fuzz corpus hygiene (every persisted reproducer must be minimized)"
if grep -rl '"minimized": false' results/fuzz_corpus/ 2>/dev/null; then
    echo "unminimized reproducer(s) left in results/fuzz_corpus/ (listed above)" >&2
    exit 1
fi

echo "==> default fuzz campaign (one reproducer per finding; the tracked corpus stays clean)"
cargo run -q -p neve-cli --offline --bin neve -- fuzz > /dev/null
corpus_changes=$(git status --porcelain -- results/fuzz_corpus)
if [ -n "$corpus_changes" ]; then
    printf '%s\n' "$corpus_changes" >&2
    echo "neve fuzz changed results/fuzz_corpus/ (listed above)" >&2
    exit 1
fi

echo "==> exports (matrix file + tracked exports, pinned digests)"
# `neve export` is the one CLI writer of results/micro_matrix.json; it
# runs before any step that hashes that file. The matrix file is
# gitignored, so its digest is pinned here (and in the host benchmark)
# and re-recording it cannot pass CI. The two other exports are
# tracked, and must regenerate byte for byte.
cargo run -q -p neve-cli --offline --release --bin neve -- export > /dev/null
printf '%s\n' \
    "772e5f96051d56c2b2c68cd7dfc77a30  results/micro_matrix.json" \
    "38cb04e2fa5d7403675fd323f9cf5796  results/neve_results.json" \
    "d23969bf912ef84cb54296498f2c4b5c  results/figure2.csv" \
    | md5sum -c --quiet - || {
    echo "neve export does not reproduce the pinned results/ digests" >&2
    exit 1
}

echo "==> correctness oracles (differential + engine lockstep + trap algebra + golden tables)"
cargo run -q -p neve-cli --offline --bin neve -- check --smoke

echo "==> consolidation smoke (event-wheel tick rig, double-run + --jobs byte-identity)"
micro_md5_before=$(md5sum results/micro_matrix.json)
cargo run -q -p neve-cli --offline --bin neve -- consolidate --smoke
echo "$micro_md5_before" | md5sum -c --quiet - || {
    echo "results/micro_matrix.json changed under the consolidation rig" >&2
    exit 1
}

echo "==> pinned digest (full consolidation table)"
cargo run -q -p neve-cli --offline --release --bin neve -- consolidate > /dev/null
echo "56390e53c0101ecdfa45f5a068a7d5fb  results/consolidate.json" | md5sum -c --quiet - || {
    echo "results/consolidate.json does not match its pinned digest" >&2
    exit 1
}

echo "==> serve smoke (coalescing + matrix byte-identity + budget containment)"
micro_md5_before=$(md5sum results/micro_matrix.json)
cargo run -q -p neve-cli --offline --release --bin neve -- serve --smoke
# A live two-request session: the second identical request must be
# served entirely from the store (never re-measured), and the full grid
# must stream from the matrix file `neve export` wrote.
serve_log=$(printf '%s\n' \
    '{"id":"a","configs":["vm","x86-vm"],"benches":["hypercall","eoi"]}' \
    '{"id":"b","configs":["vm","x86-vm"],"benches":["hypercall","eoi"]}' \
    '{"id":"g"}' \
    | cargo run -q -p neve-cli --offline --release --bin neve -- serve --jobs 2)
if printf '%s\n' "$serve_log" | grep '"id":"b"' | grep -q '"source":"measured"'; then
    echo "serve: the second identical request re-measured a coalesced cell" >&2
    exit 1
fi
disk_cells=$(printf '%s\n' "$serve_log" | grep -c '"source":"disk"') || disk_cells=0
if [ "$disk_cells" -ne 28 ]; then
    echo "serve: full-grid request streamed $disk_cells disk cells, expected 28" >&2
    exit 1
fi
echo "$micro_md5_before" | md5sum -c --quiet - || {
    echo "results/micro_matrix.json changed under the serve engine" >&2
    exit 1
}

echo "==> throughput smoke (matrix byte-identity + steps/sec)"
cargo run -q -p neve-cli --offline --release --bin neve -- bench-sim --smoke

echo "==> throughput regression guard (fresh vs recorded, >20% fails)"
cargo run -q -p neve-cli --offline --release --bin neve -- bench-sim --guard --samples 5

echo "==> host benchmark (build, self-tests, traced and untraced smoke)"
sh benchmark/ci.sh

echo "CI green."

#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. See bench/README.md.
#
#   bench/run.sh [--seed N] [--seconds S] [--smoke] [--repeat N]
#       every workload, untraced then traced, each in a fresh process;
#       prints `workload metric unit value` lines, writes bench/out/latest.json
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last line is the result object
#
# Exits non-zero when the build fails or a correctness check does.
set -euo pipefail

# Run from the repository root so that a relative CARGO_TARGET_DIR and the
# benchmark's own bench/out resolve the same way wherever this is called from.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --manifest-path bench/Cargo.toml >&2

PWS_BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
PWS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)" \
    exec "$target/release/pws-e2e-bench" "$@"

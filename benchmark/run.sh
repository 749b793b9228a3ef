#!/usr/bin/env bash
# Build the benchmark and run it. Every argument goes through to the binary:
#   bash benchmark/run.sh --workload cold10k --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh                     # all workloads, plain + traced
#   bash benchmark/run.sh --repeat 10         # repeatability table
# (--workload, --seed, --seconds, --trace, --quick, --out, --repeat, --compare)
set -euo pipefail

# Run from the repository root: the repository's .cargo/config.toml (native
# CPU flags) applies to the build, and benchmark/out is where output goes.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One pool thread per rank thread; every other solver or pool switch unset,
# so a stray variable in the caller's shell cannot change what is measured.
for var in $(compgen -v | grep -E '^(PMG_|RAYON_)' || true); do
    unset "$var"
done
export PMG_THREADS=1

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the benchmark's output.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/benchmark" "$@"

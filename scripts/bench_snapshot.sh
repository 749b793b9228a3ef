#!/usr/bin/env bash
# Perf snapshot of the hot kernels: runs the criterion kernel + solve
# microbenches (quick mode by default) and the bench_snapshot binary, which
# writes BENCH_PR8.json with spmv/rap/assemble timings, the cold-vs-planned
# speedups, the multi-vector (SpMM / batched matrix-free) kernel timings at
# k = 1/4/8 with per-vector speedups, the fine-operator A/B (assembled
# CSR/BSR3 bytes vs the batched element-kernel matrix-free operator,
# memory ratio + per-apply times + the apply_ratio headline), the
# 1-thread-vs-pool thread-scaling section (marked degenerate on 1-core
# hosts), the plan/pattern reuse counters, the comm section comparing the
# same spheres solve over simulated ranks, 2 threaded ranks (in-process
# transport), and 2 socket ranks (separate processes under pmg-launch)
# with real measured message counts and per-phase wait times, the
# overlap section running the threaded and socket solves A/B with the
# comm/compute overlap off vs on (blocked halo wait, hidden window,
# interior/boundary row split, equal allreduce counts), and the setup
# weak-scaling section: plan_ingest -> RankHierarchy::build_from_shards
# over 1/2/4 threaded ranks at ~40k dofs per rank with per-phase times and
# weak-scaling efficiencies (marked degenerate on 1-core hosts). The meta
# block records the pool size, git SHA, and host core count so snapshots
# are comparable across machines.
#
# Knobs:
#   PMG_THREADS          pool size for the thread-scaling section
#                        (default 4 so snapshots are comparable; the host
#                        core count is recorded in meta.host_cores)
#   CRITERION_SAMPLE_MS  per-benchmark criterion budget (default 50 here)
#   PMG_BENCH_MS         per-measurement budget in bench_snapshot (ms)
#   PMG_BENCH_K          spheres ladder point (default 0 = tiny)
#   PMG_BENCH_SETUP_DOF  target dofs per rank in the setup weak-scaling
#                        section (default 40000; CI uses a small value)
#   PMG_BENCH_OUT        snapshot path (default BENCH_PR8.json)
#   PMG_SERVE_BENCH_OUT  serve-section snapshot path (default BENCH_PR9.json)
#   PMG_MEM_BENCH_OUT    memory-scaling snapshot path (default BENCH_PR10.json)
#   PMG_MEM_DOF          target dofs per rank in the memory-scaling
#                        section (default 40000; CI uses a small value)
#   PMG_SERVE_BENCH_REQUESTS
#                        requests per concurrency level in the serve
#                        saturation sweep (default 16)
#   PMG_BENCH_ASSERT_SERVE=1
#                        turn on just the (deterministic) serve floors:
#                        warm-cache hits skip setup, daemon answers are
#                        bitwise the offline solves, hit rate >= 0.9
#   PMG_BENCH_ASSERT_MEM=1
#                        turn on just the (deterministic) memory-scaling
#                        floors without the timing-sensitive PR8 ones
#   PMG_BENCH_ASSERT=1   fail unless planned RAP and pattern-reuse assembly
#                        are >= 1.5x their cold baselines, the matrix-free
#                        fine operator is >= 2x smaller than the assembled
#                        matrix, its apply is <= 2x the BSR3 apply
#                        (apply_ratio), the k = 4 matrix-free
#                        multi-apply is >= 1.3x faster per vector than
#                        four single applies, and (memory-scaling floors,
#                        deterministic byte counts) the p = 4 owned coarse
#                        share is <= 0.6x the replicated baseline with
#                        per-rank fine bytes/row within 1.5x of p = 1
set -euo pipefail
cd "$(dirname "$0")/.."

export CRITERION_SAMPLE_MS="${CRITERION_SAMPLE_MS:-50}"
export PMG_THREADS="${PMG_THREADS:-4}"

echo "== criterion kernel benches (CRITERION_SAMPLE_MS=$CRITERION_SAMPLE_MS) =="
cargo bench --offline -p pmg-bench --bench kernels

echo
echo "== criterion solve benches =="
cargo bench --offline -p pmg-bench --bench solve

echo
echo "== bench_snapshot (PMG_THREADS=$PMG_THREADS) -> ${PMG_BENCH_OUT:-BENCH_PR8.json} =="
# The socket data point launches a sibling spheres_rank binary; build it
# first so bench_snapshot finds it next to itself in target/release.
cargo build --release --offline --bin spheres_rank
cargo run --release --offline -p pmg-bench --bin bench_snapshot

echo
echo "== pmg-serve saturation (in-process daemon) -> ${PMG_SERVE_BENCH_OUT:-BENCH_PR9.json} =="
# Warm-hierarchy daemon bench: spawns an in-process pmg-serve on a
# private Unix socket, warms the spheres hierarchy once, then sweeps
# offered concurrency 1/2/4/8/16 with closed-loop clients. Records
# client-observed latency percentiles, throughput, busy rejections, the
# batch-size histogram, and the cache hit rate into BENCH_PR9.json.
# PMG_BENCH_ASSERT_SERVE=1 (or PMG_BENCH_ASSERT=1) turns on the serve
# floors, which are deterministic even on noisy hosts: warm-cache
# requests report setup_s == 0 (hits skip setup entirely), every daemon
# answer is bitwise the offline solve, and the single-spec sweep hits
# the warm cache on >= 90% of batches.
cargo build --release --offline --bin pmg_bench_client
PMG_BENCH_OUT="${PMG_SERVE_BENCH_OUT:-BENCH_PR9.json}" \
PMG_BENCH_ASSERT="${PMG_BENCH_ASSERT_SERVE:-${PMG_BENCH_ASSERT:-}}" \
  target/release/pmg_bench_client --requests "${PMG_SERVE_BENCH_REQUESTS:-16}"

echo
echo "== memory scaling (partition-at-ingest) -> ${PMG_MEM_BENCH_OUT:-BENCH_PR10.json} =="
# Weak-scales the sharded-ingest setup over 1/2/4 in-process ranks at a
# fixed per-rank problem size and records the per-rank resident operator
# bytes per level. The headline numbers: the worst rank's owned
# coarse-level share vs the replicated baseline (what every rank held
# before coarse levels were demoted to owned shares), and the per-rank
# fine bytes per owned row, which stays ~flat when ingest ships each rank
# only its own share. Both are deterministic byte counts, so the
# PMG_BENCH_ASSERT floors hold even on noisy hosts.
PMG_BENCH_OUT="${PMG_MEM_BENCH_OUT:-BENCH_PR10.json}" \
PMG_BENCH_ASSERT="${PMG_BENCH_ASSERT_MEM:-${PMG_BENCH_ASSERT:-}}" \
  cargo run --release --offline -p pmg-bench --bin mem_snapshot

echo
echo "done; snapshots in ${PMG_BENCH_OUT:-BENCH_PR8.json}, ${PMG_SERVE_BENCH_OUT:-BENCH_PR9.json}, and ${PMG_MEM_BENCH_OUT:-BENCH_PR10.json}"

#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation in one go.
# Ladder depth: PMG_MAX_K (default 2 ≈ seconds-to-minutes; 3 adds a ~420k
# dof point; 4 a ~1M dof point). Output goes to stdout; tee it somewhere.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo
  echo "================================================================"
  echo "== $*"
  echo "================================================================"
  cargo run --release -p pmg-bench --bin "$@"
}

export PMG_MAX_K="${PMG_MAX_K:-2}"

run table1
run fig9_problem
run table2_iterations
run fig10_times
run fig11_efficiency
run fig12_components
run fig7_grids
run fig13_nonlinear 1
run mis_ordering_study
run thin_body_ablation
run ordering_ablation
run smoother_ablation
run smoother_ablation 10k
run face_tol_study
run coarse_size_study

echo
echo "all artifacts regenerated (ladder depth PMG_MAX_K=$PMG_MAX_K)"

//! The symbolic/numeric split, observed end-to-end through telemetry:
//! after a hierarchy is built and a first Newton-style operator update has
//! happened, a second re-assembly + `update_operator` round on the same
//! sparsity pattern must perform **zero** symbolic work — no new RAP plan
//! builds, no new assembly pattern builds, no new smoother block
//! partitions, no redistribution of a level operator — while the
//! plan-reuse and pattern-reuse counters keep climbing, and every level
//! operator refreshed in place is the one a cold distribution would have
//! built. A third round on a *changed* pattern must say so and rebuild.
//! The planned Galerkin products are
//! also checked numerically, level by level, against the unplanned
//! `CsrMatrix::rap` reference.
//!
//! The pattern checks are counted too: every sparsity pattern is hashed
//! once in its matrix's life (`pattern/hashed_entries`), so a one-rank
//! update hashes the caller's operator and nothing else, and an operator
//! whose pattern moved is still caught by each consumer.
//!
//! Telemetry is process-global, so these tests live in their own
//! integration-test binary and take turns.

use pmg_bench::{spheres_first_solve, FirstSolveSystem};
use pmg_fem::bc::constrain_system;
use pmg_parallel::{DistMatrix, DistVec, MachineModel, Sim};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{MgHierarchy, MgOptions, Prometheus, PrometheusOptions};
use std::sync::{Mutex, MutexGuard};

fn counter(report: &pmg_telemetry::Report, name: &str) -> u64 {
    report.counters.get(name).copied().unwrap_or(0)
}

/// One test at a time: each resets and reads the process-global counters.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn second_update_round_is_numeric_only() {
    let _turn = one_at_a_time();
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);

    let mut sys = spheres_first_solve(0);
    let ndof = sys.mesh.num_dof();
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    let nlevels = solver.mg.num_levels();
    assert!(nlevels >= 2, "need a real hierarchy, got {nlevels} levels");

    let fixed: Vec<(u32, f64)> = sys
        .problem
        .bcs_for_step(1, 10)
        .iter()
        .map(|b| (b.dof, b.value))
        .collect();
    // Two Newton-style rounds: re-assemble the tangent at a new (value-only)
    // displacement state and push it through the hierarchy.
    let mut round = |amplitude: f64, solver: &mut Prometheus| {
        let u: Vec<f64> = (0..ndof)
            .map(|i| amplitude * ((i * 7 % 13) as f64 / 13.0 - 0.5))
            .collect();
        let (k, r) = sys.problem.fem.assemble(&u);
        let (kc, _) = constrain_system(&k, &r, &fixed);
        solver.update_matrix(&kc);
        kc
    };

    let c0 = pmg_telemetry::snapshot();
    let _k1 = round(1e-4, &mut solver);
    let c1 = pmg_telemetry::snapshot();
    let k2 = round(2e-4, &mut solver);
    let c2 = pmg_telemetry::snapshot();

    // Every level operator was refreshed in place — values only, once per
    // level per update — and is what a cold distribution of the same level
    // operator builds, entry for entry and in SpMV bits.
    for (before, after) in [(&c0, &c1), (&c1, &c2)] {
        let per_update = |name| counter(after, name) - counter(before, name);
        assert_eq!(per_update("distribute/refresh"), nlevels as u64);
        assert_eq!(per_update("distribute/rebuild"), 0);
    }
    assert_levels_are_cold_distributions(&mut solver, &k2);

    // Round 2 did real work...
    assert!(
        counter(&c2, "rap/plan_reuse") > counter(&c1, "rap/plan_reuse"),
        "round 2 executed no RAP plans: {:?}",
        c2.counters
    );
    assert!(
        counter(&c2, "assembly/pattern_reuse") > counter(&c1, "assembly/pattern_reuse"),
        "round 2 assembled nothing: {:?}",
        c2.counters
    );
    // ...but none of it symbolic: no RAP plan rebuilt, no sparsity/scatter
    // map rebuilt.
    assert_eq!(
        counter(&c2, "rap/plan_build"),
        counter(&c1, "rap/plan_build"),
        "round 2 rebuilt a RAP plan"
    );
    assert_eq!(
        counter(&c2, "assembly/pattern_build"),
        counter(&c1, "assembly/pattern_build"),
        "round 2 rebuilt the assembly pattern"
    );
    // The hierarchy was built with collection on, so the build itself is
    // accounted: one plan per non-coarsest level, built exactly once.
    assert_eq!(counter(&c2, "rap/plan_build"), (nlevels - 1) as u64);
    // Every one of them recognized its `R_v ⊗ I₃` restriction and runs in
    // 3×3 vertex tiles; a silent fall-back to scalars would show here.
    assert_eq!(counter(&c2, "rap/block_plans"), (nlevels - 1) as u64);

    // The smoother has the same split: its block partition is planned once
    // per rank per level at build, and every update refactors the planned
    // blocks without touching the graph or the partitioner.
    let rank_levels = 2 * nlevels as u64;
    assert_eq!(counter(&c2, "smoother/plan_build"), rank_levels);
    assert_eq!(counter(&c1, "smoother/plan_reuse"), rank_levels);
    assert_eq!(counter(&c2, "smoother/plan_reuse"), 2 * rank_levels);
    // Every block of an SPD operator takes the Cholesky path; a fallback to
    // LU or to the inverse diagonal would show here.
    assert!(counter(&c2, "smoother/blocks_chol") > 0);
    assert_eq!(counter(&c2, "smoother/blocks_lu"), 0);
    assert_eq!(counter(&c2, "smoother/blocks_diag"), 0);

    // Numeric check: every planned coarse operator matches the unplanned
    // triple product to 1e-12, level by level.
    let mut cur = k2.clone();
    for lvl in 0..nlevels - 1 {
        let r = solver.mg.levels[lvl]
            .r_global
            .as_ref()
            .expect("non-coarsest level keeps R");
        let reference = cur.rap(r);
        let planned = solver.mg.levels[lvl + 1].a.to_global();
        assert_eq!(planned.nrows(), reference.nrows(), "level {lvl}");
        let scale = reference
            .iter()
            .fold(0.0f64, |m, (_, _, v)| m.max(v.abs()))
            .max(1.0);
        for (i, j, v) in reference.iter() {
            let p = planned.get(i, j);
            assert!(
                (p - v).abs() <= 1e-12 * scale,
                "level {}: entry ({i},{j}) planned {p} vs rap {v}",
                lvl + 1
            );
        }
        cur = reference;
    }

    // One more stored entry (an explicit zero, both triangles): level 0's
    // pattern is not the distributed one any more, which is rebuilt and
    // counted; nothing else about the update changes.
    let k3 = {
        let (i, j) = (0..ndof)
            .map(|j| (ndof - 1, j))
            .find(|&(i, j)| k2.row(i).0.binary_search(&j).is_err())
            .expect("the last row is not dense");
        let mut b = CooBuilder::new(ndof, ndof);
        k2.iter().for_each(|(i, j, v)| b.push(i, j, v));
        b.push(i, j, 0.0);
        b.push(j, i, 0.0);
        b.build()
    };
    solver.update_matrix(&k3);
    let c3 = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    let rebuilt = counter(&c3, "distribute/rebuild");
    assert!(rebuilt >= 1, "a changed fine pattern was not redistributed");
    assert_eq!(
        counter(&c3, "distribute/refresh") - counter(&c2, "distribute/refresh") + rebuilt,
        nlevels as u64
    );
    assert_levels_are_cold_distributions(&mut solver, &k3);
}

/// Level by level down the cached Galerkin plans from `fine`: the
/// hierarchy's operator is bitwise the cold distribution of that level's
/// global operator, in its entries and in a product.
fn assert_levels_are_cold_distributions(solver: &mut Prometheus, fine: &CsrMatrix) {
    let mut sim = Sim::new(2, MachineModel::default());
    let mut cur = fine.clone();
    for (lvl, level) in solver.mg.levels.iter_mut().enumerate() {
        let layout = level.a.row_layout().clone();
        let cold = DistMatrix::from_global_blocked(&cur, layout.clone(), layout.clone());
        assert_eq!(level.a.bsr3_routed(), cold.bsr3_routed(), "level {lvl}");
        assert_eq!(level.a.to_global(), cold.to_global(), "level {lvl}");
        assert_eq!(level.a.to_global(), cur, "level {lvl}");
        let x: Vec<f64> = (0..cur.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let dx = DistVec::from_global(layout.clone(), &x);
        let product = |a: &DistMatrix, sim: &mut Sim| -> Vec<u64> {
            let mut y = DistVec::zeros(layout.clone());
            a.spmv(sim, &dx, &mut y);
            y.to_global().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            product(&level.a, &mut sim),
            product(&cold, &mut sim),
            "level {lvl}"
        );
        match level.rap_plan.as_mut() {
            Some(plan) => cur = plan.execute(&cur),
            None => break,
        }
    }
}

/// `a`'s pattern and values in a matrix that has never been fingerprinted,
/// as a caller's fresh assembly is.
fn fresh(a: &CsrMatrix) -> CsrMatrix {
    CsrMatrix::from_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.vals().to_vec(),
    )
}

/// A cold one-rank hierarchy on the tiny spheres operator, with the
/// `pattern/hashed_entries` its build counted.
fn one_rank_hierarchy(sys: &FirstSolveSystem, sim: &mut Sim) -> (MgHierarchy, u64) {
    let opts = MgOptions {
        coarse_dof_threshold: 200,
        ..Default::default()
    };
    let graph = sys.mesh.vertex_graph();
    let face_tol = PrometheusOptions::default().face_tol;
    let classes = prometheus::classify_mesh_parallel(&sys.mesh, face_tol, 1);
    let a = fresh(&sys.matrix);
    let before = counter(&pmg_telemetry::snapshot(), "pattern/hashed_entries");
    let mg = MgHierarchy::build(sim, &a, &sys.mesh.coords, &graph, &classes, opts);
    let hashed = counter(&pmg_telemetry::snapshot(), "pattern/hashed_entries") - before;
    assert!(mg.num_levels() >= 2, "need a real hierarchy");
    (mg, hashed)
}

#[test]
fn every_pattern_is_hashed_once() {
    let _turn = one_at_a_time();
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    let sys = spheres_first_solve(0);
    let mut sim = Sim::new(1, MachineModel::default());

    // Cold: each level's operator once — the fine one by its Galerkin
    // plan, each coarse one by the plan that produced it; distribution and
    // smoother read what the matrices carry, and R, P are never checked.
    let (mut mg, cold) = one_rank_hierarchy(&sys, &mut sim);
    let level_nnz: u64 = mg.levels.iter().map(|l| l.a.nnz() as u64).sum();
    assert_eq!(cold, level_nnz);

    // A Newton update on the same pattern: the caller's operator once, the
    // Galerkin levels (stamped by their plans) not at all — and every
    // consumer still checked and reused.
    let mut a = fresh(&sys.matrix);
    a.scale(1.5);
    let c0 = pmg_telemetry::snapshot();
    mg.update_operator(&mut sim, &a);
    let c1 = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    let per_update = |name| counter(&c1, name) - counter(&c0, name);
    assert_eq!(per_update("pattern/hashed_entries"), a.nnz() as u64);
    let nlevels = mg.num_levels() as u64;
    assert_eq!(per_update("distribute/refresh"), nlevels);
    assert_eq!(per_update("smoother/plan_reuse"), nlevels);
    assert_eq!(per_update("rap/plan_reuse"), nlevels - 1);
    assert_eq!(per_update("distribute/rebuild"), 0);
    assert_eq!(per_update("smoother/plan_build"), 0);
    assert_eq!(per_update("rap/plan_build"), 0);
}

#[test]
fn a_moved_entry_is_rebuilt_by_every_consumer() {
    let _turn = one_at_a_time();
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);
    let sys = spheres_first_solve(0);
    let mut sim = Sim::new(1, MachineModel::default());
    let (mut mg, _) = one_rank_hierarchy(&sys, &mut sim);

    // Same rows, same nnz: one off-diagonal entry of a middle row moves to
    // a column the row does not have.
    let a = &sys.matrix;
    let i = a.nrows() / 2;
    let (cols, _) = a.row(i);
    let from = *cols.iter().rev().find(|&&j| j != i).expect("a coupling");
    let to = (0..a.ncols())
        .find(|j| cols.binary_search(j).is_err())
        .expect("the row is not dense");
    let mut b = CooBuilder::new(a.nrows(), a.ncols());
    for (r, c, v) in a.iter() {
        b.push(r, if (r, c) == (i, from) { to } else { c }, v);
    }
    let moved = b.build();
    assert_eq!(moved.nnz(), a.nnz());

    let c0 = pmg_telemetry::snapshot();
    mg.update_operator(&mut sim, &moved);
    let c1 = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    let per_update = |name| counter(&c1, name) - counter(&c0, name);
    for name in [
        "distribute/rebuild",
        "smoother/plan_build",
        "rap/plan_build",
    ] {
        assert!(per_update(name) >= 1, "{name} did not see the moved entry");
    }
    let level0 = mg.levels[0].a.to_global();
    assert_eq!(level0, moved);
}

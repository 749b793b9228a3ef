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
//! Telemetry is process-global, so this test lives alone in its own
//! integration-test binary.

use pmg_bench::spheres_first_solve;
use pmg_fem::bc::constrain_system;
use pmg_parallel::{DistMatrix, DistVec, MachineModel, Sim};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn counter(report: &pmg_telemetry::Report, name: &str) -> u64 {
    report.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn second_update_round_is_numeric_only() {
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

//! Fault injection against the SPMD solve: the reliability layer of
//! [`pmg_comm::FaultTransport`] must make the solve *bitwise* insensitive
//! to message delay, duplication, and loss (timeout + retransmit restore
//! per-link FIFO exactly), and a crashed rank must surface a clean
//! [`CommError`] on the surviving ranks instead of a hang.

use pmg_comm::{CommError, FaultConfig, FaultTransport, LocalTransport, Transport};
use pmg_parallel::{MachineModel, Sim};
use pmg_solver::PcgOptions;
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{classify_mesh, solve_threads, spmd_pcg, MgHierarchy, MgOptions, RankHierarchy};
use std::time::Duration;

/// Scalar SPD problem (graph Laplacian + identity) on a hex cube mesh.
fn scalar_problem(n: usize) -> (CsrMatrix, pmg_mesh::Mesh, pmg_partition::Graph) {
    let m = pmg_mesh::generators::cube(n);
    let g = m.vertex_graph();
    let nv = m.num_vertices();
    let mut b = CooBuilder::new(nv, nv);
    for v in 0..nv {
        b.push(v, v, g.degree(v) as f64 + 1.0);
        for &w in g.neighbors(v) {
            b.push(v, w as usize, -1.0);
        }
    }
    (b.build(), m, g)
}

fn build_hierarchy(nranks: usize) -> (MgHierarchy, CsrMatrix) {
    let (a, mesh, g) = scalar_problem(7);
    let classes = classify_mesh(&mesh, 0.7);
    let mut sim = Sim::new(nranks, MachineModel::default());
    let opts = MgOptions {
        dofs_per_vertex: 1,
        coarse_dof_threshold: 60,
        ..Default::default()
    };
    let mg = MgHierarchy::build(&mut sim, &a, &mesh.coords, &g, &classes, opts);
    (mg, a)
}

#[test]
fn solve_is_bitwise_exact_under_injected_faults() {
    let nranks = 2;
    let (mg, a) = build_hierarchy(nranks);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
    let opts = PcgOptions {
        rtol: 1e-8,
        max_iters: 60,
        ..Default::default()
    };

    // Clean reference over the in-process transport.
    let clean = solve_threads(&mg, &b, opts, true).unwrap();
    assert!(clean.result.converged);

    // Same solve with 1% of messages delayed, 1% duplicated, and 1%
    // dropped (recovered by timeout + retransmission).
    let layout = mg.levels[0].a.row_layout().clone();
    let cfg = FaultConfig {
        delay_prob: 0.01,
        dup_prob: 0.01,
        drop_prob: 0.01,
        delay: Duration::from_micros(500),
        timeout: Duration::from_millis(50),
        ..Default::default()
    };
    let (mg_ref, b_ref, l_ref) = (&mg, &b, &layout);
    let per_rank = LocalTransport::run_ranks(nranks, move |inner| {
        let mut t = FaultTransport::wrap(inner, cfg.clone());
        let rank = t.rank();
        let h = RankHierarchy::extract(mg_ref, rank);
        let bl: Vec<f64> = l_ref
            .owned(rank)
            .iter()
            .map(|&g| b_ref[g as usize])
            .collect();
        let mut xl = vec![0.0; bl.len()];
        let (res, _) = spmd_pcg(&mut t, &h, &bl, &mut xl, opts)?;
        Ok::<_, CommError>((xl, res, t.stats()))
    });

    let mut retries = 0u64;
    for (rank, out) in per_rank.into_iter().enumerate() {
        let (xl, res, stats) = out.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(res.iterations, clean.result.iterations, "rank {rank}");
        for (got, want) in res.residuals.iter().zip(&clean.result.residuals) {
            assert_eq!(got.to_bits(), want.to_bits(), "rank {rank} residuals");
        }
        for (&g, &v) in layout.owned(rank).iter().zip(&xl) {
            assert_eq!(
                v.to_bits(),
                clean.x[g as usize].to_bits(),
                "rank {rank} solution"
            );
        }
        retries += stats.retries;
    }
    // The drop injection really exercised the retransmission path.
    assert!(retries > 0, "expected injected drops to force retries");
}

#[test]
fn crashed_rank_surfaces_clean_error_not_hang() {
    let nranks = 2;
    let (mg, a) = build_hierarchy(nranks);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    let layout = mg.levels[0].a.row_layout().clone();
    let opts = PcgOptions {
        rtol: 1e-8,
        max_iters: 60,
        ..Default::default()
    };

    let (mg_ref, b_ref, l_ref) = (&mg, &b, &layout);
    let per_rank = LocalTransport::run_ranks(nranks, move |inner| {
        let rank = inner.rank();
        let cfg = FaultConfig {
            timeout: Duration::from_millis(20),
            max_retries: 2,
            // Rank 1 goes silent after a handful of sends, mid-solve.
            crash_after: (rank == 1).then_some(5),
            ..Default::default()
        };
        let mut t = FaultTransport::wrap(inner, cfg);
        let h = RankHierarchy::extract(mg_ref, rank);
        let bl: Vec<f64> = l_ref
            .owned(rank)
            .iter()
            .map(|&g| b_ref[g as usize])
            .collect();
        let mut xl = vec![0.0; bl.len()];
        spmd_pcg(&mut t, &h, &bl, &mut xl, opts).map(|(res, _)| res)
    });

    // The surviving rank gets a typed error (and the test returning at all
    // proves nothing hung).
    let err = per_rank[0].as_ref().expect_err("rank 0 must fail cleanly");
    assert!(
        matches!(
            err,
            CommError::RetriesExhausted { .. } | CommError::Timeout { .. }
        ),
        "unexpected error kind: {err}"
    );
}

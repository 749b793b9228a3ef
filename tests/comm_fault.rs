//! Fault injection against the SPMD set-up and solve: the reliability
//! layer of [`pmg_comm::FaultTransport`] must make `build_from_shards` and
//! the solve after it *bitwise* insensitive to message delay, duplication,
//! and loss (timeout + retransmit restore per-link FIFO exactly), and a
//! rank that crashes in either phase must surface a clean [`CommError`] on
//! the surviving rank instead of a hang.

use pmg_comm::{CommError, CommStats, FaultConfig, FaultTransport, LocalTransport, Transport};
use pmg_parallel::Layout;
use pmg_solver::{PcgOptions, PcgResult};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{classify_mesh, plan_ingest, spmd_pcg, IngestPlan, MgOptions, RankHierarchy};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NRANKS: usize = 2;

/// A scalar SPD problem (graph Laplacian + identity) on a hex cube mesh,
/// planned for sharded set-up over [`NRANKS`] ranks.
struct Problem {
    a: CsrMatrix,
    b: Vec<f64>,
    plan: IngestPlan,
    layout: Arc<Layout>,
    opts: MgOptions,
}

/// What one rank's set-up and solve produced.
struct RankRun {
    x_local: Vec<f64>,
    result: PcgResult,
    /// Traffic of the set-up alone.
    setup: CommStats,
    /// Traffic of set-up and solve.
    total: CommStats,
}

impl Problem {
    fn new() -> Problem {
        let mesh = pmg_mesh::generators::cube(7);
        let g = mesh.vertex_graph();
        let nv = mesh.num_vertices();
        let mut a = CooBuilder::new(nv, nv);
        for v in 0..nv {
            a.push(v, v, g.degree(v) as f64 + 1.0);
            for &w in g.neighbors(v) {
                a.push(v, w as usize, -1.0);
            }
        }
        let opts = MgOptions {
            dofs_per_vertex: 1,
            coarse_dof_threshold: 60,
            ..Default::default()
        };
        let classes = classify_mesh(&mesh, 0.7);
        let plan = plan_ingest(&mesh.coords, &g, &classes, &[], NRANKS, &opts);
        Problem {
            a: a.build(),
            b: (0..nv).map(|i| (i as f64 * 0.23).sin()).collect(),
            layout: Layout::from_part(plan.part().to_vec(), NRANKS),
            plan,
            opts,
        }
    }

    /// One rank's sharded set-up and solve over `t`.
    fn run_rank<T: Transport>(&self, t: &mut T) -> Result<RankRun, CommError> {
        let rank = t.rank();
        let owned = self.layout.owned(rank);
        let a_owned = self.a.extract_rows(owned);
        let setup =
            RankHierarchy::build_from_shards(t, &self.plan.seeds[rank], &a_owned, self.opts)?;
        let setup_stats = t.stats();
        let b_local: Vec<f64> = owned.iter().map(|&g| self.b[g as usize]).collect();
        let mut x_local = vec![0.0; b_local.len()];
        let opts = PcgOptions {
            rtol: 1e-8,
            max_iters: 60,
            ..Default::default()
        };
        let (result, _) = spmd_pcg(t, &setup.rank_hierarchy(), &b_local, &mut x_local, opts)?;
        Ok(RankRun {
            x_local,
            result,
            setup: setup_stats,
            total: t.stats(),
        })
    }

    /// Every rank's set-up and solve over the in-process transport.
    fn run_clean(&self) -> Vec<Result<RankRun, CommError>> {
        LocalTransport::run_ranks(NRANKS, |mut t| self.run_rank(&mut t))
    }

    /// Every rank's set-up and solve over a fault transport configured for
    /// that rank by `cfg`.
    fn run_faulty(
        &self,
        cfg: impl Fn(usize) -> FaultConfig + Sync,
    ) -> Vec<Result<RankRun, CommError>> {
        LocalTransport::run_ranks(NRANKS, |inner| {
            let rank = inner.rank();
            self.run_rank(&mut FaultTransport::wrap(inner, cfg(rank)))
        })
    }
}

/// Run `case` on a thread of its own and fail if it has not returned within
/// 30 s: a hang fails the test instead of stalling the suite.
fn under_watchdog<R: Send + 'static>(case: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(case()));
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(r) => {
            let sent = worker.join().expect("the case returned");
            sent.expect("its outcome was received");
            r
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no outcome within 30 s: a hang"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the case panicked"))
        }
    }
}

#[test]
fn solve_is_bitwise_exact_under_injected_faults() {
    under_watchdog(|| {
        let problem = Problem::new();
        let clean = problem.run_clean();

        // Set-up and solve with 1% of messages delayed, 1% duplicated, and
        // 1% dropped (recovered by timeout + retransmission).
        let faulty = problem.run_faulty(|_| FaultConfig {
            delay_prob: 0.01,
            dup_prob: 0.01,
            drop_prob: 0.01,
            delay: Duration::from_micros(500),
            timeout: Duration::from_millis(50),
            ..Default::default()
        });

        let mut retries = 0u64;
        for (rank, (clean, faulty)) in clean.into_iter().zip(faulty).enumerate() {
            let want = clean.unwrap_or_else(|e| panic!("clean rank {rank}: {e}"));
            let got = faulty.unwrap_or_else(|e| panic!("faulty rank {rank}: {e}"));
            assert!(want.result.converged, "rank {rank}");
            assert_eq!(got.result.iterations, want.result.iterations, "rank {rank}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got.result.residuals),
                bits(&want.result.residuals),
                "rank {rank} residuals"
            );
            assert_eq!(
                bits(&got.x_local),
                bits(&want.x_local),
                "rank {rank} solution"
            );
            retries += got.total.retries;
        }
        // The drop injection really exercised the retransmission path.
        assert!(retries > 0, "expected injected drops to force retries");
    });
}

#[test]
fn crashed_rank_surfaces_clean_error_not_hang() {
    // How many messages rank 1 sends in a clean set-up.
    let setup_sends = under_watchdog(|| {
        let run = Problem::new().run_clean().swap_remove(1);
        run.expect("clean run").setup.msgs
    });
    assert!(setup_sends >= 2, "set-up sent {setup_sends} messages");

    // Rank 1 goes silent halfway through its set-up, or a handful of sends
    // into the solve. The survivor gets a typed error either way (and the
    // watchdog proves nothing hung).
    for (phase, crash_after) in [("set-up", setup_sends / 2), ("solve", setup_sends + 5)] {
        let survivor = under_watchdog(move || {
            let problem = Problem::new();
            let runs = problem.run_faulty(|rank| FaultConfig {
                timeout: Duration::from_millis(20),
                max_retries: 2,
                crash_after: (rank == 1).then_some(crash_after),
                ..Default::default()
            });
            runs.into_iter()
                .next()
                .expect("rank 0")
                .map(|run| run.result)
        });
        let err = survivor.expect_err("rank 0 must fail cleanly");
        assert!(
            matches!(
                err,
                CommError::RetriesExhausted { .. } | CommError::Timeout { .. }
            ),
            "crash in the {phase}: unexpected error kind: {err}"
        );
    }
}

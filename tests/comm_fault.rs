//! The faults a real run can meet, injected into the SPMD set-up and solve.
//!
//! Both transports deliver every message once and in per-peer order, as
//! MPI does, so what a run can meet is scheduling delay, a rank that dies
//! or stalls, and a malformed payload. [`Faulty`] wraps any [`Transport`]
//! endpoint and injects exactly one of those. Under delay,
//! `build_from_shards` and the solve after it must be bitwise the clean
//! run. Under a crash, a stall or a corrupted payload, every rank must end
//! in a typed [`CommError`] (or finish with the clean run's bits), and the
//! receiver of a corrupted payload in [`CommError::Invalid`]. Every case
//! runs under a 30 s watchdog with [`DEADLINE`] receive deadlines, so a
//! hang fails in seconds instead of stalling the suite.

use pmg_comm::collectives::COLLECTIVE_TAG;
use pmg_comm::{CommError, CommStats, LeReader, LocalTransport, SocketTransport, Transport};
use pmg_parallel::Layout;
use pmg_solver::{PcgOptions, PcgResult};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::{classify_mesh, plan_ingest, spmd_pcg, IngestPlan, MgOptions, RankHierarchy};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NRANKS: usize = 2;

/// Every endpoint's receive deadline in a fault case.
const DEADLINE: Duration = Duration::from_millis(500);

/// What a [`Faulty`] endpoint does wrong. `at` counts the rank's sends
/// from 0, over set-up and solve together.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Nothing: every send passes through (the clean run).
    None,
    /// Sleep a seeded 0–400 µs before every send. Sends leave one at a
    /// time, so each peer still receives them in send order.
    Delay { seed: u64 },
    /// Drop the inner endpoint at send `at`, as a dying process closes its
    /// channels and sockets.
    Crash { at: usize },
    /// Sleep past the peers' receive deadline at send `at`, then fail.
    Stall { at: usize },
    /// Send `at`'s payload corrupted, then carry on.
    Corrupt { at: usize, how: Corruption },
}

#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// One byte short.
    Truncate,
    /// One byte long.
    Append,
    /// The leading count set to `u32::MAX`.
    CountMax,
}

impl Corruption {
    /// Whether `sent` has what this corruption changes: a byte to cut, or
    /// a leading count. The count tried is a pair frame's, the one leading
    /// count the solve's traffic carries (its coarse gather and scatter).
    fn applies(self, sent: &Sent) -> bool {
        match self {
            Corruption::Truncate => !sent.payload.is_empty(),
            Corruption::Append => true,
            Corruption::CountMax => sent.tag == COLLECTIVE_TAG && is_pair_frame(&sent.payload),
        }
    }

    fn apply(self, payload: &[u8]) -> Vec<u8> {
        let mut bad = payload.to_vec();
        match self {
            Corruption::Truncate => {
                bad.pop();
            }
            Corruption::Append => bad.push(0),
            Corruption::CountMax => bad[..4].fill(0xFF),
        }
        bad
    }
}

/// A tree collective's pair frame `[count u32]([rank u32][len u32][bytes])*`
/// with at least one pair.
fn is_pair_frame(payload: &[u8]) -> bool {
    let mut r = LeReader::new(payload);
    let count = r.u32().unwrap_or(0);
    let pairs = (0..count).all(|_| {
        let _rank = r.u32();
        r.u32().and_then(|len| r.bytes(len as usize)).is_some()
    });
    count > 0 && pairs && r.is_empty()
}

/// One send as the rank made it, before any corruption.
struct Sent {
    to: usize,
    tag: u32,
    payload: Vec<u8>,
}

/// An endpoint that injects `fault` into the traffic of `inner` and logs
/// every send.
struct Faulty<T> {
    /// `None` once crashed.
    inner: Option<T>,
    rank: usize,
    size: usize,
    fault: Fault,
    /// SplitMix64 state of the delay draws.
    rng: u64,
    sent: Vec<Sent>,
}

impl<T: Transport> Faulty<T> {
    fn new(inner: T, fault: Fault) -> Faulty<T> {
        Faulty {
            rank: inner.rank(),
            size: inner.size(),
            inner: Some(inner),
            rng: match fault {
                Fault::Delay { seed } => seed,
                _ => 0,
            },
            fault,
            sent: Vec::new(),
        }
    }

    fn inner(&mut self) -> Result<&mut T, CommError> {
        let crashed = || CommError::Io("rank crashed".into());
        self.inner.as_mut().ok_or_else(crashed)
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl<T: Transport> Transport for Faulty<T> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError> {
        let n = self.sent.len();
        self.sent.push(Sent {
            to,
            tag,
            payload: payload.to_vec(),
        });
        match self.fault {
            Fault::None => {}
            Fault::Delay { .. } => {
                let us = self.next_u64() % 401;
                std::thread::sleep(Duration::from_micros(us));
            }
            Fault::Crash { at } if at == n => self.inner = None,
            Fault::Stall { at } if at == n => {
                std::thread::sleep(2 * DEADLINE);
                return Err(CommError::Io("rank stalled".into()));
            }
            Fault::Corrupt { at, how } if at == n => {
                return self.inner()?.send(to, tag, &how.apply(payload));
            }
            Fault::Crash { .. } | Fault::Stall { .. } | Fault::Corrupt { .. } => {}
        }
        self.inner()?.send(to, tag, payload)
    }

    fn recv(&mut self, from: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        self.inner()?.recv(from, tag)
    }

    fn stats(&self) -> CommStats {
        self.inner.as_ref().map(T::stats).unwrap_or_default()
    }

    fn note_allreduce(&mut self) {
        if let Some(t) = self.inner.as_mut() {
            t.note_allreduce();
        }
    }
}

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

/// One rank's run and the sends it made.
struct Outcome {
    run: Result<RankRun, CommError>,
    sent: Vec<Sent>,
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

    /// One rank's run over `inner` with `fault` injected. Returning drops
    /// the endpoint, as a rank's process exits.
    fn run_faulty<T: Transport>(&self, inner: T, fault: Fault) -> Outcome {
        let mut t = Faulty::new(inner, fault);
        let run = self.run_rank(&mut t);
        Outcome { run, sent: t.sent }
    }

    /// Every rank's run over the in-process transport, rank `r` with
    /// `fault(r)` injected.
    fn run_local(&self, fault: impl Fn(usize) -> Fault + Sync) -> Vec<Outcome> {
        LocalTransport::run_ranks(NRANKS, |mut t| {
            t.set_recv_timeout(DEADLINE);
            let rank = t.rank();
            self.run_faulty(t, fault(rank))
        })
    }

    /// Every rank's run over Unix-domain sockets between rank threads,
    /// rendezvousing in a fresh temporary directory named after `case`.
    fn run_sockets(&self, case: &str, fault: impl Fn(usize) -> Fault + Sync) -> Vec<Outcome> {
        let dir = temp_dir(case);
        let (dir_ref, fault) = (&dir, &fault);
        let outcomes = std::thread::scope(|s| {
            let ranks: Vec<_> = (0..NRANKS)
                .map(|rank| {
                    s.spawn(move || {
                        let mut t =
                            SocketTransport::connect(rank, NRANKS, dir_ref).expect("socket wiring");
                        t.set_recv_timeout(DEADLINE);
                        self.run_faulty(t, fault(rank))
                    })
                })
                .collect();
            let joined = ranks.into_iter().map(|h| h.join().expect("rank thread"));
            joined.collect()
        });
        let _ = std::fs::remove_dir_all(&dir);
        outcomes
    }
}

fn temp_dir(case: &str) -> PathBuf {
    let name = format!("pmg-comm-fault-{case}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
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

/// What a rank's solve answered, bit for bit: iterations, solution and
/// residual history.
fn answer(run: &RankRun) -> (usize, Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let res = &run.result;
    (res.iterations, bits(&run.x_local), bits(&res.residuals))
}

/// `fault` on the rank [`FAULTY`], nothing on the others.
fn on_faulty_rank(fault: Fault) -> impl Fn(usize) -> Fault + Sync {
    move |rank| if rank == FAULTY { fault } else { Fault::None }
}

/// The clean run and the sends its faulty rank made. `phases` names each
/// phase with the range of those sends a fault targets in it: from halfway
/// through the set-up to its end, and from the solve's sixth send on.
struct Baseline {
    problem: Problem,
    clean: Vec<RankRun>,
    sent: Vec<Sent>,
    phases: [(&'static str, usize, usize); 2],
}

/// The rank whose endpoint misbehaves.
const FAULTY: usize = 1;

impl Baseline {
    fn new() -> Arc<Baseline> {
        let problem = Problem::new();
        let mut clean = Vec::new();
        let mut sent = Vec::new();
        for (rank, o) in problem.run_local(|_| Fault::None).into_iter().enumerate() {
            clean.push(o.run.unwrap_or_else(|e| panic!("clean rank {rank}: {e}")));
            if rank == FAULTY {
                sent = o.sent;
            }
        }
        let setup_sends = clean[FAULTY].setup.msgs as usize;
        assert!(setup_sends >= 2, "set-up sent {setup_sends} messages");
        assert!(
            sent.len() > setup_sends + 5,
            "the solve sent {}",
            sent.len()
        );
        let phases = [
            ("set-up", setup_sends / 2, setup_sends),
            ("solve", setup_sends + 5, sent.len()),
        ];
        Arc::new(Baseline {
            problem,
            clean,
            sent,
            phases,
        })
    }

    /// The first of the faulty rank's sends in `from..to` that `how` can
    /// corrupt.
    fn corruptible(&self, how: Corruption, from: usize, to: usize) -> usize {
        (from..to)
            .find(|&n| how.applies(&self.sent[n]))
            .unwrap_or_else(|| panic!("no send in {from}..{to} has what {how:?} changes"))
    }

    /// Every rank ended in a typed error or with exactly the clean run's
    /// bits (a panic would have failed the case already).
    fn check_ends(&self, runs: &[Outcome], case: &str) {
        for (rank, (o, want)) in runs.iter().zip(&self.clean).enumerate() {
            if let Ok(got) = &o.run {
                assert_eq!(answer(got), answer(want), "{case}: rank {rank}");
            }
        }
    }
}

/// The error rank `rank` ended in.
fn error_of(runs: &[Outcome], rank: usize, case: &str) -> CommError {
    match &runs[rank].run {
        Ok(_) => panic!("{case}: rank {rank} finished"),
        Err(e) => e.clone(),
    }
}

#[test]
fn solve_is_bitwise_exact_under_injected_faults() {
    // Set-up and solve with every send of every rank delayed by a seeded
    // 0–400 µs: halo windows, collectives and row fetches see jitter, and
    // the results must not.
    under_watchdog(|| {
        let base = Baseline::new();
        let delayed = base.problem.run_local(|rank| Fault::Delay {
            seed: 0x5EED + rank as u64,
        });
        for (rank, (o, want)) in delayed.into_iter().zip(&base.clean).enumerate() {
            let got = o.run.unwrap_or_else(|e| panic!("delayed rank {rank}: {e}"));
            assert!(want.result.converged, "rank {rank}");
            assert_eq!(answer(&got), answer(want), "rank {rank}");
            let traffic = |s: CommStats| (s.msgs, s.bytes, s.allreduces);
            assert_eq!(traffic(got.setup), traffic(want.setup), "rank {rank}");
            assert_eq!(traffic(got.total), traffic(want.total), "rank {rank}");
        }
    });
}

#[test]
fn crashed_rank_surfaces_clean_error_not_hang() {
    // Rank 1 dies, or stalls past its peer's deadline, halfway through its
    // set-up or a handful of sends into the solve. The survivor times out
    // (a channel endpoint outlives its peer's, so nothing closes) or finds
    // the peer gone when it sends.
    let base = under_watchdog(Baseline::new);
    for (phase, at, _) in base.phases {
        for fault in [Fault::Crash { at }, Fault::Stall { at }] {
            let base = Arc::clone(&base);
            under_watchdog(move || {
                let case = format!("{fault:?} in the {phase}");
                let runs = base.problem.run_local(on_faulty_rank(fault));
                base.check_ends(&runs, &case);
                let err = error_of(&runs, 0, &case);
                assert!(
                    matches!(
                        err,
                        CommError::Timeout { peer: 1 } | CommError::Disconnected { peer: 1 }
                    ),
                    "{case}: the survivor's error: {err}"
                );
            });
        }
    }
}

#[test]
fn corrupted_payload_is_invalid_at_its_receiver() {
    // Rank 1 sends one payload a byte short, a byte long, or with its
    // leading count at u32::MAX, in the set-up or in the solve. The rank
    // that decodes it answers Invalid; its peer then times out or finds it
    // gone.
    let base = under_watchdog(Baseline::new);
    let kinds = [
        Corruption::Truncate,
        Corruption::Append,
        Corruption::CountMax,
    ];
    for (phase, from, to) in base.phases {
        for how in kinds {
            let at = base.corruptible(how, from, to);
            let receiver = base.sent[at].to;
            let base = Arc::clone(&base);
            under_watchdog(move || {
                let case = format!("{how:?} at send {at} in the {phase}");
                let fault = Fault::Corrupt { at, how };
                let runs = base.problem.run_local(on_faulty_rank(fault));
                base.check_ends(&runs, &case);
                let err = error_of(&runs, receiver, &case);
                assert!(
                    matches!(err, CommError::Invalid(_)),
                    "{case}: the receiver's error: {err}"
                );
            });
        }
    }
}

#[test]
fn socket_crash_and_truncation_end_in_typed_errors() {
    // The same wrapper over Unix-domain sockets between rank threads. A
    // crashed rank's streams close, so its survivor reads end-of-stream:
    // Disconnected, not the channel transport's Timeout.
    let base = under_watchdog(Baseline::new);
    for (phase, from, to) in base.phases {
        let crash = Fault::Crash { at: from };
        let truncate = Fault::Corrupt {
            at: base.corruptible(Corruption::Truncate, from, to),
            how: Corruption::Truncate,
        };
        for (name, fault) in [("crash", crash), ("truncate", truncate)] {
            let base = Arc::clone(&base);
            under_watchdog(move || {
                let case = format!("{fault:?} in the {phase} over sockets");
                let dir = format!("{name}-{phase}");
                let runs = base.problem.run_sockets(&dir, on_faulty_rank(fault));
                base.check_ends(&runs, &case);
                match fault {
                    Fault::Corrupt { at, .. } => {
                        let err = error_of(&runs, base.sent[at].to, &case);
                        assert!(matches!(err, CommError::Invalid(_)), "{case}: {err}");
                    }
                    _ => {
                        let err = error_of(&runs, 0, &case);
                        let closed = matches!(err, CommError::Disconnected { peer: 1 });
                        assert!(closed, "{case}: the survivor's error: {err}");
                    }
                }
            });
        }
    }
}

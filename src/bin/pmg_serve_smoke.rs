//! `pmg_serve_smoke` — the CI correctness gate for a running `pmg_serve`
//! daemon.
//!
//! Fires 8 concurrent requests across two fingerprints at the daemon,
//! checks every answer **bitwise** against offline in-process solves of
//! the same systems (the same construction path the `spheres_rank` parity
//! artifacts pin), checks the warm cache was hit and that hits report
//! zero set-up, then requests shutdown and confirms the daemon drains.
//! Exits nonzero on any failure. (Timing the daemon is `benchmark/`'s
//! `serve2` workload.)
//!
//! ```text
//! pmg_serve_smoke (--connect-unix PATH | --connect-tcp ADDR)
//! ```

use pmg_serve::{Client, ClientError, ProblemSpec, SolveReply};
use std::time::Duration;

enum Target {
    Unix(String),
    Tcp(String),
}

fn connect(target: &Target) -> std::io::Result<Client> {
    match target {
        Target::Unix(p) => Client::connect_unix(p),
        Target::Tcp(a) => Client::connect_tcp(a),
    }
}

/// Solve, retrying a bounded number of times while admission control
/// pushes back.
fn solve_retry(
    client: &mut Client,
    spec: &ProblemSpec,
    rtol: f64,
    id: &str,
) -> Result<SolveReply, ClientError> {
    for _ in 0..1000 {
        match client.solve_spec(spec, None, rtol, id) {
            Err(ClientError::Busy) => std::thread::sleep(Duration::from_millis(2)),
            other => return other,
        }
    }
    Err(ClientError::Busy)
}

/// The offline oracle: the same system solved in-process through the
/// transport-parity construction (`parity_solver` + `parity_options`),
/// which the repo's consistency tests pin bitwise against the
/// `spheres_rank` socket artifacts. Daemon answers must equal these
/// bits exactly.
fn offline_bits(k: usize, nranks: usize, rtol: f64) -> Vec<f64> {
    let sys = pmg_bench::spheres_first_solve(k);
    let mut solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(nranks));
    let (x, res) = solver.solve(&sys.rhs, None, rtol);
    assert!(res.converged, "offline oracle solve diverged");
    x
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// 8 concurrent requests, two fingerprints, bitwise vs offline,
/// warm-cache hit, graceful drain.
fn smoke(target: &Target) {
    let rtol = pmg_bench::PARITY_RTOL;
    let spec_a = ProblemSpec {
        name: "spheres".into(),
        k: 0,
        nranks: 2,
    };
    let spec_b = ProblemSpec {
        name: "spheres".into(),
        k: 0,
        nranks: 3,
    };
    eprintln!("smoke: computing offline oracle solves");
    let oracle_a = offline_bits(0, 2, rtol);
    let oracle_b = offline_bits(0, 3, rtol);

    // Warm A so the concurrent wave sees at least one guaranteed hit.
    let (fp_a, _, setup_s) = connect(target)
        .expect("connect for warm")
        .warm(&spec_a)
        .expect("warm spec A");
    eprintln!(
        "smoke: warmed {} in {setup_s:.3}s",
        prometheus::fingerprint_hex(fp_a)
    );

    // 8 concurrent requests: 5 on A (one by fingerprint), 3 on B.
    let replies: Vec<(usize, SolveReply)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (spec_a, spec_b) = (&spec_a, &spec_b);
                let target = &target;
                scope.spawn(move || {
                    let mut c = connect(target).expect("connect worker");
                    let id = format!("smoke-{i}");
                    let reply = if i == 4 {
                        // One request addresses the warm hierarchy by
                        // fingerprint instead of by spec.
                        c.solve_fingerprint(fp_a, None, rtol, &id)
                            .expect("fingerprint solve")
                    } else {
                        let spec = if i < 5 { spec_a } else { spec_b };
                        solve_retry(&mut c, spec, rtol, &id).expect("solve")
                    };
                    (i, reply)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut failures = 0;
    for (i, r) in &replies {
        let (oracle, name) = if *i < 5 {
            (&oracle_a, "A")
        } else {
            (&oracle_b, "B")
        };
        if !r.converged {
            eprintln!("FAIL smoke-{i}: did not converge");
            failures += 1;
        }
        if bits_equal(&r.x, oracle) {
            eprintln!(
                "ok   smoke-{i} [{name}] {} iters, breakdown {}, cache {}, bitwise == offline",
                r.iterations,
                r.breakdown,
                if r.cache_hit { "hit" } else { "miss" }
            );
        } else {
            eprintln!("FAIL smoke-{i} [{name}]: solution differs from offline bits");
            failures += 1;
        }
        if r.cache_hit && r.setup_s != 0.0 {
            eprintln!("FAIL smoke-{i}: cache hit but setup_s = {}", r.setup_s);
            failures += 1;
        }
    }

    let stats = connect(target)
        .expect("connect for stats")
        .stats()
        .expect("stats");
    eprintln!(
        "smoke: stats requests={} cache_hit={} cache_miss={} rejected={}",
        stats.requests, stats.cache_hit, stats.cache_miss, stats.rejected
    );
    if stats.cache_hit == 0 {
        eprintln!("FAIL smoke: expected serve/cache_hit > 0 (hierarchy was pre-warmed)");
        failures += 1;
    }
    if stats.requests < 8 {
        eprintln!(
            "FAIL smoke: daemon counted {} requests, expected >= 8",
            stats.requests
        );
        failures += 1;
    }

    // Graceful drain: shutdown must be acknowledged and the listener
    // must actually go away.
    connect(target)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown ack");
    let gone = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(100));
        connect(target).is_err()
    });
    if !gone {
        eprintln!("FAIL smoke: daemon still accepting connections 10s after shutdown");
        failures += 1;
    } else {
        eprintln!("smoke: daemon drained and closed its listeners");
    }

    if failures > 0 {
        eprintln!("smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("smoke: PASS (8 requests, 2 fingerprints, bitwise == offline, graceful drain)");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let target = match (args.next().as_deref(), args.next(), args.next()) {
        (Some("--connect-unix"), Some(path), None) => Target::Unix(path),
        (Some("--connect-tcp"), Some(addr), None) => Target::Tcp(addr),
        _ => {
            eprintln!("usage: pmg_serve_smoke (--connect-unix PATH | --connect-tcp ADDR)");
            std::process::exit(2);
        }
    };
    smoke(&target);
}

//! End-to-end daemon tests: a real server on a real socket, real
//! clients, real solves — exercising the bitwise-transparency
//! invariant, the warm cache, backpressure, disconnect and hostile-input
//! handling, and graceful drain.

#![cfg(unix)]

use pmg_serve::protocol::{parse_response, read_frame, write_frame};
use pmg_serve::{serve, Client, ClientError, ProblemSpec, Response, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

fn sock(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("pmg-daemon-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn spec(nranks: usize) -> ProblemSpec {
    ProblemSpec {
        name: "spheres".into(),
        k: 0,
        nranks,
    }
}

/// The offline oracle the daemon must match bitwise: the same
/// transport-parity construction the `spheres_rank` artifacts pin.
fn offline_bits(k: usize, nranks: usize, rtol: f64) -> Vec<f64> {
    let sys = pmg_bench::spheres_first_solve(k);
    let mut solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(nranks));
    let (x, res) = solver.solve(&sys.rhs, None, rtol);
    assert!(res.converged);
    x
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Concurrent daemon solves are bitwise the offline solves, every one of
/// them a solve of its own, fingerprint routing hits the warm entry, and
/// shutdown drains cleanly.
#[test]
fn concurrent_solves_match_offline_bitwise_and_daemon_drains() {
    let path = sock("e2e");
    let handle = serve(ServeConfig {
        unix_path: Some(path.clone()),
        ..Default::default()
    })
    .expect("start daemon");
    let rtol = pmg_bench::PARITY_RTOL;
    let oracle = offline_bits(0, 2, rtol);

    let mut c = Client::connect_unix(&path).expect("connect");
    let (fp, warm_hit, _) = c.warm(&spec(2)).expect("warm");
    assert!(!warm_hit, "first warm must build");
    let solo = c.solve_spec(&spec(2), None, rtol, "solo").expect("solve");
    assert_eq!(solo.batched, 1);
    assert!(solo.cache_hit, "post-warm solve must hit the cache");
    assert_eq!(solo.setup_s, 0.0, "cache hits skip setup entirely");
    assert!(bits_equal(&solo.x, &oracle));

    // Concurrent requests — spec-addressed and fingerprint-addressed —
    // all return the same bits, each from its own dispatcher turn.
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let path = &path;
                scope.spawn(move || {
                    let mut c = Client::connect_unix(path).expect("connect");
                    let id = format!("par-{i}");
                    if i % 2 == 0 {
                        c.solve_spec(&spec(2), None, rtol, &id).expect("solve")
                    } else {
                        c.solve_fingerprint(fp, None, rtol, &id).expect("solve")
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(r.converged && !r.breakdown);
        assert_eq!(r.batched, 1, "{}: one right-hand side per solve", r.id);
        assert_eq!(r.fingerprint, fp);
        assert!(r.cache_hit && r.setup_s == 0.0, "{}: warm hit", r.id);
        assert!(
            bits_equal(&r.x, &oracle),
            "{}: bits differ from offline",
            r.id
        );
    }

    let stats = c.stats().expect("stats");
    assert!(stats.cache_hit > 0, "warm hierarchy was never hit");
    assert_eq!(stats.cache_miss, 1, "only the first warm may build");
    assert_eq!(stats.requests, 5);

    c.shutdown().expect("shutdown ack");
    handle.wait(); // graceful drain: every thread joins
    assert!(!path.exists(), "drained daemon must remove its socket file");
}

/// A client that dies mid-message (partial frame, then close) costs the
/// daemon nothing: no panic, no wedged solve, no occupied queue slot —
/// just a counted disconnect. A client that dies after submitting but
/// before reading its reply is equally harmless.
#[test]
fn client_killed_mid_request_leaves_daemon_healthy() {
    let path = sock("disconnect");
    let handle = serve(ServeConfig {
        unix_path: Some(path.clone()),
        ..Default::default()
    })
    .expect("start daemon");

    // Kill a client mid-message: frame header promises 64 bytes, send
    // 10, vanish.
    {
        let mut victim = Client::connect_unix(&path).expect("connect");
        victim.send_raw(&64u32.to_le_bytes()).unwrap();
        victim.send_raw(b"0123456789").unwrap();
    } // dropped: peer closed mid-payload

    // Kill another after its request was admitted but before the reply
    // is read (the unknown-family error path keeps this cheap): the
    // dispatcher's reply write becomes a no-op, nothing wedges.
    {
        let mut victim = Client::connect_unix(&path).expect("connect");
        let payload = pmg_serve::protocol::render_request(&pmg_serve::Request::Solve(
            pmg_serve::protocol::SolveRequest {
                id: "doomed".into(),
                target: pmg_serve::SolveTarget::Spec(ProblemSpec {
                    name: "no-such-family".into(),
                    k: 0,
                    nranks: 2,
                }),
                rhs: None,
                rtol: 1e-6,
            },
        ));
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload.as_bytes());
        victim.send_raw(&frame).unwrap();
    } // dropped before reading the reply

    // Give the connection threads a moment to observe the EOFs.
    std::thread::sleep(Duration::from_millis(300));

    // The daemon still answers, and it counted the mid-message close.
    let mut c = Client::connect_unix(&path).expect("daemon must still accept");
    let stats = c.stats().expect("daemon must still serve");
    assert!(
        stats.disconnects >= 1,
        "expected the mid-message close counted, got {}",
        stats.disconnects
    );

    // Malformed JSON in a well-formed frame errors that request only;
    // the connection remains usable.
    c.send_raw(&7u32.to_le_bytes()).unwrap();
    c.send_raw(b"not-jso").unwrap();
    // The next proper request on the same connection still works even
    // though the previous one errored.
    let err = c
        .solve_spec(
            &ProblemSpec {
                name: "no-such-family".into(),
                k: 0,
                nranks: 2,
            },
            None,
            1e-6,
            "after-garbage",
        )
        .unwrap_err();
    match err {
        // First reply on the wire is the parse error for the garbage
        // frame; treat either server error as acceptable ordering.
        ClientError::Server(_) | ClientError::Protocol(_) => {}
        other => panic!("unexpected error kind: {other}"),
    }

    // A right-hand side that overflows to an infinity is a well-formed
    // JSON number; it is refused by name at the parser, not solved.
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let hostile = r#"{"op":"solve","problem":{"name":"spheres","k":0,"nranks":2},"rhs":[0,1e999]}"#;
    write_frame(&mut raw, hostile.as_bytes()).unwrap();
    match parse_response(&read_frame(&mut raw).unwrap().expect("a reply")).unwrap() {
        Response::Error(msg) => assert!(msg.contains("rhs[1] is not finite"), "{msg}"),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // And the daemon answers a clean request afterwards.
    let mut c = Client::connect_unix(&path).expect("connect");
    let clean = c
        .solve_spec(&spec(2), None, pmg_bench::PARITY_RTOL, "after-hostile")
        .expect("clean solve");
    assert!(clean.converged && !clean.breakdown);
    c.shutdown().expect("shutdown ack");
    handle.wait();
}

/// A full queue is admission control: the daemon answers `busy`
/// immediately instead of queueing without bound, and the rejection is
/// counted. Earlier-admitted requests still complete.
#[test]
fn full_queue_rejects_with_busy() {
    let path = sock("busy");
    let handle = serve(ServeConfig {
        unix_path: Some(path.clone()),
        queue_cap: 1,
        hold_ms: 900, // dispatcher dwells in each solve: windows are deterministic
        ..Default::default()
    })
    .expect("start daemon");
    let rtol = pmg_bench::PARITY_RTOL;

    Client::connect_unix(&path)
        .expect("connect")
        .warm(&spec(2))
        .expect("warm");

    let (s1, s2, busy_seen) = std::thread::scope(|scope| {
        let p = &path;
        // S1 is picked up by the dispatcher and held for 900ms.
        let t1 = scope.spawn(move || {
            let mut c = Client::connect_unix(p).unwrap();
            c.solve_spec(&spec(2), None, rtol, "s1").unwrap()
        });
        std::thread::sleep(Duration::from_millis(250));
        // S2 occupies the single queue slot.
        let t2 = scope.spawn(move || {
            let mut c = Client::connect_unix(p).unwrap();
            c.solve_spec(&spec(2), None, rtol, "s2").unwrap()
        });
        std::thread::sleep(Duration::from_millis(250));
        // S3 finds the queue full: busy, not queued.
        let mut c = Client::connect_unix(p).unwrap();
        let busy = matches!(
            c.solve_spec(&spec(2), None, rtol, "s3"),
            Err(ClientError::Busy)
        );
        (t1.join().unwrap(), t2.join().unwrap(), busy)
    });
    assert!(busy_seen, "third request should have been rejected busy");
    assert!(
        s1.converged && s2.converged,
        "admitted requests must complete"
    );

    let mut c = Client::connect_unix(&path).expect("connect");
    let stats = c.stats().expect("stats");
    assert!(stats.rejected >= 1, "busy rejection must be counted");
    c.shutdown().expect("shutdown ack");
    handle.wait();
}

/// The TCP listener speaks the same protocol; port 0 reports the bound
/// port through the handle.
#[test]
fn tcp_transport_serves_and_drains() {
    let handle = serve(ServeConfig {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .expect("start daemon");
    let addr = handle.tcp_addr().expect("bound tcp addr").to_string();

    let mut c = Client::connect_tcp(&addr).expect("connect tcp");
    let stats = c.stats().expect("stats over tcp");
    assert_eq!(stats.requests, 0);
    c.shutdown().expect("shutdown ack");
    handle.wait();
}

/// Uploading a mesh through the `ingest` frame warms a
/// partitioned-at-ingest hierarchy that later fingerprint-addressed
/// solves hit — and the answer bits are exactly what an offline
/// replicated solve of the same system produces (the sharded setup is
/// pinned bitwise to the replicated one for RCB partitions by the
/// setup-parity suite; this test closes the loop over the wire).
#[test]
fn ingested_mesh_solves_match_the_offline_oracle_bitwise() {
    let path = sock("ingest");
    let handle = serve(ServeConfig {
        unix_path: Some(path.clone()),
        ..Default::default()
    })
    .expect("start daemon");

    let mesh = pmg_mesh::generators::cube(8);
    let bytes = pmg_mesh::write_flat_bytes(&mesh);
    let nranks = 2;
    let rtol = pmg_bench::PARITY_RTOL;

    // The offline oracle: the same scalar graph Laplacian `L + I` the
    // daemon assembles for ingested meshes, built replicated under the
    // published ingest options.
    let g = mesh.vertex_graph();
    let nv = mesh.num_vertices();
    let mut b = pmg_sparse::CooBuilder::new(nv, nv);
    for v in 0..nv {
        b.push(v, v, g.degree(v) as f64 + 1.0);
        for &w in g.neighbors(v) {
            b.push(v, w as usize, -1.0);
        }
    }
    let a = b.build();
    let mut oracle =
        prometheus::Prometheus::from_mesh(&mesh, &a, pmg_serve::ingest_options(nranks));
    let ones = vec![1.0; nv];
    let (ox, ores) = oracle.solve(&ones, None, rtol);
    assert!(ores.converged, "offline oracle must converge");

    let mut c = Client::connect_unix(&path).expect("connect");
    let up = c.ingest(&bytes, nranks, "up1").expect("ingest");
    assert!(!up.cache_hit, "first ingest must build");
    assert!(up.setup_s > 0.0);
    assert_eq!(up.dofs, nv);
    assert!(
        up.element_imbalance >= 1.0,
        "imbalance is max/mean, bounded below by 1"
    );

    // Re-uploading the identical bytes hits the warm entry.
    let again = c.ingest(&bytes, nranks, "up2").expect("re-ingest");
    assert!(again.cache_hit);
    assert_eq!(again.fingerprint, up.fingerprint);
    assert_eq!(again.setup_s, 0.0, "cache hits skip setup entirely");
    assert_eq!(again.element_imbalance, up.element_imbalance);

    // Default RHS (all-ones): bitwise the offline bits.
    let solved = c
        .solve_fingerprint(up.fingerprint, None, rtol, "s-default")
        .expect("solve ingested hierarchy");
    assert!(solved.converged);
    assert!(solved.cache_hit);
    assert!(
        bits_equal(&solved.x, &ox),
        "ingested solve bits differ from the offline oracle"
    );

    // A caller-supplied RHS takes the same path.
    let rhs: Vec<f64> = (0..nv)
        .map(|i| if i % 3 == 0 { 2.0 } else { -0.5 })
        .collect();
    let (ox2, ores2) = oracle.solve(&rhs, None, rtol);
    assert!(ores2.converged);
    let solved2 = c
        .solve_fingerprint(up.fingerprint, Some(rhs), rtol, "s-custom")
        .expect("solve custom rhs");
    assert!(bits_equal(&solved2.x, &ox2));

    // Garbage bytes are a server error, not a daemon crash.
    match c.ingest(b"definitely not a flat mesh", nranks, "bad") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("bad mesh payload"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    let stats = c.stats().expect("stats");
    assert_eq!(stats.ingest, 3, "hits, builds, and failures all count");
    assert!(stats.cache_entries >= 1);

    c.shutdown().expect("shutdown ack");
    handle.wait();
}

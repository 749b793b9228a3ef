//! `serve2`: the request path. An in-process `pmg_serve` daemon on a Unix
//! socket, two client connections. The solver is small on purpose: framing,
//! JSON, queueing, batching, fingerprinting and the warm cache dominate.
//!
//! One unit is one cycle. Cold phase: four meshes nobody has sent before
//! (the tiny-spheres bytes in four fresh length units, so four new
//! fingerprints) are ingested and solved once each — four cache misses,
//! and with a budget of six hierarchies the least recently used cold
//! entries are evicted. Warm burst: both clients send eight
//! solve-by-fingerprint requests each over two hot hierarchies, walking the
//! same seeded target sequence so that same-key requests meet and batch.

use super::{Samples, Workload};
use crate::check::{bits_hash, rel_residual, Verdict};
use crate::inputs::{self, Rng};
use crate::layers::Opaque;
use crate::spec::Layers;
use crate::trace::Tracer;
use pmg_mesh::Mesh;
use pmg_serve::protocol::{
    parse_response, read_frame, render_request, render_response, write_frame, IngestRequest,
    Request, Response, SolveRequest, SolveTarget,
};
use pmg_serve::{Client, ClientError, ServeConfig, ServerHandle, SolveReply};
use pmg_sparse::{CooBuilder, CsrMatrix};
use prometheus::Prometheus;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const RTOL: f64 = 1e-6;
const CLIENTS: usize = 2;
const COLD_PER_CYCLE: usize = 4;
const BURST_PER_CLIENT: usize = 8;
const HOT: usize = 2;
/// Seeded right-hand-side amplitudes per hot hierarchy.
const AMPLITUDES: usize = 8;
/// Ranks the daemon partitions an ingested mesh over.
const INGEST_RANKS: usize = 1;
/// Hierarchies the cache budget holds: the two hot ones and one cycle's
/// four cold ones.
const CACHE_ENTRIES: f64 = 6.5;
/// Length units `2^k` the meshes are written in. Within this range every
/// coordinate's exponent has two digits (the flat format's field width),
/// geometric products stay far from overflow, and the pipeline's results
/// are bitwise those of `k = 0` (below `2^-50` an absolute tolerance in the
/// coarsening starts to bite and the last bits move).
const UNITS: std::ops::RangeInclusive<i32> = -40..=80;

/// The operator the daemon assembles for an ingested mesh: the vertex
/// graph's Laplacian plus the identity, one dof per vertex.
fn graph_operator(mesh: &Mesh) -> CsrMatrix {
    let g = mesh.vertex_graph();
    let n = mesh.num_vertices();
    let mut b = CooBuilder::new(n, n);
    for v in 0..n {
        b.push(v, v, g.degree(v) as f64 + 1.0);
        for &w in g.neighbors(v) {
            b.push(v, w as usize, -1.0);
        }
    }
    b.build()
}

fn start_daemon(socket: &Path, cache_bytes: usize) -> ServerHandle {
    pmg_serve::serve(ServeConfig {
        unix_path: Some(socket.to_path_buf()),
        cache_bytes,
        ..Default::default()
    })
    .expect("daemon binds its socket under the output directory")
}

fn stop_daemon(socket: &Path, handle: ServerHandle) {
    Client::connect_unix(socket)
        .expect("connect for shutdown")
        .shutdown()
        .expect("daemon acknowledges shutdown");
    handle.wait();
}

/// A hot hierarchy: its fingerprint and the offline answers to every
/// right-hand side the burst may send.
struct Hot {
    fingerprint: u64,
    rhs: Vec<Vec<f64>>,
    oracle_bits: Vec<u64>,
}

pub struct Serve {
    socket: PathBuf,
    daemon: Option<ServerHandle>,
    clients: Vec<Client>,
    base: Mesh,
    matrix: CsrMatrix,
    /// Unused length-unit exponents, in seeded order.
    fresh_units: Vec<i32>,
    hot: Vec<Hot>,
    /// Per client and burst slot: `(hot index, amplitude index)`.
    plan: Vec<Vec<(usize, usize)>>,
    /// Right-hand side of every first solve and the bits of its offline answer.
    cold_rhs: Vec<f64>,
    cold_oracle_bits: u64,
    cycles: usize,
    /// Sum of the batch widths the warm replies report, and their count.
    batched: (usize, usize),
    facts: String,
}

impl Serve {
    pub fn prepare(seed: u64) -> Serve {
        let out = crate::out_dir();
        std::fs::create_dir_all(&out).expect("output directory");
        let socket = out.join(format!("serve-{}.sock", std::process::id()));
        let base = pmg_mesh::spheres::sphere_in_cube(&pmg_mesh::SpheresParams::tiny());
        let matrix = graph_operator(&base);
        let n = matrix.nrows();
        let mut rng = Rng::new(seed, 4);
        let mut units: Vec<i32> = UNITS.collect();
        rng.shuffle(&mut units);

        // What one hierarchy weighs in the cache's own accounting.
        let probe = start_daemon(&socket, usize::MAX);
        let entry_bytes = {
            let mut c = Client::connect_unix(&socket).expect("connect");
            let bytes = pmg_mesh::write_flat_bytes(&base);
            c.ingest(&bytes, INGEST_RANKS, "probe")
                .expect("probe ingest");
            c.stats().expect("stats").cache_bytes as f64
        };
        stop_daemon(&socket, probe);

        // The offline solver every reply must match bit for bit.
        let opts = pmg_serve::ingest_options(INGEST_RANKS);
        let mut offline = Prometheus::from_mesh(&base, &matrix, opts);
        let cold_amplitude = rng.range(0.75, 1.25);
        let cold_rhs: Vec<f64> = (0..n)
            .map(|i| cold_amplitude * (1.0 + ((i * 7) % 13) as f64 * 0.125))
            .collect();
        let cold_oracle_bits = bits_hash(&offline.solve(&cold_rhs, None, RTOL).0);

        let daemon = start_daemon(&socket, (CACHE_ENTRIES * entry_bytes) as usize);
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect_unix(&socket).expect("connect"))
            .collect();
        let hot = (0..HOT)
            .map(|h| {
                let k = units.pop().expect("unit exponents left");
                let bytes = pmg_mesh::write_flat_bytes(&inputs::scaled(&base, k));
                let reply = clients[0]
                    .ingest(&bytes, INGEST_RANKS, "hot")
                    .expect("hot ingest");
                let base_rhs: Vec<f64> = (0..n)
                    .map(|i| 1.0 + ((i * (h + 3)) % 11) as f64 * 0.125)
                    .collect();
                let rhs: Vec<Vec<f64>> = (0..AMPLITUDES)
                    .map(|_| {
                        let a = rng.range(0.75, 1.25);
                        base_rhs.iter().map(|v| a * v).collect()
                    })
                    .collect();
                let oracle_bits = rhs
                    .iter()
                    .map(|b| bits_hash(&offline.solve(b, None, RTOL).0))
                    .collect();
                Hot {
                    fingerprint: reply.fingerprint,
                    rhs,
                    oracle_bits,
                }
            })
            .collect();
        // Both clients walk the same seeded hot sequence (so same-key
        // requests meet in the dispatcher); amplitudes differ per request.
        let mut targets: Vec<usize> = (0..BURST_PER_CLIENT).map(|i| i % HOT).collect();
        rng.shuffle(&mut targets);
        let plan = (0..CLIENTS)
            .map(|_| {
                targets
                    .iter()
                    .map(|&h| (h, rng.below(AMPLITUDES)))
                    .collect()
            })
            .collect();
        Serve {
            socket,
            daemon: Some(daemon),
            clients,
            base,
            matrix,
            fresh_units: units,
            hot,
            plan,
            cold_rhs,
            cold_oracle_bits,
            cycles: 0,
            batched: (0, 0),
            facts: format!("{n} dof per hierarchy, {entry_bytes:.0} cache bytes each"),
        }
    }

    /// Mesh bytes nobody has sent to this daemon yet. (A run longer than
    /// the exponent range starts over: by then the entry is long evicted,
    /// so it is a miss all the same.)
    fn fresh_mesh(&mut self) -> Vec<u8> {
        let k = self.fresh_units.remove(0);
        self.fresh_units.push(k);
        pmg_mesh::write_flat_bytes(&inputs::scaled(&self.base, k))
    }

    fn check_reply(&self, v: &mut Verdict, r: &SolveReply, rhs: &[f64], oracle_bits: u64) {
        v.require(r.converged, || format!("request {} did not converge", r.id));
        let rr = rel_residual(&self.matrix, &r.x, rhs);
        v.require(rr <= 10.0 * RTOL, || {
            format!("request {}: true residual {rr:.3e} above 10 x rtol", r.id)
        });
        v.require(bits_hash(&r.x) == oracle_bits, || {
            format!(
                "request {}: reply is not bitwise the offline Prometheus::solve",
                r.id
            )
        });
    }
}

fn refused(v: &mut Verdict, what: &str, e: &ClientError) {
    v.problems.push(format!("{what}: {e}"));
}

impl Workload for Serve {
    fn unit(&mut self, out: &mut Samples) -> Verdict {
        let mut v = Verdict::default();

        // Cold phase, one connection: bytes -> warm hierarchy -> first answer.
        let mut ingest_s = Vec::with_capacity(COLD_PER_CYCLE);
        let mut first_s = Vec::with_capacity(COLD_PER_CYCLE);
        for _ in 0..COLD_PER_CYCLE {
            let bytes = self.fresh_mesh();
            let t0 = Instant::now();
            let ing = self.clients[0].ingest(&bytes, INGEST_RANKS, "cold");
            let t1 = Instant::now();
            let ing = match ing {
                Ok(r) => r,
                Err(e) => {
                    refused(&mut v, "ingest", &e);
                    continue;
                }
            };
            v.require(!ing.cache_hit, || "a fresh mesh hit the cache".into());
            let t2 = Instant::now();
            let rhs = Some(self.cold_rhs.clone());
            let reply = self.clients[0].solve_fingerprint(ing.fingerprint, rhs, RTOL, "first");
            let t3 = Instant::now();
            match reply {
                Ok(r) => self.check_reply(&mut v, &r, &self.cold_rhs, self.cold_oracle_bits),
                Err(e) => refused(&mut v, "first solve", &e),
            }
            ingest_s.push((t1 - t0).as_secs_f64());
            first_s.push((t1 - t0).as_secs_f64() + (t3 - t2).as_secs_f64());
        }

        // Warm burst, both connections, closed loop.
        let (hot, plan) = (&self.hot, &self.plan);
        let t0 = Instant::now();
        let replies: Vec<Vec<Result<SolveReply, ClientError>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(plan)
                .map(|(client, slots)| {
                    s.spawn(move || {
                        slots
                            .iter()
                            .map(|&(h, a)| {
                                client.solve_fingerprint(
                                    hot[h].fingerprint,
                                    Some(hot[h].rhs[a].clone()),
                                    RTOL,
                                    "warm",
                                )
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let burst_s = t0.elapsed().as_secs_f64();

        if ingest_s.len() == COLD_PER_CYCLE {
            out.setup
                .push(ingest_s.iter().sum::<f64>() / COLD_PER_CYCLE as f64);
            out.tts
                .push(first_s.iter().sum::<f64>() / COLD_PER_CYCLE as f64);
        }
        out.solve
            .push(burst_s / (CLIENTS * BURST_PER_CLIENT) as f64);
        for (slots, client_replies) in self.plan.iter().zip(&replies) {
            for (&(h, a), reply) in slots.iter().zip(client_replies) {
                match reply {
                    Ok(r) => {
                        self.batched = (self.batched.0 + r.batched, self.batched.1 + 1);
                        v.require(r.cache_hit, || "a hot hierarchy was evicted".into());
                        self.check_reply(
                            &mut v,
                            r,
                            &self.hot[h].rhs[a],
                            self.hot[h].oracle_bits[a],
                        );
                    }
                    Err(e) => refused(&mut v, "warm solve", e),
                }
            }
        }
        self.cycles += 1;
        v
    }

    fn describe(&self) -> String {
        format!(
            "{}, {} cycles of {COLD_PER_CYCLE} cold + {} warm requests",
            self.facts,
            self.cycles,
            CLIENTS * BURST_PER_CLIENT
        )
    }

    fn finish(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.daemon.take() {
            stop_daemon(&self.socket, handle);
        }
    }
}

/// One request over the public framing functions, a span per stage. The
/// stages the server reports in its reply are hung below the wait.
fn traced_request(
    tr: &mut Tracer,
    stream: &mut UnixStream,
    span: &str,
    req: &Request,
) -> Result<Response, String> {
    let id = tr.enter(span);
    let text = tr.span("serve.render_request", |_| render_request(req));
    tr.span("serve.write_frame", |_| {
        write_frame(stream, text.as_bytes())
    })
    .map_err(|e| e.to_string())?;
    let wait = tr.enter("serve.wait_reply");
    let payload = read_frame(stream);
    tr.exit(wait);
    let payload = payload
        .map_err(|e| e.to_string())?
        .ok_or("daemon closed the connection")?;
    let resp = tr.span("serve.parse_reply", |_| parse_response(&payload))?;
    match &resp {
        Response::Solved(r) => {
            tr.import(wait, "serve.queue", r.queue_s);
            tr.import(wait, "serve.solve", r.solve_s);
        }
        Response::Ingested(r) => {
            tr.import(wait, "serve.ingest_setup", r.setup_s);
        }
        _ => {}
    }
    tr.exit(id);
    Ok(resp)
}

fn p(samples: &[f64], q: f64) -> f64 {
    pmg_telemetry::stats::percentile(samples, q).unwrap_or(0.0)
}

pub fn traced(seed: u64, units: usize, tr: &mut Tracer, layers: &mut Layers) -> (usize, usize) {
    let mut w = Serve::prepare(seed);
    let mut failed = 0;
    let mut plain = Samples::default();
    let mut plain_unit = Vec::new();
    let mut traced_unit = Vec::new();
    let mut stream = UnixStream::connect(&w.socket).expect("connect");
    let mut last_reply = None;
    layers.set(
        "mesh.bytes",
        pmg_mesh::write_flat_bytes(&w.base).len() as f64,
    );

    for unit in 0..units {
        let t = Instant::now();
        let v = w.unit(&mut plain);
        plain_unit.push(t.elapsed().as_secs_f64());
        if !v.ok() {
            eprintln!("serve2 plain cycle {unit}: {}", v.problems.join("; "));
            failed += 1;
        }

        // The same cycle, one connection, every request traced.
        tr.set_unit(unit);
        let unit_id = tr.enter("unit");
        let mut v = Verdict::default();
        for _ in 0..COLD_PER_CYCLE {
            let mesh = w.fresh_mesh();
            let req = Request::Ingest(IngestRequest {
                id: "cold".into(),
                mesh,
                nranks: INGEST_RANKS,
            });
            let fingerprint = match traced_request(tr, &mut stream, "setup", &req) {
                Ok(Response::Ingested(r)) => r.fingerprint,
                other => {
                    v.problems.push(format!("traced ingest: {other:?}"));
                    continue;
                }
            };
            let req = Request::Solve(SolveRequest {
                id: "first".into(),
                target: SolveTarget::Fingerprint(fingerprint),
                rhs: Some(w.cold_rhs.clone()),
                rtol: RTOL,
            });
            match traced_request(tr, &mut stream, "serve.first_solve", &req) {
                Ok(Response::Solved(r)) => {
                    w.check_reply(&mut v, &r, &w.cold_rhs, w.cold_oracle_bits)
                }
                other => v.problems.push(format!("traced first solve: {other:?}")),
            }
        }
        for client in 0..CLIENTS {
            for slot in 0..BURST_PER_CLIENT {
                let (h, a) = w.plan[client][slot];
                let req = Request::Solve(SolveRequest {
                    id: "warm".into(),
                    target: SolveTarget::Fingerprint(w.hot[h].fingerprint),
                    rhs: Some(w.hot[h].rhs[a].clone()),
                    rtol: RTOL,
                });
                match traced_request(tr, &mut stream, "solve", &req) {
                    Ok(Response::Solved(r)) => {
                        w.check_reply(&mut v, &r, &w.hot[h].rhs[a], w.hot[h].oracle_bits[a]);
                        last_reply = Some(r);
                    }
                    other => v.problems.push(format!("traced warm solve: {other:?}")),
                }
            }
        }
        traced_unit.push(tr.exit(unit_id));
        if !v.ok() {
            eprintln!("serve2 traced cycle {unit}: {}", v.problems.join("; "));
            failed += 1;
        }
    }

    // The daemon accounts for its own stages in its replies; no opaque
    // call stands beside a traced request.
    crate::layers::span_rows(layers, tr, units, &Opaque::default());
    let lh = crate::stats::lower_half_mean;
    let warm = tr.durations("solve");
    layers.set("serve.rps", 1.0 / lh(&plain.solve));
    layers.set("serve.p50_s", p(&warm, 0.5));
    layers.set("serve.p90_s", p(&warm, 0.9));
    layers.set("serve.queue_p50_s", p(&tr.durations("serve.queue"), 0.5));
    layers.set("serve.solve_p50_s", p(&tr.durations("serve.solve"), 0.5));
    layers.set("serve.ingest_p50_s", p(&tr.durations("setup"), 0.5));
    // Wire = what the client waited beyond what the server accounts for.
    let own = crate::trace::self_times(&tr.spans);
    let wire: Vec<f64> = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "serve.wait_reply")
        .map(|(_, &o)| o)
        .collect();
    layers.set("serve.wire_p50_s", p(&wire, 0.5));

    let stats = Client::connect_unix(&w.socket)
        .expect("connect")
        .stats()
        .expect("stats");
    layers.set(
        "serve.cache_hit_ratio",
        stats.cache_hit as f64 / (stats.cache_hit + stats.cache_miss).max(1) as f64,
    );
    layers.set("serve.rejected", stats.rejected as f64);
    // Mean width of the blocked solve a two-client burst request rode in.
    layers.set(
        "serve.batch_mean",
        w.batched.0 as f64 / w.batched.1.max(1) as f64,
    );

    let reply = last_reply.expect("a traced warm reply");
    let resp = Response::Solved(reply);
    let mut text = String::new();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            text = render_response(&resp);
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("serve.render_reply_s", lh(&samples));
    layers.set("serve.reply_bytes", text.len() as f64);
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(parse_response(text.as_bytes()).expect("own rendering parses"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("serve.parse_reply_s", lh(&samples));

    let bytes = pmg_mesh::write_flat_bytes(&w.base);
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pmg_mesh::read_flat_bytes(&bytes).expect("mesh parses"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("mesh.read_flat_s", lh(&samples));
    let opts = pmg_serve::ingest_options(INGEST_RANKS);
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(prometheus::solver_fingerprint(&w.base, &opts.mg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("core.fingerprint_s", lh(&samples));
    layers.set("solver.iterations", {
        let mut offline = Prometheus::from_mesh(&w.base, &w.matrix, opts);
        offline.solve(&w.cold_rhs, None, RTOL).1.iterations as f64
    });
    layers.set(
        "trace.overhead_frac",
        lh(&traced_unit) / lh(&plain_unit) - 1.0,
    );
    drop(stream);
    w.finish();
    (
        units * 2 * (COLD_PER_CYCLE * 2 + CLIENTS * BURST_PER_CLIENT),
        failed,
    )
}

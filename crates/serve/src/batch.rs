//! The dispatcher: one thread that owns every solver and answers the
//! request queue one job per turn, in arrival order.
//!
//! Connection threads never touch a hierarchy — they submit jobs
//! over a **bounded** channel (the bound *is* the admission control: a
//! full queue rejects with `busy` at the connection layer) and block on
//! a per-request reply channel. The dispatcher takes the next job —
//! solve, warm-up, ingest or stats — handles it to completion and replies
//! before it looks at the queue again, so a solve is exactly
//! [`prometheus::Prometheus::solve`] (or the sharded SPMD solve) on one
//! right-hand side and every client receives the bits an offline solve
//! produces. It does not wait for company: concurrent solves share no
//! arithmetic and no reduction, so a collection window would only add its
//! length to every request (`docs/server.md`, "Dispatch").

use crate::cache::{
    hierarchy_bytes, ingest_cache_key, ingest_options, sharded_bytes, solver_cache_key, CacheEntry,
    ShardedWarm, WarmCache, WarmSolver,
};
use crate::protocol::{
    IngestReply, IngestRequest, ProblemSpec, Response, SolveReply, SolveRequest, SolveTarget,
    StatsReply,
};
use crate::server::ServeConfig;
use pmg_comm::{LocalTransport, Transport};
use pmg_sparse::CooBuilder;
use prometheus::RankHierarchy;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Counters incremented outside the dispatcher (at the connection
/// layer), merged into `stats` replies.
#[derive(Default)]
pub(crate) struct SharedCounters {
    /// Admission-control rejections (queue full → `busy`).
    pub rejected: AtomicU64,
    /// Connections dropped mid-message.
    pub disconnects: AtomicU64,
}

/// A queued unit of work.
pub(crate) enum Job {
    /// A solve, with its reply channel.
    Solve(SolveJob),
    /// An explicit warm-up.
    Warm(ProblemSpec, mpsc::Sender<Response>),
    /// A mesh upload: partition at ingest, warm the sharded hierarchy.
    Ingest(IngestRequest, mpsc::Sender<Response>),
    /// A stats snapshot.
    Stats(mpsc::Sender<Response>),
}

/// A solve request as it travels the queue.
pub(crate) struct SolveJob {
    pub req: SolveRequest,
    pub enqueued: Instant,
    pub reply: mpsc::Sender<Response>,
}

pub(crate) struct Dispatcher {
    rx: mpsc::Receiver<Job>,
    cache: WarmCache,
    /// [`ServeConfig::hold_ms`]: the dwell inside each solve turn.
    hold_ms: u64,
    shutdown: Arc<AtomicBool>,
    shared: Arc<SharedCounters>,
    requests: u64,
    warm: u64,
    ingest: u64,
    lat_queue: Vec<f64>,
    lat_setup: Vec<f64>,
    lat_solve: Vec<f64>,
}

impl Dispatcher {
    pub fn new(
        rx: mpsc::Receiver<Job>,
        config: &ServeConfig,
        shutdown: Arc<AtomicBool>,
        shared: Arc<SharedCounters>,
    ) -> Dispatcher {
        Dispatcher {
            rx,
            cache: WarmCache::new(config.cache_bytes),
            hold_ms: config.hold_ms,
            shutdown,
            shared,
            requests: 0,
            warm: 0,
            ingest: 0,
            lat_queue: Vec::new(),
            lat_setup: Vec::new(),
            lat_solve: Vec::new(),
        }
    }

    /// Run until shutdown is requested *and* the queue has drained, or
    /// every submitter has hung up. In-flight jobs always complete: a
    /// shutdown never abandons a request that was admitted.
    pub fn run(mut self) {
        while let Some(job) = self.next_job() {
            match job {
                Job::Warm(spec, reply) => {
                    self.warm += 1;
                    pmg_telemetry::counter_add("serve/warm", 1);
                    let resp = self.handle_warm(&spec);
                    let _ = reply.send(resp);
                }
                Job::Ingest(req, reply) => {
                    self.ingest += 1;
                    pmg_telemetry::counter_add("serve/ingest", 1);
                    let resp = self.handle_ingest(&req);
                    let _ = reply.send(resp);
                }
                Job::Stats(reply) => {
                    let _ = reply.send(Response::Stats(self.stats_reply()));
                }
                Job::Solve(job) => {
                    self.requests += 1;
                    pmg_telemetry::counter_add("serve/requests", 1);
                    let resp = self.handle_solve(&job);
                    let _ = job.reply.send(resp);
                }
            }
        }
        self.publish_gauges();
    }

    /// The next job in arrival order; `None` ends the loop.
    fn next_job(&mut self) -> Option<Job> {
        loop {
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(j) => return Some(j),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return None;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Build the hierarchy for `spec` (or find it warm). Returns the
    /// cache key, whether it was a hit, and the setup seconds (0 on hit).
    fn ensure_spec(&mut self, spec: &ProblemSpec) -> Result<(u64, bool, f64), String> {
        if let Some(key) = self.cache.key_for_spec(&spec.canon()) {
            if self.cache.get_mut(key).is_some() {
                pmg_telemetry::counter_add("serve/cache_hit", 1);
                return Ok((key, true, 0.0));
            }
            pmg_telemetry::counter_add("serve/cache_miss", 1);
            // Known spec, evicted entry: rebuild below under the same key.
        }
        if spec.name != "spheres" {
            return Err(format!("unknown problem family {:?}", spec.name));
        }
        let t0 = Instant::now();
        let sys = pmg_bench::spheres_first_solve(spec.k);
        let opts = pmg_bench::parity_options(spec.nranks);
        let key = solver_cache_key(&sys, &opts);
        let solver = pmg_bench::parity_solver(&sys, opts);
        let setup_s = t0.elapsed().as_secs_f64();
        let bytes = hierarchy_bytes(&solver) + sys.rhs.len() * 8;
        if self.cache.key_for_spec(&spec.canon()).is_none() {
            // First sight of this spec: the alias lookup above already
            // counted nothing, so count the miss here.
            pmg_telemetry::counter_add("serve/cache_miss", 1);
            self.cache.get_mut(key); // records the miss in cache stats
        }
        let evicted = self.cache.insert(
            key,
            CacheEntry {
                solver: WarmSolver::Replicated(Box::new(solver)),
                spec: spec.clone(),
                default_rhs: sys.rhs,
                setup_s,
                bytes,
                element_imbalance: 0.0,
            },
        );
        if !evicted.is_empty() {
            pmg_telemetry::counter_add("serve/cache_evict", evicted.len() as u64);
        }
        Ok((key, false, setup_s))
    }

    fn handle_warm(&mut self, spec: &ProblemSpec) -> Response {
        match self.ensure_spec(spec) {
            Ok((fingerprint, cache_hit, setup_s)) => Response::Warmed {
                fingerprint,
                cache_hit,
                setup_s,
            },
            Err(msg) => Response::Error(msg),
        }
    }

    /// Partition-at-ingest for an uploaded mesh: decode the flat bytes,
    /// fingerprint them, and on a miss run the sharded setup pipeline —
    /// RCB on the fine connectivity, per-rank ingest seeds, and
    /// `build_from_shards` over an in-process transport machine. Each
    /// rank assembles only its owned rows of the mesh's scalar graph
    /// Laplacian straight from the vertex graph; the global fine CSR is
    /// never formed. The warm entry is then fingerprint-addressable by
    /// ordinary `solve` requests.
    fn handle_ingest(&mut self, req: &IngestRequest) -> Response {
        let mesh = match pmg_mesh::read_flat_bytes(&req.mesh) {
            Ok(m) => m,
            Err(e) => return Response::Error(format!("bad mesh payload: {e}")),
        };
        let opts = ingest_options(req.nranks);
        let key = ingest_cache_key(&mesh, &opts.mg, req.nranks);
        if let Some(entry) = self.cache.get_mut(key) {
            pmg_telemetry::counter_add("serve/cache_hit", 1);
            return Response::Ingested(IngestReply {
                fingerprint: key,
                cache_hit: true,
                setup_s: 0.0,
                dofs: entry.default_rhs.len(),
                element_imbalance: entry.element_imbalance,
            });
        }
        pmg_telemetry::counter_add("serve/cache_miss", 1);

        let t0 = Instant::now();
        let graph = mesh.vertex_graph();
        let classes = prometheus::classify_mesh_parallel(&mesh, opts.face_tol, req.nranks);
        let part = pmg_partition::recursive_coordinate_bisection(&mesh.coords, req.nranks);
        let shards = pmg_mesh::shard_mesh(&mesh, &part, req.nranks);
        let elem_counts: Vec<u32> = shards
            .iter()
            .map(|s| s.mesh.num_elements() as u32)
            .collect();
        drop(shards);
        let element_imbalance = pmg_mesh::element_imbalance(
            &elem_counts.iter().map(|&c| c as usize).collect::<Vec<_>>(),
        );
        let plan = prometheus::plan_ingest_with_part(
            &mesh.coords,
            &graph,
            &classes,
            &elem_counts,
            part,
            req.nranks,
            &opts.mg,
        );
        let n = mesh.num_vertices();
        let layout = pmg_parallel::Layout::from_part(plan.part().to_vec(), req.nranks);
        let results = LocalTransport::run_ranks(req.nranks, |mut t| {
            let rank = t.rank();
            let owned = layout.owned(rank);
            let mut b = CooBuilder::new(owned.len(), n);
            for (i, &g) in owned.iter().enumerate() {
                let g = g as usize;
                b.push(i, g, graph.degree(g) as f64 + 1.0);
                for &w in graph.neighbors(g) {
                    b.push(i, w as usize, -1.0);
                }
            }
            let a_owned = b.build();
            RankHierarchy::build_from_shards(&mut t, &plan.seeds[rank], &a_owned, opts.mg)
        });
        let mut setups = Vec::with_capacity(req.nranks);
        for r in results {
            match r {
                Ok(s) => setups.push(s),
                Err(e) => return Response::Error(format!("sharded setup failed: {e}")),
            }
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let default_rhs = vec![1.0; n];
        let bytes = sharded_bytes(&setups) + default_rhs.len() * 8;
        let spec = ProblemSpec {
            // Synthetic spec: the name embeds the fingerprint so every
            // ingested mesh gets its own alias entry.
            name: format!("ingest-{}", prometheus::fingerprint_hex(key)),
            k: 0,
            nranks: req.nranks,
        };
        let evicted = self.cache.insert(
            key,
            CacheEntry {
                solver: WarmSolver::Sharded(ShardedWarm { setups }),
                spec,
                default_rhs,
                setup_s,
                bytes,
                element_imbalance,
            },
        );
        if !evicted.is_empty() {
            pmg_telemetry::counter_add("serve/cache_evict", evicted.len() as u64);
        }
        Response::Ingested(IngestReply {
            fingerprint: key,
            cache_hit: false,
            setup_s,
            dofs: n,
            element_imbalance,
        })
    }

    /// One solve: resolve the hierarchy, check the right-hand side's
    /// length, solve, build the reply.
    fn handle_solve(&mut self, job: &SolveJob) -> Response {
        let queue_s = job.enqueued.elapsed().as_secs_f64();
        let req = &job.req;
        let resolved = match &req.target {
            SolveTarget::Spec(spec) => self.ensure_spec(spec),
            SolveTarget::Fingerprint(fp) => {
                if self.cache.get_mut(*fp).is_some() {
                    pmg_telemetry::counter_add("serve/cache_hit", 1);
                    Ok((*fp, true, 0.0))
                } else {
                    pmg_telemetry::counter_add("serve/cache_miss", 1);
                    Err(format!(
                        "no warm hierarchy {}; send a problem spec or warm first",
                        prometheus::fingerprint_hex(*fp)
                    ))
                }
            }
        };
        let (key, cache_hit, setup_s) = match resolved {
            Ok(r) => r,
            Err(msg) => return Response::Error(msg),
        };

        if self.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.hold_ms));
        }

        let entry = self
            .cache
            .peek_mut(key)
            .expect("resolved entry is resident");
        let b = req.rhs.as_deref().unwrap_or(&entry.default_rhs);
        let ndof = entry.default_rhs.len();
        if b.len() != ndof {
            return Response::Error(format!(
                "rhs has {} entries, problem has {ndof} dofs",
                b.len()
            ));
        }

        let t0 = Instant::now();
        let (x, res) = entry.solver.solve(b, req.rtol);
        let solve_s = t0.elapsed().as_secs_f64();

        self.lat_queue.push(queue_s);
        self.lat_setup.push(setup_s);
        self.lat_solve.push(solve_s);
        Response::Solved(SolveReply {
            id: req.id.clone(),
            fingerprint: key,
            cache_hit,
            batched: 1,
            iterations: res.iterations,
            converged: res.converged,
            breakdown: res.breakdown,
            queue_s,
            setup_s,
            solve_s,
            x,
        })
    }

    fn stats_reply(&mut self) -> StatsReply {
        self.publish_gauges();
        let c = self.cache.stats();
        let mut latency = Vec::new();
        for (phase, samples) in [
            ("queue", &self.lat_queue),
            ("setup", &self.lat_setup),
            ("solve", &self.lat_solve),
        ] {
            for (q, frac) in pmg_telemetry::stats::SUMMARY_QUANTILES {
                if let Some(v) = pmg_telemetry::stats::percentile(samples, frac) {
                    latency.push((format!("{phase}_p{q}"), v));
                }
            }
        }
        StatsReply {
            requests: self.requests,
            cache_hit: c.hits,
            cache_miss: c.misses,
            cache_evict: c.evictions,
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            disconnects: self.shared.disconnects.load(Ordering::SeqCst),
            warm: self.warm,
            ingest: self.ingest,
            cache_entries: c.entries as u64,
            cache_bytes: c.bytes as u64,
            latency,
        }
    }

    /// Publish cache residency and latency percentiles as telemetry
    /// gauges (`serve/cache_*`, `serve/latency/{phase}_p{q}`).
    fn publish_gauges(&self) {
        let c = self.cache.stats();
        pmg_telemetry::gauge_set("serve/cache_entries", c.entries as f64);
        pmg_telemetry::gauge_set("serve/cache_bytes", c.bytes as f64);
        for (phase, samples) in [
            ("queue", &self.lat_queue),
            ("setup", &self.lat_setup),
            ("solve", &self.lat_solve),
        ] {
            for (q, frac) in pmg_telemetry::stats::SUMMARY_QUANTILES {
                if let Some(v) = pmg_telemetry::stats::percentile(samples, frac) {
                    pmg_telemetry::gauge_set(&format!("serve/latency/{phase}_p{q}"), v);
                }
            }
        }
    }
}

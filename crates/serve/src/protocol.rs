//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! little-endian payload length followed by one JSON document. JSON (via
//! [`pmg_telemetry::json`]) keeps the protocol debuggable with standard
//! tools, and because that writer uses Rust's shortest-round-trip `f64`
//! rendering, solution vectors cross the wire **bitwise exactly** — the
//! daemon's "same bits as an offline solve" guarantee survives
//! serialization.
//!
//! Requests: `solve` (by inline problem spec or by fingerprint of an
//! already-warm hierarchy), `warm` (setup only), `ingest` (upload raw
//! mesh bytes; the daemon partitions them at ingest and warms a sharded
//! hierarchy addressable by the returned fingerprint), `stats`,
//! `shutdown`.
//! Responses mirror them; failures are `{"ok": false, "error": ...}`,
//! with admission-control rejections using the distinguished error
//! string `"busy"`.

use pmg_telemetry::json::{self, Value};
use std::io::{self, Read, Write};

/// Frames above this payload size are rejected as malformed (protects the
/// daemon from a garbage length prefix allocating unbounded memory).
pub const MAX_FRAME: usize = 1 << 28;

/// Write one `[len u32 LE][payload]` frame and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean end of stream (the peer closed
/// *between* frames); a close inside the header or payload is an
/// [`io::ErrorKind::UnexpectedEof`] error — the caller treats that as a
/// client disconnect, not a protocol message.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized frame ({len} bytes)"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// An inline problem specification: which mesh/operator family to build
/// and the virtual-rank decomposition to build it over. `spheres` is the
/// paper's concentric-spheres ladder (`k = 0` is the tiny test
/// configuration); the hierarchy is constructed with the transport-parity
/// options, so daemon answers are bitwise comparable to every offline
/// path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemSpec {
    /// Problem family name (currently only `"spheres"`).
    pub name: String,
    /// Ladder point (`0` = tiny test configuration).
    pub k: usize,
    /// Virtual ranks of the simulated machine the hierarchy is built over.
    pub nranks: usize,
}

impl ProblemSpec {
    /// Canonical one-line rendering: the warm cache's alias key, so a
    /// spec-addressed request finds its hierarchy without rebuilding the
    /// mesh to fingerprint it.
    pub fn canon(&self) -> String {
        format!("{}/k{}/nranks{}", self.name, self.k, self.nranks)
    }

    fn to_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"k\":");
        json::write_u64(out, self.k as u64);
        out.push_str(",\"nranks\":");
        json::write_u64(out, self.nranks as u64);
        out.push('}');
    }

    fn from_json(v: &Value) -> Result<ProblemSpec, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("problem.name missing")?
            .to_string();
        let k = get_usize(v, "k").ok_or("problem.k missing")?;
        let nranks = get_usize(v, "nranks").ok_or("problem.nranks missing")?;
        if nranks == 0 || nranks > 4096 {
            return Err(format!("problem.nranks {nranks} out of range"));
        }
        Ok(ProblemSpec { name, k, nranks })
    }
}

/// What a solve request targets: an inline spec (the daemon builds the
/// hierarchy on a cache miss) or the fingerprint of a hierarchy that is
/// already warm (a miss is an error — nothing to build from).
#[derive(Clone, Debug, PartialEq)]
pub enum SolveTarget {
    /// Build (or reuse) the hierarchy for this spec.
    Spec(ProblemSpec),
    /// Reuse the warm hierarchy with this cache key.
    Fingerprint(u64),
}

/// A `solve` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Caller-chosen request ID, echoed in the response and the telemetry
    /// JSON-lines sink.
    pub id: String,
    /// Which hierarchy to solve on.
    pub target: SolveTarget,
    /// Right-hand side; `None` uses the problem's canonical first-solve
    /// RHS (the one the offline parity artifacts solve).
    pub rhs: Option<Vec<f64>>,
    /// Relative residual tolerance.
    pub rtol: f64,
}

/// An `ingest` request: raw mesh bytes in the `pmg_mesh` flat format,
/// hex-encoded on the wire. The daemon fingerprints the decoded mesh
/// with [`prometheus::solver_fingerprint`], partitions it at ingest
/// (RCB on the fine connectivity, before any assembly), and builds the
/// sharded hierarchy through `RankHierarchy::build_from_shards` — the
/// global fine operator is never materialized. Later `solve` requests
/// address the warm hierarchy by the returned fingerprint.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestRequest {
    /// Caller-chosen request ID (echoed in telemetry, not the reply).
    pub id: String,
    /// The mesh, as written by [`pmg_mesh::write_flat_bytes`].
    pub mesh: Vec<u8>,
    /// Ranks to shard the mesh over.
    pub nranks: usize,
}

/// A completed `ingest`.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestReply {
    /// Cache key of the (now warm) sharded hierarchy.
    pub fingerprint: u64,
    /// Whether this exact mesh × rank count was already warm.
    pub cache_hit: bool,
    /// Partition + sharded-setup seconds (0 on a hit).
    pub setup_s: f64,
    /// Degrees of freedom of the ingested system.
    pub dofs: usize,
    /// Element imbalance of the ingest partition (max/mean owned
    /// elements across ranks; 1.0 is perfectly balanced).
    pub element_imbalance: f64,
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve one system.
    Solve(SolveRequest),
    /// Build the hierarchy now so later solves hit the warm cache.
    Warm(ProblemSpec),
    /// Upload a mesh and warm its partitioned-at-ingest hierarchy.
    Ingest(IngestRequest),
    /// Snapshot the daemon counters, cache state, and latency summaries.
    Stats,
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

/// One solve, as returned to its client.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveReply {
    /// Echo of the request ID.
    pub id: String,
    /// Cache key of the hierarchy that produced this answer.
    pub fingerprint: u64,
    /// Whether the hierarchy was already warm.
    pub cache_hit: bool,
    /// Always `1`: a solve is one right-hand side. Still on the wire only
    /// because `benchmark/`'s `serve.batch_mean` reads it; it leaves with
    /// that metric at the benchmark re-baseline (ROADMAP item 1).
    pub batched: usize,
    /// Krylov iterations taken.
    pub iterations: usize,
    /// Whether the solve reached its tolerance.
    pub converged: bool,
    /// [`pmg_solver::PcgResult::breakdown`]: the solve stopped on
    /// `p·Ap ≤ 0` or non-finite data — the operator is not positive
    /// definite — so `converged` is false for a reason more iterations
    /// would not fix.
    pub breakdown: bool,
    /// Seconds spent queued before the dispatcher picked the job up.
    pub queue_s: f64,
    /// Hierarchy construction seconds (0 on a cache hit).
    pub setup_s: f64,
    /// Solve seconds.
    pub solve_s: f64,
    /// The solution vector, bitwise exact.
    pub x: Vec<f64>,
}

/// The `stats` response payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReply {
    /// Solve requests admitted.
    pub requests: u64,
    /// Warm-cache hits.
    pub cache_hit: u64,
    /// Warm-cache misses.
    pub cache_miss: u64,
    /// Hierarchies evicted by the byte budget.
    pub cache_evict: u64,
    /// Requests rejected by admission control (`busy`).
    pub rejected: u64,
    /// Connections dropped mid-message.
    pub disconnects: u64,
    /// Explicit `warm` requests served.
    pub warm: u64,
    /// `ingest` requests served (hits and builds alike).
    pub ingest: u64,
    /// Hierarchies currently cached.
    pub cache_entries: u64,
    /// Estimated bytes held by cached hierarchies.
    pub cache_bytes: u64,
    /// Latency summaries: `("queue_p50", seconds)`, per phase × quantile.
    pub latency: Vec<(String, f64)>,
}

/// A parsed response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed `solve`.
    Solved(SolveReply),
    /// A completed `warm`.
    Warmed {
        /// Cache key of the (now warm) hierarchy.
        fingerprint: u64,
        /// Whether it was already warm.
        cache_hit: bool,
        /// Hierarchy construction seconds (0 on a hit).
        setup_s: f64,
    },
    /// A completed `ingest`: the uploaded mesh's hierarchy is warm.
    Ingested(IngestReply),
    /// A `stats` snapshot.
    Stats(StatsReply),
    /// Shutdown acknowledged; the daemon is draining.
    ShuttingDown,
    /// Admission control rejected the request; retry later.
    Busy,
    /// Any other failure, with a human-readable message.
    Error(String),
}

fn get_usize(v: &Value, key: &str) -> Option<usize> {
    let n = v.get(key)?.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64).then_some(n as usize)
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// An array of finite numbers. JSON has no spelling for NaN, but `1e999`
/// is a well-formed number that parses to `+∞`; `what` names the field in
/// the error.
fn f64_array(v: &Value, what: &str) -> Result<Vec<f64>, String> {
    match v {
        Value::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| match item.as_f64() {
                Some(x) if x.is_finite() => Ok(x),
                Some(x) => Err(format!("{what}[{i}] is not finite ({x})")),
                None => Err(format!("{what}[{i}] is not a number")),
            })
            .collect(),
        _ => Err(format!("{what} must be an array of numbers")),
    }
}

/// Hex-encode bytes as a JSON string (hex needs no JSON escaping, so the
/// quotes can be written directly).
fn write_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out.push('"');
}

fn parse_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("hex payload has odd length".into());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    };
    s.as_bytes()
        .chunks(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

fn write_f64_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_num(out, x);
    }
    out.push(']');
}

/// Render a request to its JSON frame payload.
pub fn render_request(req: &Request) -> String {
    let mut out = String::new();
    match req {
        Request::Solve(s) => {
            out.push_str("{\"op\":\"solve\",\"id\":");
            json::write_str(&mut out, &s.id);
            out.push_str(",\"rtol\":");
            json::write_num(&mut out, s.rtol);
            match &s.target {
                SolveTarget::Spec(spec) => {
                    out.push_str(",\"problem\":");
                    spec.to_json(&mut out);
                }
                SolveTarget::Fingerprint(fp) => {
                    out.push_str(",\"fingerprint\":");
                    json::write_str(&mut out, &prometheus::fingerprint_hex(*fp));
                }
            }
            if let Some(rhs) = &s.rhs {
                out.push_str(",\"rhs\":");
                write_f64_array(&mut out, rhs);
            }
            out.push('}');
        }
        Request::Warm(spec) => {
            out.push_str("{\"op\":\"warm\",\"problem\":");
            spec.to_json(&mut out);
            out.push('}');
        }
        Request::Ingest(r) => {
            out.push_str("{\"op\":\"ingest\",\"id\":");
            json::write_str(&mut out, &r.id);
            out.push_str(",\"nranks\":");
            json::write_u64(&mut out, r.nranks as u64);
            out.push_str(",\"mesh\":");
            write_hex(&mut out, &r.mesh);
            out.push('}');
        }
        Request::Stats => out.push_str("{\"op\":\"stats\"}"),
        Request::Shutdown => out.push_str("{\"op\":\"shutdown\"}"),
    }
    out
}

/// Parse a request frame payload.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let v = json::parse(text)?;
    let op = v.get("op").and_then(Value::as_str).ok_or("op missing")?;
    match op {
        "solve" => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let rtol = get_f64(&v, "rtol").unwrap_or(pmg_bench::PARITY_RTOL);
            if rtol <= 0.0 || !rtol.is_finite() {
                return Err(format!("rtol {rtol} out of range"));
            }
            let target = match (v.get("problem"), v.get("fingerprint")) {
                (Some(p), None) => SolveTarget::Spec(ProblemSpec::from_json(p)?),
                (None, Some(f)) => {
                    let hex = f.as_str().ok_or("fingerprint must be a hex string")?;
                    let fp = prometheus::parse_fingerprint_hex(hex)
                        .ok_or_else(|| format!("bad fingerprint {hex:?}"))?;
                    SolveTarget::Fingerprint(fp)
                }
                (Some(_), Some(_)) => return Err("give problem OR fingerprint, not both".into()),
                (None, None) => return Err("solve needs a problem or a fingerprint".into()),
            };
            let rhs = match v.get("rhs") {
                Some(r) => Some(f64_array(r, "rhs")?),
                None => None,
            };
            Ok(Request::Solve(SolveRequest {
                id,
                target,
                rhs,
                rtol,
            }))
        }
        "warm" => {
            let p = v.get("problem").ok_or("warm needs a problem")?;
            Ok(Request::Warm(ProblemSpec::from_json(p)?))
        }
        "ingest" => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let nranks = get_usize(&v, "nranks").ok_or("ingest.nranks missing")?;
            if nranks == 0 || nranks > 4096 {
                return Err(format!("ingest.nranks {nranks} out of range"));
            }
            let hex = v
                .get("mesh")
                .and_then(Value::as_str)
                .ok_or("ingest needs hex mesh bytes")?;
            let mesh = parse_hex(hex)?;
            if mesh.is_empty() {
                return Err("ingest mesh payload is empty".into());
            }
            Ok(Request::Ingest(IngestRequest { id, mesh, nranks }))
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Render a response to its JSON frame payload.
pub fn render_response(resp: &Response) -> String {
    let mut out = String::new();
    match resp {
        Response::Solved(r) => {
            out.push_str("{\"ok\":true,\"op\":\"solve\",\"id\":");
            json::write_str(&mut out, &r.id);
            out.push_str(",\"fingerprint\":");
            json::write_str(&mut out, &prometheus::fingerprint_hex(r.fingerprint));
            out.push_str(",\"cache\":");
            json::write_str(&mut out, if r.cache_hit { "hit" } else { "miss" });
            out.push_str(",\"batched\":");
            json::write_u64(&mut out, r.batched as u64);
            out.push_str(",\"iterations\":");
            json::write_u64(&mut out, r.iterations as u64);
            out.push_str(",\"converged\":");
            out.push_str(if r.converged { "true" } else { "false" });
            out.push_str(",\"breakdown\":");
            out.push_str(if r.breakdown { "true" } else { "false" });
            out.push_str(",\"queue_s\":");
            json::write_num(&mut out, r.queue_s);
            out.push_str(",\"setup_s\":");
            json::write_num(&mut out, r.setup_s);
            out.push_str(",\"solve_s\":");
            json::write_num(&mut out, r.solve_s);
            out.push_str(",\"x\":");
            write_f64_array(&mut out, &r.x);
            out.push('}');
        }
        Response::Warmed {
            fingerprint,
            cache_hit,
            setup_s,
        } => {
            out.push_str("{\"ok\":true,\"op\":\"warm\",\"fingerprint\":");
            json::write_str(&mut out, &prometheus::fingerprint_hex(*fingerprint));
            out.push_str(",\"cache\":");
            json::write_str(&mut out, if *cache_hit { "hit" } else { "miss" });
            out.push_str(",\"setup_s\":");
            json::write_num(&mut out, *setup_s);
            out.push('}');
        }
        Response::Ingested(r) => {
            out.push_str("{\"ok\":true,\"op\":\"ingest\",\"fingerprint\":");
            json::write_str(&mut out, &prometheus::fingerprint_hex(r.fingerprint));
            out.push_str(",\"cache\":");
            json::write_str(&mut out, if r.cache_hit { "hit" } else { "miss" });
            out.push_str(",\"setup_s\":");
            json::write_num(&mut out, r.setup_s);
            out.push_str(",\"dofs\":");
            json::write_u64(&mut out, r.dofs as u64);
            out.push_str(",\"element_imbalance\":");
            json::write_num(&mut out, r.element_imbalance);
            out.push('}');
        }
        Response::Stats(s) => {
            out.push_str("{\"ok\":true,\"op\":\"stats\"");
            for (key, val) in [
                ("requests", s.requests),
                ("cache_hit", s.cache_hit),
                ("cache_miss", s.cache_miss),
                ("cache_evict", s.cache_evict),
                ("rejected", s.rejected),
                ("disconnects", s.disconnects),
                ("warm", s.warm),
                ("ingest", s.ingest),
                ("cache_entries", s.cache_entries),
                ("cache_bytes", s.cache_bytes),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                json::write_u64(&mut out, val);
            }
            out.push_str(",\"latency\":{");
            for (i, (name, v)) in s.latency.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, name);
                out.push(':');
                json::write_num(&mut out, *v);
            }
            out.push_str("}}");
        }
        Response::ShuttingDown => out.push_str("{\"ok\":true,\"op\":\"shutdown\"}"),
        Response::Busy => out.push_str("{\"ok\":false,\"error\":\"busy\"}"),
        Response::Error(msg) => {
            out.push_str("{\"ok\":false,\"error\":");
            json::write_str(&mut out, msg);
            out.push('}');
        }
    }
    out
}

/// Parse a response frame payload.
pub fn parse_response(payload: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let v = json::parse(text)?;
    let ok = matches!(v.get("ok"), Some(Value::Bool(true)));
    if !ok {
        let msg = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error");
        return Ok(if msg == "busy" {
            Response::Busy
        } else {
            Response::Error(msg.to_string())
        });
    }
    let op = v.get("op").and_then(Value::as_str).ok_or("op missing")?;
    let fingerprint = |v: &Value| -> Result<u64, String> {
        let hex = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("fingerprint missing")?;
        prometheus::parse_fingerprint_hex(hex).ok_or_else(|| format!("bad fingerprint {hex:?}"))
    };
    match op {
        "solve" => Ok(Response::Solved(SolveReply {
            id: v
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            fingerprint: fingerprint(&v)?,
            cache_hit: v.get("cache").and_then(Value::as_str) == Some("hit"),
            batched: get_usize(&v, "batched").ok_or("batched missing")?,
            iterations: get_usize(&v, "iterations").ok_or("iterations missing")?,
            converged: matches!(v.get("converged"), Some(Value::Bool(true))),
            breakdown: matches!(v.get("breakdown"), Some(Value::Bool(true))),
            queue_s: get_f64(&v, "queue_s").unwrap_or(0.0),
            setup_s: get_f64(&v, "setup_s").unwrap_or(0.0),
            solve_s: get_f64(&v, "solve_s").unwrap_or(0.0),
            x: f64_array(v.get("x").ok_or("x missing")?, "x")?,
        })),
        "warm" => Ok(Response::Warmed {
            fingerprint: fingerprint(&v)?,
            cache_hit: v.get("cache").and_then(Value::as_str) == Some("hit"),
            setup_s: get_f64(&v, "setup_s").unwrap_or(0.0),
        }),
        "ingest" => Ok(Response::Ingested(IngestReply {
            fingerprint: fingerprint(&v)?,
            cache_hit: v.get("cache").and_then(Value::as_str) == Some("hit"),
            setup_s: get_f64(&v, "setup_s").unwrap_or(0.0),
            dofs: get_usize(&v, "dofs").ok_or("dofs missing")?,
            element_imbalance: get_f64(&v, "element_imbalance").unwrap_or(0.0),
        })),
        "stats" => {
            let mut s = StatsReply {
                requests: get_u64(&v, "requests"),
                cache_hit: get_u64(&v, "cache_hit"),
                cache_miss: get_u64(&v, "cache_miss"),
                cache_evict: get_u64(&v, "cache_evict"),
                rejected: get_u64(&v, "rejected"),
                disconnects: get_u64(&v, "disconnects"),
                warm: get_u64(&v, "warm"),
                ingest: get_u64(&v, "ingest"),
                cache_entries: get_u64(&v, "cache_entries"),
                cache_bytes: get_u64(&v, "cache_bytes"),
                latency: Vec::new(),
            };
            if let Some(Value::Obj(pairs)) = v.get("latency") {
                for (name, val) in pairs {
                    if let Some(x) = val.as_f64() {
                        s.latency.push((name.clone(), x));
                    }
                }
            }
            Ok(Response::Stats(s))
        }
        "shutdown" => Ok(Response::ShuttingDown),
        other => Err(format!("unknown response op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // Chop inside the payload and inside the header.
        for cut in [6, 2] {
            let mut r = &buf[..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_header_rejected() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Solve(SolveRequest {
                id: "r1".into(),
                target: SolveTarget::Spec(ProblemSpec {
                    name: "spheres".into(),
                    k: 0,
                    nranks: 2,
                }),
                rhs: Some(vec![1.0, -2.5, 1.0 / 3.0]),
                rtol: 1e-6,
            }),
            Request::Solve(SolveRequest {
                id: String::new(),
                target: SolveTarget::Fingerprint(0xdeadbeef12345678),
                rhs: None,
                rtol: 1e-8,
            }),
            Request::Warm(ProblemSpec {
                name: "spheres".into(),
                k: 1,
                nranks: 4,
            }),
            Request::Ingest(IngestRequest {
                id: "up1".into(),
                mesh: vec![0x00, 0x7f, 0x80, 0xff, 0x0a],
                nranks: 4,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let rendered = render_request(&req);
            assert_eq!(
                parse_request(rendered.as_bytes()).unwrap(),
                req,
                "{rendered}"
            );
        }
    }

    #[test]
    fn responses_roundtrip_bitwise() {
        // The solution vector must survive the wire bit-for-bit.
        let x = vec![1.0 / 3.0, -0.0, 6.02e23, 1e-300, f64::MIN_POSITIVE];
        let resp = Response::Solved(SolveReply {
            id: "q".into(),
            fingerprint: 0x0123456789abcdef,
            cache_hit: true,
            batched: 1,
            iterations: 13,
            converged: false,
            breakdown: true,
            queue_s: 0.001,
            setup_s: 0.0,
            solve_s: 0.25,
            x: x.clone(),
        });
        let rendered = render_response(&resp);
        match parse_response(rendered.as_bytes()).unwrap() {
            Response::Solved(r) => {
                for (a, b) in r.x.iter().zip(&x) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert!(r.cache_hit);
                assert_eq!(r.batched, 1);
                assert!(r.breakdown && !r.converged);
            }
            other => panic!("{other:?}"),
        }
        for resp in [
            Response::Warmed {
                fingerprint: 7,
                cache_hit: false,
                setup_s: 1.25,
            },
            Response::Ingested(IngestReply {
                fingerprint: 0xfeed,
                cache_hit: false,
                setup_s: 0.5,
                dofs: 8000,
                element_imbalance: 1.125,
            }),
            Response::Stats(StatsReply {
                requests: 10,
                cache_hit: 8,
                cache_miss: 2,
                cache_evict: 1,
                rejected: 3,
                disconnects: 1,
                warm: 2,
                ingest: 5,
                cache_entries: 2,
                cache_bytes: 123456,
                latency: vec![("queue_p50".into(), 0.001), ("solve_p99".into(), 0.5)],
            }),
            Response::ShuttingDown,
            Response::Busy,
            Response::Error("nope".into()),
        ] {
            let rendered = render_response(&resp);
            assert_eq!(
                parse_response(rendered.as_bytes()).unwrap(),
                resp,
                "{rendered}"
            );
        }
    }

    #[test]
    fn bad_requests_rejected() {
        for bad in [
            "{}",
            "{\"op\":\"solve\"}",
            "{\"op\":\"solve\",\"problem\":{\"name\":\"spheres\",\"k\":0,\"nranks\":0}}",
            "{\"op\":\"solve\",\"fingerprint\":\"zz\"}",
            "{\"op\":\"solve\",\"problem\":{\"name\":\"s\",\"k\":0,\"nranks\":2},\"fingerprint\":\"0000000000000000\"}",
            "{\"op\":\"nope\"}",
            "not json",
            "{\"op\":\"ingest\",\"nranks\":2}",
            "{\"op\":\"ingest\",\"nranks\":2,\"mesh\":\"\"}",
            "{\"op\":\"ingest\",\"nranks\":2,\"mesh\":\"abc\"}",
            "{\"op\":\"ingest\",\"nranks\":2,\"mesh\":\"zz\"}",
            "{\"op\":\"ingest\",\"nranks\":0,\"mesh\":\"ff\"}",
        ] {
            assert!(parse_request(bad.as_bytes()).is_err(), "{bad}");
        }
        // A well-formed JSON number can still overflow to an infinity.
        for (huge, shown) in [("1e999", "inf"), ("-1e999", "-inf")] {
            let req = format!(
                "{{\"op\":\"solve\",\"fingerprint\":\"0000000000000000\",\"rhs\":[1.5,0,{huge}]}}"
            );
            assert_eq!(
                parse_request(req.as_bytes()),
                Err(format!("rhs[2] is not finite ({shown})"))
            );
        }
    }
}

//! The daemon: socket listeners, per-connection worker threads, and the
//! lifecycle (admission → dispatch → drain → exit).
//!
//! One dispatcher thread exclusively owns every solver (see
//! [`crate::batch`]); connection threads only frame, parse, and submit.
//! Admission control is the bounded job queue: `try_send` on a full
//! queue returns `busy` to the client immediately instead of letting
//! latency grow without bound. A `shutdown` request flips a flag — the
//! accept loops stop, open connections finish their current request,
//! the dispatcher drains what was admitted, and every thread joins.
//!
//! A client that disappears mid-message costs exactly one connection
//! thread its loop: the framing layer reports `UnexpectedEof`, the
//! thread counts a disconnect and exits. Nothing was queued (jobs are
//! submitted only after a complete frame parses), so no solve can wedge
//! on a vanished peer; a client that dies *after* submitting merely
//! makes the reply send a no-op.

use crate::batch::{Dispatcher, Job, SharedCounters, SolveJob};
use crate::protocol::{parse_request, render_response, write_frame, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on (created fresh; a stale file
    /// at the path is removed). Unix targets only.
    pub unix_path: Option<PathBuf>,
    /// TCP address to listen on, e.g. `"127.0.0.1:0"` (port 0 picks a
    /// free port; see [`ServerHandle::tcp_addr`]).
    pub tcp_addr: Option<String>,
    /// Job-queue bound — the admission-control depth. A full queue
    /// rejects new requests with `busy`.
    pub queue_cap: usize,
    /// Warm-hierarchy cache byte budget (LRU beyond it).
    pub cache_bytes: usize,
    /// Test knob: the dispatcher dwells this long in each solve before
    /// solving, so the back-pressure test's queue-full window is
    /// deterministic.
    pub hold_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix_path: None,
            tcp_addr: None,
            queue_cap: 64,
            cache_bytes: 256 << 20,
            hold_ms: 0,
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; send a
/// `shutdown` request and [`wait`](ServerHandle::wait).
pub struct ServerHandle {
    accept_threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    dispatcher: Option<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound TCP address, when a TCP listener was configured (this
    /// is how a `tcp_addr` of port 0 reports the picked port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Block until the daemon has fully drained and every thread has
    /// exited. Call after shutdown has been requested.
    pub fn wait(mut self) {
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Accept loops are gone, so the conn-thread list is final.
        let conns = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for t in conns {
            let _ = t.join();
        }
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        #[cfg(unix)]
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
        #[cfg(not(unix))]
        let _ = &self.unix_path;
    }
}

/// Start the daemon: bind the configured listeners, spawn the
/// dispatcher and accept threads, return immediately.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    if config.unix_path.is_none() && config.tcp_addr.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "configure a unix path and/or a tcp address",
        ));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(SharedCounters::default());
    let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_cap);
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let dispatcher = {
        let dispatcher = Dispatcher::new(rx, &config, Arc::clone(&shutdown), Arc::clone(&shared));
        std::thread::Builder::new()
            .name("pmg-serve-dispatch".into())
            .spawn(move || dispatcher.run())?
    };

    let mut accept_threads = Vec::new();
    let mut tcp_addr = None;

    if let Some(addr) = &config.tcp_addr {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let tx = tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conn_threads);
        accept_threads.push(
            std::thread::Builder::new()
                .name("pmg-serve-accept-tcp".into())
                .spawn(move || {
                    accept_loop(
                        &shutdown,
                        || match listener.accept() {
                            Ok((s, _)) => Some(Ok(s)),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                            Err(e) => Some(Err(e)),
                        },
                        |s| spawn_conn(s, &tx, &shutdown, &shared, &conns),
                    );
                })?,
        );
    }

    #[cfg(unix)]
    let bound_unix = if let Some(path) = &config.unix_path {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let tx = tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conn_threads);
        accept_threads.push(
            std::thread::Builder::new()
                .name("pmg-serve-accept-unix".into())
                .spawn(move || {
                    accept_loop(
                        &shutdown,
                        || match listener.accept() {
                            Ok((s, _)) => Some(Ok(s)),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                            Err(e) => Some(Err(e)),
                        },
                        |s| spawn_conn(s, &tx, &shutdown, &shared, &conns),
                    );
                })?,
        );
        config.unix_path.clone()
    } else {
        None
    };
    #[cfg(not(unix))]
    let bound_unix: Option<PathBuf> = if config.unix_path.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        ));
    } else {
        None
    };

    drop(tx); // dispatcher exit tracks accept + connection senders only
    Ok(ServerHandle {
        accept_threads,
        conn_threads,
        dispatcher: Some(dispatcher),
        tcp_addr,
        unix_path: bound_unix,
    })
}

/// Poll `accept` until shutdown, handing each connection to `spawn`.
fn accept_loop<S>(
    shutdown: &AtomicBool,
    mut accept: impl FnMut() -> Option<io::Result<S>>,
    mut spawn: impl FnMut(S),
) {
    while !shutdown.load(Ordering::SeqCst) {
        match accept() {
            Some(Ok(stream)) => spawn(stream),
            Some(Err(_)) => std::thread::sleep(Duration::from_millis(20)),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// A connected client stream: framed I/O plus a read timeout so the
/// worker can notice shutdown while idle.
trait ConnStream: Read + Write + Send + 'static {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

#[cfg(unix)]
impl ConnStream for UnixStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

fn spawn_conn<S: ConnStream>(
    stream: S,
    tx: &SyncSender<Job>,
    shutdown: &Arc<AtomicBool>,
    shared: &Arc<SharedCounters>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let tx = tx.clone();
    let shutdown = Arc::clone(shutdown);
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("pmg-serve-conn".into())
        .spawn(move || serve_conn(stream, &tx, &shutdown, &shared))
        .expect("spawn connection thread");
    conns.lock().unwrap().push(handle);
}

/// Read one frame with the shutdown flag honoured while *between*
/// frames: an idle wait returns `Ok(None)` once shutdown is requested,
/// but a frame whose header has started is read to completion (bounded
/// by a stall deadline, after which the peer counts as disconnected).
fn read_frame_interruptible<S: ConnStream>(
    s: &mut S,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    const STALL: Duration = Duration::from_secs(10);
    s.set_read_timeout_ms(Some(50))?;
    let mut header = [0u8; 4];
    let mut got = 0;
    let mut started = None::<Instant>;
    while got < 4 {
        match s.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-header",
                ))
            }
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                match started {
                    None if shutdown.load(Ordering::SeqCst) => return Ok(None),
                    Some(t0) if t0.elapsed() > STALL => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-header",
                        ))
                    }
                    _ => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > crate::protocol::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized frame ({len} bytes)"),
        ));
    }
    let t0 = Instant::now();
    let mut buf = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match s.read(&mut buf[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-payload",
                ))
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if t0.elapsed() > STALL {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-payload",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(buf))
}

/// One connection's request/response loop.
fn serve_conn<S: ConnStream>(
    mut stream: S,
    tx: &SyncSender<Job>,
    shutdown: &AtomicBool,
    shared: &SharedCounters,
) {
    loop {
        let payload = match read_frame_interruptible(&mut stream, shutdown) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close (or idle at shutdown)
            Err(_) => {
                // Mid-message close or stall: the per-connection error
                // path. Nothing was enqueued for this frame, so no queue
                // slot is held; just count it and go.
                shared.disconnects.fetch_add(1, Ordering::SeqCst);
                pmg_telemetry::counter_add("serve/disconnects", 1);
                return;
            }
        };
        let req = match parse_request(&payload) {
            Ok(r) => r,
            Err(msg) => {
                if respond(&mut stream, &Response::Error(msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        let resp = match req {
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                let _ = respond(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Stats => submit(tx, shared, Job::Stats),
            Request::Warm(spec) => submit(tx, shared, |reply| Job::Warm(spec, reply)),
            Request::Ingest(req) => submit(tx, shared, |reply| Job::Ingest(req, reply)),
            Request::Solve(req) => {
                if shutdown.load(Ordering::SeqCst) {
                    Response::Error("shutting down".into())
                } else {
                    submit(tx, shared, move |reply| {
                        Job::Solve(SolveJob {
                            req,
                            enqueued: Instant::now(),
                            reply,
                        })
                    })
                }
            }
        };
        if respond(&mut stream, &resp).is_err() {
            // Peer vanished between request and reply; the solve (if
            // any) already completed — drop the connection quietly.
            return;
        }
    }
}

/// Submit a job through admission control and wait for its reply. A
/// full queue is the backpressure path: `busy`, and the client retries.
fn submit(
    tx: &SyncSender<Job>,
    shared: &SharedCounters,
    job: impl FnOnce(mpsc::Sender<Response>) -> Job,
) -> Response {
    let (reply_tx, reply_rx) = mpsc::channel();
    match tx.try_send(job(reply_tx)) {
        Ok(()) => match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => Response::Error("dispatcher exited before replying".into()),
        },
        Err(TrySendError::Full(_)) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            pmg_telemetry::counter_add("serve/rejected", 1);
            Response::Busy
        }
        Err(TrySendError::Disconnected(_)) => Response::Error("dispatcher exited".into()),
    }
}

fn respond(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_frame(stream, render_response(resp).as_bytes())
}

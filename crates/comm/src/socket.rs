//! Multi-process transport over Unix-domain sockets.
//!
//! Each rank is a separate OS process. Rank `r` binds a listening socket at
//! `<dir>/<r>.sock`, actively connects to every lower rank (retrying until
//! that rank's listener exists), and accepts one connection from every
//! higher rank; the first frame on an accepted stream is a *hello* carrying
//! the sender's rank. After wiring, every pair of ranks shares one
//! bidirectional stream.
//!
//! Wire format per message: `[tag: u32 LE][len: u32 LE][payload: len bytes]`.
//! A stream preserves order, giving the per-peer FIFO guarantee the
//! [`Transport`] contract requires.
//!
//! The `pmg-launch` binary (see [`crate::launch`]) spawns `N` ranks with
//! the environment [`connect_from_env`](SocketTransport::connect_from_env)
//! reads: `PMG_COMM_RANK`, `PMG_COMM_SIZE`, `PMG_COMM_DIR`.

use crate::{CommError, CommStats, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reserved tag for the post-connect hello frame.
const HELLO_TAG: u32 = 0xFFFF_FFFF;
/// How long wiring waits for peers to appear before giving up.
const WIRE_TIMEOUT: Duration = Duration::from_secs(20);
/// Default blocking-receive deadline (see `local.rs` for rationale).
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);
/// The longest one blocking read waits before `recv` checks its deadline.
const READ_SLICE: Duration = Duration::from_millis(50);

struct Peer {
    stream: UnixStream,
    /// Bytes read off the stream but not yet parsed into whole frames.
    buf: Vec<u8>,
}

/// One rank's endpoint of a multi-process machine wired over Unix-domain
/// sockets.
pub struct SocketTransport {
    rank: usize,
    size: usize,
    /// Index = peer rank; `None` at our own slot.
    peers: Vec<Option<Peer>>,
    pending: BTreeMap<(usize, u32), VecDeque<Vec<u8>>>,
    stats: CommStats,
    recv_timeout: Duration,
}

impl SocketTransport {
    /// Wire up rank `rank` of a `size`-rank machine rendezvousing in `dir`.
    pub fn connect(rank: usize, size: usize, dir: &Path) -> Result<SocketTransport, CommError> {
        if rank >= size {
            return Err(CommError::Invalid(format!("rank {rank} of size {size}")));
        }
        let mut peers: Vec<Option<Peer>> = (0..size).map(|_| None).collect();
        if size > 1 {
            let listener = UnixListener::bind(sock_path(dir, rank))?;
            // Connect to every lower rank; their listeners may not exist
            // yet, so retry until the wiring deadline.
            for (p, slot) in peers.iter_mut().enumerate().take(rank) {
                let stream = connect_retry(&sock_path(dir, p))?;
                let mut hello = Vec::with_capacity(12);
                hello.extend_from_slice(&HELLO_TAG.to_le_bytes());
                hello.extend_from_slice(&4u32.to_le_bytes());
                hello.extend_from_slice(&(rank as u32).to_le_bytes());
                let mut s = stream.try_clone()?;
                s.write_all(&hello)?;
                *slot = Some(Peer {
                    stream,
                    buf: Vec::new(),
                });
            }
            // Accept one connection from every higher rank; identify each
            // by its hello frame.
            for _ in rank + 1..size {
                let (stream, _) = listener.accept()?;
                stream.set_read_timeout(Some(WIRE_TIMEOUT))?;
                let mut hdr = [0u8; 12];
                let mut s = stream.try_clone()?;
                s.read_exact(&mut hdr)?;
                let tag = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
                let len = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
                if tag != HELLO_TAG || len != 4 {
                    return Err(CommError::Invalid("bad hello frame".into()));
                }
                let from = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
                if from <= rank || from >= size || peers[from].is_some() {
                    return Err(CommError::Invalid(format!("bad hello from rank {from}")));
                }
                peers[from] = Some(Peer {
                    stream,
                    buf: Vec::new(),
                });
            }
        }
        Ok(SocketTransport {
            rank,
            size,
            peers,
            pending: BTreeMap::new(),
            stats: CommStats::default(),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        })
    }

    /// Wire up from the environment `pmg-launch` sets: `PMG_COMM_RANK`,
    /// `PMG_COMM_SIZE`, `PMG_COMM_DIR`.
    pub fn connect_from_env() -> Result<SocketTransport, CommError> {
        let var = |name: &str| -> Result<String, CommError> {
            std::env::var(name).map_err(|_| CommError::Invalid(format!("{name} not set")))
        };
        let rank: usize = var("PMG_COMM_RANK")?
            .parse()
            .map_err(|_| CommError::Invalid("bad PMG_COMM_RANK".into()))?;
        let size: usize = var("PMG_COMM_SIZE")?
            .parse()
            .map_err(|_| CommError::Invalid("bad PMG_COMM_SIZE".into()))?;
        let dir = PathBuf::from(var("PMG_COMM_DIR")?);
        SocketTransport::connect(rank, size, &dir)
    }

    /// Override the blocking-receive deadline.
    pub fn set_recv_timeout(&mut self, d: Duration) {
        self.recv_timeout = d;
    }

    /// Parse complete frames out of `peer.buf`, stashing them under
    /// `(from, tag)` in `pending`.
    fn drain_frames(
        pending: &mut BTreeMap<(usize, u32), VecDeque<Vec<u8>>>,
        from: usize,
        peer: &mut Peer,
    ) {
        let mut at = 0usize;
        while peer.buf.len() - at >= 8 {
            let tag = u32::from_le_bytes(peer.buf[at..at + 4].try_into().unwrap());
            let len = u32::from_le_bytes(peer.buf[at + 4..at + 8].try_into().unwrap()) as usize;
            if peer.buf.len() - at - 8 < len {
                break;
            }
            let payload = peer.buf[at + 8..at + 8 + len].to_vec();
            pending.entry((from, tag)).or_default().push_back(payload);
            at += 8 + len;
        }
        if at > 0 {
            peer.buf.drain(..at);
        }
    }

    /// Blocking-read more bytes from peer `from` (for at most
    /// [`READ_SLICE`]), then parse.
    fn pump_peer(&mut self, from: usize) -> Result<(), CommError> {
        let peer = match self.peers[from].as_mut() {
            Some(p) => p,
            None => return Err(CommError::Invalid(format!("no connection to rank {from}"))),
        };
        peer.stream.set_read_timeout(Some(READ_SLICE))?;
        let mut chunk = [0u8; 64 * 1024];
        match peer.stream.read(&mut chunk) {
            // End-of-stream, or a reset because the peer closed with bytes
            // of ours unread: either way its endpoint is gone.
            Ok(0) => Err(CommError::Disconnected { peer: from }),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                Err(CommError::Disconnected { peer: from })
            }
            Ok(n) => {
                peer.buf.extend_from_slice(&chunk[..n]);
                Self::drain_frames(&mut self.pending, from, peer);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn pop_pending(&mut self, from: usize, tag: u32) -> Option<Vec<u8>> {
        self.pending
            .get_mut(&(from, tag))
            .and_then(|q| q.pop_front())
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError> {
        let peer = self
            .peers
            .get_mut(to)
            .and_then(|p| p.as_mut())
            .ok_or_else(|| CommError::Invalid(format!("send to rank {to} of {}", self.size)))?;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        peer.stream
            .write_all(&frame)
            .map_err(|_| CommError::Disconnected { peer: to })?;
        self.stats.on_send(payload.len());
        Ok(())
    }

    fn recv(&mut self, from: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        if let Some(p) = self.pop_pending(from, tag) {
            return Ok(p);
        }
        let start = Instant::now();
        loop {
            if start.elapsed() >= self.recv_timeout {
                self.stats.on_wait(start.elapsed().as_secs_f64());
                return Err(CommError::Timeout { peer: from });
            }
            match self.pump_peer(from) {
                Ok(()) => {
                    if let Some(p) = self.pop_pending(from, tag) {
                        self.stats.on_wait(start.elapsed().as_secs_f64());
                        return Ok(p);
                    }
                }
                Err(e) => {
                    self.stats.on_wait(start.elapsed().as_secs_f64());
                    return Err(e);
                }
            }
        }
    }

    fn stats(&self) -> CommStats {
        self.stats
    }

    fn note_allreduce(&mut self) {
        self.stats.allreduces += 1;
    }
}

/// Path of rank `r`'s listening socket inside `dir`.
pub fn sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("{rank}.sock"))
}

fn connect_retry(path: &Path) -> Result<UnixStream, CommError> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() >= WIRE_TIMEOUT {
                    return Err(CommError::Io(format!(
                        "connect to {} timed out: {e}",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_scalar;
    use crate::tree_combine;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pmg-comm-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sockets between threads exercise the same code path as between
    /// processes — the fd semantics are identical.
    #[test]
    fn socket_allreduce_matches_tree() {
        let dir = temp_dir("allreduce");
        let partials = [0.1, 0.2, 0.3];
        let expect = tree_combine(&partials);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|rank| {
                    let dir = dir.clone();
                    s.spawn(move || {
                        let mut t = SocketTransport::connect(rank, 3, &dir).unwrap();
                        allreduce_scalar(&mut t, partials[rank]).unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().to_bits(), expect.to_bits());
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn socket_partial_frames_reassemble() {
        let dir = temp_dir("frames");
        std::thread::scope(|s| {
            let d0 = dir.clone();
            let sender = s.spawn(move || {
                let mut t = SocketTransport::connect(0, 2, &d0).unwrap();
                // Several frames back to back, including an empty payload.
                t.send(1, 3, &[7u8; 1000]).unwrap();
                t.send(1, 4, b"").unwrap();
                t.send(1, 3, b"tail").unwrap();
                t.stats()
            });
            let d1 = dir.clone();
            let receiver = s.spawn(move || {
                let mut t = SocketTransport::connect(1, 2, &d1).unwrap();
                let a = t.recv(0, 3).unwrap();
                let b = t.recv(0, 4).unwrap();
                let c = t.recv(0, 3).unwrap();
                (a, b, c)
            });
            let st = sender.join().unwrap();
            assert_eq!(st.msgs, 3);
            assert_eq!(st.bytes, 1004);
            let (a, b, c) = receiver.join().unwrap();
            assert_eq!(a, vec![7u8; 1000]);
            assert!(b.is_empty());
            assert_eq!(c, b"tail");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

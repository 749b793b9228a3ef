#![warn(missing_docs)]

//! A real message-passing runtime under the BSP seam.
//!
//! The paper's Prometheus runs flat MPI over up to 960 processors; the
//! sibling `pmg-parallel` crate reproduces the *algorithmic* structure of
//! that machine with virtual ranks in one address space, counting every
//! message against a BSP model. This crate supplies the other half: a
//! [`Transport`] trait with point-to-point send/recv and deterministic
//! collectives, plus implementations that really move bytes —
//!
//! * [`LocalTransport`] — every rank is an OS thread with private memory,
//!   exchanging `Vec<u8>` messages over channels,
//! * [`SocketTransport`] — every rank is a separate OS process, wired over
//!   Unix-domain sockets by the `pmg-launch` binary (see [`launch`]),
//! * [`FaultTransport`] — a reliability wrapper over any transport that
//!   injects message delay / drop / duplication and recovers with
//!   sequence numbers, ACKs, and timeout+retry (plus a crash-rank mode).
//!
//! The BSP `Sim` of `pmg-parallel` remains the third implementation of the
//! same exchange plans — one that *counts instead of sends*: its modeled
//! traffic for a halo exchange or allreduce is exactly the set of messages
//! the transports here put on the wire.
//!
//! # Determinism contract
//!
//! Floating-point collectives use **fixed-shape binomial trees** whose
//! association order depends only on the rank count — never on timing,
//! thread interleaving, or message arrival order. [`tree_combine`]
//! reproduces that association for an in-memory slice of per-rank partials,
//! which is what the orchestrated (`Sim`) path uses for inner products; a
//! solve therefore produces **bitwise identical** results on the simulated
//! machine, on rank threads, and across processes. See `docs/comm.md`.

pub mod collectives;
pub mod fault;
pub mod halo;
pub mod launch;
pub mod local;
pub mod socket;

pub use collectives::{
    allgather, allgather_u32s, allreduce_many, allreduce_scalar, allreduce_sum, barrier, broadcast,
    gather, scatter,
};
pub use fault::{FaultConfig, FaultTransport};
pub use halo::HaloExchange;
pub use local::LocalTransport;
pub use socket::SocketTransport;

use std::fmt;

/// Errors surfaced by transports and collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive (or a reliable send's acknowledgement) timed out — the
    /// peer is unreachable or crashed.
    Timeout {
        /// Rank we were waiting on.
        peer: usize,
    },
    /// The peer's endpoint is gone (channel closed / socket disconnected).
    Disconnected {
        /// Rank whose endpoint disappeared.
        peer: usize,
    },
    /// Retries were exhausted without an acknowledgement.
    RetriesExhausted {
        /// Destination rank of the unacknowledged message.
        peer: usize,
        /// Number of send attempts made.
        attempts: u32,
    },
    /// An operating-system level I/O failure (socket setup, read, write).
    Io(String),
    /// The transport was asked for something it cannot do (bad rank, bad
    /// environment, unsupported operation).
    Invalid(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { peer } => write!(f, "timed out waiting on rank {peer}"),
            CommError::Disconnected { peer } => write!(f, "rank {peer} disconnected"),
            CommError::RetriesExhausted { peer, attempts } => {
                write!(f, "no ACK from rank {peer} after {attempts} attempts")
            }
            CommError::Io(e) => write!(f, "comm I/O error: {e}"),
            CommError::Invalid(e) => write!(f, "invalid comm operation: {e}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<std::io::Error> for CommError {
    fn from(e: std::io::Error) -> Self {
        CommError::Io(e.to_string())
    }
}

/// A received message: source rank, tag, and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// Application tag.
    pub tag: u32,
    /// Message body.
    pub payload: Vec<u8>,
}

/// Cumulative per-endpoint communication statistics.
///
/// `msgs`/`bytes` count *sent* traffic (matching the BSP model's send-side
/// accounting); `wait_s` is real blocked-in-recv wall time, `retries` counts
/// reliability-layer retransmissions, and `allreduces` counts collective
/// reductions entered through [`collectives::allreduce_sum`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Wall-clock seconds spent blocked in `recv`.
    pub wait_s: f64,
    /// Retransmissions performed by a reliability layer.
    pub retries: u64,
    /// Allreduce collectives entered.
    pub allreduces: u64,
}

impl CommStats {
    /// Record one sent message of `bytes` payload bytes (also feeds the
    /// process-global `comm/msgs` and `comm/bytes` telemetry counters).
    pub fn on_send(&mut self, bytes: usize) {
        self.msgs += 1;
        self.bytes += bytes as u64;
        pmg_telemetry::counter_add("comm/msgs", 1);
        pmg_telemetry::counter_add("comm/bytes", bytes as u64);
    }

    /// Record `dt` seconds of blocking receive wait.
    pub fn on_wait(&mut self, dt: f64) {
        self.wait_s += dt;
    }
}

/// One rank's endpoint of a message-passing machine.
///
/// Point-to-point semantics shared by every implementation:
///
/// * `send` is asynchronous and non-blocking (buffered),
/// * messages between a fixed (sender, receiver) pair arrive in send order
///   (per-peer FIFO) — the collectives and exchange plans rely on this,
/// * `recv(from, tag)` blocks for the next in-order message from `from`
///   carrying `tag`; messages with other tags from the same peer are
///   buffered until asked for.
pub trait Transport {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks in the machine.
    fn size(&self) -> usize;
    /// Send `payload` to rank `to` under `tag`.
    fn send(&mut self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError>;
    /// Receive the next message from rank `from` with tag `tag`.
    fn recv(&mut self, from: usize, tag: u32) -> Result<Vec<u8>, CommError>;
    /// Non-blocking poll for any buffered or arriving message (used by
    /// reliability layers that must demultiplex traffic themselves).
    fn try_recv_any(&mut self) -> Result<Option<Message>, CommError>;
    /// Cumulative statistics of this endpoint.
    fn stats(&self) -> CommStats;
    /// Record entry into one allreduce collective on this endpoint
    /// (called by [`collectives::allreduce_sum`]); shows up in
    /// [`CommStats::allreduces`].
    fn note_allreduce(&mut self) {}
}

/// Fold per-rank partial sums in the **same association order** as the
/// binomial-tree allreduce over that many ranks, so the orchestrated
/// single-address-space path and a real transport produce bitwise
/// identical scalars.
///
/// Pairs adjacent elements each round (an odd tail rides along unchanged):
/// `[p0, p1, p2, p3, p4]` folds as `((p0+p1)+(p2+p3))+p4`, which is exactly
/// the order rank 0 accumulates in [`collectives::allreduce_sum`].
///
/// ```
/// let partials = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let tree = pmg_comm::tree_combine(&partials);
/// assert_eq!(tree, ((1.0 + 2.0) + (3.0 + 4.0)) + 5.0);
/// ```
pub fn tree_combine(partials: &[f64]) -> f64 {
    if partials.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = partials.to_vec();
    while v.len() > 1 {
        let mut next = Vec::with_capacity(v.len().div_ceil(2));
        for pair in v.chunks(2) {
            next.push(if pair.len() == 2 {
                pair[0] + pair[1]
            } else {
                pair[0]
            });
        }
        v = next;
    }
    v[0]
}

/// Serialize a slice of `f64` into little-endian bytes.
pub fn f64s_to_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * vals.len());
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The `f64` values of little-endian bytes, in order, without a buffer of
/// their own.
pub fn f64s_from_bytes(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// Deserialize little-endian bytes into `f64` values.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    f64s_from_bytes(bytes).collect()
}

/// Checked little-endian reader over bytes received from a peer: every
/// accessor returns `None` rather than read past the end, so a decoder
/// turns a short blob into a typed error instead of a slice panic, and
/// [`LeReader::is_empty`] lets it reject an over-long one.
pub struct LeReader<'a> {
    rest: &'a [u8],
}

impl<'a> LeReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> LeReader<'a> {
        LeReader { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some(head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.u32s(1)?.next()
    }

    /// The next `f64`, bit for bit.
    pub fn f64(&mut self) -> Option<f64> {
        self.f64s(1)?.next()
    }

    /// The next `n` `u32` values. The length is checked against the bytes
    /// left before anything is read, so a hostile count cannot make the
    /// caller allocate for values that are not there.
    pub fn u32s(&mut self, n: usize) -> Option<impl Iterator<Item = u32> + 'a> {
        let bytes = self.take(n.checked_mul(4)?)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
        )
    }

    /// The next `n` `f64` values, bit for bit; checked like [`LeReader::u32s`].
    pub fn f64s(&mut self, n: usize) -> Option<impl Iterator<Item = f64> + 'a> {
        Some(f64s_from_bytes(self.take(n.checked_mul(8)?)?))
    }

    /// Whether the blob is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_stops_at_the_end_instead_of_panicking() {
        let mut blob = 7u32.to_le_bytes().to_vec();
        blob.extend_from_slice(&(-0.0f64).to_le_bytes());
        blob.push(9);
        let mut r = LeReader::new(&blob);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert!(r.u32().is_none() && r.f64().is_none(), "one byte left");
        assert!(r.u32s(usize::MAX).is_none() && r.f64s(usize::MAX / 8 + 1).is_none());
        assert!(!r.is_empty());
        assert_eq!(r.u8(), Some(9));
        assert!(r.is_empty() && r.u8().is_none());
        assert_eq!(r.u32s(0).map(|it| it.count()), Some(0));
    }

    #[test]
    fn tree_combine_matches_manual_fold() {
        let p = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        // [1+2, 3+4, 5+6, 7] -> [(1+2)+(3+4), (5+6)+7] -> ...
        let expect = ((1.0 + 2.0) + (3.0 + 4.0)) + ((5.0 + 6.0) + 7.0);
        assert_eq!(tree_combine(&p), expect);
        assert_eq!(tree_combine(&[42.0]), 42.0);
        assert_eq!(tree_combine(&[]), 0.0);
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let v = [1.5, -0.0, f64::MIN_POSITIVE, 1e300];
        let back = bytes_to_f64s(&f64s_to_bytes(&v));
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

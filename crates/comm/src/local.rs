//! In-process transport: each rank is a real thread with private memory,
//! exchanging owned `Vec<u8>` messages over mpsc channels.
//!
//! Unlike the BSP `Sim` — one object orchestrating all virtual ranks in a
//! single address space — a [`LocalTransport`] endpoint belongs to exactly
//! one thread and sees nothing of the other ranks but the messages they
//! send. This is the shared-memory analogue of one MPI process.

use crate::{CommError, CommStats, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Default blocking-receive deadline. Generous enough that no healthy run
/// ever hits it; small enough that a genuinely wedged machine (e.g. a
/// crashed or stalled peer) fails instead of hanging CI.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

struct Frame {
    from: usize,
    tag: u32,
    payload: Vec<u8>,
}

/// One rank's endpoint of an in-process machine created by
/// [`LocalTransport::pairs`].
pub struct LocalTransport {
    rank: usize,
    size: usize,
    inbox: Receiver<Frame>,
    peers: Vec<Sender<Frame>>,
    /// Messages received but not yet asked for, keyed by (from, tag).
    /// FIFO per key; per-peer order is preserved because each sender's
    /// frames arrive through its channel in send order.
    pending: BTreeMap<(usize, u32), VecDeque<Vec<u8>>>,
    stats: CommStats,
    recv_timeout: Duration,
}

impl LocalTransport {
    /// Create a fully-wired `n`-rank machine; element `r` is rank `r`'s
    /// endpoint. Move each endpoint into its own thread.
    pub fn pairs(n: usize) -> Vec<LocalTransport> {
        let mut senders = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| LocalTransport {
                rank,
                size: n,
                inbox,
                peers: senders.clone(),
                pending: BTreeMap::new(),
                stats: CommStats::default(),
                recv_timeout: DEFAULT_RECV_TIMEOUT,
            })
            .collect()
    }

    /// Override the blocking-receive deadline (fault tests shorten it so a
    /// dead or stalled peer fails a case in seconds).
    pub fn set_recv_timeout(&mut self, d: Duration) {
        self.recv_timeout = d;
    }

    /// Run `f` as an SPMD program: spawn one scoped thread per rank, each
    /// owning its endpoint, and return the per-rank results in rank order.
    /// Panics in any rank propagate.
    pub fn run_ranks<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(LocalTransport) -> R + Sync,
    {
        let endpoints = LocalTransport::pairs(n);
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|t| s.spawn(move || f(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }

    fn stash(&mut self, fr: Frame) {
        self.pending
            .entry((fr.from, fr.tag))
            .or_default()
            .push_back(fr.payload);
    }
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError> {
        if to >= self.size {
            return Err(CommError::Invalid(format!(
                "send to rank {to} of {}",
                self.size
            )));
        }
        self.peers[to]
            .send(Frame {
                from: self.rank,
                tag,
                payload: payload.to_vec(),
            })
            .map_err(|_| CommError::Disconnected { peer: to })?;
        self.stats.on_send(payload.len());
        Ok(())
    }

    fn recv(&mut self, from: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        if let Some(q) = self.pending.get_mut(&(from, tag)) {
            if let Some(p) = q.pop_front() {
                return Ok(p);
            }
        }
        let start = Instant::now();
        let deadline = start + self.recv_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.stats.on_wait(start.elapsed().as_secs_f64());
                return Err(CommError::Timeout { peer: from });
            }
            match self.inbox.recv_timeout(deadline - now) {
                Ok(fr) => {
                    if fr.from == from && fr.tag == tag {
                        self.stats.on_wait(start.elapsed().as_secs_f64());
                        return Ok(fr.payload);
                    }
                    self.stash(fr);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.stats.on_wait(start.elapsed().as_secs_f64());
                    return Err(CommError::Timeout { peer: from });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.stats.on_wait(start.elapsed().as_secs_f64());
                    return Err(CommError::Disconnected { peer: from });
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_roundtrip() {
        let results = LocalTransport::run_ranks(2, |mut t| {
            if t.rank() == 0 {
                t.send(1, 7, b"ping").unwrap();
                t.recv(1, 8).unwrap()
            } else {
                let m = t.recv(0, 7).unwrap();
                assert_eq!(m, b"ping");
                t.send(0, 8, b"pong").unwrap();
                Vec::new()
            }
        });
        assert_eq!(results[0], b"pong");
    }

    #[test]
    fn per_peer_fifo_and_tag_demux() {
        let results = LocalTransport::run_ranks(2, |mut t| {
            if t.rank() == 0 {
                t.send(1, 1, b"a1").unwrap();
                t.send(1, 2, b"b1").unwrap();
                t.send(1, 1, b"a2").unwrap();
                Vec::new()
            } else {
                // Ask for tag 2 first: tag-1 frames must be stashed, then
                // delivered in send order.
                let b = t.recv(0, 2).unwrap();
                let a1 = t.recv(0, 1).unwrap();
                let a2 = t.recv(0, 1).unwrap();
                assert_eq!(b, b"b1");
                assert_eq!(a1, b"a1");
                assert_eq!(a2, b"a2");
                b
            }
        });
        assert_eq!(results[1], b"b1");
    }

    #[test]
    fn recv_timeout_is_clean_error() {
        let mut endpoints = LocalTransport::pairs(2);
        let mut t0 = endpoints.remove(0);
        t0.set_recv_timeout(Duration::from_millis(20));
        match t0.recv(1, 0) {
            Err(CommError::Timeout { peer: 1 }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_send_side() {
        let results = LocalTransport::run_ranks(2, |mut t| {
            if t.rank() == 0 {
                t.send(1, 0, &[0u8; 24]).unwrap();
                t.send(1, 0, &[0u8; 8]).unwrap();
            } else {
                t.recv(0, 0).unwrap();
                t.recv(0, 0).unwrap();
            }
            t.stats()
        });
        assert_eq!(results[0].msgs, 2);
        assert_eq!(results[0].bytes, 32);
        assert_eq!(results[1].msgs, 0);
    }
}

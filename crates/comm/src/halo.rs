//! Nonblocking halo exchange: sends post at [`HaloExchange::start`],
//! receives drain at [`HaloExchange::finish`].
//!
//! [`Transport::send`] is already asynchronous (buffered or eagerly written,
//! never blocking on the receiver), so a halo exchange splits naturally into
//! two halves around a compute window — MPI's `Isend`/`Irecv`…`Waitall`, or
//! PETSc's `VecScatterBegin`/`VecScatterEnd`:
//!
//! ```text
//! let hx = HaloExchange::start(t, tag, sends, recvs)?;  // sends post now
//! /* ... compute interior rows: needs no ghost values ... */
//! hx.finish(t, &mut ghost_vals)?;                       // drain receives
//! /* ... compute boundary rows: ghosts are now in place ... */
//! ```
//!
//! `start`/`finish` move exactly the bytes the blocking exchange moves, in
//! exactly the same per-peer order, so overlapped and blocking exchanges are
//! indistinguishable on the wire — the bitwise sim/threads/sockets parity is
//! untouched. Only the *blocked* time changes: receives that arrived during
//! the compute window cost nothing in `finish`.

use crate::{f64s_from_bytes, f64s_to_bytes, CommError, Transport};

/// An in-flight halo exchange: all sends have been posted, the receive
/// manifest is recorded, no receive has been drained yet.
///
/// The borrowed slot lists (`&[u32]`) come from a persistent halo plan and
/// name, per peer, the ghost-buffer slots the peer's message fills, in wire
/// order.
pub struct HaloExchange<'a> {
    tag: u32,
    recvs: Vec<(usize, &'a [u32])>,
}

impl<'a> HaloExchange<'a> {
    /// Post every send immediately and record the receive manifest.
    ///
    /// `sends` yields `(peer, values)` messages, `recvs` lists
    /// `(peer, ghost slots)` for every expected message. All ranks of the
    /// machine must start exchanges for the same `tag` in lockstep.
    pub fn start<T, S>(
        t: &mut T,
        tag: u32,
        sends: S,
        recvs: Vec<(usize, &'a [u32])>,
    ) -> Result<HaloExchange<'a>, CommError>
    where
        T: Transport,
        S: IntoIterator<Item = (usize, Vec<f64>)>,
    {
        for (peer, vals) in sends {
            t.send(peer, tag, &f64s_to_bytes(&vals))?;
        }
        Ok(HaloExchange { tag, recvs })
    }

    /// Drain every expected receive into `ghost_vals` (indexed by the
    /// manifest's slot lists), blocking only for messages that have not
    /// yet arrived. A message that is not exactly 8 bytes per slot is
    /// [`CommError::Invalid`]. Consumes the exchange: each started
    /// exchange is finished exactly once.
    pub fn finish<T: Transport>(self, t: &mut T, ghost_vals: &mut [f64]) -> Result<(), CommError> {
        for (peer, slots) in self.recvs {
            let bytes = t.recv(peer, self.tag)?;
            if bytes.len() != 8 * slots.len() {
                return Err(CommError::Invalid(format!(
                    "halo message from rank {peer} has {} bytes, plan expects {} values",
                    bytes.len(),
                    slots.len()
                )));
            }
            for (&slot, v) in slots.iter().zip(f64s_from_bytes(&bytes)) {
                ghost_vals[slot as usize] = v;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalTransport;

    #[test]
    fn start_finish_moves_ring_halo() {
        // Each rank sends its own value to the next rank (ring) and
        // receives one ghost from the previous rank.
        let size = 4usize;
        let results = LocalTransport::run_ranks(size, move |mut t| {
            let r = t.rank();
            let next = (r + 1) % size;
            let prev = (r + size - 1) % size;
            let slots: Vec<u32> = vec![0];
            let hx = HaloExchange::start(
                &mut t,
                9,
                [(next, vec![r as f64 + 0.5])],
                vec![(prev, slots.as_slice())],
            )
            .unwrap();
            // Compute window: nothing to do in the test.
            let mut ghosts = vec![0.0; 1];
            hx.finish(&mut t, &mut ghosts).unwrap();
            ghosts[0]
        });
        for (r, got) in results.iter().enumerate() {
            let prev = (r + size - 1) % size;
            assert_eq!(*got, prev as f64 + 0.5, "rank {r}");
        }
    }

    #[test]
    fn finish_rejects_wrong_length() {
        let results = LocalTransport::run_ranks(2, |mut t| {
            let r = t.rank();
            let peer = 1 - r;
            let slots: Vec<u32> = vec![0, 1];
            // Send one value, expect two: finish must error on both ranks.
            let hx = HaloExchange::start(
                &mut t,
                3,
                [(peer, vec![1.0])],
                vec![(peer, slots.as_slice())],
            )
            .unwrap();
            let mut ghosts = vec![0.0; 2];
            hx.finish(&mut t, &mut ghosts).is_err()
        });
        assert!(results.iter().all(|&bad| bad));
    }

    #[test]
    fn finish_rejects_a_ragged_message() {
        // One value's worth of slots, 11 bytes on the wire: the whole value
        // plus a ragged tail must not pass as one value.
        let results = LocalTransport::run_ranks(2, |mut t| {
            let peer = 1 - t.rank();
            t.send(peer, 4, &[0u8; 11]).unwrap();
            let slots: Vec<u32> = vec![0];
            let hx = HaloExchange::start(&mut t, 4, [], vec![(peer, slots.as_slice())]).unwrap();
            hx.finish(&mut t, &mut [0.0]).is_err()
        });
        assert!(results.iter().all(|&bad| bad));
    }
}

//! The halo exchange: every send posts, the caller's local work runs while
//! the messages are in flight, then every receive drains.
//!
//! [`Transport::send`] is asynchronous (buffered or eagerly written, never
//! blocking on the receiver), so posting all sends before the first
//! receive is the classic deadlock-free exchange order for eager
//! transports: one message per neighbour, in the plan's per-peer order,
//! which is exactly the traffic the BSP model charges for the product.

use crate::{CommError, LeReader, LeWriter, Transport};

/// One halo exchange on `tag`: post every send, run `window`, then drain
/// every receive into `ghost_vals`.
///
/// `sends` yields `(peer, values)` messages, each packed straight into one
/// message buffer that every send of the exchange reuses; `recvs` lists
/// `(peer, ghost slots)` for every expected message — the slots (from a
/// persistent halo plan) name, in wire order, the entries of `ghost_vals`
/// the peer's message fills. A message that is not exactly 8 bytes per
/// slot is [`CommError::Invalid`]. `window` is the caller's work that
/// needs no ghost value (a product's `diag` block): it runs while the
/// messages are in flight, so a rank waits only for what is still on the
/// wire after it. All ranks of the machine must exchange on the same `tag`
/// in lockstep.
pub fn halo_exchange<'a, T, S, V, R>(
    t: &mut T,
    tag: u32,
    sends: S,
    recvs: R,
    ghost_vals: &mut [f64],
    window: impl FnOnce(),
) -> Result<(), CommError>
where
    T: Transport,
    S: IntoIterator<Item = (usize, V)>,
    V: IntoIterator<Item = f64>,
    R: IntoIterator<Item = (usize, &'a [u32])>,
{
    let mut msg = LeWriter::new();
    for (peer, vals) in sends {
        msg.clear();
        t.send(peer, tag, msg.f64s(vals).as_bytes())?;
    }
    window();
    for (peer, slots) in recvs {
        let bytes = t.recv(peer, tag)?;
        let vals = LeReader::all_f64s(&bytes, slots.len()).ok_or_else(|| {
            CommError::Invalid(format!(
                "halo message from rank {peer} has {} bytes, plan expects {} values",
                bytes.len(),
                slots.len()
            ))
        })?;
        for (&slot, v) in slots.iter().zip(vals) {
            ghost_vals[slot as usize] = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalTransport;

    #[test]
    fn exchange_moves_ring_halo() {
        // Each rank sends its own value to the next rank (ring) and
        // receives one ghost from the previous rank.
        let size = 4usize;
        let results = LocalTransport::run_ranks(size, move |mut t| {
            let r = t.rank();
            let next = (r + 1) % size;
            let prev = (r + size - 1) % size;
            let slots: Vec<u32> = vec![0];
            let mut ghosts = vec![0.0; 1];
            halo_exchange(
                &mut t,
                9,
                [(next, vec![r as f64 + 0.5])],
                [(prev, slots.as_slice())],
                &mut ghosts,
                || (),
            )
            .unwrap();
            ghosts[0]
        });
        for (r, got) in results.iter().enumerate() {
            let prev = (r + size - 1) % size;
            assert_eq!(*got, prev as f64 + 0.5, "rank {r}");
        }
    }

    #[test]
    fn exchange_rejects_wrong_length() {
        let results = LocalTransport::run_ranks(2, |mut t| {
            let r = t.rank();
            let peer = 1 - r;
            let slots: Vec<u32> = vec![0, 1];
            // Send one value, expect two: the exchange must error on both ranks.
            let mut ghosts = vec![0.0; 2];
            halo_exchange(
                &mut t,
                3,
                [(peer, vec![1.0])],
                [(peer, slots.as_slice())],
                &mut ghosts,
                || (),
            )
            .is_err()
        });
        assert!(results.iter().all(|&bad| bad));
    }

    #[test]
    fn exchange_rejects_a_ragged_message() {
        // One value's worth of slots, 11 bytes on the wire: the whole value
        // plus a ragged tail must not pass as one value.
        let results = LocalTransport::run_ranks(2, |mut t| {
            let peer = 1 - t.rank();
            t.send(peer, 4, &[0u8; 11]).unwrap();
            let slots: Vec<u32> = vec![0];
            let none: [(usize, [f64; 0]); 0] = [];
            let recvs = [(peer, slots.as_slice())];
            halo_exchange(&mut t, 4, none, recvs, &mut [0.0], || ()).is_err()
        });
        assert!(results.iter().all(|&bad| bad));
    }
}

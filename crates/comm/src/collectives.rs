//! Deterministic collectives over any [`Transport`].
//!
//! Every collective is a **fixed-shape binomial tree**: the communication
//! pattern and the floating-point association order depend only on
//! `(size, rank)`, never on arrival timing. Reductions combine as
//! `receiver + incoming` with the receiver always being the lower rank, so
//! for `P` ranks the global sum associates exactly like
//! [`tree_combine`](crate::tree_combine) over the per-rank partials — the
//! property the bitwise sim/threads/sockets parity rests on.

use crate::{CommError, LeReader, LeWriter, Transport};

/// Tag used by all collective traffic. A constant tag is safe because the
/// SPMD code runs collectives in lockstep (every rank enters the same
/// sequence of operations) and transports guarantee per-peer FIFO order.
pub const COLLECTIVE_TAG: u32 = 0xA110;

/// In-place elementwise binomial-tree sum-allreduce of `vals` across all
/// ranks. After return, every rank holds bitwise-identical sums whose
/// association order matches [`tree_combine`](crate::tree_combine).
///
/// Several independent sums share **one** collective: the tree reduces the
/// slice elementwise (`acc[i] += incoming[i]` on every merge), so component
/// `i` of the result is bitwise what [`allreduce_scalar`] of the per-rank
/// `vals[i]` alone gives. Fusing reductions therefore never changes a
/// solver's arithmetic — only the number of collective rounds (visible in
/// `comm/allreduces`, which counts this as one).
pub fn allreduce_sum<T: Transport>(t: &mut T, vals: &mut [f64]) -> Result<(), CommError> {
    reduce_to_root(t, vals)?;
    let mut packed = f64_payload(vals);
    broadcast(t, &mut packed)?;
    let sums = payload_values(&packed, vals.len())?;
    for (v, r) in vals.iter_mut().zip(sums) {
        *v = r;
    }
    t.note_allreduce();
    pmg_telemetry::counter_add("comm/allreduces", 1);
    Ok(())
}

/// Allreduce a single scalar; convenience wrapper over [`allreduce_sum`].
pub fn allreduce_scalar<T: Transport>(t: &mut T, val: f64) -> Result<f64, CommError> {
    let mut buf = [val];
    allreduce_sum(t, &mut buf)?;
    Ok(buf[0])
}

/// Binomial-tree reduction to rank 0. On every tree merge the *lower* rank
/// holds the accumulator and adds the incoming partial on the right:
/// `acc[i] = acc[i] + incoming[i]`. For `P = 5` the root ends up with
/// `((p0+p1)+(p2+p3))+p4`.
fn reduce_to_root<T: Transport>(t: &mut T, vals: &mut [f64]) -> Result<(), CommError> {
    let (rank, size) = (t.rank(), t.size());
    let mut step = 1usize;
    while step < size {
        if rank & step != 0 {
            t.send(rank - step, COLLECTIVE_TAG, &f64_payload(vals))?;
            break;
        } else if rank + step < size {
            let bytes = t.recv(rank + step, COLLECTIVE_TAG)?;
            let incoming = payload_values(&bytes, vals.len())?;
            for (v, inc) in vals.iter_mut().zip(incoming) {
                *v += inc;
            }
        }
        step <<= 1;
    }
    Ok(())
}

/// An allreduce payload: the values bit for bit, nothing else.
fn f64_payload(vals: &[f64]) -> Vec<u8> {
    let mut w = LeWriter::with_capacity(8 * vals.len());
    w.f64s(vals.iter().copied());
    w.into_bytes()
}

/// The `n` values of an allreduce payload; any other length is a shape
/// mismatch.
fn payload_values(bytes: &[u8], n: usize) -> Result<impl Iterator<Item = f64> + '_, CommError> {
    LeReader::all_f64s(bytes, n).ok_or_else(|| {
        CommError::Invalid(format!(
            "allreduce shape mismatch: {n} elements vs {} bytes",
            bytes.len()
        ))
    })
}

/// Binomial-tree broadcast of `buf` from rank 0 to all ranks (in place;
/// non-root contents are replaced — the payload length must match on all
/// ranks, as it does for lockstep collectives).
pub fn broadcast<T: Transport>(t: &mut T, buf: &mut Vec<u8>) -> Result<(), CommError> {
    let (rank, size) = (t.rank(), t.size());
    if size == 1 {
        return Ok(());
    }
    // The highest step at which this rank participates: for rank 0 the
    // largest power of two below `size`, otherwise the lowest set bit.
    let lowbit = if rank == 0 {
        let mut b = 1usize;
        while b << 1 < size {
            b <<= 1;
        }
        b << 1
    } else {
        rank & rank.wrapping_neg()
    };
    if rank != 0 {
        *buf = t.recv(rank - lowbit, COLLECTIVE_TAG)?;
    }
    let mut step = lowbit >> 1;
    while step >= 1 {
        if rank + step < size {
            t.send(rank + step, COLLECTIVE_TAG, buf)?;
        }
        step >>= 1;
    }
    Ok(())
}

/// Gather each rank's `payload` to rank 0, returned as per-rank byte
/// vectors in rank order (`Some(parts)` on rank 0, `None` elsewhere).
pub fn gather<T: Transport>(t: &mut T, payload: &[u8]) -> Result<Option<Vec<Vec<u8>>>, CommError> {
    let (rank, size) = (t.rank(), t.size());
    // Accumulate (origin rank, payload) pairs up the same binomial tree as
    // the reduction; each merge concatenates the child subtree's pairs.
    let mut acc: Vec<(u32, Vec<u8>)> = vec![(rank as u32, payload.to_vec())];
    let mut step = 1usize;
    while step < size {
        if rank & step != 0 {
            t.send(rank - step, COLLECTIVE_TAG, &pack_pairs(&acc))?;
            break;
        } else if rank + step < size {
            let bytes = t.recv(rank + step, COLLECTIVE_TAG)?;
            acc.extend(decode_pairs(&bytes)?);
        }
        step <<= 1;
    }
    if rank == 0 {
        acc.sort_by_key(|(r, _)| *r);
        Ok(Some(acc.into_iter().map(|(_, p)| p).collect()))
    } else {
        Ok(None)
    }
}

/// Allgather: every rank contributes `payload` and receives all ranks'
/// payloads in rank order. Implemented as gather-to-root + broadcast of the
/// packed blob, keeping the deterministic tree shape.
pub fn allgather<T: Transport>(t: &mut T, payload: &[u8]) -> Result<Vec<Vec<u8>>, CommError> {
    let gathered = gather(t, payload)?;
    let mut packed = match gathered {
        Some(parts) => {
            let pairs: Vec<(u32, Vec<u8>)> = parts
                .into_iter()
                .enumerate()
                .map(|(r, p)| (r as u32, p))
                .collect();
            pack_pairs(&pairs)
        }
        None => Vec::new(),
    };
    broadcast(t, &mut packed)?;
    let pairs = decode_pairs(&packed)?;
    Ok(pairs.into_iter().map(|(_, p)| p).collect())
}

/// [`allgather`] of a `u32` index list (little-endian packed): every rank
/// contributes its list and receives all ranks' lists in rank order. The
/// wire form of the distributed setup's ghost-list and face-ID merge
/// collectives.
pub fn allgather_u32s<T: Transport>(t: &mut T, vals: &[u32]) -> Result<Vec<Vec<u32>>, CommError> {
    let mut mine = LeWriter::with_capacity(4 * vals.len());
    mine.u32s(vals.iter().copied());
    let parts = allgather(t, mine.as_bytes())?;
    let ragged = || CommError::Invalid("allgather_u32s: ragged payload".into());
    let lists = parts
        .iter()
        .map(|blob| LeReader::all_u32s(blob).map(Iterator::collect));
    lists.map(|l| l.ok_or_else(ragged)).collect()
}

/// Scatter per-rank payloads from rank 0: rank `r` receives `parts[r]`.
/// The mirror of [`gather`] — payloads travel down the binomial broadcast
/// tree as one coalesced message per tree edge, each intermediate rank
/// peeling off its own part and forwarding its subtrees' — so a rank
/// receives only the bytes addressed to its subtree, never the full set.
///
/// `parts` must be `Some` with exactly `size` entries on rank 0 and `None`
/// elsewhere.
pub fn scatter<T: Transport>(t: &mut T, parts: Option<Vec<Vec<u8>>>) -> Result<Vec<u8>, CommError> {
    let (rank, size) = (t.rank(), t.size());
    let mut pairs: Vec<(u32, Vec<u8>)> = if rank == 0 {
        let parts = parts.ok_or_else(|| CommError::Invalid("scatter: root needs parts".into()))?;
        if parts.len() != size {
            return Err(CommError::Invalid(format!(
                "scatter: {} parts for {} ranks",
                parts.len(),
                size
            )));
        }
        parts
            .into_iter()
            .enumerate()
            .map(|(r, p)| (r as u32, p))
            .collect()
    } else {
        Vec::new()
    };
    if size > 1 {
        // Same tree walk as `broadcast`: receive this subtree's pairs from
        // the parent, then forward each child subtree's share.
        let lowbit = if rank == 0 {
            let mut b = 1usize;
            while b << 1 < size {
                b <<= 1;
            }
            b << 1
        } else {
            rank & rank.wrapping_neg()
        };
        if rank != 0 {
            pairs = decode_pairs(&t.recv(rank - lowbit, COLLECTIVE_TAG)?)?;
        }
        let mut step = lowbit >> 1;
        while step >= 1 {
            if rank + step < size {
                let cut = (rank + step) as u32;
                let (keep, down): (Vec<_>, Vec<_>) = pairs.into_iter().partition(|(r, _)| *r < cut);
                t.send(rank + step, COLLECTIVE_TAG, &pack_pairs(&down))?;
                pairs = keep;
            }
            step >>= 1;
        }
    }
    pairs
        .into_iter()
        .find(|(r, _)| *r as usize == rank)
        .map(|(_, p)| p)
        .ok_or_else(|| CommError::Invalid(format!("scatter: no payload for rank {rank}")))
}

/// Barrier: an empty allreduce — no rank leaves before every rank entered.
pub fn barrier<T: Transport>(t: &mut T) -> Result<(), CommError> {
    let mut none: [f64; 0] = [];
    reduce_to_root(t, &mut none)?;
    let mut empty = Vec::new();
    broadcast(t, &mut empty)?;
    Ok(())
}

/// Pair frame of the tree collectives: `[count u32]` then
/// `([rank u32][len u32][bytes…])*`.
fn pack_pairs(pairs: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let bytes = pairs.iter().map(|(_, p)| 8 + p.len()).sum::<usize>();
    let mut w = LeWriter::with_capacity(4 + bytes);
    w.u32(pairs.len() as u32);
    for (r, p) in pairs {
        w.u32(*r).u32(p.len() as u32).bytes(p);
    }
    w.into_bytes()
}

/// The pairs of one [`pack_pairs`] frame; any frame that runs short, names
/// more pairs than it carries or has bytes left over is
/// [`CommError::Invalid`].
fn decode_pairs(bytes: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, CommError> {
    let r = &mut LeReader::new(bytes);
    let mut decode = || {
        let count = r.u32()?;
        let mut out = Vec::new();
        for _ in 0..count {
            let rank = r.u32()?;
            let len = r.u32()? as usize;
            out.push((rank, r.bytes(len)?.to_vec()));
        }
        r.is_empty().then_some(out)
    };
    decode().ok_or_else(|| CommError::Invalid("malformed gather frame".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalTransport;
    use crate::tree_combine;

    #[test]
    fn allreduce_matches_tree_combine_bitwise() {
        for size in 1..=9usize {
            // Partials chosen so association order changes the bits.
            let partials: Vec<f64> = (0..size)
                .map(|r| 0.1 * (r as f64 + 1.0) + 1e-13 * (r as f64))
                .collect();
            let expect = tree_combine(&partials);
            let ps = partials.clone();
            let results = LocalTransport::run_ranks(size, move |mut t| {
                let mut v = [ps[t.rank()]];
                allreduce_sum(&mut t, &mut v).unwrap();
                v[0]
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "rank {r} of {size}: {got:e} vs {expect:e}"
                );
            }
        }
    }

    #[test]
    fn allgather_u32s_round_trips() {
        for size in 1..=4usize {
            let results = LocalTransport::run_ranks(size, |mut t| {
                let mine: Vec<u32> = (0..t.rank() as u32 + 1).map(|i| i * 10 + 1).collect();
                allgather_u32s(&mut t, &mine).unwrap()
            });
            for lists in &results {
                assert_eq!(lists.len(), size);
                for (r, l) in lists.iter().enumerate() {
                    let want: Vec<u32> = (0..r as u32 + 1).map(|i| i * 10 + 1).collect();
                    assert_eq!(l, &want);
                }
            }
        }
    }

    #[test]
    fn a_gather_frame_promising_u32_max_pairs_is_a_typed_error() {
        // A 4-byte frame whose pair count is u32::MAX: rejected before
        // anything is allocated for the pairs.
        let mut ends = LocalTransport::pairs(2);
        ends[1]
            .send(0, COLLECTIVE_TAG, &u32::MAX.to_le_bytes())
            .unwrap();
        let got = gather(&mut ends[0], b"root");
        assert_eq!(
            got,
            Err(CommError::Invalid("malformed gather frame".into()))
        );
    }

    #[test]
    fn allgather_orders_by_rank() {
        for size in 1..=6usize {
            let results = LocalTransport::run_ranks(size, |mut t| {
                let mine = vec![t.rank() as u8; t.rank() + 1];
                allgather(&mut t, &mine).unwrap()
            });
            for parts in &results {
                assert_eq!(parts.len(), size);
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![r as u8; r + 1]);
                }
            }
        }
    }

    #[test]
    fn gather_root_only() {
        let results = LocalTransport::run_ranks(5, |mut t| {
            let mine = (t.rank() as u32).to_le_bytes().to_vec();
            gather(&mut t, &mine).unwrap()
        });
        let root = results[0].as_ref().expect("rank 0 gets the gather");
        assert_eq!(root.len(), 5);
        for (r, p) in root.iter().enumerate() {
            assert_eq!(u32::from_le_bytes(p[..4].try_into().unwrap()), r as u32);
        }
        for res in &results[1..] {
            assert!(res.is_none());
        }
    }

    #[test]
    fn fused_allreduce_matches_scalar_pair_bitwise() {
        // Fusing two reductions into one allreduce_sum must reproduce the
        // two scalar allreduces component for component, bit for bit.
        for size in 1..=8usize {
            let results = LocalTransport::run_ranks(size, move |mut t| {
                let r = t.rank() as f64;
                let (a, b) = (0.1 * (r + 1.0) + 1e-13 * r, 0.7 * (r + 2.0) - 1e-14 * r);
                let sa = allreduce_scalar(&mut t, a).unwrap();
                let sb = allreduce_scalar(&mut t, b).unwrap();
                let mut fused = [a, b];
                allreduce_sum(&mut t, &mut fused).unwrap();
                (sa, sb, fused)
            });
            for (r, (sa, sb, fused)) in results.iter().enumerate() {
                assert_eq!(fused[0].to_bits(), sa.to_bits(), "rank {r} of {size}");
                assert_eq!(fused[1].to_bits(), sb.to_bits(), "rank {r} of {size}");
            }
        }
    }

    #[test]
    fn scatter_delivers_owned_parts() {
        for size in 1..=9usize {
            let results = LocalTransport::run_ranks(size, move |mut t| {
                let parts = (t.rank() == 0)
                    .then(|| (0..size).map(|r| vec![r as u8; r + 1]).collect::<Vec<_>>());
                scatter(&mut t, parts).unwrap()
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(got, &vec![r as u8; r + 1], "rank {r} of {size}");
            }
        }
    }

    #[test]
    fn scatter_root_requires_parts() {
        let results = LocalTransport::run_ranks(1, |mut t| scatter(&mut t, None).is_err());
        assert!(results[0]);
    }

    #[test]
    fn barrier_completes() {
        let results = LocalTransport::run_ranks(7, |mut t| {
            barrier(&mut t).unwrap();
            t.rank()
        });
        assert_eq!(results, (0..7).collect::<Vec<_>>());
    }
}

//! Every decoder of rank-to-rank bytes against malformed input.
//!
//! Each payload kind is encoded from generated data and then truncated at
//! every length, overwritten with `u32::MAX` at every byte offset (which
//! sets each count field to `u32::MAX` in turn) and extended by one byte.
//! A decoder must answer `None` or [`CommError::Invalid`] — or, where an
//! overwrite only changed a value or a truncation left a shorter list, a
//! decoded payload — and never panic or abort on an allocation. Truncated
//! and extended payloads, and a payload whose leading count is `u32::MAX`,
//! must be rejected.

use crate::classify::{pack_passes, unpack_passes, FacePasses, VertexClass, VertexClasses};
use crate::ingest::{CoarseSeed, RankSeed};
use crate::mis::{pack_decisions, unpack_decisions, ProcDecisions};
use crate::spmd::{decode_row_ids, encode_rows_into, rows_from_blobs};
use pmg_comm::collectives::COLLECTIVE_TAG;
use pmg_comm::{CommError, HaloExchange, LeWriter, LocalTransport, Transport};
use pmg_geometry::Vec3;
use pmg_mesh::MeshShard;
use pmg_partition::Graph;
use pmg_sparse::{CooBuilder, CsrMatrix};
use proptest::prelude::*;

/// `Some` for a decoded payload, `None` for [`CommError::Invalid`]; any
/// other error is a failure of the decoder under test.
fn invalid_as_none<T>(r: Result<T, CommError>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(CommError::Invalid(_)) => None,
        Err(e) => panic!("a malformed payload must be CommError::Invalid, got {e}"),
    }
}

/// Run `decode` on every mutation of `blob`. `counts` are byte offsets of
/// count fields; `word` is `Some(w)` for a format whose length is inferred
/// from the blob (a truncation to a multiple of `w` bytes is then a valid
/// shorter payload).
fn check_mutations<T>(
    blob: &[u8],
    counts: &[usize],
    word: Option<usize>,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> Result<(), TestCaseError> {
    prop_assert!(decode(blob).is_some(), "the unmutated payload decodes");
    for len in 0..blob.len() {
        let valid = word.is_some_and(|w| len % w == 0);
        prop_assert!(
            decode(&blob[..len]).is_some() == valid,
            "truncated at {}",
            len
        );
    }
    for at in 0..blob.len().saturating_sub(3) {
        let mut b = blob.to_vec();
        // `u32::MAX` is four 0xFF bytes in any byte order.
        b[at..at + 4].fill(0xFF);
        let decoded = decode(&b).is_some();
        prop_assert!(
            !(decoded && counts.contains(&at)),
            "count at {} set to u32::MAX",
            at
        );
    }
    prop_assert!(
        decode(&[blob, &[0]].concat()).is_none(),
        "one byte appended"
    );
    Ok(())
}

fn matrix(nrows: usize, ncols: usize, salt: u64) -> CsrMatrix {
    let mut b = CooBuilder::new(nrows, ncols);
    for i in 0..nrows {
        for k in 0..(i + salt as usize) % 3 {
            b.push(
                i,
                (i * 7 + k * 3 + salt as usize) % ncols,
                0.1 * (i + k) as f64 - 0.3,
            );
        }
    }
    b.build()
}

/// A seed with `n` fine vertices and, if `coarse`, an `m`-vertex coarse
/// share: restriction rows, a ring graph and mixed vertex classes.
fn seed(n: usize, m: usize, coarse: bool, salt: u64) -> RankSeed {
    let ring = |v: usize| {
        let mut l = vec![((v + 1) % m) as u32, ((v + m - 1) % m) as u32];
        l.sort_unstable();
        l.dedup();
        l.retain(|&w| w as usize != v);
        l
    };
    let classes = [
        VertexClass::Interior,
        VertexClass::Surface,
        VertexClass::Edge,
        VertexClass::Corner,
    ];
    RankSeed {
        rank: 1,
        nranks: 2,
        dofs: 3,
        part: (0..n as u32).map(|v| v % 2).collect(),
        elem_counts: vec![n as u32, salt as u32],
        coarse: coarse.then(|| CoarseSeed {
            r_rows: matrix(m, n.max(1), salt),
            rt_rows: matrix(n, m.max(1), salt + 1),
            rt_ids: (0..n as u32).collect(),
            coords: (0..m)
                .map(|v| Vec3::new(v as f64, -0.5, salt as f64))
                .collect(),
            graph: Graph::from_adjacency(&(0..m).map(ring).collect::<Vec<_>>()),
            classes: VertexClasses {
                class: (0..m).map(|v| classes[(v + salt as usize) % 4]).collect(),
                faces: (0..m).map(|v| (0..(v % 3) as u32).collect()).collect(),
            },
        }),
    }
}

/// Pairs `(a, b)` with small values, `len` of them.
fn pairs(len: usize, salt: u64) -> Vec<(u32, u32)> {
    (0..len as u32).map(|i| (i, i * 3 + salt as u32)).collect()
}

proptest! {
    #[test]
    fn seed_decoder(n in 0usize..6, m in 0usize..6, coarse in 0u8..2, salt in 0u64..100) {
        let blob = seed(n, m, coarse == 1, salt).encode();
        check_mutations(&blob, &[16], None, RankSeed::decode)?;
        // The decoded seed is the encoded one.
        prop_assert_eq!(RankSeed::decode(&blob).unwrap().encode(), blob);
    }

    #[test]
    fn shard_decoder(nx in 1usize..3, ny in 1usize..3, p in 1usize..4, rank in 0usize..4) {
        let mesh = pmg_mesh::generators::block(nx, ny, 1, Vec3::new(1.0, 1.0, 1.0), |_| 3);
        let part = pmg_partition::recursive_coordinate_bisection(&mesh.coords, p);
        let shard = &pmg_mesh::shard_mesh(&mesh, &part, p)[rank % p];
        let blob = shard.encode();
        // nv and ne, the last two header words.
        check_mutations(&blob, &[28, 32], None, MeshShard::decode)?;
    }

    #[test]
    fn row_blob_decoder(nrows in 1usize..6, ncols in 1usize..6, salt in 0u64..100) {
        let a = matrix(nrows, ncols, salt);
        let mut w = LeWriter::new();
        encode_rows_into(&mut w, &a, 0..nrows);
        let decode = |b: &[u8]| {
            invalid_as_none(rows_from_blobs(&[b.to_vec()], ncols, 0, (0..nrows).map(|_| 0)))
        };
        check_mutations(w.as_bytes(), &[0], None, decode)?;
        prop_assert_eq!(decode(w.as_bytes()).unwrap(), a);
    }

    #[test]
    fn row_blob_decoder_wants_ascending_columns(first in 0u32..4, gap in 1u32..3, salt in 0u64..100) {
        // One row of two entries: ascending decodes, a swapped pair or a
        // repeated column is a malformed message (the Galerkin tiles and
        // the coarse factor read rows as sorted, unique columns).
        let row = |c0: u32, c1: u32| {
            let mut w = LeWriter::new();
            w.u32(2).u32s([c0, c1]).f64s([0.5, salt as f64]);
            w.into_bytes()
        };
        let decode = |b: Vec<u8>| invalid_as_none(rows_from_blobs(&[b], 8, 0, [0].into_iter()));
        let (lo, hi) = (first, first + gap);
        prop_assert!(decode(row(lo, hi)).is_some());
        prop_assert!(decode(row(hi, lo)).is_none(), "swapped pair");
        prop_assert!(decode(row(lo, lo)).is_none(), "duplicate column");
    }

    #[test]
    fn mis_decision_decoder(procs in 0usize..4, salt in 0u64..100) {
        let decisions: ProcDecisions = (0..procs as u32)
            .map(|p| {
                let sel = (0..(p + salt as u32) % 4).collect();
                let del = (0..p % 3).map(|v| v + 10).collect();
                (p, (sel, del))
            })
            .collect();
        let blob = pack_decisions(&decisions);
        let decode = |b: &[u8]| invalid_as_none(unpack_decisions(b));
        check_mutations(&blob, &[0], None, decode)?;
        prop_assert_eq!(decode(&blob).unwrap(), decisions);
    }

    #[test]
    fn face_pass_decoder(a in 0usize..4, e in 0usize..4, c in 0usize..4, salt in 0u64..100) {
        let mut passes = FacePasses::default();
        for (list, len) in passes.lists_mut().into_iter().zip([a, e, c]) {
            *list = pairs(len, salt);
        }
        let blob = pack_passes(&passes);
        let decode = |b: &[u8]| {
            let mut all = FacePasses::default();
            invalid_as_none(unpack_passes(b, &mut all)).map(|()| all.lists().map(Vec::clone))
        };
        check_mutations(&blob, &[0], None, decode)?;
        prop_assert_eq!(decode(&blob).unwrap(), passes.lists().map(Vec::clone));
    }

    #[test]
    fn u32_list_decoder(len in 0usize..8, salt in 0u64..100) {
        let ids: Vec<u32> = (0..len as u32).map(|i| i * 5 + salt as u32).collect();
        let mut w = LeWriter::new();
        w.u32s(ids.iter().copied());
        let decode = |b: &[u8]| invalid_as_none(decode_row_ids(b));
        // An empty list has no byte to mutate but the appended one.
        if len > 0 {
            check_mutations(w.as_bytes(), &[], Some(4), decode)?;
        }
        prop_assert!(decode(&[w.as_bytes(), &[0]].concat()).is_none());
        prop_assert_eq!(decode(w.as_bytes()).unwrap(), ids);
    }

    #[test]
    fn pair_frame_decoder(len in 0usize..12, salt in 0u8..100) {
        // Rank 1's gather frame, as it puts it on the wire.
        let mut ends = LocalTransport::pairs(2);
        let payload: Vec<u8> = (0..len as u8).map(|b| b ^ salt).collect();
        pmg_comm::gather(&mut ends[1], &payload).unwrap();
        let frame = ends[0].recv(1, COLLECTIVE_TAG).unwrap();
        // Rank 0 gathers with that frame, mutated, arriving from rank 1.
        let decode = |b: &[u8]| {
            let mut ends = LocalTransport::pairs(2);
            ends[1].send(0, COLLECTIVE_TAG, b).unwrap();
            invalid_as_none(pmg_comm::gather(&mut ends[0], b"root")).map(Option::unwrap)
        };
        // The pair count, then the one pair's length.
        check_mutations(&frame, &[0, 8], None, decode)?;
        prop_assert_eq!(decode(&frame).unwrap(), vec![b"root".to_vec(), payload]);
    }

    #[test]
    fn halo_payload_decoder(n in 1usize..6, salt in 0u64..100) {
        let vals: Vec<f64> = (0..n).map(|i| (i as f64 + salt as f64) * -0.25).collect();
        let mut ends = LocalTransport::pairs(2);
        let none: Vec<(usize, Vec<f64>)> = Vec::new();
        HaloExchange::start(&mut ends[1], 5, [(0, vals.clone())], Vec::new()).unwrap();
        let msg = ends[0].recv(1, 5).unwrap();
        let slots: Vec<u32> = (0..n as u32).rev().collect();
        let decode = |b: &[u8]| {
            let mut ends = LocalTransport::pairs(2);
            ends[1].send(0, 5, b).unwrap();
            let hx = HaloExchange::start(&mut ends[0], 5, none.clone(), vec![(1, &slots[..])]);
            let mut ghosts = vec![0.0; n];
            invalid_as_none(hx.unwrap().finish(&mut ends[0], &mut ghosts)).map(|()| ghosts)
        };
        check_mutations(&msg, &[], None, decode)?;
        let ghosts = decode(&msg).unwrap();
        prop_assert!(slots.iter().zip(&vals).all(|(&s, v)| ghosts[s as usize] == *v));
    }

    #[test]
    fn allreduce_payload_decoder(n in 1usize..6, salt in 0u64..100) {
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 + salt as f64).collect();
        let mut w = LeWriter::new();
        let blob = w.f64s(vals.iter().copied()).as_bytes();
        // Rank 0 reduces a mutated partial from rank 1 ...
        let reduce = |b: &[u8]| {
            let mut ends = LocalTransport::pairs(2);
            ends[1].send(0, COLLECTIVE_TAG, b).unwrap();
            let mut mine = vals.clone();
            invalid_as_none(pmg_comm::allreduce_sum(&mut ends[0], &mut mine)).map(|()| mine)
        };
        check_mutations(blob, &[], None, reduce)?;
        // ... and rank 1 takes a mutated broadcast of the sums from rank 0.
        let broadcast = |b: &[u8]| {
            let mut ends = LocalTransport::pairs(2);
            ends[0].send(1, COLLECTIVE_TAG, b).unwrap();
            let mut mine = vals.clone();
            invalid_as_none(pmg_comm::allreduce_sum(&mut ends[1], &mut mine)).map(|()| mine)
        };
        check_mutations(blob, &[], None, broadcast)?;
        prop_assert_eq!(broadcast(blob).unwrap(), vals);
    }
}

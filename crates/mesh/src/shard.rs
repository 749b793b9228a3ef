//! Sharded mesh representation for partition-at-ingest (§5).
//!
//! "Athena [...] uses ParMetis to partition the finite element graph, and
//! then constructs a complete finite element problem on each processor."
//! The paper's reader never materializes the global mesh on a compute
//! rank: the ingest side partitions the element connectivity at load time
//! and ships each rank only its owned vertices plus the one-element-deep
//! ghost closure. [`MeshShard`] is that per-rank payload — a self-contained
//! local [`Mesh`] with the local→global maps needed to place assembled
//! rows into the global dof space — and [`shard_mesh`] carves a global
//! mesh into shards with exactly the sub-domain construction the
//! `pmg_fem` Athena layer uses (every element touching at least one owned
//! vertex, owned vertices first in ascending global order so local
//! numbering lines up with `pmg_parallel::Layout`).
//!
//! Shards serialize to a flat little-endian byte image ([`MeshShard::encode`]
//! / [`MeshShard::decode`]) so rank 0 can scatter them over any transport;
//! coordinates roundtrip bitwise.

use crate::mesh::{ElementKind, Mesh};
use pmg_geometry::Vec3;

/// One rank's share of a partitioned mesh: owned vertices, the ghost
/// closure, and the local→global maps.
#[derive(Clone, Debug)]
pub struct MeshShard {
    /// Which rank this shard belongs to.
    pub rank: u32,
    /// Total ranks in the partition.
    pub nranks: u32,
    /// Vertices in the global mesh (metadata only — no global array of
    /// this length is ever allocated from a shard).
    pub num_global_vertices: u32,
    /// Elements in the global mesh (metadata only).
    pub num_global_elements: u32,
    /// The local mesh: all elements touching an owned vertex, with local
    /// vertex numbering (owned first, then ghosts).
    pub mesh: Mesh,
    /// Global vertex id of each local vertex. Owned vertices come first in
    /// ascending global order (matching `Layout`'s owned numbering), then
    /// ghosts in ascending global order.
    pub global_vertices: Vec<u32>,
    /// Global element id of each local element, ascending.
    pub global_elements: Vec<u32>,
    /// How many local vertices are owned (they are the prefix).
    pub num_owned: usize,
}

impl MeshShard {
    /// Owned local vertex count.
    pub fn num_owned(&self) -> usize {
        self.num_owned
    }

    /// Ghost (non-owned) local vertex count.
    pub fn num_ghost(&self) -> usize {
        self.mesh.num_vertices() - self.num_owned
    }

    /// Local index of global vertex `g`, if present in this shard. Both
    /// the owned prefix and the ghost suffix are sorted ascending, so two
    /// binary searches suffice — no hash map is stored.
    pub fn local_of(&self, g: u32) -> Option<usize> {
        let (owned, ghosts) = self.global_vertices.split_at(self.num_owned);
        match owned.binary_search(&g) {
            Ok(l) => Some(l),
            Err(_) => ghosts.binary_search(&g).ok().map(|l| self.num_owned + l),
        }
    }

    /// Serialize to a little-endian byte image (scatter payload).
    pub fn encode(&self) -> Vec<u8> {
        let nv = self.mesh.num_vertices();
        let ne = self.mesh.num_elements();
        let mut b = Vec::with_capacity(32 + 24 * nv + 4 * self.mesh.elem_verts.len() + 12 * ne);
        b.extend_from_slice(&SHARD_MAGIC.to_le_bytes());
        for v in [
            self.rank,
            self.nranks,
            self.num_global_vertices,
            self.num_global_elements,
            kind_code(self.mesh.kind),
            self.num_owned as u32,
            nv as u32,
            ne as u32,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for p in &self.mesh.coords {
            for c in [p.x, p.y, p.z] {
                b.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        for &v in &self.mesh.elem_verts {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for &m in &self.mesh.materials {
            b.extend_from_slice(&m.to_le_bytes());
        }
        for &g in &self.global_vertices {
            b.extend_from_slice(&g.to_le_bytes());
        }
        for &g in &self.global_elements {
            b.extend_from_slice(&g.to_le_bytes());
        }
        b
    }

    /// Decode a byte image produced by [`MeshShard::encode`]. Returns
    /// `None` on a malformed payload.
    pub fn decode(bytes: &[u8]) -> Option<MeshShard> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u32()? != SHARD_MAGIC {
            return None;
        }
        let rank = r.u32()?;
        let nranks = r.u32()?;
        let num_global_vertices = r.u32()?;
        let num_global_elements = r.u32()?;
        let kind = kind_from_code(r.u32()?)?;
        let num_owned = r.u32()? as usize;
        let nv = r.u32()? as usize;
        let ne = r.u32()? as usize;
        let mut coords = Vec::with_capacity(nv);
        for _ in 0..nv {
            let x = r.f64()?;
            let y = r.f64()?;
            let z = r.f64()?;
            coords.push(Vec3::new(x, y, z));
        }
        let elem_verts = r.u32s(ne * kind.nodes())?;
        let materials = r.u32s(ne)?;
        let global_vertices = r.u32s(nv)?;
        let global_elements = r.u32s(ne)?;
        if r.pos != bytes.len() || num_owned > nv {
            return None;
        }
        if elem_verts.iter().any(|&v| v as usize >= nv) {
            return None;
        }
        Some(MeshShard {
            rank,
            nranks,
            num_global_vertices,
            num_global_elements,
            mesh: Mesh::new(coords, kind, elem_verts, materials),
            global_vertices,
            global_elements,
            num_owned,
        })
    }
}

const SHARD_MAGIC: u32 = 0x504D_5348; // "PMSH"

fn kind_code(kind: ElementKind) -> u32 {
    match kind {
        ElementKind::Hex8 => 0,
        ElementKind::Tet4 => 1,
        ElementKind::Hex20 => 2,
    }
}

fn kind_from_code(c: u32) -> Option<ElementKind> {
    match c {
        0 => Some(ElementKind::Hex8),
        1 => Some(ElementKind::Tet4),
        2 => Some(ElementKind::Hex20),
        _ => None,
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        let b = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
    }

    fn u32s(&mut self, n: usize) -> Option<Vec<u32>> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Some(v)
    }
}

/// Carve `mesh` into per-rank shards given the vertex assignment `part`
/// (one rank id per vertex, e.g. from
/// `pmg_partition::recursive_coordinate_bisection` over the coordinates).
///
/// Runs on the ingest side (rank 0, or whatever reads the file); compute
/// ranks only ever see the returned shards. The sub-domain construction is
/// identical to the Athena layer's `partition_mesh`: each rank gets every
/// element touching at least one of its owned vertices, local vertices are
/// owned-ascending then ghost-ascending, so a `pmg_fem::RankAssembly`
/// built from a shard reproduces the `partition_mesh` one bitwise.
pub fn shard_mesh(mesh: &Mesh, part: &[u32], nranks: usize) -> Vec<MeshShard> {
    assert_eq!(part.len(), mesh.num_vertices());
    let nv_per_elem = mesh.kind.nodes();
    // Elements per rank: any element touching an owned vertex.
    let mut elems_of: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    for e in 0..mesh.num_elements() {
        let mut ranks: Vec<u32> = mesh.elem(e).iter().map(|&v| part[v as usize]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for r in ranks {
            elems_of[r as usize].push(e as u32);
        }
    }

    (0..nranks)
        .map(|r| {
            let elems = &elems_of[r];
            // Local vertices: owned first (ascending global id, matching
            // Layout numbering), then ghosts ascending.
            let mut vset: Vec<u32> = elems
                .iter()
                .flat_map(|&e| mesh.elem(e as usize).iter().copied())
                .collect();
            vset.sort_unstable();
            vset.dedup();
            let (owned_v, ghost_v): (Vec<u32>, Vec<u32>) = vset
                .into_iter()
                .partition(|&v| part[v as usize] == r as u32);
            let num_owned = owned_v.len();
            let global_vertices: Vec<u32> = owned_v.iter().chain(ghost_v.iter()).copied().collect();
            let mut local_of = std::collections::HashMap::with_capacity(global_vertices.len());
            for (l, &g) in global_vertices.iter().enumerate() {
                local_of.insert(g, l as u32);
            }
            let coords = global_vertices
                .iter()
                .map(|&g| mesh.coords[g as usize])
                .collect();
            let mut elem_verts = Vec::with_capacity(elems.len() * nv_per_elem);
            let mut materials = Vec::with_capacity(elems.len());
            for &e in elems {
                for &v in mesh.elem(e as usize) {
                    elem_verts.push(local_of[&v]);
                }
                materials.push(mesh.materials[e as usize]);
            }
            MeshShard {
                rank: r as u32,
                nranks: nranks as u32,
                num_global_vertices: mesh.num_vertices() as u32,
                num_global_elements: mesh.num_elements() as u32,
                mesh: Mesh::new(coords, mesh.kind, elem_verts, materials),
                global_vertices,
                global_elements: elems.clone(),
                num_owned,
            }
        })
        .collect()
}

/// Element imbalance of a sharded partition: the largest per-rank element
/// count over the mean (1.0 = perfectly balanced). Counts ghost-closure
/// elements, i.e. this is the *evaluated* element load including the
/// paper's redundant work, the quantity the `mg/level0/element_imbalance`
/// gauge reports at ingest time.
pub fn element_imbalance(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *counts.iter().max().unwrap();
    max as f64 * counts.len() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::block;
    use pmg_partition::recursive_coordinate_bisection;

    fn mesh() -> Mesh {
        block(4, 3, 3, Vec3::new(4.0, 3.0, 3.0), |c| u32::from(c.x > 2.0))
    }

    #[test]
    fn shards_tile_ownership_and_close_elements() {
        let m = mesh();
        for p in [1usize, 2, 3, 5] {
            let part = recursive_coordinate_bisection(&m.coords, p);
            let shards = shard_mesh(&m, &part, p);
            assert_eq!(shards.len(), p);
            let mut owner = vec![usize::MAX; m.num_vertices()];
            for s in &shards {
                assert_eq!(s.nranks as usize, p);
                assert_eq!(s.num_global_vertices as usize, m.num_vertices());
                assert_eq!(s.num_global_elements as usize, m.num_elements());
                // Owned prefix and ghost suffix each ascend.
                let (own, ghost) = s.global_vertices.split_at(s.num_owned);
                assert!(own.windows(2).all(|w| w[0] < w[1]));
                assert!(ghost.windows(2).all(|w| w[0] < w[1]));
                for &g in own {
                    assert_eq!(owner[g as usize], usize::MAX, "vertex {g} owned twice");
                    owner[g as usize] = s.rank as usize;
                    assert_eq!(part[g as usize], s.rank);
                }
                // Local mesh geometry matches the global mesh.
                for (l, &g) in s.global_vertices.iter().enumerate() {
                    assert_eq!(s.mesh.coords[l], m.coords[g as usize]);
                    assert_eq!(s.local_of(g), Some(l));
                }
                assert_eq!(s.local_of(u32::MAX), None);
                // Every local element is the global one, remapped.
                for (le, &ge) in s.global_elements.iter().enumerate() {
                    assert_eq!(s.mesh.materials[le], m.materials[ge as usize]);
                    let lv = s.mesh.elem(le);
                    let gv = m.elem(ge as usize);
                    for (a, b) in lv.iter().zip(gv) {
                        assert_eq!(s.global_vertices[*a as usize], *b);
                    }
                }
                assert!(s.mesh.validate_volumes().is_ok());
            }
            assert!(owner.iter().all(|&o| o != usize::MAX));
            // Element closure: an element appears on rank r iff it touches
            // an owned vertex of r.
            for e in 0..m.num_elements() {
                let mut expect: Vec<u32> = m.elem(e).iter().map(|&v| part[v as usize]).collect();
                expect.sort_unstable();
                expect.dedup();
                let got: Vec<u32> = shards
                    .iter()
                    .filter(|s| s.global_elements.binary_search(&(e as u32)).is_ok())
                    .map(|s| s.rank)
                    .collect();
                assert_eq!(got, expect, "element {e} closure");
            }
        }
    }

    #[test]
    fn codec_roundtrips_bitwise() {
        let m = mesh();
        let part = recursive_coordinate_bisection(&m.coords, 3);
        for s in shard_mesh(&m, &part, 3) {
            let bytes = s.encode();
            let back = MeshShard::decode(&bytes).expect("decode");
            assert_eq!(back.rank, s.rank);
            assert_eq!(back.nranks, s.nranks);
            assert_eq!(back.num_owned, s.num_owned);
            assert_eq!(back.num_global_vertices, s.num_global_vertices);
            assert_eq!(back.num_global_elements, s.num_global_elements);
            assert_eq!(back.global_vertices, s.global_vertices);
            assert_eq!(back.global_elements, s.global_elements);
            assert_eq!(back.mesh.kind, s.mesh.kind);
            assert_eq!(back.mesh.elem_verts, s.mesh.elem_verts);
            assert_eq!(back.mesh.materials, s.mesh.materials);
            for (a, b) in back.mesh.coords.iter().zip(&s.mesh.coords) {
                // Bitwise: coordinates ship as raw f64 bits.
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
            // Truncated or corrupted payloads are rejected, not misread.
            assert!(MeshShard::decode(&bytes[..bytes.len() - 1]).is_none());
            let mut corrupt = bytes.clone();
            corrupt[0] ^= 0xFF;
            assert!(MeshShard::decode(&corrupt).is_none());
        }
    }

    #[test]
    fn empty_rank_yields_empty_shard() {
        let m = mesh();
        // Rank 1 owns nothing.
        let part = vec![0u32; m.num_vertices()];
        let shards = shard_mesh(&m, &part, 2);
        assert_eq!(shards[1].num_owned(), 0);
        assert_eq!(shards[1].mesh.num_elements(), 0);
        assert_eq!(shards[1].mesh.num_vertices(), 0);
        let back = MeshShard::decode(&shards[1].encode()).unwrap();
        assert_eq!(back.mesh.num_vertices(), 0);
        assert_eq!(shards[0].mesh.num_elements(), m.num_elements());
    }

    #[test]
    fn element_imbalance_counts_redundant_work() {
        assert_eq!(element_imbalance(&[4, 4, 4, 4]), 1.0);
        assert_eq!(element_imbalance(&[8, 4, 4]), 1.5);
        assert_eq!(element_imbalance(&[]), 1.0);
        assert_eq!(element_imbalance(&[0, 0]), 1.0);
    }
}

//! Hierarchy fingerprints: one `u64` that identifies "the same solver
//! setup" across process boundaries.
//!
//! A multigrid hierarchy is a pure function of the fine mesh
//! (coordinates and connectivity) and the construction options, so a fingerprint over
//! exactly those inputs is a sound cache key for warm hierarchies: two
//! requests with equal fingerprints may share one setup, two requests
//! with different fingerprints never may. The solver
//! daemon (`pmg-serve`) keys its warm-hierarchy cache on this value.
//!
//! The hash is the same FNV-1a scheme the symbolic caches already use
//! (`RapPlan`'s pattern fingerprint, the halo-plan ghost fingerprint, the
//! assembly geometry cache): fast, deterministic across runs, and with no
//! dependency on pointer identity. Coordinates are hashed by their exact
//! `f64` bit patterns — a perturbation below display precision still
//! changes the key, which is what bitwise-reproducible solves require.

use crate::mg::MgOptions;
use pmg_mesh::Mesh;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental FNV-1a over `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn eat(&mut self, x: u64) {
        // Mix each byte so permuted words never collide by XOR symmetry.
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Fingerprint of a `(mesh, options)` pair: equal iff the fine grid
/// geometry, the element connectivity, and every hierarchy-construction
/// option agree. Coordinates hash by exact bit pattern (see the module
/// docs); options hash through their `Debug` rendering, which covers
/// every field — including nested [`crate::CoarsenOptions`] — so adding
/// an option later automatically widens the key.
pub fn solver_fingerprint(mesh: &Mesh, opts: &MgOptions) -> u64 {
    let mut h = Fnv::new();
    h.eat(mesh.coords.len() as u64);
    for p in &mesh.coords {
        h.eat(p.x.to_bits());
        h.eat(p.y.to_bits());
        h.eat(p.z.to_bits());
    }
    h.eat(mesh.kind.nodes() as u64);
    h.eat(mesh.elem_verts.len() as u64);
    for &v in &mesh.elem_verts {
        h.eat(u64::from(v));
    }
    h.eat(mesh.materials.len() as u64);
    for &m in &mesh.materials {
        h.eat(u64::from(m));
    }
    let rendered = format!("{opts:?}");
    h.eat(rendered.len() as u64);
    for b in rendered.into_bytes() {
        h.eat(u64::from(b));
    }
    h.0
}

/// The fingerprint as the fixed-width hex string used on the wire and in
/// request logs.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse a [`fingerprint_hex`] rendering back to the key.
pub fn parse_fingerprint_hex(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;

    #[test]
    fn identical_inputs_agree() {
        let m = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        let opts = MgOptions::default();
        assert_eq!(
            solver_fingerprint(&m, &opts),
            solver_fingerprint(&m.clone(), &opts)
        );
    }

    #[test]
    fn coordinate_perturbation_changes_the_key() {
        let m = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        let opts = MgOptions::default();
        let base = solver_fingerprint(&m, &opts);
        let mut moved = m.clone();
        // A perturbation far below display precision must still change
        // the key: solves on the two meshes differ bitwise.
        moved.coords[5].x += 1e-14;
        assert_ne!(base, solver_fingerprint(&moved, &opts));
    }

    #[test]
    fn connectivity_change_changes_the_key() {
        let m = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        let opts = MgOptions::default();
        let base = solver_fingerprint(&m, &opts);
        let mut relabeled = m.clone();
        relabeled.elem_verts.swap(0, 1);
        assert_ne!(base, solver_fingerprint(&relabeled, &opts));
    }

    #[test]
    fn option_changes_change_the_key() {
        let m = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        let base = solver_fingerprint(&m, &MgOptions::default());
        let coarser = MgOptions {
            coarse_dof_threshold: 150,
            ..Default::default()
        };
        assert_ne!(base, solver_fingerprint(&m, &coarser));
        let wcycle = MgOptions {
            cycle: crate::CycleType::W,
            ..Default::default()
        };
        assert_ne!(base, solver_fingerprint(&m, &wcycle));
        // Nested coarsening options widen the key too.
        let tol = MgOptions {
            coarsen: crate::CoarsenOptions {
                face_tol: 0.71,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_ne!(base, solver_fingerprint(&m, &tol));
    }

    #[test]
    fn hex_roundtrip() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let fp = solver_fingerprint(&m, &MgOptions::default());
        let hex = fingerprint_hex(fp);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_fingerprint_hex(&hex), Some(fp));
        assert_eq!(parse_fingerprint_hex("xyz"), None);
        assert_eq!(parse_fingerprint_hex(""), None);
    }
}

//! Incremental 3D Delaunay tetrahedralization (Bowyer–Watson / "Watson's
//! algorithm", the method cited in §4.8 of the paper).
//!
//! Points are inserted one at a time into a triangulation seeded with a
//! large bounding tetrahedron. For each insertion we locate the containing
//! tetrahedron by a remembering walk, grow the *cavity* of tetrahedra whose
//! circumsphere contains the point (exact [`insphere`] tests), and retile
//! the cavity boundary with new tetrahedra incident to the point.
//!
//! An insertion allocates nothing once its buffers have grown: the cavity
//! is marked with per-tet epoch stamps, the boundary faces and the edge
//! table that pairs the new tetrahedra live in one `InsertScratch` per
//! build, next to the [`Predicates`] evaluator and its exact-arithmetic
//! scratch. Tetrahedra are 40 bytes (`u32` indices), so the ~23 slots per
//! point of a few-thousand-point coarse grid stay inside a 2 MB L2.
//!
//! The multigrid coarsener uses the result to evaluate linear tetrahedral
//! shape functions of the coarse vertex set at fine-grid vertex positions;
//! helpers for barycentric coordinates and point location are provided.
//!
//! [`insphere`]: crate::predicates::insphere

use crate::aabb::Aabb;
use crate::predicates::{in_range, orient3d, orient3d_fast, Orientation, Predicates, StageCounts};
use crate::vec3::Vec3;
use std::collections::HashMap;

/// "No tetrahedron" in a neighbor slot.
const NO_TET: u32 = u32::MAX;

/// A tetrahedron in the triangulation.
///
/// Vertices are indices into [`Delaunay::points`]; the four synthetic
/// bounding-tetrahedron vertices occupy the last four slots. Vertex order is
/// always positively oriented (`orient3d(v0,v1,v2,v3) > 0`).
#[derive(Clone, Copy, Debug)]
pub struct Tet {
    verts: [u32; 4],
    /// `neighbors[i]` shares the face opposite `verts[i]` ([`NO_TET`] on the
    /// hull of the bounding tetrahedron).
    neighbors: [u32; 4],
    /// Stamp of the last insertion that tested this tet: `2 * epoch` if it
    /// stayed outside the cavity, `2 * epoch + 1` if it joined it.
    mark: u32,
    alive: bool,
}

impl Tet {
    /// Vertex indices, positively oriented.
    pub fn verts(&self) -> [usize; 4] {
        self.verts.map(|v| v as usize)
    }

    /// `neighbors()[i]` is the tet sharing the face opposite `verts()[i]`.
    pub fn neighbors(&self) -> [Option<usize>; 4] {
        self.neighbors.map(|n| (n != NO_TET).then_some(n as usize))
    }

    /// False once an insertion has replaced this tet.
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// Face `FACES[i]` of a tet lists the local vertex indices of the face
/// opposite local vertex `i`, ordered so that for a positively oriented tet
/// `orient3d(face, verts[i]) > 0` (the opposite vertex is "inside").
const FACES: [[usize; 3]; 4] = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]];

/// A face of the cavity boundary: its vertices as seen from inside, the tet
/// beyond it and that tet's slot pointing back.
#[derive(Clone, Copy)]
struct BoundaryFace {
    verts: [u32; 3],
    outer: u32,
    outer_face: usize,
}

/// One parked half of an edge of the cavity boundary.
#[derive(Clone, Copy)]
struct EdgeSlot {
    key: u64,
    /// The [`EdgeTable::round`] that wrote this slot; older slots are free.
    round: u32,
    /// The new tet waiting for its neighbor across this edge, or [`NO_TET`]
    /// once it has been paired.
    tet: u32,
    face: usize,
}

/// Pairs the new tetrahedra of one insertion across the edges of the cavity
/// boundary: the first face to name an edge parks there, the second takes it
/// away. An open-addressed table reused from insertion to insertion (a new
/// round frees every slot at once).
struct EdgeTable {
    slots: Vec<EdgeSlot>,
    round: u32,
}

impl EdgeTable {
    fn new() -> Self {
        EdgeTable {
            slots: Vec::new(),
            round: 0,
        }
    }

    /// Free every slot and make room for `edges` calls to [`Self::pair`].
    fn begin(&mut self, edges: usize) {
        let want = (2 * edges).next_power_of_two().max(16);
        if self.slots.len() < want {
            let free = EdgeSlot {
                key: 0,
                round: 0,
                tet: NO_TET,
                face: 0,
            };
            self.slots.clear();
            self.slots.resize(want, free);
            self.round = 0;
        }
        self.round += 1;
    }

    /// Take the face parked on edge `(u, v)`, or park `(tet, face)` there
    /// and return `None`.
    fn pair(&mut self, u: u32, v: u32, tet: u32, face: usize) -> Option<(u32, usize)> {
        let key = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.round != self.round {
                *slot = EdgeSlot {
                    key,
                    round: self.round,
                    tet,
                    face,
                };
                return None;
            }
            if slot.key == key && slot.tet != NO_TET {
                let parked = (slot.tet, slot.face);
                // Taken, but still in the probe sequence of later keys.
                slot.tet = NO_TET;
                return Some(parked);
            }
            i = (i + 1) & mask;
        }
    }

    /// True when every parked face has been taken.
    fn all_paired(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.round != self.round || s.tet == NO_TET)
    }
}

/// What the insertions of one build share: the predicate evaluator, the
/// insertion counter behind the tets' marks, and the buffers of one cavity.
struct InsertScratch {
    predicates: Predicates,
    epoch: u32,
    cavity: Vec<u32>,
    stack: Vec<u32>,
    boundary: Vec<BoundaryFace>,
    edges: EdgeTable,
}

/// A 3D Delaunay tetrahedralization.
///
/// ```
/// use pmg_geometry::{Delaunay, Vec3};
/// let pts = vec![
///     Vec3::new(0.0, 0.0, 0.0),
///     Vec3::new(1.0, 0.0, 0.0),
///     Vec3::new(0.0, 1.0, 0.0),
///     Vec3::new(0.0, 0.0, 1.0),
///     Vec3::new(0.4, 0.4, 0.4),
/// ];
/// let dt = Delaunay::new(&pts).unwrap();
/// assert!(dt.verify_delaunay());
/// let t = dt.locate(Vec3::new(0.2, 0.2, 0.2), 0).unwrap();
/// let w = dt.barycentric(t, Vec3::new(0.2, 0.2, 0.2));
/// assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
pub struct Delaunay {
    points: Vec<Vec3>,
    tets: Vec<Tet>,
    /// Index of the first synthetic bounding vertex.
    bound_start: usize,
    /// Hint for the next point-location walk.
    last_tet: usize,
    /// For each input point, the index it was stored under (deduplicated
    /// points map to their first occurrence).
    canonical: Vec<usize>,
    predicate_counts: StageCounts,
}

/// The input points and the bounding tetrahedron's four corners after them
/// (positively oriented), or `None` for an empty input or one whose points
/// or bounding tetrahedron leave the predicates' range ([`in_range`]: no
/// NaN or infinity, and no coordinate whose arithmetic could overflow or
/// underflow and so return a wrong sign).
fn points_with_bounding_tet(input: &[Vec3]) -> Option<Vec<Vec3>> {
    if input.is_empty() || !in_range(input) {
        return None;
    }
    let bbox = Aabb::from_points(input.iter().copied());
    let center = bbox.center();
    let size = bbox.diagonal().max(1.0);
    // A bounding tetrahedron comfortably containing the inflated box.
    let s = 20.0 * size;
    let b0 = center + Vec3::new(0.0, 0.0, 3.0 * s);
    let b1 = center + Vec3::new(-2.0 * s, -s, -s);
    let b2 = center + Vec3::new(2.0 * s, -s, -s);
    let b3 = center + Vec3::new(0.0, 2.0 * s, -s);
    if !in_range(&[b0, b1, b2, b3]) {
        return None;
    }
    // Fix orientation of the bounding tet.
    let (b1, b2) = match orient3d(b0, b1, b2, b3) {
        Orientation::Positive => (b1, b2),
        _ => (b2, b1),
    };
    debug_assert_eq!(orient3d(b0, b1, b2, b3), Orientation::Positive);

    let mut points = Vec::with_capacity(input.len() + 4);
    points.extend_from_slice(input);
    points.extend([b0, b1, b2, b3]);
    Some(points)
}

/// The key two points share exactly when they are equal as numbers: the
/// coordinate bits with `-0.0` folded onto `0.0`.
fn coordinate_key(p: Vec3) -> [u64; 3] {
    p.to_array().map(|c| (c + 0.0).to_bits())
}

impl Delaunay {
    /// Triangulate `input` points. Duplicate points are tolerated and mapped
    /// to their first occurrence (see [`Delaunay::canonical_index`]).
    ///
    /// Returns `None` when the input is degenerate in a way that prevents
    /// triangulation: no points, or a coordinate of a point or of the
    /// bounding tetrahedron outside the predicates' range (see
    /// [`in_range`]; NaN and infinity are outside it).
    pub fn new(input: &[Vec3]) -> Option<Delaunay> {
        let _t = pmg_telemetry::scope("triangulate");
        let points = points_with_bounding_tet(input)?;
        let n = input.len();
        // Marks count insertions two at a time in a `u32`.
        assert!(n < (1 << 30), "too many points for 32-bit tet marks");
        let root = Tet {
            verts: [n, n + 1, n + 2, n + 3].map(|v| v as u32),
            neighbors: [NO_TET; 4],
            mark: 0,
            alive: true,
        };
        let mut dt = Delaunay {
            points,
            tets: vec![root],
            bound_start: n,
            last_tet: 0,
            canonical: Vec::with_capacity(n),
            predicate_counts: StageCounts::default(),
        };
        let mut scratch = InsertScratch {
            predicates: Predicates::new(),
            epoch: 0,
            cavity: Vec::new(),
            stack: Vec::new(),
            boundary: Vec::new(),
            edges: EdgeTable::new(),
        };

        let mut seen: HashMap<[u64; 3], usize> = HashMap::with_capacity(n);
        for i in 0..n {
            let first = *seen.entry(coordinate_key(dt.points[i])).or_insert(i);
            dt.canonical.push(first);
            if first == i {
                dt.insert(i, &mut scratch)?;
            }
        }

        dt.predicate_counts = scratch.predicates.counts();
        let counts = dt.predicate_counts;
        pmg_telemetry::counter_add("delaunay/predicates_filter", counts.filter);
        pmg_telemetry::counter_add("delaunay/predicates_double_word", counts.double_word);
        pmg_telemetry::counter_add("delaunay/predicates_exact_diff", counts.exact_diff);
        pmg_telemetry::counter_add("delaunay/predicates_full_exact", counts.full_exact);
        Some(dt)
    }

    /// How many predicate calls of the build each precision level resolved.
    /// The exact stages' counts say how degenerate the input was: they take
    /// `orient3d`'s filter failures and the `insphere` calls the double-word
    /// stage cannot sign, which on mesh data are the exact zeros
    /// (cospherical corners).
    pub fn predicate_counts(&self) -> StageCounts {
        self.predicate_counts
    }

    /// All points, including the 4 synthetic bounding vertices at the end.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// True if `v` is one of the synthetic bounding-tetrahedron vertices.
    pub fn is_bounding_vertex(&self, v: usize) -> bool {
        v >= self.bound_start
    }

    /// Index under which input point `i` was actually triangulated
    /// (different from `i` only for duplicate points).
    pub fn canonical_index(&self, i: usize) -> usize {
        self.canonical[i]
    }

    /// Iterate over alive tetrahedra as `(tet_id, &Tet)`.
    pub fn tets(&self) -> impl Iterator<Item = (usize, &Tet)> {
        self.tets.iter().enumerate().filter(|(_, t)| t.alive)
    }

    /// Alive tetrahedra that do not touch a bounding vertex ("real" tets).
    pub fn real_tets(&self) -> impl Iterator<Item = (usize, &Tet)> {
        self.tets().filter(move |(_, t)| {
            t.verts
                .iter()
                .all(|&v| !self.is_bounding_vertex(v as usize))
        })
    }

    pub fn tet(&self, id: usize) -> &Tet {
        &self.tets[id]
    }

    pub fn num_alive_tets(&self) -> usize {
        self.tets.iter().filter(|t| t.alive).count()
    }

    fn corners(&self, t: &Tet) -> [Vec3; 4] {
        t.verts.map(|v| self.points[v as usize])
    }

    /// Locate a tetrahedron whose closed hull contains `p`, walking from
    /// `hint` (falls back to exhaustive scan if the walk stalls).
    pub fn locate(&self, p: Vec3, hint: usize) -> Option<usize> {
        self.walk(p, hint, orient3d)
    }

    /// [`Self::locate`] with the orientation predicate passed in, so that a
    /// build's walks count in its [`Predicates`].
    fn walk(
        &self,
        p: Vec3,
        hint: usize,
        mut orient: impl FnMut(Vec3, Vec3, Vec3, Vec3) -> Orientation,
    ) -> Option<usize> {
        // Signed test: is `p` inside (closed) tet `t`? Returns the local
        // face index through which `p` is outside, if any.
        let mut outside_face = |t: usize| {
            let v = self.corners(&self.tets[t]);
            FACES
                .iter()
                .position(|f| orient(v[f[0]], v[f[1]], v[f[2]], p) == Orientation::Negative)
        };
        let mut cur = if self.tets.get(hint).is_some_and(|t| t.alive) {
            hint
        } else {
            self.tets.iter().position(|t| t.alive)?
        };
        let max_steps = 4 * self.tets.len() + 16;
        for _ in 0..max_steps {
            match outside_face(cur) {
                None => return Some(cur),
                Some(i) => match self.tets[cur].neighbors[i] {
                    // Outside the current hull: cannot happen for points in
                    // the bounding tet; treat as not found.
                    NO_TET => return None,
                    nb => cur = nb as usize,
                },
            }
        }
        // Walk failed to terminate (possible on degenerate inputs): scan.
        (0..self.tets.len()).find(|&id| self.tets[id].alive && outside_face(id).is_none())
    }

    /// Insert point index `pi` (must be a stored point). Returns `None` on
    /// unrecoverable degeneracy.
    ///
    /// Insertion order, the cavity's depth-first order and the order in
    /// which new tets are created fix every tet id, and with them the
    /// triangulation of a degenerate (cospherical) input: they are part of
    /// the result, and the `oracle` in this module's tests pins them.
    fn insert(&mut self, pi: usize, s: &mut InsertScratch) -> Option<()> {
        let p = self.points[pi];
        let predicates = &mut s.predicates;
        let start = self.walk(p, self.last_tet, |a, b, c, d| {
            predicates.orient3d(a, b, c, d)
        })?;

        // Grow the cavity of tets whose circumsphere strictly contains p.
        s.epoch += 1;
        let (outside, inside) = (2 * s.epoch, 2 * s.epoch + 1);
        self.tets[start].mark = inside;
        s.cavity.clear();
        s.cavity.push(start as u32);
        s.stack.clear();
        s.stack.push(start as u32);
        while let Some(t) = s.stack.pop() {
            for i in 0..4 {
                let nb = self.tets[t as usize].neighbors[i];
                // Marks only grow: at or above `outside` means tested now.
                if nb == NO_TET || self.tets[nb as usize].mark >= outside {
                    continue;
                }
                let [a, b, c, d] = self.corners(&self.tets[nb as usize]);
                let bad = s.predicates.insphere(a, b, c, d, p) == Orientation::Positive;
                self.tets[nb as usize].mark = outside + u32::from(bad);
                if bad {
                    s.cavity.push(nb);
                    s.stack.push(nb);
                }
            }
        }

        // Collect boundary faces: faces of cavity tets whose neighbor is
        // outside the cavity (or absent).
        s.boundary.clear();
        for &t in &s.cavity {
            let tet = self.tets[t as usize];
            for (i, f) in FACES.iter().enumerate() {
                let nb = tet.neighbors[i];
                if nb != NO_TET && self.tets[nb as usize].mark == inside {
                    continue;
                }
                let outer_face = match nb {
                    NO_TET => 0,
                    nb => self.face_index_of(nb as usize, t),
                };
                s.boundary.push(BoundaryFace {
                    verts: [tet.verts[f[0]], tet.verts[f[1]], tet.verts[f[2]]],
                    outer: nb,
                    outer_face,
                });
            }
        }

        // Kill cavity tets.
        for &t in &s.cavity {
            self.tets[t as usize].alive = false;
        }

        // Create one new tet per boundary face: (face, p).
        let first_new = self.tets.len();
        assert!(
            first_new + s.boundary.len() < NO_TET as usize,
            "tet ids exceed 32 bits"
        );
        s.edges.begin(3 * s.boundary.len());
        for bf in &s.boundary {
            let [a, b, c] = bf.verts;
            debug_assert_ne!(
                orient3d(
                    self.points[a as usize],
                    self.points[b as usize],
                    self.points[c as usize],
                    p
                ),
                Orientation::Negative,
                "cavity boundary face not visible from inserted point"
            );
            let id = self.tets.len() as u32;
            self.tets.push(Tet {
                verts: [a, b, c, pi as u32],
                neighbors: [NO_TET, NO_TET, NO_TET, bf.outer],
                mark: 0,
                alive: true,
            });
            // Re-link the outer neighbor to the new tet.
            if bf.outer != NO_TET {
                self.tets[bf.outer as usize].neighbors[bf.outer_face] = id;
            }
            // Wire new-tet-to-new-tet adjacency through shared edges of the
            // boundary faces. New tet face opposite local vertex k (k<3) is
            // the face containing p and the edge (other two of a,b,c).
            for k in 0..3 {
                let (e0, e1) = (bf.verts[(k + 1) % 3], bf.verts[(k + 2) % 3]);
                if let Some((other_id, other_face)) = s.edges.pair(e0, e1, id, k) {
                    self.tets[id as usize].neighbors[k] = other_id;
                    self.tets[other_id as usize].neighbors[other_face] = id;
                }
            }
        }
        debug_assert!(s.edges.all_paired(), "unmatched cavity faces");
        self.last_tet = first_new;
        Some(())
    }

    /// Face index of `t` that is shared with neighbor `nb`.
    fn face_index_of(&self, t: usize, nb: u32) -> usize {
        self.tets[t]
            .neighbors
            .iter()
            .position(|&n| n == nb)
            .expect("neighbor link missing")
    }

    /// Barycentric coordinates of `p` in tet `t` (f64 arithmetic). The four
    /// weights sum to 1; all weights in `[0,1]` means `p` is inside.
    pub fn barycentric(&self, t: usize, p: Vec3) -> [f64; 4] {
        barycentric(self.corners(&self.tets[t]), p)
    }

    /// Verify the empty-circumsphere property against all points (O(n·m),
    /// intended for tests).
    pub fn verify_delaunay(&self) -> bool {
        let mut predicates = Predicates::new();
        self.tets().all(|(_, t)| {
            let [a, b, c, d] = self.corners(t);
            (0..self.bound_start as u32)
                .filter(|v| !t.verts.contains(v))
                .all(|v| {
                    predicates.insphere(a, b, c, d, self.points[v as usize])
                        != Orientation::Positive
                })
        })
    }
}

/// Barycentric coordinates of `p` with respect to tet corners `v` (plain f64
/// volume ratios; not robust near degeneracy).
pub fn barycentric(v: [Vec3; 4], p: Vec3) -> [f64; 4] {
    let total = orient3d_fast(v[0], v[1], v[2], v[3]);
    if total == 0.0 {
        return [f64::NAN; 4];
    }
    // Weight of corner i is the volume of the tet with corner i replaced by p.
    let w0 = orient3d_fast(p, v[1], v[2], v[3]) / total;
    let w1 = orient3d_fast(v[0], p, v[2], v[3]) / total;
    let w2 = orient3d_fast(v[0], v[1], p, v[3]) / total;
    let w3 = orient3d_fast(v[0], v[1], v[2], p) / total;
    [w0, w1, w2, w3]
}

/// The triangulation as it was built before insertion moved onto epoch marks
/// and flat scratch: the parent's tet layout, walk and `insert` kept
/// verbatim (one `HashMap` for the cavity, one for the edges, fresh `Vec`s
/// per point) over the [`crate::predicates::oracle`] predicates. What the
/// tests below require [`Delaunay`] to reproduce tet for tet.
#[cfg(test)]
mod oracle {
    use super::{coordinate_key, points_with_bounding_tet, FACES};
    use crate::predicates::oracle::{insphere, orient3d};
    use crate::predicates::Orientation;
    use crate::vec3::Vec3;
    use std::collections::HashMap;

    #[derive(Clone, Copy, Debug)]
    pub struct Tet {
        pub verts: [usize; 4],
        pub neighbors: [Option<usize>; 4],
        pub alive: bool,
    }

    pub struct Triangulation {
        points: Vec<Vec3>,
        pub tets: Vec<Tet>,
        last_tet: usize,
    }

    impl Triangulation {
        pub fn new(input: &[Vec3]) -> Option<Triangulation> {
            let points = points_with_bounding_tet(input)?;
            let n = input.len();
            let root = Tet {
                verts: [n, n + 1, n + 2, n + 3],
                neighbors: [None; 4],
                alive: true,
            };
            let mut dt = Triangulation {
                points,
                tets: vec![root],
                last_tet: 0,
            };
            let mut seen: HashMap<[u64; 3], usize> = HashMap::with_capacity(n);
            for i in 0..n {
                if *seen.entry(coordinate_key(dt.points[i])).or_insert(i) == i {
                    dt.insert(i)?;
                }
            }
            Some(dt)
        }

        fn tets(&self) -> impl Iterator<Item = (usize, &Tet)> {
            self.tets.iter().enumerate().filter(|(_, t)| t.alive)
        }

        fn vpos(&self, v: usize) -> Vec3 {
            self.points[v]
        }

        /// Signed test: is `p` inside (closed) tet `t`? Returns the local face
        /// index through which `p` is outside, if any.
        fn outside_face(&self, t: usize, p: Vec3) -> Option<usize> {
            let tet = &self.tets[t];
            for (i, f) in FACES.iter().enumerate() {
                let a = self.vpos(tet.verts[f[0]]);
                let b = self.vpos(tet.verts[f[1]]);
                let c = self.vpos(tet.verts[f[2]]);
                if orient3d(a, b, c, p) == Orientation::Negative {
                    return Some(i);
                }
            }
            None
        }

        /// Locate a tetrahedron whose closed hull contains `p`, walking from
        /// `hint` (falls back to exhaustive scan if the walk stalls).
        fn locate(&self, p: Vec3, hint: usize) -> Option<usize> {
            let mut cur = if self.tets.get(hint).is_some_and(|t| t.alive) {
                hint
            } else {
                self.tets.iter().position(|t| t.alive)?
            };
            let max_steps = 4 * self.tets.len() + 16;
            for _ in 0..max_steps {
                match self.outside_face(cur, p) {
                    None => return Some(cur),
                    Some(i) => match self.tets[cur].neighbors[i] {
                        Some(nb) => cur = nb,
                        // Outside the current hull: cannot happen for points in
                        // the bounding tet; treat as not found.
                        None => return None,
                    },
                }
            }
            // Walk failed to terminate (possible on degenerate inputs): scan.
            self.tets()
                .find(|&(id, _)| self.outside_face(id, p).is_none())
                .map(|(id, _)| id)
        }

        /// Insert point index `pi` (must be a stored point). Returns `None` on
        /// unrecoverable degeneracy.
        fn insert(&mut self, pi: usize) -> Option<()> {
            let p = self.points[pi];
            let start = self.locate(p, self.last_tet)?;

            // Grow the cavity of tets whose circumsphere strictly contains p.
            let mut cavity = vec![start];
            let mut in_cavity = HashMap::new();
            in_cavity.insert(start, true);
            let mut stack = vec![start];
            while let Some(t) = stack.pop() {
                for i in 0..4 {
                    if let Some(nb) = self.tets[t].neighbors[i] {
                        if in_cavity.contains_key(&nb) {
                            continue;
                        }
                        let bad = self.point_in_circumsphere(nb, p);
                        in_cavity.insert(nb, bad);
                        if bad {
                            cavity.push(nb);
                            stack.push(nb);
                        }
                    }
                }
            }

            // Collect boundary faces: faces of cavity tets whose neighbor is
            // outside the cavity (or absent).
            struct BFace {
                verts: [usize; 3],
                outer: Option<usize>,
                outer_face: usize,
            }
            let mut boundary = Vec::new();
            for &t in &cavity {
                let tet = self.tets[t];
                for (i, f) in FACES.iter().enumerate() {
                    let nb = tet.neighbors[i];
                    let nb_in = nb.is_some_and(|n| in_cavity.get(&n).copied().unwrap_or(false));
                    if !nb_in {
                        let verts = [tet.verts[f[0]], tet.verts[f[1]], tet.verts[f[2]]];
                        let outer_face = nb.map(|n| self.face_index_of(n, t)).unwrap_or(0);
                        boundary.push(BFace {
                            verts,
                            outer: nb,
                            outer_face,
                        });
                    }
                }
            }

            // Kill cavity tets.
            for &t in &cavity {
                self.tets[t].alive = false;
            }

            // Create one new tet per boundary face: (face, p).
            let first_new = self.tets.len();
            let mut face_map: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
            for bf in &boundary {
                let [a, b, c] = bf.verts;
                debug_assert_ne!(
                    orient3d(self.vpos(a), self.vpos(b), self.vpos(c), p),
                    Orientation::Negative,
                    "cavity boundary face not visible from inserted point"
                );
                let id = self.tets.len();
                self.tets.push(Tet {
                    verts: [a, b, c, pi],
                    neighbors: [None, None, None, bf.outer],
                    alive: true,
                });
                // Re-link the outer neighbor to the new tet.
                if let Some(out) = bf.outer {
                    self.tets[out].neighbors[bf.outer_face] = Some(id);
                }
                // Wire new-tet-to-new-tet adjacency through shared edges of the
                // boundary faces. New tet face opposite local vertex k (k<3) is
                // the face containing p and the edge (other two of a,b,c).
                for k in 0..3 {
                    let e0 = bf.verts[(k + 1) % 3];
                    let e1 = bf.verts[(k + 2) % 3];
                    let key = (e0.min(e1), e0.max(e1));
                    match face_map.remove(&key) {
                        Some((other_id, other_face)) => {
                            // `verts[k]`'s opposite face in the new tet contains
                            // edge (e0,e1) and p; the local face index is k.
                            self.tets[id].neighbors[k] = Some(other_id);
                            self.tets[other_id].neighbors[other_face] = Some(id);
                        }
                        None => {
                            face_map.insert(key, (id, k));
                        }
                    }
                }
            }
            debug_assert!(face_map.is_empty(), "unmatched cavity faces");
            self.last_tet = first_new;
            Some(())
        }

        /// Face index of `t` that is shared with neighbor `nb`.
        fn face_index_of(&self, t: usize, nb: usize) -> usize {
            self.tets[t]
                .neighbors
                .iter()
                .position(|&n| n == Some(nb))
                .expect("neighbor link missing")
        }

        /// Exact test: does the circumsphere of tet `t` strictly contain `p`?
        fn point_in_circumsphere(&self, t: usize, p: Vec3) -> bool {
            let v = self.tets[t].verts;
            insphere(
                self.vpos(v[0]),
                self.vpos(v[1]),
                self.vpos(v[2]),
                self.vpos(v[3]),
                p,
            ) == Orientation::Positive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn cube_corners() -> Vec<Vec3> {
        let mut v = Vec::new();
        for i in 0..8 {
            v.push(Vec3::new(
                (i & 1) as f64,
                ((i >> 1) & 1) as f64,
                ((i >> 2) & 1) as f64,
            ));
        }
        v
    }

    #[test]
    fn single_point() {
        let dt = Delaunay::new(&[Vec3::ZERO]).unwrap();
        assert_eq!(dt.real_tets().count(), 0);
        assert!(dt.num_alive_tets() >= 4);
    }

    #[test]
    fn cube_triangulation() {
        let dt = Delaunay::new(&cube_corners()).unwrap();
        // A cube triangulates into 5 or 6 tets; total real volume must be 1.
        let mut vol = 0.0;
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            vol += orient3d_fast(v[0], v[1], v[2], v[3]) / 6.0;
        }
        assert!((vol - 1.0).abs() < 1e-12, "volume = {vol}");
        assert!(dt.verify_delaunay());
    }

    #[test]
    fn random_points_delaunay_property() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let pts: Vec<Vec3> = (0..80)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let dt = Delaunay::new(&pts).unwrap();
        assert!(dt.verify_delaunay());
        // Hull volume equals the sum of tet volumes and every tet positively
        // oriented.
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            assert!(orient3d_fast(v[0], v[1], v[2], v[3]) > 0.0);
        }
    }

    #[test]
    fn grid_points_cospherical() {
        // Regular grids are maximally degenerate (many cospherical point
        // sets); the exact predicates must still produce a valid result.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    pts.push(Vec3::new(i as f64, j as f64, k as f64));
                }
            }
        }
        let dt = Delaunay::new(&pts).unwrap();
        let mut vol = 0.0;
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            let o = orient3d_fast(v[0], v[1], v[2], v[3]);
            assert!(o > 0.0);
            vol += o / 6.0;
        }
        assert!((vol - 27.0).abs() < 1e-9, "volume = {vol}");
    }

    #[test]
    fn duplicates_are_canonicalized() {
        let mut pts = cube_corners();
        pts.push(pts[3]);
        pts.push(pts[0]);
        let dt = Delaunay::new(&pts).unwrap();
        assert_eq!(dt.canonical_index(8), 3);
        assert_eq!(dt.canonical_index(9), 0);
        assert_eq!(dt.canonical_index(2), 2);
        assert!(dt.verify_delaunay());
    }

    #[test]
    fn locate_and_barycentric() {
        let pts = cube_corners();
        let dt = Delaunay::new(&pts).unwrap();
        let q = Vec3::new(0.3, 0.4, 0.5);
        let t = dt.locate(q, 0).unwrap();
        let w = dt.barycentric(t, q);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| x >= -1e-12));
        // Reconstruct q from the weights.
        let verts = dt.tet(t).verts();
        let mut rec = Vec3::ZERO;
        for (wi, vi) in w.iter().zip(verts.iter()) {
            rec += *wi * dt.points()[*vi];
        }
        assert!(rec.dist(q) < 1e-12);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts: Vec<Vec3> = (0..40)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let dt = Delaunay::new(&pts).unwrap();
        for (id, t) in dt.tets() {
            for (i, nb) in t.neighbors().iter().enumerate() {
                if let Some(nb) = *nb {
                    assert!(dt.tet(nb).is_alive(), "dead neighbor");
                    assert!(
                        dt.tet(nb).neighbors().contains(&Some(id)),
                        "asymmetric adjacency"
                    );
                    // Shared face vertices must match.
                    let mut face: Vec<usize> = FACES[i].iter().map(|&k| t.verts()[k]).collect();
                    face.sort_unstable();
                    let mut other: Vec<usize> = dt.tet(nb).verts().to_vec();
                    other.sort_unstable();
                    assert!(face.iter().all(|v| other.contains(v)));
                }
            }
        }
    }

    #[test]
    fn negative_zero_is_a_duplicate_of_zero() {
        // The unit cube, its centre, and a twin of corner 0 spelled with a
        // negative zero: equal as a number, different in its bits.
        let mut pts = cube_corners();
        pts.push(Vec3::new(0.5, 0.5, 0.5));
        pts.push(Vec3::new(-0.0, 0.0, 0.0));
        let dt = Delaunay::new(&pts).unwrap();
        assert_eq!(
            dt.canonical_index(9),
            0,
            "the twin maps to its first occurrence"
        );
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            assert_ne!(orient3d_fast(v[0], v[1], v[2], v[3]), 0.0, "flat tet {t:?}");
            assert!(!t.verts().contains(&9), "the twin was inserted");
        }
        assert!(dt.verify_delaunay());
    }

    fn grid(n: usize, at: impl Fn(usize, usize, usize) -> Vec3) -> Vec<Vec3> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pts.push(at(i, j, k));
                }
            }
        }
        pts
    }

    fn integer_grid(n: usize) -> Vec<Vec3> {
        grid(n, |i, j, k| Vec3::new(i as f64, j as f64, k as f64))
    }

    /// A 4^3 grid pushed off its lattice by irrational-looking offsets, so
    /// coordinate differences are inexact.
    fn perturbed_grid() -> Vec<Vec3> {
        grid(4, |i, j, k| {
            Vec3::new(
                i as f64 + 1e-14 * ((i * 7 + j) % 3) as f64 + 0.1,
                j as f64 + 0.1f64.sqrt() * 1e-15,
                k as f64 + 0.1,
            )
        })
    }

    /// New and old insertion must agree tet for tet: vertices, neighbors,
    /// liveness, in creation order.
    fn assert_matches_oracle(name: &str, pts: &[Vec3]) {
        let new = Delaunay::new(pts).expect("triangulation");
        let old = oracle::Triangulation::new(pts).expect("oracle triangulation");
        assert_eq!(new.tets.len(), old.tets.len(), "{name}: tet slots");
        for (id, (n, o)) in new.tets.iter().zip(&old.tets).enumerate() {
            assert_eq!(n.verts(), o.verts, "{name}: verts of tet {id}");
            assert_eq!(n.neighbors(), o.neighbors, "{name}: neighbors of tet {id}");
            assert_eq!(n.is_alive(), o.alive, "{name}: liveness of tet {id}");
        }
    }

    #[test]
    fn insertion_matches_the_parent_oracle_on_lattices_and_clouds() {
        assert_matches_oracle("5^3 grid", &integer_grid(5));
        assert_matches_oracle("perturbed 4^3 grid", &perturbed_grid());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let cloud: Vec<Vec3> = (0..200)
            .map(|_| Vec3::new(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        assert_matches_oracle("200 random points", &cloud);
        let mut twins = cube_corners();
        twins.extend([Vec3::new(-0.0, 0.0, 0.0), Vec3::new(0.5, 0.5, 0.5)]);
        assert_matches_oracle("cube with a -0.0 twin", &twins);
    }

    /// The vertices of `mesh` and of its first `levels` coarse grids, as
    /// the hierarchy builder coarsens them. The mesh and coarsening crates
    /// sit above this one and link its non-test build, whose `Vec3` is a
    /// different type here: the coordinates cross as arrays.
    fn vertex_sets(mesh: &pmg_mesh::Mesh, levels: usize) -> Vec<Vec<Vec3>> {
        fn here(coords: impl Iterator<Item = [f64; 3]>) -> Vec<Vec3> {
            coords.map(|[x, y, z]| Vec3::new(x, y, z)).collect()
        }
        let mut sets = vec![here(mesh.coords.iter().map(|p| p.to_array()))];
        let mut coords = mesh.coords.clone();
        let mut graph = mesh.vertex_graph();
        let mut classes = prometheus::classify_mesh(mesh, 0.7);
        let schedule = prometheus::MgOptions::default();
        for level in 0..levels {
            let nv = coords.len();
            let opts = schedule
                .level_coarsen_options(level, 1, 3 * nv, nv)
                .expect("a grid above the bottom");
            let lvl = prometheus::coarsen_level(&coords, &graph, &classes, &opts);
            sets.push(here(lvl.coords.iter().map(|p| p.to_array())));
            (coords, graph, classes) = (lvl.coords, lvl.graph, lvl.classes);
        }
        sets
    }

    #[test]
    fn insertion_matches_the_parent_oracle_on_coarse_grids() {
        // The benchmark's cold10k mesh: concentric shells, so coarse cells
        // have their corners on common spheres by construction.
        let spheres = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams {
            n_surf: 6,
            ..pmg_mesh::SpheresParams::ladder(1)
        });
        let sets = vertex_sets(&spheres, 3);
        let sizes: Vec<usize> = sets.iter().map(Vec::len).collect();
        assert_eq!(sizes, [3264, 1250, 260, 57]);
        for set in &sets[1..] {
            assert_matches_oracle(&format!("spheres, {} points", set.len()), set);
        }
        // Lattices with spacings that are not dyadic (1/6, 1/10): exact
        // ties among inexact differences, in fine and coarse sets alike.
        for (name, mesh) in [
            ("cube(6)", pmg_mesh::generators::cube(6)),
            (
                "thin_plate",
                pmg_mesh::generators::thin_plate(10, 10.0, 0.3),
            ),
        ] {
            for set in vertex_sets(&mesh, 1) {
                assert_matches_oracle(&format!("{name}, {} points", set.len()), &set);
            }
        }
    }

    #[test]
    fn stage_counts_on_the_spheres_first_coarse_grid() {
        // The benchmark's cold10k remesh: of the calls the filter leaves,
        // the double-word stage resolves all but the exact zeros.
        let spheres = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams {
            n_surf: 6,
            ..pmg_mesh::SpheresParams::ladder(1)
        });
        let set = &vertex_sets(&spheres, 1)[1];
        assert_eq!(set.len(), 1250);
        let dt = Delaunay::new(set).expect("triangulation");
        assert_eq!(dt.real_tets().count(), 5380);
        assert_eq!(
            dt.predicate_counts(),
            StageCounts {
                filter: 89_499,
                double_word: 4_446,
                exact_diff: 1_549,
                full_exact: 1_020,
            }
        );
    }

    #[test]
    fn out_of_range_inputs_are_refused() {
        // The 4^3 lattice scaled by powers of two: no exact sign changes,
        // so inside the predicates' range every scale has the same tets.
        let lattice = |exp: i32| -> Vec<Vec3> {
            let scale = 2f64.powi(exp);
            integer_grid(4).into_iter().map(|p| scale * p).collect()
        };
        for exp in [-100, 0, 100] {
            let dt = Delaunay::new(&lattice(exp)).expect("in range");
            assert_eq!(dt.real_tets().count(), 162, "scale 2^{exp}");
        }
        // Out of range the arithmetic overflows (2^250) or underflows
        // (2^-1000): no triangulation rather than a wrong one.
        for exp in [250, -1000] {
            assert!(Delaunay::new(&lattice(exp)).is_none(), "scale 2^{exp}");
        }
        let mut nan = lattice(0);
        nan[5].y = f64::NAN;
        assert!(Delaunay::new(&nan).is_none());
    }

    #[test]
    fn the_daemon_benchmark_units_are_in_range() {
        // The serve2 workload sends the tiny spheres in units 2^-40 to 2^80
        // and checks every reply against the unscaled solve: every coarse
        // grid must triangulate in every unit, into the same tets. (Their
        // ids may differ: the bounding tetrahedron does not shrink below
        // unit size.)
        let tiny = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams::tiny());
        let tets = |dt: &Delaunay| {
            let mut tets: Vec<[usize; 4]> = dt
                .real_tets()
                .map(|(_, t)| {
                    let mut v = t.verts();
                    v.sort_unstable();
                    v
                })
                .collect();
            tets.sort_unstable();
            tets
        };
        for set in &vertex_sets(&tiny, 2)[1..] {
            let unscaled = tets(&Delaunay::new(set).expect("unit 1"));
            for exp in -40..=80 {
                let scale = 2f64.powi(exp);
                let scaled: Vec<Vec3> = set.iter().map(|&p| scale * p).collect();
                let dt = Delaunay::new(&scaled).expect("in range");
                assert_eq!(tets(&dt), unscaled, "unit 2^{exp}, {} points", set.len());
            }
        }
    }
}

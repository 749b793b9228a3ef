//! One level of automatic coarsening (§3, §4.8): MIS vertex selection,
//! Delaunay remeshing of the selected set, and the restriction operator
//! from linear tetrahedral shape functions.

use crate::classify::{
    classify_mesh_transport, in_process, modified_mis_graph, VertexClass, VertexClasses,
};
use crate::mis::{parallel_mis_transport, MisOrdering};
use pmg_comm::{CommError, Transport};
use pmg_geometry::{Delaunay, Vec3};
use pmg_mesh::{ElementKind, Mesh};
use pmg_partition::{recursive_coordinate_bisection, Graph};
use pmg_sparse::{CooBuilder, CsrMatrix};

/// Options controlling one coarsening step.
#[derive(Clone, Copy, Debug)]
pub struct CoarsenOptions {
    /// MIS vertex ordering heuristic (§4.7).
    pub ordering: MisOrdering,
    /// Number of virtual processors for the parallel MIS.
    pub nproc: usize,
    /// Face identification normal tolerance used when reclassifying.
    pub face_tol: f64,
    /// Always recompute the topological classification from the coarse tet
    /// mesh (the paper reclassifies the third and subsequent grids). When
    /// `false` the product grid inherits its classes unless more than a
    /// third of its vertices are inherited corners, which would stall the
    /// next coarsening step; then it is reclassified all the same.
    pub reclassify: bool,
    /// Interpolation weights below `-extrapolation_tol` are rejected and
    /// the vertex falls back to a nearby element / nearest-vertex rule.
    pub extrapolation_tol: f64,
    /// Apply the §4.6 MIS-graph modification (disable only for ablation
    /// studies — thin regions lose their vertex cover without it).
    pub modify_graph: bool,
}

impl Default for CoarsenOptions {
    fn default() -> Self {
        CoarsenOptions {
            ordering: MisOrdering::NaturalExteriorRandomInterior(0x9e3779b9),
            nproc: 1,
            face_tol: 0.7,
            reclassify: false,
            extrapolation_tol: 0.5,
            modify_graph: true,
        }
    }
}

/// The product of one coarsening step.
pub struct CoarseLevel {
    /// Fine-vertex indices promoted to the coarse grid (ascending).
    pub selected: Vec<u32>,
    /// Scalar restriction `R` (n_coarse × n_fine): row `c` holds the coarse
    /// basis function of vertex `c` evaluated at the fine vertices.
    pub restriction: CsrMatrix,
    /// Coarse vertex coordinates.
    pub coords: Vec<Vec3>,
    /// Coarse vertex connectivity (from the Delaunay remesh).
    pub graph: Graph,
    /// Coarse vertex classification (inherited or recomputed).
    pub classes: VertexClasses,
    /// Coarse tetrahedra (positive-volume orientation).
    pub tets: Vec<[u32; 4]>,
    /// Fine vertices that needed the nearest-vertex fallback.
    pub lost_vertices: usize,
}

impl CoarseLevel {
    /// Whether coarsening a grid of `nv` vertices stalled — it kept 95 % of
    /// them or more, or fewer than four: the grid then finishes with a
    /// direct solve instead of another level.
    pub fn stalled(&self, nv: usize) -> bool {
        let nc = self.selected.len();
        nc * 100 >= nv * 95 || nc < 4
    }
}

/// Coarsen one grid level in process: [`coarsen_level_transport`] on a
/// one-rank endpoint built in the calling thread, which never sends. The
/// `nproc` virtual processors' MIS passes run one after another.
pub fn coarsen_level(
    coords: &[Vec3],
    graph: &Graph,
    classes: &VertexClasses,
    opts: &CoarsenOptions,
) -> CoarseLevel {
    coarsen_level_transport(&mut in_process(), coords, graph, classes, opts)
        .expect("a one-rank coarsening sends nothing, so cannot fail")
}

/// One coarsening step run SPMD over a [`Transport`]: the MIS executes
/// through [`parallel_mis_transport`] (§4.2) and any reclassification
/// through [`classify_mesh_transport`] (the §4.5 face-ID merge collective);
/// the remesh and restriction steps are pure functions of the replicated
/// level geometry and the (identical) MIS mask, so every rank of any rank
/// count produces the same [`CoarseLevel`], bit for bit.
pub fn coarsen_level_transport<T: Transport>(
    t: &mut T,
    coords: &[Vec3],
    graph: &Graph,
    classes: &VertexClasses,
    opts: &CoarsenOptions,
) -> Result<CoarseLevel, CommError> {
    let n = coords.len();
    assert_eq!(graph.num_vertices(), n);
    assert_eq!(classes.class.len(), n);

    // 1. MIS on the (§4.6-modified) graph, rank = topological class, over
    // `nproc` virtual processors cut by RCB.
    let sel_mask = {
        let _t = pmg_telemetry::scope("mis");
        let mgraph = if opts.modify_graph {
            modified_mis_graph(graph, classes)
        } else {
            graph.clone()
        };
        let ranks = classes.ranks();
        let order = opts.ordering.order(&mgraph, &ranks);
        let proc = if opts.nproc > 1 {
            recursive_coordinate_bisection(coords, opts.nproc)
        } else {
            vec![0u32; n]
        };
        parallel_mis_transport(t, &mgraph, &ranks, &proc, &order)?
    };
    coarsen_from_mask(t, coords, graph, classes, opts, &sel_mask)
}

/// A product grid inherits its classification only while it holds at least
/// this many vertices per inherited corner. §4.6 never deletes a corner, so
/// the next MIS keeps at least the `C` corners of `nc` vertices; with the
/// rest thinning at the ≈ 4× a 3-D MIS delivers, `C > nc / 3` predicts a
/// reduction below 2 — a level that costs a remesh, a Galerkin product and
/// a smoother for less than half its vertices. (At ½ the 46 % of spheres
/// ladder point 2 slips through and leaves a 1.88× level.)
const MIN_VERTICES_PER_INHERITED_CORNER: usize = 3;

/// Steps 2–5 of one coarsening pass (remesh, restriction, coarse graph,
/// reclassification) from an already-computed MIS mask. Deterministic and
/// communication-free except for the reclassification's face-ID merge, so
/// every rank computes the same level from the same mask.
fn coarsen_from_mask<T: Transport>(
    t: &mut T,
    coords: &[Vec3],
    graph: &Graph,
    classes: &VertexClasses,
    opts: &CoarsenOptions,
    sel_mask: &[bool],
) -> Result<CoarseLevel, CommError> {
    let n = coords.len();
    let selected: Vec<u32> = (0..n as u32).filter(|&v| sel_mask[v as usize]).collect();
    let nc = selected.len();
    let mut coarse_of = vec![u32::MAX; n];
    for (c, &f) in selected.iter().enumerate() {
        coarse_of[f as usize] = c as u32;
    }
    let coarse_coords: Vec<Vec3> = selected.iter().map(|&f| coords[f as usize]).collect();

    // 2. Delaunay remesh of the coarse vertex set.
    let _delaunay_scope = pmg_telemetry::scope("delaunay");
    let dt = if nc >= 5 {
        Delaunay::new(&coarse_coords)
    } else {
        None
    };
    let mut tets: Vec<[u32; 4]> = Vec::new();
    if let Some(dt) = &dt {
        for (_, t) in dt.real_tets() {
            // Delaunay tets carry the Shewchuk orientation (negative
            // standard volume); swap two vertices for the mesh convention.
            let v = t.verts();
            tets.push([
                dt.canonical_index(v[1]) as u32,
                dt.canonical_index(v[0]) as u32,
                dt.canonical_index(v[2]) as u32,
                dt.canonical_index(v[3]) as u32,
            ]);
        }
    }
    drop(_delaunay_scope);

    // 3. Restriction operator.
    let _restriction_scope = pmg_telemetry::scope("restriction");
    let mut b = CooBuilder::new(nc, n);
    // A fine vertex interpolates from one tetrahedron at most.
    b.reserve(4 * n);
    let mut lost = 0usize;
    let mut hint = 0usize;
    for f in 0..n {
        if let Some(&c) = coarse_of.get(f).filter(|&&c| c != u32::MAX) {
            b.push(c as usize, f, 1.0);
            continue;
        }
        let p = coords[f];
        let mut done = false;
        if let Some(dt) = &dt {
            if let Some(t0) = dt.locate(p, hint) {
                hint = t0;
                if let Some((verts, w)) = best_interpolant(dt, t0, p, opts.extrapolation_tol) {
                    for (vi, wi) in verts.iter().zip(w.iter()) {
                        if wi.abs() > 1e-14 {
                            b.push(dt.canonical_index(*vi), f, *wi);
                        }
                    }
                    done = true;
                }
            }
        }
        if !done {
            // Lost vertex: inject from the nearest selected vertex (first
            // try graph neighbors, then a linear scan).
            lost += 1;
            let nearest = graph
                .neighbors(f)
                .iter()
                .filter(|&&w| coarse_of[w as usize] != u32::MAX)
                .min_by(|&&a, &&b2| {
                    let da = coords[a as usize].dist2(p);
                    let db = coords[b2 as usize].dist2(p);
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|&w| coarse_of[w as usize] as usize)
                .or_else(|| {
                    (0..nc).min_by(|&a, &b2| {
                        let da = coarse_coords[a].dist2(p);
                        let db = coarse_coords[b2].dist2(p);
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                    })
                });
            if let Some(c) = nearest {
                b.push(c, f, 1.0);
            }
        }
    }
    let restriction = b.build();
    drop(_restriction_scope);
    pmg_telemetry::counter_add("coarsen/lost_vertices", lost as u64);

    // 4. Coarse vertex graph from the remesh (fallback: contracted fine
    // graph when no triangulation exists).
    let coarse_graph = if tets.is_empty() {
        contracted_graph(graph, &coarse_of, nc)
    } else {
        let mut edges = Vec::new();
        for t in &tets {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((t[i], t[j]));
                }
            }
        }
        Graph::from_edges(nc, edges)
    };

    // 5. Coarse classification: inherit while the inherited corners leave
    // room to coarsen, else classify the coarse tet mesh's own geometry
    // with the §4.5 parallel face identification (every rank counts the
    // same replicated corners, so the collective stays matched; rank 0
    // counts the firing).
    let corners = selected
        .iter()
        .filter(|&&f| classes.class[f as usize] == VertexClass::Corner)
        .count();
    let crowded = corners * MIN_VERTICES_PER_INHERITED_CORNER > nc;
    let classes_out = if (opts.reclassify || crowded) && !tets.is_empty() {
        if !opts.reclassify && t.rank() == 0 {
            pmg_telemetry::counter_add("coarsen/reclassified_crowded", 1);
        }
        let flat: Vec<u32> = tets.iter().flatten().copied().collect();
        let mesh = Mesh::new(
            coarse_coords.clone(),
            ElementKind::Tet4,
            flat,
            vec![0; tets.len()],
        );
        classify_mesh_transport(t, &mesh, opts.face_tol, opts.nproc)?
    } else {
        VertexClasses {
            class: selected
                .iter()
                .map(|&f| classes.class[f as usize])
                .collect(),
            faces: selected
                .iter()
                .map(|&f| classes.faces[f as usize].clone())
                .collect(),
        }
    };

    Ok(CoarseLevel {
        selected,
        restriction,
        coords: coarse_coords,
        graph: coarse_graph,
        classes: classes_out,
        tets,
        lost_vertices: lost,
    })
}

/// Find the best interpolating tet for `p`, starting from located tet `t0`:
/// breadth-first over neighbors, keeping real tets only, scored by their
/// minimum barycentric weight. Accepts the best candidate whose minimum
/// weight exceeds `-tol` (the paper's −ε extrapolation allowance).
fn best_interpolant(dt: &Delaunay, t0: usize, p: Vec3, tol: f64) -> Option<([usize; 4], [f64; 4])> {
    const MAX_VISIT: usize = 64;
    let mut best: Option<([usize; 4], [f64; 4], f64)> = None;
    // Tets in the order they were reached, which is the order breadth-first
    // search serves them: the queue is the tail `seen[head..len]`. A tet is
    // served only while at most MAX_VISIT were reached, and reaches at most
    // four new ones.
    let mut seen = [t0; MAX_VISIT + 4];
    let (mut head, mut len) = (0, 1);
    while head < len && len <= MAX_VISIT {
        let t = seen[head];
        head += 1;
        let tet = dt.tet(t);
        let verts = tet.verts();
        let is_real = verts.iter().all(|&v| !dt.is_bounding_vertex(v));
        if is_real {
            let w = dt.barycentric(t, p);
            if w.iter().all(|x| x.is_finite()) {
                let score = w.iter().cloned().fold(f64::INFINITY, f64::min);
                if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    best = Some((verts, w, score));
                }
                if score >= 0.0 {
                    break; // inside this tet: no better candidate exists
                }
            }
        }
        for nb in tet.neighbors().into_iter().flatten() {
            if !seen[..len].contains(&nb) {
                seen[len] = nb;
                len += 1;
            }
        }
    }
    best.filter(|(_, _, s)| *s > -tol).map(|(v, w, _)| (v, w))
}

/// Fallback coarse graph: connect coarse vertices whose fine originals are
/// within graph distance 2 (i.e. share a deleted fine neighbor).
fn contracted_graph(fine: &Graph, coarse_of: &[u32], nc: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 0..fine.num_vertices() {
        let cv = coarse_of[v];
        for &w in fine.neighbors(v) {
            let cw = coarse_of[w as usize];
            if cv != u32::MAX && cw != u32::MAX && cv < cw {
                edges.push((cv, cw));
            }
            // Distance-2 via deleted vertex v.
            if cv == u32::MAX {
                for &w2 in fine.neighbors(v) {
                    let cw2 = coarse_of[w2 as usize];
                    if cw != u32::MAX && cw2 != u32::MAX && cw < cw2 {
                        edges.push((cw, cw2));
                    }
                }
            }
        }
    }
    Graph::from_edges(nc, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_mesh;
    use pmg_mesh::generators::cube;

    fn grid_of(m: &Mesh) -> (Vec<Vec3>, Graph, VertexClasses) {
        (m.coords.clone(), m.vertex_graph(), classify_mesh(m, 0.7))
    }

    fn setup(n: usize) -> (Vec<Vec3>, Graph, VertexClasses) {
        grid_of(&cube(n))
    }

    /// The tiny spheres: 17 faceted shells, so the first coarse grid
    /// inherits 224 "corners" among its 249 vertices.
    fn tiny_spheres() -> (Vec<Vec3>, Graph, VertexClasses) {
        grid_of(&pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams::tiny()))
    }

    /// Two coarsening products agree in every field, restriction bits
    /// included.
    fn assert_same_level(got: &CoarseLevel, want: &CoarseLevel, ctx: &str) {
        assert_eq!(got.selected, want.selected, "{ctx}");
        assert_eq!(got.tets, want.tets, "{ctx}");
        assert_eq!(got.lost_vertices, want.lost_vertices, "{ctx}");
        assert_eq!(got.classes.class, want.classes.class, "{ctx}");
        assert_eq!(got.classes.faces, want.classes.faces, "{ctx}");
        assert_eq!(got.graph, want.graph, "{ctx}");
        let (gr, gw) = (&got.restriction, &want.restriction);
        assert_eq!(gr.nrows(), gw.nrows(), "{ctx}");
        assert_eq!(gr.nnz(), gw.nnz(), "{ctx}");
        for row in 0..gr.nrows() {
            let (ci, vi) = gr.row(row);
            let (cj, vj) = gw.row(row);
            assert_eq!(ci, cj, "{ctx} row {row}");
            for (a, b) in vi.iter().zip(vj) {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx} row {row}");
            }
        }
    }

    #[test]
    fn coarsen_cube_basics() {
        let (coords, g, c) = setup(6); // 343 vertices
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        let n = coords.len();
        let nc = lvl.selected.len();
        assert!(nc > n / 30 && nc < n / 2, "nc = {nc} of {n}");
        assert_eq!(lvl.restriction.nrows(), nc);
        assert_eq!(lvl.restriction.ncols(), n);
        assert!(!lvl.tets.is_empty());
        // Corners of the cube always survive.
        let corner_ids: Vec<u32> = (0..n as u32)
            .filter(|&v| c.class[v as usize] == VertexClass::Corner)
            .collect();
        for cv in corner_ids {
            assert!(lvl.selected.contains(&cv), "corner {cv} was deleted");
        }
    }

    #[test]
    fn restriction_columns_are_partition_of_unity() {
        let (coords, g, c) = setup(5);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        // Column sums: Σ_c R[c][f] = 1 for every fine vertex (linear tet
        // shape functions sum to one; injection and fallback are 1).
        let rt = lvl.restriction.transpose();
        for f in 0..coords.len() {
            let (_, vals) = rt.row(f);
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "column {f} sums to {sum}");
        }
    }

    #[test]
    fn selected_columns_are_injection() {
        let (coords, g, c) = setup(4);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        for (cidx, &f) in lvl.selected.iter().enumerate() {
            let (cols, vals) = lvl.restriction.row(cidx);
            let k = cols.binary_search(&(f as usize)).expect("diagonal entry");
            assert_eq!(vals[k], 1.0);
        }
        // And a selected fine vertex appears in no other coarse row.
        let rt = lvl.restriction.transpose();
        for &f in &lvl.selected {
            let (cols, _) = rt.row(f as usize);
            assert_eq!(cols.len(), 1);
        }
    }

    #[test]
    fn restriction_reproduces_linear_functions() {
        // R applied as interpolation: for u_c = linear function at coarse
        // vertices, (Rᵀ u_c)(f) = that function at the fine vertex — exact
        // for linear tet interpolation wherever the vertex is interpolated
        // (not lost).
        let (coords, g, c) = setup(5);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        let lin = |p: Vec3| 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0;
        let uc: Vec<f64> = lvl.coords.iter().map(|&p| lin(p)).collect();
        let mut uf = vec![0.0; coords.len()];
        lvl.restriction.spmv_transpose(&uc, &mut uf);
        let mut bad = 0;
        for f in 0..coords.len() {
            if (uf[f] - lin(coords[f])).abs() > 1e-9 {
                bad += 1;
            }
        }
        // Only lost vertices (nearest-vertex fallback) may deviate.
        assert!(
            bad <= lvl.lost_vertices,
            "bad={bad} lost={}",
            lvl.lost_vertices
        );
        // On a convex cube, losses should be rare.
        assert!(
            lvl.lost_vertices * 20 <= coords.len(),
            "lost={}",
            lvl.lost_vertices
        );
    }

    #[test]
    fn repeated_coarsening_shrinks() {
        for (name, grid) in [("cube(6)", setup(6)), ("tiny spheres", tiny_spheres())] {
            let mut cur = grid;
            let mut sizes = vec![cur.0.len()];
            for depth in 0..4 {
                let opts = CoarsenOptions {
                    reclassify: depth >= 1,
                    ..Default::default()
                };
                let lvl = coarsen_level(&cur.0, &cur.1, &cur.2, &opts);
                if lvl.selected.len() < 10 {
                    break;
                }
                sizes.push(lvl.selected.len());
                cur = (lvl.coords, lvl.graph, lvl.classes);
            }
            assert!(sizes.len() >= 3, "{name}: coarsening stalled: {sizes:?}");
            for w in sizes.windows(2) {
                assert!(w[1] * 2 <= w[0], "{name}: {sizes:?}");
            }
        }
    }

    #[test]
    fn crowded_product_is_reclassified_and_sparse_one_inherits() {
        let corners_among = |c: &VertexClasses, selected: &[u32]| {
            let is_corner = |&&f: &&u32| c.class[f as usize] == VertexClass::Corner;
            selected.iter().filter(is_corner).count()
        };
        // Crowded: the inherited corners would leave the next MIS 25 of
        // 249 vertices to choose from; the remesh has the cube's 8.
        let (coords, g, c) = tiny_spheres();
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        assert_eq!(lvl.selected.len(), 249);
        assert_eq!(corners_among(&c, &lvl.selected), 224);
        assert_eq!(lvl.classes.count(VertexClass::Corner), 8);
        // Sparse: 8 corners of 63 vertices, and the product keeps the fine
        // grid's classes and face ids.
        let (coords, g, c) = setup(6);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        assert_eq!(lvl.selected.len(), 63);
        assert_eq!(corners_among(&c, &lvl.selected), 8);
        for (k, &f) in lvl.selected.iter().enumerate() {
            assert_eq!(lvl.classes.class[k], c.class[f as usize]);
            assert_eq!(lvl.classes.faces[k], c.faces[f as usize]);
        }
    }

    #[test]
    fn thin_plate_keeps_both_surfaces() {
        // §4.6 end-to-end: coarsening a thin plate keeps vertices on both
        // z-surfaces.
        let m = pmg_mesh::generators::thin_plate(10, 10.0, 0.3);
        let g = m.vertex_graph();
        let c = classify_mesh(&m, 0.7);
        let lvl = coarsen_level(&m.coords, &g, &c, &CoarsenOptions::default());
        let top = lvl.coords.iter().filter(|p| p.z > 0.2).count();
        let bottom = lvl.coords.iter().filter(|p| p.z < 0.1).count();
        assert!(top >= 4, "top surface decimated: {top}");
        assert!(bottom >= 4, "bottom surface decimated: {bottom}");
    }

    #[test]
    fn tets_have_positive_volume() {
        let (coords, g, c) = setup(4);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        for t in &lvl.tets {
            let p: Vec<Vec3> = t.iter().map(|&v| lvl.coords[v as usize]).collect();
            let vol = (p[1] - p[0]).cross(p[2] - p[0]).dot(p[3] - p[0]) / 6.0;
            assert!(vol > 0.0, "tet volume {vol}");
        }
    }

    #[test]
    fn tiny_input_fallback() {
        // 4 vertices in a line: no triangulation possible; injection +
        // nearest-vertex fallback must still produce a valid restriction.
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
        ];
        let g = Graph::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]);
        let c = VertexClasses::all_interior(4);
        let lvl = coarsen_level(&coords, &g, &c, &CoarsenOptions::default());
        assert!(!lvl.selected.is_empty());
        let rt = lvl.restriction.transpose();
        for f in 0..4 {
            let (_, vals) = rt.row(f);
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coarsening_is_rank_count_invariant() {
        // The distributed-setup parity cornerstone: the in-process step
        // (one rank) is what 2, 3 and 4 rank threads compute — MIS rounds
        // and the face-ID merge collective included — on every rank. The
        // cube reclassifies because it is told to, the spheres because
        // every rank measures the same crowd of inherited corners.
        for (name, (coords, g, c), reclassify) in [
            ("cube(5)", setup(5), true),
            ("tiny spheres", tiny_spheres(), false),
        ] {
            let opts = CoarsenOptions {
                nproc: 4,
                reclassify,
                ..Default::default()
            };
            let want = coarsen_level(&coords, &g, &c, &opts);
            if !reclassify {
                assert_eq!(
                    want.classes.count(VertexClass::Corner),
                    8,
                    "{name}: the rule did not fire"
                );
            }
            for nranks in [2usize, 3, 4] {
                let outs = {
                    let coords = coords.clone();
                    let g = g.clone();
                    let c = c.clone();
                    pmg_comm::LocalTransport::run_ranks(nranks, move |mut t| {
                        coarsen_level_transport(&mut t, &coords, &g, &c, &opts).unwrap()
                    })
                };
                for (r, got) in outs.iter().enumerate() {
                    assert_same_level(got, &want, &format!("{name} ranks={nranks} r={r}"));
                }
            }
        }
    }

    #[test]
    fn nproc_variants_cover_domain() {
        let (coords, g, c) = setup(5);
        for nproc in [1, 4, 9] {
            let opts = CoarsenOptions {
                nproc,
                ..Default::default()
            };
            let lvl = coarsen_level(&coords, &g, &c, &opts);
            assert!(!lvl.selected.is_empty());
            // MIS invariants on the modified graph.
            let mg = modified_mis_graph(&g, &c);
            let mask: Vec<bool> = {
                let mut m = vec![false; coords.len()];
                for &s in &lvl.selected {
                    m[s as usize] = true;
                }
                m
            };
            assert!(crate::mis::is_independent(&mg, &mask), "nproc={nproc}");
            assert!(crate::mis::is_maximal(&mg, &mask), "nproc={nproc}");
        }
    }
}

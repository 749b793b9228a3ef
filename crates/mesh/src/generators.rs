//! Structured hexahedral test-problem generators.

use crate::mesh::{ElementKind, Mesh};
use pmg_geometry::Vec3;

/// A structured `nx x ny x nz` hexahedral block on `[0, dims.x] x [0,
/// dims.y] x [0, dims.z]`. Materials are assigned from the element centroid
/// by `material`.
///
/// ```
/// use pmg_geometry::Vec3;
/// use pmg_mesh::generators::block;
/// let m = block(2, 2, 2, Vec3::splat(1.0), |c| u32::from(c.z > 0.5));
/// assert_eq!(m.num_elements(), 8);
/// assert_eq!(m.num_vertices(), 27);
/// assert!((m.total_volume() - 1.0).abs() < 1e-12);
/// ```
pub fn block(nx: usize, ny: usize, nz: usize, dims: Vec3, material: impl Fn(Vec3) -> u32) -> Mesh {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let node = |i: usize, j: usize, k: usize| (i * (ny + 1) * (nz + 1) + j * (nz + 1) + k) as u32;
    let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
    for i in 0..=nx {
        for j in 0..=ny {
            for k in 0..=nz {
                coords.push(Vec3::new(
                    dims.x * i as f64 / nx as f64,
                    dims.y * j as f64 / ny as f64,
                    dims.z * k as f64 / nz as f64,
                ));
            }
        }
    }
    let mut elem_verts = Vec::with_capacity(nx * ny * nz * 8);
    let mut materials = Vec::with_capacity(nx * ny * nz);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                // Local ordering: 0-3 on the k face CCW (viewed from +z),
                // 4-7 above.
                elem_verts.extend_from_slice(&[
                    node(i, j, k),
                    node(i + 1, j, k),
                    node(i + 1, j + 1, k),
                    node(i, j + 1, k),
                    node(i, j, k + 1),
                    node(i + 1, j, k + 1),
                    node(i + 1, j + 1, k + 1),
                    node(i, j + 1, k + 1),
                ]);
                let centroid = Vec3::new(
                    dims.x * (i as f64 + 0.5) / nx as f64,
                    dims.y * (j as f64 + 0.5) / ny as f64,
                    dims.z * (k as f64 + 0.5) / nz as f64,
                );
                materials.push(material(centroid));
            }
        }
    }
    Mesh::new(coords, ElementKind::Hex8, elem_verts, materials)
}

/// A structured `nx x ny x nz` block of 20-node serendipity hexahedra on
/// `[0, dims.x] x [0, dims.y] x [0, dims.z]` (the paper's "higher order
/// elements" future-work item). Nodes live on the half-index grid with at
/// most one odd coordinate (corners: all even; mid-edge: one odd).
pub fn block20(
    nx: usize,
    ny: usize,
    nz: usize,
    dims: Vec3,
    material: impl Fn(Vec3) -> u32,
) -> Mesh {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    use std::collections::HashMap;
    let mut ids: HashMap<(usize, usize, usize), u32> = HashMap::new();
    let mut coords = Vec::new();
    let mut intern = |i: usize, j: usize, k: usize| -> u32 {
        let odd = usize::from(i % 2 == 1) + usize::from(j % 2 == 1) + usize::from(k % 2 == 1);
        debug_assert!(odd <= 1, "serendipity grid has no face/volume nodes");
        *ids.entry((i, j, k)).or_insert_with(|| {
            coords.push(Vec3::new(
                dims.x * i as f64 / (2 * nx) as f64,
                dims.y * j as f64 / (2 * ny) as f64,
                dims.z * k as f64 / (2 * nz) as f64,
            ));
            (coords.len() - 1) as u32
        })
    };

    let mut elem_verts = Vec::with_capacity(nx * ny * nz * 20);
    let mut materials = Vec::with_capacity(nx * ny * nz);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let (x, y, z) = (2 * i, 2 * j, 2 * k);
                // Corners in the Hex8 order.
                let c = [
                    (x, y, z),
                    (x + 2, y, z),
                    (x + 2, y + 2, z),
                    (x, y + 2, z),
                    (x, y, z + 2),
                    (x + 2, y, z + 2),
                    (x + 2, y + 2, z + 2),
                    (x, y + 2, z + 2),
                ];
                // Mid-edge nodes per the Hex20 convention.
                let mids = [
                    (x + 1, y, z),
                    (x + 2, y + 1, z),
                    (x + 1, y + 2, z),
                    (x, y + 1, z),
                    (x + 1, y, z + 2),
                    (x + 2, y + 1, z + 2),
                    (x + 1, y + 2, z + 2),
                    (x, y + 1, z + 2),
                    (x, y, z + 1),
                    (x + 2, y, z + 1),
                    (x + 2, y + 2, z + 1),
                    (x, y + 2, z + 1),
                ];
                for (gi, gj, gk) in c.into_iter().chain(mids) {
                    elem_verts.push(intern(gi, gj, gk));
                }
                let centroid = Vec3::new(
                    dims.x * (i as f64 + 0.5) / nx as f64,
                    dims.y * (j as f64 + 0.5) / ny as f64,
                    dims.z * (k as f64 + 0.5) / nz as f64,
                );
                materials.push(material(centroid));
            }
        }
    }
    Mesh::new(coords, ElementKind::Hex20, elem_verts, materials)
}

/// A thin plate: `n x n x 1` elements with thickness `t` (the §4.6 "thin
/// body" that defeats an unmodified MIS).
pub fn thin_plate(n: usize, side: f64, t: f64) -> Mesh {
    block(n, n, 1, Vec3::new(side, side, t), |_| 0)
}

/// A voxel mesh: hexahedra of an `nx x ny x nz` grid over `[0, dims]`,
/// keeping only the cells where `keep(centroid)` yields a material id.
/// This generates non-convex domains (brackets, perforated plates, ...) —
/// the geometry where coarse Delaunay grids overshoot the body and the
/// coarsener's lost-vertex recovery earns its keep.
pub fn voxel_mesh(
    nx: usize,
    ny: usize,
    nz: usize,
    dims: Vec3,
    keep: impl Fn(Vec3) -> Option<u32>,
) -> Mesh {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    use std::collections::HashMap;
    let mut ids: HashMap<(usize, usize, usize), u32> = HashMap::new();
    let mut coords = Vec::new();
    let mut intern = |i: usize, j: usize, k: usize| -> u32 {
        *ids.entry((i, j, k)).or_insert_with(|| {
            coords.push(Vec3::new(
                dims.x * i as f64 / nx as f64,
                dims.y * j as f64 / ny as f64,
                dims.z * k as f64 / nz as f64,
            ));
            (coords.len() - 1) as u32
        })
    };
    let mut elem_verts = Vec::new();
    let mut materials = Vec::new();
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let centroid = Vec3::new(
                    dims.x * (i as f64 + 0.5) / nx as f64,
                    dims.y * (j as f64 + 0.5) / ny as f64,
                    dims.z * (k as f64 + 0.5) / nz as f64,
                );
                let Some(mat) = keep(centroid) else { continue };
                for (di, dj, dk) in [
                    (0, 0, 0),
                    (1, 0, 0),
                    (1, 1, 0),
                    (0, 1, 0),
                    (0, 0, 1),
                    (1, 0, 1),
                    (1, 1, 1),
                    (0, 1, 1),
                ] {
                    elem_verts.push(intern(i + di, j + dj, k + dk));
                }
                materials.push(mat);
            }
        }
    }
    assert!(!materials.is_empty(), "keep() rejected every cell");
    Mesh::new(coords, ElementKind::Hex8, elem_verts, materials)
}

/// An L-bracket: the unit cube minus its upper far octant-ish corner block
/// (a standard non-convex stress-concentration geometry).
pub fn l_bracket(n: usize) -> Mesh {
    voxel_mesh(n, n, n, Vec3::splat(1.0), |c| {
        if c.x > 0.5 && c.z > 0.5 {
            None
        } else {
            Some(0)
        }
    })
}

/// [`l_bracket`] with the element spacing in `x` and `z` shrinking
/// geometrically toward the re-entrant edge (`x = z = 0.5`, `y` free):
/// `ratio` is the largest element edge over the smallest along a graded
/// axis, `1.0` the uniform bracket. Unstructured geometric coarsening is
/// at its weakest where spacing varies fastest, which no quasi-uniform
/// mesh shows. `n` must be even so the edge lies on a grid line.
pub fn graded_bracket(n: usize, ratio: f64) -> Mesh {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "the re-entrant edge must lie on a grid line"
    );
    assert!(ratio >= 1.0, "ratio is largest over smallest edge");
    let half = n / 2;
    // Cell widths `q^i` outward from the edge with `q^(half-1) = ratio`;
    // `dist[k]` is grid line `k`'s distance from it, scaled to end at 1/2.
    let q = ratio.powf(1.0 / (half.max(2) - 1) as f64);
    let mut dist = vec![0.0; half + 1];
    for k in 0..half {
        dist[k + 1] = dist[k] + q.powi(k as i32);
    }
    let graded = |x: f64| {
        let i = (x * n as f64).round() as usize;
        let d = 0.5 * dist[i.abs_diff(half)] / dist[half];
        if i >= half {
            0.5 + d
        } else {
            0.5 - d
        }
    };
    let mut mesh = l_bracket(n);
    for p in &mut mesh.coords {
        p.x = graded(p.x);
        p.z = graded(p.z);
    }
    mesh
}

/// A uniform cube of `n^3` elements with unit side (the §4.7 MIS-size
/// study mesh).
pub fn cube(n: usize) -> Mesh {
    block(n, n, n, Vec3::splat(1.0), |_| 0)
}

/// Promote a Hex8 mesh to Hex20 by inserting shared mid-edge nodes (the
/// p-refinement path to the paper's "higher order elements" future work —
/// works on any hex mesh, including the curved spheres workload; mid-edge
/// nodes are straight-edge midpoints).
pub fn hex8_to_hex20(mesh: &Mesh) -> Mesh {
    assert_eq!(mesh.kind, ElementKind::Hex8, "input must be Hex8");
    use std::collections::HashMap;
    // The 12 edges of a hex in the Hex20 mid-node order (nodes 8..19).
    const EDGES: [(usize, usize); 12] = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 4),
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
    ];
    let mut coords = mesh.coords.clone();
    let mut edge_node: HashMap<(u32, u32), u32> = HashMap::new();
    let mut elem_verts = Vec::with_capacity(mesh.num_elements() * 20);
    for e in 0..mesh.num_elements() {
        let ev = mesh.elem(e);
        elem_verts.extend_from_slice(ev);
        for (a, b) in EDGES {
            let (va, vb) = (ev[a], ev[b]);
            let key = (va.min(vb), va.max(vb));
            let id = *edge_node.entry(key).or_insert_with(|| {
                coords.push((mesh.coords[va as usize] + mesh.coords[vb as usize]) * 0.5);
                (coords.len() - 1) as u32
            });
            elem_verts.push(id);
        }
    }
    Mesh::new(
        coords,
        ElementKind::Hex20,
        elem_verts,
        mesh.materials.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_and_volume() {
        let m = block(3, 4, 5, Vec3::new(3.0, 4.0, 5.0), |_| 0);
        assert_eq!(m.num_vertices(), 4 * 5 * 6);
        assert_eq!(m.num_elements(), 60);
        assert!((m.total_volume() - 60.0).abs() < 1e-10);
        assert!(m.validate_volumes().is_ok());
    }

    #[test]
    fn block_material_split() {
        let m = block(4, 1, 1, Vec3::new(4.0, 1.0, 1.0), |c| {
            if c.x < 2.0 {
                0
            } else {
                7
            }
        });
        assert_eq!(m.materials, vec![0, 0, 7, 7]);
    }

    #[test]
    fn thin_plate_shape() {
        let m = thin_plate(8, 8.0, 0.5);
        assert_eq!(m.num_elements(), 64);
        let bb = m.bounding_box();
        assert_eq!(bb.extent(), Vec3::new(8.0, 8.0, 0.5));
    }

    #[test]
    fn graded_bracket_grades_toward_the_edge() {
        for ratio in [1.0, 2.0, 8.0] {
            let m = graded_bracket(10, ratio);
            assert!(m.validate_volumes().is_ok());
            assert!((m.total_volume() - 0.75).abs() < 1e-12);
            // Grid lines along x, from the edge at 0.5 outward.
            let mut xs: Vec<f64> = m.coords.iter().map(|p| p.x).filter(|&x| x >= 0.5).collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup();
            assert_eq!(xs.len(), 6);
            assert_eq!((xs[0], xs[5]), (0.5, 1.0));
            let widths: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
            assert!(widths.windows(2).all(|w| w[1] >= w[0] * (1.0 - 1e-12)));
            assert!((widths[4] / widths[0] - ratio).abs() < 1e-9, "{widths:?}");
        }
        // Ratio 1 is the uniform bracket.
        let (g, u) = (graded_bracket(8, 1.0), l_bracket(8));
        assert_eq!(g.elem_verts, u.elem_verts);
        for (a, b) in g.coords.iter().zip(&u.coords) {
            assert!((*a - *b).norm() < 1e-15);
        }
    }

    #[test]
    fn block20_counts_and_volume() {
        let m = block20(2, 2, 2, Vec3::splat(2.0), |_| 0);
        // Serendipity node count for nx=ny=nz=2: corners 27 + edges
        // 3*(2*3*3)=54 => 81.
        assert_eq!(m.num_vertices(), 81);
        assert_eq!(m.num_elements(), 8);
        assert!((m.total_volume() - 8.0).abs() < 1e-12);
        assert!(m.validate_volumes().is_ok());
        // Every element's mid-edge node 8 is the midpoint of corners 0, 1.
        for e in 0..8 {
            let v = m.elem(e);
            let p0 = m.coords[v[0] as usize];
            let p1 = m.coords[v[1] as usize];
            let pm = m.coords[v[8] as usize];
            assert!(((p0 + p1) * 0.5 - pm).norm() < 1e-12);
            // Vertical edge node 16 is the midpoint of corners 0, 4.
            let p4 = m.coords[v[4] as usize];
            let pv = m.coords[v[16] as usize];
            assert!(((p0 + p4) * 0.5 - pv).norm() < 1e-12);
        }
    }

    #[test]
    fn hex8_to_hex20_matches_native_generator() {
        // Converting a block must give the same node/element counts (and
        // interchangeable geometry) as generating Hex20 natively.
        let m8 = block(2, 2, 2, Vec3::splat(2.0), |c| u32::from(c.x > 1.0));
        let m20 = hex8_to_hex20(&m8);
        let native = block20(2, 2, 2, Vec3::splat(2.0), |c| u32::from(c.x > 1.0));
        assert_eq!(m20.kind, ElementKind::Hex20);
        assert_eq!(m20.num_vertices(), native.num_vertices());
        assert_eq!(m20.num_elements(), native.num_elements());
        assert_eq!(m20.materials, native.materials);
        assert!((m20.total_volume() - 8.0).abs() < 1e-12);
        assert!(m20.validate_volumes().is_ok());
        // Every mid-edge node is the midpoint of its corner pair.
        for e in 0..m20.num_elements() {
            let v = m20.elem(e);
            let mid = m20.coords[v[8] as usize];
            let expect = (m20.coords[v[0] as usize] + m20.coords[v[1] as usize]) * 0.5;
            assert!((mid - expect).norm() < 1e-14);
        }
    }

    #[test]
    fn hex8_to_hex20_shares_edge_nodes() {
        // Adjacent elements must reference the same mid-edge node.
        let m = hex8_to_hex20(&block(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |_| 0));
        // Two hexes with a shared face: 12 + 12 - 4 shared edge mids + ...
        // counts: corners 12, unique edges: 20 -> total 32 nodes.
        assert_eq!(m.num_vertices(), 32);
    }

    #[test]
    fn block20_boundary_facets() {
        use crate::facets::boundary_facets;
        let m = block20(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |_| 0);
        let f = boundary_facets(&m);
        assert_eq!(f.len(), 10); // same face topology as the Hex8 block
        for facet in &f {
            assert_eq!(facet.verts.len(), 8);
            assert!((facet.normal.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cube_graph_interior_degree() {
        let m = cube(3); // 4^3 vertices
        let g = m.vertex_graph();
        // The single interior vertex of a 3^3-element cube touches 8
        // elements and is adjacent to the other 26 vertices of its 3x3x3
        // neighborhood.
        let center = m.vertices_where(|p| (p - Vec3::splat(1.0 / 3.0)).norm() < 1e-9)[0] as usize;
        // center is at grid point (1,1,1) of a 4x4x4 grid: interior.
        assert_eq!(g.degree(center), 26);
    }
}

//! Core mesh data structure.

use pmg_geometry::{Aabb, Vec3};
use pmg_partition::Graph;

/// Element topology. Meshes are homogeneous (all elements the same kind);
/// the paper's fine grids are hexahedral and the solver-internal coarse
/// grids are tetrahedral.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElementKind {
    /// 8-node trilinear hexahedron. Local node order: nodes 0-3 on the
    /// ζ=-1 face counterclockwise (viewed from +ζ), nodes 4-7 above them.
    Hex8,
    /// 4-node linear tetrahedron with positive volume
    /// (`det([v1-v0, v2-v0, v3-v0]) > 0`).
    Tet4,
    /// 20-node serendipity (quadratic) hexahedron: nodes 0-7 as Hex8, then
    /// mid-edge nodes 8-11 on the bottom ring (0-1, 1-2, 2-3, 3-0), 12-15
    /// on the top ring (4-5, 5-6, 6-7, 7-4), 16-19 on the vertical edges
    /// (0-4, 1-5, 2-6, 3-7). The paper lists higher-order elements as
    /// future work; the solver's vertex-cloud coarsening handles them
    /// unchanged.
    Hex20,
}

impl ElementKind {
    /// Nodes per element.
    pub fn nodes(self) -> usize {
        match self {
            ElementKind::Hex8 => 8,
            ElementKind::Tet4 => 4,
            ElementKind::Hex20 => 20,
        }
    }

    /// Length of the corner ring of each face (faces list corners first,
    /// then any mid-edge nodes): 4 for quadrilateral faces, 3 for
    /// triangles. Geometry (normals, volumes) uses the corner ring.
    pub fn face_ring(self) -> usize {
        match self {
            ElementKind::Hex8 | ElementKind::Hex20 => 4,
            ElementKind::Tet4 => 3,
        }
    }

    /// Element faces as local node indices, ordered so face normals point
    /// outward. Quad faces list 4 nodes, triangles 3.
    pub fn faces(self) -> &'static [&'static [usize]] {
        match self {
            ElementKind::Hex8 => &[
                &[0, 3, 2, 1], // ζ = -1
                &[4, 5, 6, 7], // ζ = +1
                &[0, 1, 5, 4], // η = -1
                &[1, 2, 6, 5], // ξ = +1
                &[2, 3, 7, 6], // η = +1
                &[3, 0, 4, 7], // ξ = -1
            ],
            ElementKind::Tet4 => &[&[0, 2, 1], &[0, 3, 2], &[0, 1, 3], &[1, 2, 3]],
            // Corner ring first (outward), then the mid-edge nodes of the
            // ring edges in ring order.
            ElementKind::Hex20 => &[
                &[0, 3, 2, 1, 11, 10, 9, 8],   // ζ = -1
                &[4, 5, 6, 7, 12, 13, 14, 15], // ζ = +1
                &[0, 1, 5, 4, 8, 17, 12, 16],  // η = -1
                &[1, 2, 6, 5, 9, 18, 13, 17],  // ξ = +1
                &[2, 3, 7, 6, 10, 19, 14, 18], // η = +1
                &[3, 0, 4, 7, 11, 16, 15, 19], // ξ = -1
            ],
        }
    }
}

/// An unstructured finite element mesh.
#[derive(Clone, Debug)]
pub struct Mesh {
    /// Vertex coordinates.
    pub coords: Vec<Vec3>,
    /// Element kind (homogeneous).
    pub kind: ElementKind,
    /// Flattened element connectivity, `kind.nodes()` entries per element.
    pub elem_verts: Vec<u32>,
    /// Material id per element. A *domain* in the paper's sense is a
    /// contiguous region of elements with one material.
    pub materials: Vec<u32>,
}

impl Mesh {
    pub fn new(
        coords: Vec<Vec3>,
        kind: ElementKind,
        elem_verts: Vec<u32>,
        materials: Vec<u32>,
    ) -> Mesh {
        assert_eq!(elem_verts.len() % kind.nodes(), 0);
        assert_eq!(materials.len(), elem_verts.len() / kind.nodes());
        debug_assert!(elem_verts.iter().all(|&v| (v as usize) < coords.len()));
        Mesh {
            coords,
            kind,
            elem_verts,
            materials,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    pub fn num_elements(&self) -> usize {
        self.materials.len()
    }

    /// Degrees of freedom for a 3-dof-per-vertex (displacement) problem.
    pub fn num_dof(&self) -> usize {
        3 * self.num_vertices()
    }

    /// Vertex ids of element `e`.
    #[inline]
    pub fn elem(&self, e: usize) -> &[u32] {
        let nv = self.kind.nodes();
        &self.elem_verts[e * nv..(e + 1) * nv]
    }

    /// Corner coordinates of element `e`.
    pub fn elem_coords(&self, e: usize) -> Vec<Vec3> {
        self.elem(e)
            .iter()
            .map(|&v| self.coords[v as usize])
            .collect()
    }

    pub fn elem_centroid(&self, e: usize) -> Vec3 {
        let verts = self.elem(e);
        let mut c = Vec3::ZERO;
        for &v in verts {
            c += self.coords[v as usize];
        }
        c / verts.len() as f64
    }

    /// Element volume via the divergence theorem (faces fanned into
    /// triangles about their centroid; exact for planar faces, robust for
    /// mildly warped hexahedron faces).
    pub fn elem_volume(&self, e: usize) -> f64 {
        let verts = self.elem(e);
        let ring = self.kind.face_ring();
        let mut vol = 0.0;
        for face in self.kind.faces() {
            let pts: Vec<Vec3> = face[..ring]
                .iter()
                .map(|&l| self.coords[verts[l] as usize])
                .collect();
            let centroid = pts.iter().fold(Vec3::ZERO, |a, &p| a + p) / pts.len() as f64;
            for k in 0..pts.len() {
                let a = pts[k];
                let b = pts[(k + 1) % pts.len()];
                // Tet (origin, centroid, a, b): contributes to ∮ x·n dA / 3.
                vol += centroid.dot(a.cross(b)) / 6.0;
            }
        }
        vol
    }

    pub fn total_volume(&self) -> f64 {
        (0..self.num_elements()).map(|e| self.elem_volume(e)).sum()
    }

    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.coords.iter().copied())
    }

    /// CSR map from vertex to the elements containing it.
    pub fn vertex_to_elements(&self) -> (Vec<usize>, Vec<u32>) {
        let n = self.num_vertices();
        let mut ptr = vec![0usize; n + 1];
        for &v in &self.elem_verts {
            ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        let mut elems = vec![0u32; self.elem_verts.len()];
        let mut next = ptr.clone();
        for e in 0..self.num_elements() {
            for &v in self.elem(e) {
                elems[next[v as usize]] = e as u32;
                next[v as usize] += 1;
            }
        }
        (ptr, elems)
    }

    /// The element-connectivity vertex graph: vertices are adjacent iff
    /// they share an element. This is the graph `G` used by the MIS
    /// coarsener (§4.1) and it matches the nonzero structure of the
    /// assembled stiffness matrix.
    pub fn vertex_graph(&self) -> Graph {
        let n = self.num_vertices();
        let (ptr, v2e) = self.vertex_to_elements();
        // Calls `f` once per distinct neighbour of `v`; `mark[w] == v` says
        // `w` was already seen from `v`.
        let each_neighbour = |v: usize, mark: &mut [u32], f: &mut dyn FnMut(u32)| {
            for &e in &v2e[ptr[v]..ptr[v + 1]] {
                for &w in self.elem(e as usize) {
                    if w as usize != v && mark[w as usize] != v as u32 {
                        mark[w as usize] = v as u32;
                        f(w);
                    }
                }
            }
        };
        // Count the CSR rows, fill them, then sort each row.
        let mut mark = vec![u32::MAX; n];
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            let mut degree = 0;
            each_neighbour(v, &mut mark, &mut |_| degree += 1);
            xadj[v + 1] = xadj[v] + degree;
        }
        mark.fill(u32::MAX);
        let mut adjncy = vec![0u32; xadj[n]];
        for v in 0..n {
            let row = &mut adjncy[xadj[v]..xadj[v + 1]];
            let mut k = 0;
            each_neighbour(v, &mut mark, &mut |w| {
                row[k] = w;
                k += 1;
            });
            row.sort_unstable();
        }
        Graph::from_csr(xadj, adjncy)
    }

    /// Indices of vertices satisfying a coordinate predicate (for boundary
    /// conditions).
    pub fn vertices_where(&self, pred: impl Fn(Vec3) -> bool) -> Vec<u32> {
        self.coords
            .iter()
            .enumerate()
            .filter(|(_, &p)| pred(p))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Check all element volumes are positive; returns the offending
    /// element if any.
    pub fn validate_volumes(&self) -> Result<(), usize> {
        for e in 0..self.num_elements() {
            if self.elem_volume(e) <= 0.0 {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit cube as a single hex element.
    pub fn unit_hex() -> Mesh {
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        ];
        Mesh::new(coords, ElementKind::Hex8, (0..8).collect(), vec![0])
    }

    fn unit_tet() -> Mesh {
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        Mesh::new(coords, ElementKind::Tet4, vec![0, 1, 2, 3], vec![0])
    }

    #[test]
    fn hex_volume() {
        let m = unit_hex();
        assert!((m.elem_volume(0) - 1.0).abs() < 1e-14);
        assert!((m.total_volume() - 1.0).abs() < 1e-14);
        assert!(m.validate_volumes().is_ok());
    }

    #[test]
    fn tet_volume() {
        let m = unit_tet();
        assert!((m.elem_volume(0) - 1.0 / 6.0).abs() < 1e-14);
    }

    #[test]
    fn negative_volume_detected() {
        let mut m = unit_tet();
        m.elem_verts.swap(0, 1); // flips orientation
        assert_eq!(m.validate_volumes(), Err(0));
    }

    #[test]
    fn centroid_and_bbox() {
        let m = unit_hex();
        assert_eq!(m.elem_centroid(0), Vec3::splat(0.5));
        let bb = m.bounding_box();
        assert_eq!(bb.min, Vec3::ZERO);
        assert_eq!(bb.max, Vec3::splat(1.0));
    }

    #[test]
    fn vertex_graph_single_hex() {
        let m = unit_hex();
        let g = m.vertex_graph();
        // All 8 vertices share the element: complete graph K8.
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 28);
    }

    /// The graph the CSR fill must reproduce: one sorted, deduplicated
    /// neighbour list per vertex through `Graph::from_adjacency`.
    fn vertex_graph_by_lists(m: &Mesh) -> Graph {
        let (ptr, v2e) = m.vertex_to_elements();
        let lists: Vec<Vec<u32>> = (0..m.num_vertices())
            .map(|v| {
                let mut l: Vec<u32> = v2e[ptr[v]..ptr[v + 1]]
                    .iter()
                    .flat_map(|&e| m.elem(e as usize).iter().copied())
                    .filter(|&w| w as usize != v)
                    .collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        Graph::from_adjacency(&lists)
    }

    #[test]
    fn vertex_graph_equals_per_vertex_lists() {
        use crate::generators::{block, block20};
        let meshes = [
            unit_hex(),
            unit_tet(),
            block(4, 3, 2, Vec3::new(4.0, 3.0, 2.0), |_| 0),
            block20(2, 2, 1, Vec3::new(2.0, 2.0, 1.0), |_| 0),
            crate::spheres::sphere_in_cube(&crate::spheres::SpheresParams::tiny()),
        ];
        for m in &meshes {
            assert_eq!(m.vertex_graph(), vertex_graph_by_lists(m), "{:?}", m.kind);
        }
    }

    #[test]
    fn vertex_to_elements_roundtrip() {
        let m = unit_hex();
        let (ptr, v2e) = m.vertex_to_elements();
        for v in 0..8 {
            assert_eq!(&v2e[ptr[v]..ptr[v + 1]], &[0]);
        }
    }

    #[test]
    fn vertices_where_selects() {
        let m = unit_hex();
        let top = m.vertices_where(|p| p.z > 0.5);
        assert_eq!(top, vec![4, 5, 6, 7]);
    }

    #[test]
    fn outward_faces() {
        // Sum of face-normal areas of a closed element must vanish.
        for m in [unit_hex(), unit_tet()] {
            let verts = m.elem(0);
            let mut sum = Vec3::ZERO;
            for face in m.kind.faces() {
                let pts: Vec<Vec3> = face.iter().map(|&l| m.coords[verts[l] as usize]).collect();
                let c = pts.iter().fold(Vec3::ZERO, |a, &p| a + p) / pts.len() as f64;
                for k in 0..pts.len() {
                    let a = pts[k] - c;
                    let b = pts[(k + 1) % pts.len()] - c;
                    sum += a.cross(b) * 0.5;
                }
            }
            assert!(sum.norm() < 1e-14);
        }
    }
}

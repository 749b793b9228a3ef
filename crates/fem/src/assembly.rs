//! Element assembly of the tangent stiffness and internal force.
//!
//! The sparsity pattern is fixed by the mesh (3x3 dof blocks on the vertex
//! connectivity graph) and reused across Newton iterations; per-element
//! contributions are computed in bounded chunks and scattered in element
//! order, and Gauss-point history is kept double-buffered (committed /
//! trial) so Newton can re-evaluate from the committed state of the last
//! converged step — exactly the structure nonlinear FE codes like FEAP use.

use crate::material::{Mat3, Material, MAT3_ZERO};
use crate::shape::{quadrature, shape_grads_phys, shape_grads_ref, QuadPoint, MAX_NODES};
use pmg_mesh::{ElementKind, Mesh};
use pmg_sparse::CsrMatrix;
use std::sync::Arc;

/// Elements processed per chunk (bounds the memory for the collected
/// per-element matrices).
const CHUNK: usize = 2048;

/// A finite element problem: mesh + materials + Gauss-point history.
pub struct FemProblem {
    pub mesh: Mesh,
    materials: Vec<Arc<dyn Material>>,
    committed: Vec<f64>,
    trial: Vec<f64>,
    stride: usize,
    quad: Vec<QuadPoint>,
    sparsity: CsrMatrix,
    /// Per-element scatter map: for element `e` and the entry of its
    /// stiffness at row `row = 3a + i`, column `3b + k`, the flat index into
    /// the CSR value array, in the element kernel's `(row, k, b)` order
    /// (`scatter[e * edof² + (row * 3 + k) * nv + b]`). Built once with the
    /// sparsity; every re-assembly then writes values by direct indexing —
    /// no per-entry binary search, no COO sort.
    scatter: Vec<u32>,
    /// Cached physical shape gradients and Jacobian determinant per
    /// (element, Gauss point): `3*nv` gradient components then `det`
    /// (`det == 0` marks an inverted element, skipped during integration).
    /// Pure geometry — depends on coordinates only, not on displacement —
    /// so it survives every Newton iteration and is rebuilt only when
    /// [`coords_fingerprint`] says the mesh moved. Shared (`Arc`) so
    /// matrix-free operators can walk the same buffer without cloning
    /// per-element gradient data; a rebuild installs a fresh `Arc` and
    /// never mutates a buffer an operator may still hold.
    geom: Arc<Vec<f64>>,
    coords_fp: u64,
}

impl FemProblem {
    /// `materials[id]` is the model for elements with that material id.
    pub fn new(mesh: Mesh, materials: Vec<Arc<dyn Material>>) -> FemProblem {
        assert!(
            mesh.materials
                .iter()
                .all(|&m| (m as usize) < materials.len()),
            "element references unknown material"
        );
        let quad = quadrature(mesh.kind);
        let stride = materials.iter().map(|m| m.state_size()).max().unwrap_or(0);
        let mut committed = vec![0.0; mesh.num_elements() * quad.len() * stride];
        if stride > 0 {
            for (e, chunk) in committed.chunks_mut(quad.len() * stride).enumerate() {
                let mat = &materials[mesh.materials[e] as usize];
                for gp in chunk.chunks_mut(stride) {
                    mat.init_state(&mut gp[..mat.state_size()]);
                }
            }
        }
        let trial = committed.clone();
        let sparsity = {
            let _t = pmg_telemetry::scope("sparsity");
            build_sparsity(&mesh)
        };
        let scatter = {
            let _t = pmg_telemetry::scope("scatter_map");
            build_scatter(&mesh, &sparsity)
        };
        let geom = {
            let _t = pmg_telemetry::scope("geom");
            Arc::new(build_geom(&mesh, &quad))
        };
        let coords_fp = coords_fingerprint(&mesh.coords);
        pmg_telemetry::gauge_set("fem/ndof", mesh.num_dof() as f64);
        pmg_telemetry::gauge_set("fem/nnz", sparsity.nnz() as f64);
        FemProblem {
            mesh,
            materials,
            committed,
            trial,
            stride,
            quad,
            sparsity,
            scatter,
            geom,
            coords_fp,
        }
    }

    pub fn ndof(&self) -> usize {
        self.mesh.num_dof()
    }

    pub fn nnz(&self) -> usize {
        self.sparsity.nnz()
    }

    /// Assemble the tangent stiffness and internal force at displacement
    /// `u`. History enters from the committed state; the trial state is
    /// updated (call [`FemProblem::commit`] once the step converges).
    pub fn assemble(&mut self, u: &[f64]) -> (CsrMatrix, Vec<f64>) {
        let _t = pmg_telemetry::scope("assemble");
        assert_eq!(u.len(), self.ndof());
        let nelems = self.mesh.num_elements();
        pmg_telemetry::counter_add("fem/elements_assembled", nelems as u64);
        pmg_telemetry::counter_add("assembly/pattern_reuse", 1);
        let nv = self.mesh.kind.nodes();
        let edof = 3 * nv;
        let esl = self.quad.len() * self.stride;
        self.trial.copy_from_slice(&self.committed);

        // Geometry (physical gradients, Jacobians) only changes when the
        // mesh moves; detect that and rebuild the cache, else reuse it.
        let fp = coords_fingerprint(&self.mesh.coords);
        if fp != self.coords_fp {
            let _t = pmg_telemetry::scope("geom");
            pmg_telemetry::counter_add("assembly/geom_rebuild", 1);
            self.geom = Arc::new(build_geom(&self.mesh, &self.quad));
            self.coords_fp = fp;
        }

        let mut k = self.sparsity.clone();
        let mut f = vec![0.0f64; self.ndof()];

        let mesh = &self.mesh;
        let materials = &self.materials;
        let quad = &self.quad;
        let geom: &[f64] = &self.geom;
        let stride = self.stride;
        let scatter = &self.scatter;
        let kv = k.vals_mut();
        // One kernel, compiled per node count so that every node loop has a
        // fixed trip count.
        let element_kernel = match mesh.kind {
            ElementKind::Tet4 => element_kernel::<4>,
            ElementKind::Hex8 => element_kernel::<8>,
            ElementKind::Hex20 => element_kernel::<20>,
        };

        // Flat per-chunk element outputs, allocated once and reused — no
        // per-element Vecs on the hot path.
        let mut kbuf = vec![0.0f64; CHUNK.min(nelems) * edof * edof];
        let mut fbuf = vec![0.0f64; CHUNK.min(nelems) * edof];

        let mut start = 0usize;
        while start < nelems {
            let end = (start + CHUNK).min(nelems);
            let cnt = end - start;
            let kb = &mut kbuf[..cnt * edof * edof];
            let fb = &mut fbuf[..cnt * edof];
            let outputs = kb
                .chunks_exact_mut(edof * edof)
                .zip(fb.chunks_exact_mut(edof));
            for (e, (ke, fe)) in (start..end).zip(outputs) {
                let state = &mut self.trial[e * esl..(e + 1) * esl];
                element_kernel(mesh, materials, geom, quad, stride, e, u, state, ke, fe);
            }
            for off in 0..cnt {
                let e = start + off;
                let verts = mesh.elem(e);
                let fe = &fb[off * edof..(off + 1) * edof];
                for a in 0..nv {
                    for i in 0..3 {
                        f[3 * verts[a] as usize + i] += fe[3 * a + i];
                    }
                }
                // Scatter the element stiffness through the precomputed map:
                // one indexed add per entry, no binary search.
                let base = e * edof * edof;
                for (le, &v) in kb[off * edof * edof..(off + 1) * edof * edof]
                    .iter()
                    .enumerate()
                {
                    kv[scatter[base + le] as usize] += v;
                }
            }
            start = end;
        }
        pmg_sparse::flops::add((nelems * self.quad.len() * edof * edof * 2) as u64);
        (k, f)
    }

    /// Promote the trial history to committed (end of a converged step).
    pub fn commit(&mut self) {
        self.committed.copy_from_slice(&self.trial);
    }

    /// The shape-gradient geometry cache, shared without cloning: per
    /// (element, Gauss point), `3*nv` physical gradient components then the
    /// Jacobian determinant (`det == 0` marks an inverted element). Layout
    /// stride is `3 * nv + 1`; see [`FemProblem::assemble`]. The `Arc` is
    /// replaced (not mutated) when the coordinates move, so holders always
    /// see a consistent snapshot.
    pub fn geometry(&self) -> &Arc<Vec<f64>> {
        &self.geom
    }

    /// The quadrature rule every element integrates with.
    pub fn quad_points(&self) -> &[QuadPoint] {
        &self.quad
    }

    /// The material table (`mesh.materials[e]` indexes into it).
    pub fn material_table(&self) -> &[Arc<dyn Material>] {
        &self.materials
    }

    /// Per-Gauss-point history stride (0 for stateless materials).
    pub fn state_stride(&self) -> usize {
        self.stride
    }

    /// Committed Gauss-point history (`element * quad * stride` layout) —
    /// the state Newton linearizes from.
    pub fn committed_state(&self) -> &[f64] {
        &self.committed
    }

    /// Fraction of Gauss points of elements with material `mat_id` whose
    /// trial state reports yielding (slot 12 of the J2 state).
    pub fn yielded_fraction(&self, mat_id: u32) -> f64 {
        if self.stride < 13 {
            return 0.0;
        }
        let esl = self.quad.len() * self.stride;
        let mut total = 0usize;
        let mut yielded = 0usize;
        for e in 0..self.mesh.num_elements() {
            if self.mesh.materials[e] != mat_id {
                continue;
            }
            for gp in 0..self.quad.len() {
                total += 1;
                if self.trial[e * esl + gp * self.stride + 12] != 0.0 {
                    yielded += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            yielded as f64 / total as f64
        }
    }
}

/// Compute one element's stiffness and internal force into `ke`/`fe`;
/// `state` covers all of the element's Gauss points (may be empty for
/// stateless materials). Geometry comes precomputed from the [`build_geom`]
/// cache. `NV` is the element's node count.
///
/// `ke` is laid out `(row, k, b)`: the entry at row `3a + i`, column
/// `3b + k` lives at `ke[(3 * (3a + i) + k) * NV + b]`, so the node `b` is
/// the unit-stride (SIMD) index. Per Gauss point the gradients are
/// transposed to `g[J][a]`, then
/// `T[k][l][a] = ((0 + g[0][a]·A[i0kl]) + g[1][a]·A[i1kl]) + g[2][a]·A[i2kl]`
/// and `K[(a,i),(b,k)] += (((0 + T[k][0][a]·g[0][b]) + T[k][1][a]·g[1][b])
/// + T[k][2][a]·g[2][b])·w`: per output entry the scalar contraction's
/// operations in its order, so the bits are the scalar kernel's. That
/// kernel skipped `g[J][a] == 0` terms; adding the `±0` product instead is
/// bit-neutral for a finite tangent, because a sum that starts at `+0`
/// never becomes `−0` and `x + ±0 == x` for every other `x`.
#[allow(clippy::too_many_arguments)] // internal hot-loop kernel, called from one place
fn element_kernel<const NV: usize>(
    mesh: &Mesh,
    materials: &[Arc<dyn Material>],
    geom: &[f64],
    quad: &[QuadPoint],
    stride: usize,
    e: usize,
    u: &[f64],
    state: &mut [f64],
    ke: &mut [f64],
    fe: &mut [f64],
) {
    let verts = mesh.elem(e);
    debug_assert_eq!(verts.len(), NV);
    let nv = NV;
    let edof = 3 * nv;
    let mat = &materials[mesh.materials[e] as usize];
    let gstride = 3 * nv + 1;

    ke.fill(0.0);
    fe.fill(0.0);
    // Gradients by component, g[J][a], and one row class's T[k][l][a].
    let mut g = [[0.0f64; NV]; 3];
    let mut t = [[[0.0f64; NV]; 3]; 3];

    for (gp, q) in quad.iter().enumerate() {
        let slot = &geom[(e * quad.len() + gp) * gstride..][..gstride];
        let det = slot[gstride - 1];
        if det <= 0.0 {
            // Inverted element: skip this point; the material fallback plus
            // the Newton line search context recovers or fails loudly later.
            continue;
        }
        let grads = &slot[..3 * nv]; // flat: grads[3*a + j] = ∂N_a/∂X_j
        let w = q.weight * det;

        // Displacement gradient H[i][j] = Σ_a u_a,i ∂N_a/∂X_j.
        let mut h: Mat3 = MAT3_ZERO;
        for a in 0..nv {
            let base = 3 * verts[a] as usize;
            let ga = &grads[3 * a..3 * a + 3];
            for i in 0..3 {
                let ua = u[base + i];
                for j in 0..3 {
                    h[i][j] += ua * ga[j];
                }
            }
        }

        let gp_state = if stride > 0 {
            &mut state[gp * stride..gp * stride + mat.state_size()]
        } else {
            &mut []
        };
        let (p, a4) = mat.respond(&h, gp_state);

        // Internal force and stiffness.
        for a in 0..nv {
            let ga = &grads[3 * a..3 * a + 3];
            for i in 0..3 {
                let mut acc = 0.0;
                for jj in 0..3 {
                    acc += p[i][jj] * ga[jj];
                }
                fe[3 * a + i] += acc * w;
            }
        }
        for a in 0..nv {
            for jj in 0..3 {
                g[jj][a] = grads[3 * a + jj];
            }
        }
        let [g0, g1, g2] = [&g[0], &g[1], &g[2]];
        for i in 0..3 {
            for kk in 0..3 {
                for ll in 0..3 {
                    let c = [0, 1, 2].map(|jj| a4.get(i, jj, kk, ll));
                    for (a, tv) in t[kk][ll].iter_mut().enumerate() {
                        *tv = ((0.0 + g0[a] * c[0]) + g1[a] * c[1]) + g2[a] * c[2];
                    }
                }
            }
            for a in 0..nv {
                let row = &mut ke[(3 * a + i) * edof..][..edof];
                for (kk, out) in row.as_chunks_mut::<NV>().0.iter_mut().enumerate() {
                    let [t0, t1, t2] = [0, 1, 2].map(|ll| t[kk][ll][a]);
                    for b in 0..nv {
                        out[b] += (((0.0 + t0 * g0[b]) + t1 * g1[b]) + t2 * g2[b]) * w;
                    }
                }
            }
        }
    }
}

/// Precompute physical shape gradients and Jacobian determinants for every
/// (element, Gauss point); inverted elements are marked with `det = 0`.
fn build_geom(mesh: &Mesh, quad: &[QuadPoint]) -> Vec<f64> {
    let nv = mesh.kind.nodes();
    let gstride = 3 * nv + 1;
    let mut geom = vec![0.0f64; mesh.num_elements() * quad.len() * gstride];
    // Reference gradients depend on the quadrature point only.
    let drefs: Vec<[[f64; 3]; MAX_NODES]> = quad
        .iter()
        .map(|q| {
            let mut dref = [[0.0; 3]; MAX_NODES];
            shape_grads_ref(mesh.kind, q.xi, &mut dref);
            dref
        })
        .collect();
    let mut coords = [pmg_geometry::Vec3::ZERO; MAX_NODES];
    for (e, slots) in geom.chunks_exact_mut(quad.len() * gstride).enumerate() {
        for (x, &v) in coords.iter_mut().zip(mesh.elem(e)) {
            *x = mesh.coords[v as usize];
        }
        for (slot, dref) in slots.chunks_exact_mut(gstride).zip(&drefs) {
            let (grads, det) = slot.split_at_mut(3 * nv);
            let grads = grads.as_chunks_mut::<3>().0;
            // An inverted point writes nothing and keeps `det == 0`.
            if let Some(d) = shape_grads_phys(&dref[..nv], &coords[..nv], grads) {
                det[0] = d;
            }
        }
    }
    geom
}

/// FNV-1a over the raw bit patterns of the mesh coordinates — cheap enough
/// to run at every assembly, and any motion of any vertex changes it.
fn coords_fingerprint(coords: &[pmg_geometry::Vec3]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in coords {
        for v in [p.x, p.y, p.z] {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// CSR sparsity of the assembled operator: 3x3 blocks on the vertex graph
/// (plus the diagonal block), values zero.
fn build_sparsity(mesh: &Mesh) -> CsrMatrix {
    pmg_telemetry::counter_add("assembly/pattern_build", 1);
    let n = mesh.num_vertices();
    let g = mesh.vertex_graph();
    let ndof = 3 * n;
    let nnz = 9 * (2 * g.num_edges() + n);
    let mut row_ptr = Vec::with_capacity(ndof + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<usize> = Vec::with_capacity(nnz);
    for v in 0..n {
        // The sorted neighbours with `v` itself slotted in, written once as
        // the vertex's first row and copied for its other two.
        let nbrs = g.neighbors(v);
        let split = nbrs.partition_point(|&w| (w as usize) < v);
        let start = col_idx.len();
        let cols = nbrs[..split]
            .iter()
            .map(|&w| w as usize)
            .chain([v])
            .chain(nbrs[split..].iter().map(|&w| w as usize));
        for w in cols {
            col_idx.extend([3 * w, 3 * w + 1, 3 * w + 2]);
        }
        let end = col_idx.len();
        row_ptr.push(end);
        for _ in 0..2 {
            col_idx.extend_from_within(start..end);
            row_ptr.push(col_idx.len());
        }
    }
    debug_assert_eq!(col_idx.len(), nnz);
    CsrMatrix::from_parts(ndof, ndof, row_ptr, col_idx, vec![0.0; nnz])
}

/// Resolve every element's local stiffness entry to its flat index in the
/// CSR value array, once, in the element kernel's `(row, k, b)` order. The
/// three dofs of a vertex are contiguous columns in the pattern and its
/// three rows share one column list ([`build_sparsity`]), so one binary
/// search per vertex pair locates the whole 3×3 block.
fn build_scatter(mesh: &Mesh, sparsity: &CsrMatrix) -> Vec<u32> {
    assert!(
        sparsity.nnz() <= u32::MAX as usize,
        "stiffness nnz exceeds u32 scatter index range"
    );
    let nv = mesh.kind.nodes();
    let edof = 3 * nv;
    let row_ptr = sparsity.row_ptr();
    let col_idx = sparsity.col_idx();
    let mut scatter = vec![0u32; mesh.num_elements() * edof * edof];
    for (e, map) in scatter.chunks_exact_mut(edof * edof).enumerate() {
        let verts = mesh.elem(e);
        for a in 0..nv {
            let gi = 3 * verts[a] as usize;
            let cols = &col_idx[row_ptr[gi]..row_ptr[gi + 1]];
            for b in 0..nv {
                let gj = 3 * verts[b] as usize;
                let p = cols.binary_search(&gj).expect("entry outside sparsity");
                for i in 0..3 {
                    let lo = row_ptr[gi + i] + p;
                    for kk in 0..3 {
                        debug_assert_eq!(col_idx[lo + kk], gj + kk);
                        map[((3 * a + i) * 3 + kk) * nv + b] = (lo + kk) as u32;
                    }
                }
            }
        }
    }
    scatter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{J2Plasticity, LinearElastic, NeoHookean};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;

    fn one_hex_problem(mat: Arc<dyn Material>) -> FemProblem {
        let mesh = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        FemProblem::new(mesh, vec![mat])
    }

    #[test]
    fn linear_internal_force_is_k_times_u() {
        let mut p = one_hex_problem(Arc::new(LinearElastic::from_e_nu(1.0, 0.3)));
        let (k0, f0) = p.assemble(&[0.0; 24]);
        assert!(f0.iter().all(|&v| v.abs() < 1e-16));
        let u: Vec<f64> = (0..24)
            .map(|i| 1e-3 * ((i * 13 % 7) as f64 - 3.0))
            .collect();
        let (k1, f1) = p.assemble(&u);
        // Stiffness of a linear material is displacement independent.
        let mut ku = vec![0.0; 24];
        k0.spmv(&u, &mut ku);
        for (a, b) in f1.iter().zip(&ku) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(k1.is_symmetric(1e-12));
    }

    #[test]
    fn rigid_translation_is_stress_free() {
        let mut p = one_hex_problem(Arc::new(NeoHookean::from_e_nu(1.0, 0.3)));
        // u = constant translation.
        let mut u = vec![0.0; 24];
        for a in 0..8 {
            u[3 * a] = 0.37;
            u[3 * a + 1] = -0.12;
            u[3 * a + 2] = 0.55;
        }
        let (_, f) = p.assemble(&u);
        for v in &f {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn finite_rotation_stress_free_for_neo_hookean() {
        // A finite rigid rotation produces zero force in a finite-strain
        // model (but NOT in small-strain elasticity — that is the point of
        // using Neo-Hookean for the soft material).
        let mesh = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        let angle = 0.3f64;
        let (c, s) = (angle.cos(), angle.sin());
        let mut u = vec![0.0; 24];
        for (a, pt) in mesh.coords.iter().enumerate() {
            u[3 * a] = c * pt.x - s * pt.y - pt.x;
            u[3 * a + 1] = s * pt.x + c * pt.y - pt.y;
        }
        let mut p = FemProblem::new(mesh, vec![Arc::new(NeoHookean::from_e_nu(1.0, 0.3))]);
        let (_, f) = p.assemble(&u);
        let fmax = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(fmax < 1e-10, "rotation force {fmax}");
    }

    #[test]
    fn stiffness_has_rigid_body_nullspace() {
        let mesh = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let n = mesh.num_dof();
        let mut p = FemProblem::new(mesh, vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.25))]);
        let (k, _) = p.assemble(&vec![0.0; n]);
        // Translation in x is in the null space.
        let mut tx = vec![0.0; n];
        for a in 0..n / 3 {
            tx[3 * a] = 1.0;
        }
        let mut ktx = vec![0.0; n];
        k.spmv(&tx, &mut ktx);
        let norm: f64 = ktx.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm < 1e-12, "K @ translation = {norm}");
    }

    #[test]
    fn tangent_matches_fd_for_neo_hookean() {
        let mut p = one_hex_problem(Arc::new(NeoHookean::from_e_nu(2.0, 0.3)));
        let u: Vec<f64> = (0..24)
            .map(|i| 0.02 * ((i * 7 % 11) as f64 / 11.0 - 0.5))
            .collect();
        let (k, _) = p.assemble(&u);
        let eps = 1e-6;
        for dof in [0, 5, 13, 23] {
            let mut up = u.clone();
            up[dof] += eps;
            let (_, fp) = p.assemble(&up);
            let mut um = u.clone();
            um[dof] -= eps;
            let (_, fm) = p.assemble(&um);
            for i in 0..24 {
                let fd = (fp[i] - fm[i]) / (2.0 * eps);
                assert!(
                    (k.get(i, dof) - fd).abs() < 1e-5,
                    "K[{i},{dof}]={} vs fd {}",
                    k.get(i, dof),
                    fd
                );
            }
        }
    }

    #[test]
    fn sparsity_matches_vertex_graph() {
        let mesh = block(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |_| 0);
        let p = FemProblem::new(mesh, vec![Arc::new(LinearElastic::from_e_nu(1.0, 0.3))]);
        // 12 vertices; the 4 shared-face vertices see all 12, the 4+4 outer
        // ones see the 8 of their element. nnz = 3*3 * sum(deg+1).
        let expect = 9 * (4 * 12 + 8 * 8);
        assert_eq!(p.nnz(), expect);
    }

    #[test]
    fn plastic_state_commit_cycle() {
        let mat = Arc::new(J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3));
        let mut p = one_hex_problem(mat);
        assert_eq!(p.yielded_fraction(0), 0.0);
        // Stretch far past yield.
        let mesh_coords: Vec<Vec3> = p.mesh.coords.clone();
        let mut u = vec![0.0; 24];
        for (a, pt) in mesh_coords.iter().enumerate() {
            u[3 * a + 2] = 0.01 * pt.z; // 1% uniaxial strain
        }
        let _ = p.assemble(&u);
        assert!(p.yielded_fraction(0) > 0.99);
        p.commit();
        // A small unload from the converged surface state is elastic (a
        // full reversal would re-yield via the Bauschinger effect).
        let u_small: Vec<f64> = u.iter().map(|v| 0.95 * v).collect();
        let _ = p.assemble(&u_small);
        assert_eq!(p.yielded_fraction(0), 0.0);
    }

    #[test]
    fn patch_test_constant_strain() {
        // The classic FEM patch test: on an arbitrarily distorted mesh, an
        // affine displacement field produces constant stress, and the
        // residual at every interior node must vanish exactly.
        let mut mesh = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        // Distort all interior nodes deterministically.
        for (v, p) in mesh.coords.iter_mut().enumerate() {
            let interior =
                p.x > 0.0 && p.x < 1.0 && p.y > 0.0 && p.y < 1.0 && p.z > 0.0 && p.z < 1.0;
            if interior {
                let s = (v as f64 * 0.7).sin() * 0.06;
                *p += Vec3::new(s, -s * 0.5, s * 0.25);
            }
        }
        assert!(mesh.validate_volumes().is_ok());
        let interior: Vec<usize> = mesh
            .coords
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.x > 0.0 && p.x < 1.0 && p.y > 0.0 && p.y < 1.0 && p.z > 0.0 && p.z < 1.0
            })
            .map(|(v, _)| v)
            .collect();
        assert!(!interior.is_empty());
        let affine = |p: Vec3| {
            [
                1e-3 * p.x + 2e-3 * p.y - 1e-3 * p.z,
                -2e-3 * p.x + 0.5e-3 * p.y,
                1.5e-3 * p.z + 1e-3 * p.x,
            ]
        };
        let mut u = vec![0.0; mesh.num_dof()];
        for (v, &p) in mesh.coords.iter().enumerate() {
            let a = affine(p);
            u[3 * v] = a[0];
            u[3 * v + 1] = a[1];
            u[3 * v + 2] = a[2];
        }
        let mut prob = FemProblem::new(mesh, vec![Arc::new(LinearElastic::from_e_nu(7.0, 0.3))]);
        let (_, f) = prob.assemble(&u);
        for &v in &interior {
            for c in 0..3 {
                assert!(
                    f[3 * v + c].abs() < 1e-12,
                    "patch test failed at node {v} component {c}: {}",
                    f[3 * v + c]
                );
            }
        }
    }

    #[test]
    fn two_materials_assemble() {
        let mesh = block(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |c| {
            if c.x < 1.0 {
                0
            } else {
                1
            }
        });
        let n = mesh.num_dof();
        let mut p = FemProblem::new(
            mesh,
            vec![
                Arc::new(LinearElastic::from_e_nu(1.0, 0.3)) as Arc<dyn Material>,
                Arc::new(LinearElastic::from_e_nu(1e-4, 0.49)) as Arc<dyn Material>,
            ],
        );
        let (k, _) = p.assemble(&vec![0.0; n]);
        assert!(k.is_symmetric(1e-12));
        // Stiff side has much larger diagonal entries than the soft side.
        let d = k.diag();
        let stiff = d[0];
        let soft = d[d.len() - 1];
        assert!(stiff > 100.0 * soft);
    }

    /// The scalar element kernel the node-vectorised one replaced, kept as
    /// its bitwise oracle: geometry straight from `shape_grads_phys` on the
    /// element's coordinates, `ke` in `(row, col)` order, `ga[J] == 0`
    /// terms skipped.
    #[allow(clippy::too_many_arguments)]
    fn scalar_element(
        mesh: &Mesh,
        mat: &dyn Material,
        quad: &[QuadPoint],
        e: usize,
        u: &[f64],
        state: &mut [f64],
        ke: &mut [f64],
        fe: &mut [f64],
    ) {
        let verts = mesh.elem(e);
        let nv = verts.len();
        let edof = 3 * nv;
        let stride = state.len() / quad.len();
        let coords = mesh.elem_coords(e);
        for (gp, q) in quad.iter().enumerate() {
            let mut dref = vec![[0.0; 3]; nv];
            shape_grads_ref(mesh.kind, q.xi, &mut dref);
            let mut grads = vec![[0.0; 3]; nv];
            let Some(det) = shape_grads_phys(&dref, &coords, &mut grads) else {
                continue;
            };
            let w = q.weight * det;
            let mut h: Mat3 = MAT3_ZERO;
            for a in 0..nv {
                for i in 0..3 {
                    let ua = u[3 * verts[a] as usize + i];
                    for j in 0..3 {
                        h[i][j] += ua * grads[a][j];
                    }
                }
            }
            let st = &mut state[gp * stride..][..mat.state_size()];
            let (p, a4) = mat.respond(&h, st);
            for a in 0..nv {
                for i in 0..3 {
                    let mut acc = 0.0;
                    for jj in 0..3 {
                        acc += p[i][jj] * grads[a][jj];
                    }
                    fe[3 * a + i] += acc * w;
                }
            }
            for a in 0..nv {
                for i in 0..3 {
                    let mut temp = MAT3_ZERO;
                    for jj in 0..3 {
                        let gaj = grads[a][jj];
                        if gaj == 0.0 {
                            continue;
                        }
                        for kk in 0..3 {
                            for ll in 0..3 {
                                temp[kk][ll] += gaj * a4.get(i, jj, kk, ll);
                            }
                        }
                    }
                    for b in 0..nv {
                        for kk in 0..3 {
                            let mut acc = 0.0;
                            for ll in 0..3 {
                                acc += temp[kk][ll] * grads[b][ll];
                            }
                            ke[(3 * a + i) * edof + 3 * b + kk] += acc * w;
                        }
                    }
                }
            }
        }
    }

    /// K, f and the trial history from a fresh history by the scalar
    /// kernel. The pattern comes from a `CooBuilder` over every element
    /// entry, and values are added in element order, each entry located by
    /// binary search — no scatter map, no vertex-block pattern.
    fn scalar_assembly(
        mesh: &Mesh,
        materials: &[Arc<dyn Material>],
        u: &[f64],
    ) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let quad = quadrature(mesh.kind);
        let nv = mesh.kind.nodes();
        let edof = 3 * nv;
        let stride = materials.iter().map(|m| m.state_size()).max().unwrap();
        let mut state = vec![0.0; mesh.num_elements() * quad.len() * stride];
        let mut pattern = pmg_sparse::CooBuilder::new(mesh.num_dof(), mesh.num_dof());
        for e in 0..mesh.num_elements() {
            let mat = &materials[mesh.materials[e] as usize];
            for gp in state[e * quad.len() * stride..][..quad.len() * stride].chunks_mut(stride) {
                mat.init_state(&mut gp[..mat.state_size()]);
            }
            for &vi in mesh.elem(e) {
                for &vj in mesh.elem(e) {
                    for (i, j) in (0..9).map(|c| (c / 3, c % 3)) {
                        pattern.push(3 * vi as usize + i, 3 * vj as usize + j, 0.0);
                    }
                }
            }
        }
        let mut k = pattern.build();
        let mut f = vec![0.0; mesh.num_dof()];
        let (mut ke, mut fe) = (vec![0.0; edof * edof], vec![0.0; edof]);
        for e in 0..mesh.num_elements() {
            ke.fill(0.0);
            fe.fill(0.0);
            let st = &mut state[e * quad.len() * stride..][..quad.len() * stride];
            let mat = &*materials[mesh.materials[e] as usize];
            scalar_element(mesh, mat, &quad, e, u, st, &mut ke, &mut fe);
            let dof = |l: usize| 3 * mesh.elem(e)[l / 3] as usize + l % 3;
            for r in 0..edof {
                f[dof(r)] += fe[r];
                let lo = k.row_ptr()[dof(r)];
                for c in 0..edof {
                    let cols = &k.col_idx()[lo..k.row_ptr()[dof(r) + 1]];
                    let p = lo + cols.binary_search(&dof(c)).unwrap();
                    k.vals_mut()[p] += ke[r * edof + c];
                }
            }
        }
        (k, f, state)
    }

    /// `FemProblem::assemble` from a fresh problem equals the scalar
    /// oracle in pattern, value bits, residual bits and trial history bits.
    fn assert_oracle_bits(mesh: &Mesh, materials: &[Arc<dyn Material>], u: &[f64]) {
        let (k_ref, f_ref, state_ref) = scalar_assembly(mesh, materials, u);
        let mut p = FemProblem::new(mesh.clone(), materials.to_vec());
        let (k, f) = p.assemble(u);
        p.commit();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(k.row_ptr(), k_ref.row_ptr(), "row pointers");
        assert_eq!(k.col_idx(), k_ref.col_idx(), "columns");
        assert_eq!(bits(k.vals()), bits(k_ref.vals()), "stiffness bits");
        assert_eq!(bits(&f), bits(&f_ref), "residual bits");
        assert_eq!(bits(p.committed_state()), bits(&state_ref), "history bits");
    }

    /// A smooth displacement field of the given strain magnitude.
    fn strained(mesh: &Mesh, strain: f64) -> Vec<f64> {
        mesh.coords
            .iter()
            .flat_map(|p| {
                [
                    strain * (0.3 * p.x + 0.2 * p.y * p.z.sin()),
                    strain * (0.1 * p.x - 0.25 * p.y),
                    -strain * (p.z + 0.1 * p.x * p.y),
                ]
            })
            .collect()
    }

    fn mixed_materials() -> Vec<Arc<dyn Material>> {
        vec![
            Arc::new(LinearElastic::from_e_nu(1.0, 0.3)),
            Arc::new(NeoHookean::from_e_nu(1e-2, 0.45)),
            Arc::new(J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3)),
        ]
    }

    #[test]
    fn oracle_cold10k_spheres_at_rest_and_yielding() {
        let params = pmg_mesh::SpheresParams {
            n_surf: 6,
            ..pmg_mesh::SpheresParams::ladder(1)
        };
        let mesh = pmg_mesh::sphere_in_cube(&params);
        assert_eq!(mesh.num_dof(), 9792, "the cold10k mesh");
        let mats = crate::table1_materials();
        assert_oracle_bits(&mesh, &mats, &vec![0.0; mesh.num_dof()]);
        let u = strained(&mesh, 1e-2);
        let mut p = FemProblem::new(mesh.clone(), mats.clone());
        p.assemble(&u);
        assert!(
            p.yielded_fraction(pmg_mesh::spheres::HARD) > 0.0,
            "J2 points yield"
        );
        assert_oracle_bits(&mesh, &mats, &u);
    }

    #[test]
    fn oracle_hex20_block() {
        let mesh = pmg_mesh::generators::block20(2, 2, 1, Vec3::new(2.0, 2.0, 1.0), |c| {
            u32::from(c.x > 1.0) + u32::from(c.y > 1.0)
        });
        let u = strained(&mesh, 5e-3);
        assert_oracle_bits(&mesh, &mixed_materials(), &u);
    }

    #[test]
    fn oracle_tet4_from_split_hexes() {
        // Six tets per hex around the 0-6 diagonal, each oriented positive.
        let hexes = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        const SPLIT: [[usize; 4]; 6] = [
            [0, 1, 2, 6],
            [0, 2, 3, 6],
            [0, 3, 7, 6],
            [0, 7, 4, 6],
            [0, 4, 5, 6],
            [0, 5, 1, 6],
        ];
        let (mut elem_verts, mut materials) = (Vec::new(), Vec::new());
        for e in 0..hexes.num_elements() {
            let h = hexes.elem(e);
            for (t, tet) in SPLIT.iter().enumerate() {
                let mut v = tet.map(|l| h[l]);
                let x = v.map(|i| hexes.coords[i as usize]);
                if (x[1] - x[0]).cross(x[2] - x[0]).dot(x[3] - x[0]) < 0.0 {
                    v.swap(2, 3);
                }
                elem_verts.extend(v);
                materials.push((t % 3) as u32);
            }
        }
        let mesh = Mesh::new(
            hexes.coords.clone(),
            pmg_mesh::ElementKind::Tet4,
            elem_verts,
            materials,
        );
        assert!(mesh.validate_volumes().is_ok());
        let u = strained(&mesh, 5e-3);
        assert_oracle_bits(&mesh, &mixed_materials(), &u);
    }

    #[test]
    fn oracle_inverted_element() {
        let mut mesh = block(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |c| u32::from(c.x > 1.0));
        mesh.elem_verts.swap(0, 1); // tangles element 0
        assert!(FemProblem::new(mesh.clone(), mixed_materials())
            .geometry()
            .iter()
            .skip(24)
            .step_by(25)
            .any(|&det| det == 0.0));
        let u = strained(&mesh, 1e-3);
        assert_oracle_bits(&mesh, &mixed_materials(), &u);
    }
}

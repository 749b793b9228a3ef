//! Matrix-free application of the constrained tangent stiffness.
//!
//! Instead of assembling CSR/BSR3 and multiplying stored values, the
//! product `y = K̂ x` is computed by an on-the-fly element loop. The
//! operator is linearized once at construction (`respond` runs per Gauss
//! point, exactly as one assembly would) and the result is **folded into a
//! structure-of-arrays batch layout** that the apply loop streams:
//!
//! * Gauss points whose tangent is *bitwise* the isotropic elastic tensor
//!   `λ δiJ δkL + μ (δik δJL + δiL δJk)` — every point of the spheres
//!   problem at the first Newton linearization — are folded as
//!   `[∂N/∂X…, λ·w, μ·w]` per point (`w = weight · det`): the closed-form
//!   contraction needs nothing else, and the Gauss loop over this layout
//!   is branch-free;
//! * elements with any general point store `[∂N/∂X…, 81-component w·A]`
//!   per point in a separate buffer, so the operator stays exact at
//!   arbitrary displacement/history states;
//! * inverted points (`det <= 0`) store zeros: the arithmetic runs but
//!   integrates exactly nothing, as the assembler's skip does.
//!
//! General-class records are **Gauss-transposed**: component-major with
//! the Gauss points adjacent (`rec[comp * ngp + gp]`), so the
//! single-vector kernel runs every Gauss point of the element
//! simultaneously on unit-stride rows. Isotropic records are additionally
//! **slot-blocked**: eight consecutive slots interleave one block
//! (`block[(comp * ngp + gp) * 8 + slot % 8]`), and the single-vector
//! apply runs aligned runs of eight elements through one **element-lane
//! block kernel** — lane `l` of every vector register carries element
//! `8b + l` and executes exactly the reference scalar sequence, so the
//! bits match the one-element kernel while the arithmetic runs eight
//! elements per instruction with zero cross-lane traffic. Elements off an
//! aligned run (rank-boundary stragglers, list tails) index the same
//! blocked data at a single lane.
//!
//! One apply takes one vector. With a single pool worker the loop fuses
//! gather → kernel → scatter per element (or per aligned run of eight)
//! through L1-resident scratch. With more workers the elements are cut into
//! fixed batches of `BATCH` (32): one parallel task gathers nothing and
//! scatters nothing — it only computes its batch's element products into a
//! staging region, so the inner loops are allocation-free and
//! auto-vectorizable — while gather and scatter run serially through a
//! reusable per-kernel scratch, in fixed element order. Which shape runs is
//! decided from the observed pool size; both produce the same bits.
//!
//! Dirichlet rows are treated bitwise identically to
//! [`constrain_system`](crate::bc::constrain_system): constrained sources
//! gather as zero, constrained rows scatter nothing and end as
//! `y[i] = scale · x[i]` with the same [`constraint_scale`](crate::bc::constraint_scale) value.
//!
//! # Determinism
//!
//! Element contributions are computed in parallel batch tasks but scattered
//! serially in a fixed element order (the assembler's scheme), so the
//! result is bitwise identical for every `PMG_THREADS`. Each rank applies
//! interior elements (no ghost dofs) in ascending order, then boundary
//! elements in ascending order — the same order whether the halo exchange
//! is blocking or overlapped, so every transport/schedule combination of
//! `pmg-parallel` reproduces the same bits at a fixed rank layout.
//!
//! Telemetry: counts `op/mf_elements` (element loops executed),
//! `op/mf_batches` (batches of `BATCH` elements), `op/mf_flops` and
//! `op/mf_bytes` (estimated bytes touched) per apply.

use crate::assembly::FemProblem;
use crate::material::{elastic_tangent, Mat3, MAT3_ZERO};
use pmg_sparse::op::{MatrixFreeFactory, MatrixFreeKernel, Operator};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// Elements per outer chunk (bounds staging memory; mirrors the
/// assembler's bound).
const CHUNK: usize = 2048;

/// Elements per parallel batch task: each task runs `BATCH` whole element
/// kernels, so scheduling overhead is amortized over the batch instead of
/// paid per element. Only the task decomposition depends on it — the
/// scatter order, and so the bits, do not.
const BATCH: usize = 32;

/// Weighted tangent of one Gauss point (construction-time classification;
/// the apply reads the folded SoA buffers, not this).
enum GpTan {
    /// Inverted element point (`det <= 0`): integrates nothing, exactly as
    /// the assembler skips it.
    Skip,
    /// Isotropic elastic point: `λ·w` and `μ·w` with `w = weight · det`.
    Iso { lw: f64, mw: f64 },
    /// General point: the full nominal tangent, `w` folded in.
    Full(Box<[f64; 81]>),
}

/// Everything the element loop reads, shared by every rank kernel.
struct MfData {
    nv: usize,
    ngp: usize,
    ndof: usize,
    /// Flat element connectivity (`conn[e * nv + a]` = vertex id).
    conn: Vec<u32>,
    /// Per element: `>= 0` is an index into the isotropic SoA,
    /// `-(i + 1)` an index into the general SoA.
    elem_slot: Vec<i32>,
    /// Isotropic-class elements, stored in slot-blocked lane interleave:
    /// block `b` holds slots `8b .. 8b+8` with component values
    /// `[g_0 … g_{3nv-1}, λw, μw]` (stride `3nv + 2`) Gauss-transposed and
    /// lane-interleaved — slot `s`'s value of component `c` at point `gp`
    /// lives at `block[(c * ngp + gp) * 8 + s % 8]`. Aligned runs of eight
    /// consecutive slots feed the element-lane block kernel with pure
    /// vertical loads; single-element access indexes the same data with a
    /// lane offset. The tail block and skipped points are all-zero, so the
    /// branch-free loops integrate exactly nothing there.
    iso_soa: Vec<f64>,
    /// General-class elements, same transposition with components
    /// `[g_0 … g_{3nv-1}, 81 weighted tangent components]`
    /// (stride `3nv + 81`).
    full_soa: Vec<f64>,
    /// Constrained dofs.
    fixed: Vec<bool>,
    /// Dirichlet row scale (see `bc::constraint_scale`).
    scale: f64,
}

impl MfData {
    /// Components per Gauss point of an isotropic record (the record is
    /// slot-blocked and lane-interleaved; see `iso_soa`).
    fn iso_stride(&self) -> usize {
        3 * self.nv + 2
    }

    /// Values per isotropic slot block (eight interleaved element
    /// records).
    fn iso_blk(&self) -> usize {
        self.iso_stride() * self.ngp * ILANES
    }

    /// Components per Gauss point of a general record (same transposition).
    fn full_stride(&self) -> usize {
        3 * self.nv + 81
    }

    fn gather_codes(&self, e: usize, code: &[i32]) -> bool {
        // True iff element `e` references any ghost dof (code < -1).
        let nv = self.nv;
        for a in 0..nv {
            let v = self.conn[e * nv + a] as usize;
            for i in 0..3 {
                if code[3 * v + i] < -1 {
                    return true;
                }
            }
        }
        false
    }

    /// `ye = ke · xe` for one element, dispatching on its class. Isotropic
    /// elements reach this only off an aligned lane run (the hot apply goes
    /// through `iso_block8`) and take the scalar reference.
    #[inline]
    fn element_apply(&self, e: usize, xe: &[f64], ye: &mut [f64]) {
        let slot = self.elem_slot[e];
        if slot >= 0 {
            self.iso_apply_1(slot as usize, xe, ye);
        } else {
            self.full_apply_1((-slot - 1) as usize, xe, ye);
        }
    }

    /// Slot-block index when `elems[off .. off + 8]` is exactly the
    /// aligned isotropic lane run `8b .. 8b + 8` in ascending order — the
    /// only shape the element-lane block kernel accepts. Slots are
    /// assigned in ascending element order at construction, so every
    /// contiguous stretch of isotropic elements in an ascending element
    /// list decomposes into aligned runs plus short single-element edges.
    #[inline]
    fn aligned_block(&self, elems: &[u32], off: usize) -> Option<usize> {
        if off + ILANES > elems.len() {
            return None;
        }
        let s0 = self.elem_slot[elems[off] as usize];
        if s0 < 0 || !(s0 as usize).is_multiple_of(ILANES) {
            return None;
        }
        for i in 1..ILANES {
            if self.elem_slot[elems[off + i] as usize] != s0 + i as i32 {
                return None;
            }
        }
        Some(s0 as usize / ILANES)
    }

    /// Element-lane block kernel: eight isotropic elements (slot block
    /// `blk`), operands as tiles of eight lanes per dof — dof `j` of lane
    /// `l` lives at `j * 8 + l`. Every operation is a vertical fused
    /// multiply-add across the eight lanes, and lane `l`'s operation
    /// sequence — gradient
    /// accumulation in ascending `b` order, stress with the per-point
    /// trace, scatter products joining the dof sums in ascending `gp`
    /// order from 0.0 — is exactly the scalar reference (`iso_apply_1`),
    /// so each lane's bits equal the one-element product.
    #[inline]
    fn iso_block8(&self, blk: usize, xe8: &[f64], ye8: &mut [f64]) {
        let nv = self.nv;
        let ngp = self.ngp;
        let rec = &self.iso_soa[blk * self.iso_blk()..][..self.iso_blk()];
        let (grads, tail) = rec.split_at(3 * nv * ngp * ILANES);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                unsafe { x86::iso_block8_512(nv, ngp, grads, tail, xe8, ye8) };
                return;
            }
        }
        ye8[..3 * nv * ILANES].fill(0.0);
        for gp in 0..ngp {
            let lw = &tail[gp * ILANES..][..ILANES];
            let mw = &tail[(ngp + gp) * ILANES..][..ILANES];
            let mut gm = [[0.0f64; ILANES]; 9];
            for b in 0..nv {
                for r in 0..3 {
                    let xb = &xe8[(3 * b + r) * ILANES..][..ILANES];
                    for l in 0..3 {
                        let gl = &grads[((3 * b + l) * ngp + gp) * ILANES..][..ILANES];
                        let dst = &mut gm[r * 3 + l];
                        for c in 0..ILANES {
                            dst[c] = xb[c].mul_add(gl[c], dst[c]);
                        }
                    }
                }
            }
            let mut s = [[0.0f64; ILANES]; 9];
            for i in 0..3 {
                for j in 0..3 {
                    for c in 0..ILANES {
                        s[i * 3 + j][c] = mw[c] * (gm[i * 3 + j][c] + gm[j * 3 + i][c]);
                    }
                }
            }
            for i in 0..3 {
                for c in 0..ILANES {
                    let tr = gm[0][c] + gm[4][c] + gm[8][c];
                    s[i * 3 + i][c] = lw[c].mul_add(tr, s[i * 3 + i][c]);
                }
            }
            for a in 0..nv {
                let ga0 = &grads[(3 * a * ngp + gp) * ILANES..][..ILANES];
                let ga1 = &grads[((3 * a + 1) * ngp + gp) * ILANES..][..ILANES];
                let ga2 = &grads[((3 * a + 2) * ngp + gp) * ILANES..][..ILANES];
                for i in 0..3 {
                    let dst = &mut ye8[(3 * a + i) * ILANES..][..ILANES];
                    for c in 0..ILANES {
                        let t = s[i * 3 + 2][c].mul_add(
                            ga2[c],
                            s[i * 3 + 1][c].mul_add(ga1[c], s[i * 3][c] * ga0[c]),
                        );
                        dst[c] += t;
                    }
                }
            }
        }
    }

    /// General-class kernel: the 81-component contraction, every Gauss
    /// point of the element at once on unit-stride rows, with an in-order
    /// per-dof reduction. The AVX forms execute `full_apply_1_scalar`'s
    /// operation sequence.
    #[inline]
    fn full_apply_1(&self, slot: usize, xe: &[f64], ye: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            let (nv, ngp) = (self.nv, self.ngp);
            let (grads, aw) = self.full_record(slot);
            if std::arch::is_x86_feature_detected!("avx512f") {
                unsafe { x86::full_apply_1_512(nv, ngp, grads, aw, xe, ye) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx")
                && std::arch::is_x86_feature_detected!("fma")
            {
                unsafe { x86::full_apply_1(nv, ngp, grads, aw, xe, ye) };
                return;
            }
        }
        self.full_apply_1_scalar(slot, xe, ye);
    }

    /// General record `slot` as `(gradients, weighted tangent)` rows.
    #[inline]
    fn full_record(&self, slot: usize) -> (&[f64], &[f64]) {
        let len = self.full_stride() * self.ngp;
        self.full_soa[slot * len..][..len].split_at(3 * self.nv * self.ngp)
    }

    /// Portable body of [`MfData::full_apply_1`]: the only path off x86-64
    /// and the reference the vector forms are tested against.
    fn full_apply_1_scalar(&self, slot: usize, xe: &[f64], ye: &mut [f64]) {
        let nv = self.nv;
        let ngp = self.ngp;
        debug_assert!(ngp <= MAX_GP);
        let (grads, aw) = self.full_record(slot);
        let mut gmbuf = [0.0f64; 9 * MAX_GP];
        let gm = &mut gmbuf[..9 * ngp];
        for b in 0..nv {
            let gb = &grads[3 * b * ngp..(3 * b + 3) * ngp];
            for r in 0..3 {
                let xb = xe[3 * b + r];
                for l in 0..3 {
                    let gl = &gb[l * ngp..(l + 1) * ngp];
                    let dst = &mut gm[(r * 3 + l) * ngp..][..ngp];
                    for (d, &g) in dst.iter_mut().zip(gl) {
                        *d = xb.mul_add(g, *d);
                    }
                }
            }
        }
        // S[i][J][gp] = Σ_{kL} wA[i][J][k][L]|_gp G[k][L][gp].
        let mut sbuf = [0.0f64; 9 * MAX_GP];
        let s = &mut sbuf[..9 * ngp];
        for i in 0..3 {
            for j in 0..3 {
                let srow = &mut s[(i * 3 + j) * ngp..][..ngp];
                for kk in 0..3 {
                    for l in 0..3 {
                        let ar = &aw[(((i * 3 + j) * 3 + kk) * 3 + l) * ngp..][..ngp];
                        let gr = &gm[(kk * 3 + l) * ngp..][..ngp];
                        for (sv, (&av, &gv)) in srow.iter_mut().zip(ar.iter().zip(gr)) {
                            *sv = av.mul_add(gv, *sv);
                        }
                    }
                }
            }
        }
        scatter_1(grads, ngp, s, ye, nv);
    }

    /// Single isotropic element, scalar: the reference operation sequence
    /// every lane of `iso_block8` replicates.
    fn iso_apply_1(&self, slot: usize, xe: &[f64], ye: &mut [f64]) {
        let nv = self.nv;
        let ngp = self.ngp;
        let rec = &self.iso_soa[(slot / ILANES) * self.iso_blk()..][..self.iso_blk()];
        let lane = slot % ILANES;
        let (grads, tail) = rec.split_at(3 * nv * ngp * ILANES);
        let at = |comp: usize, gp: usize| grads[(comp * ngp + gp) * ILANES + lane];
        ye.fill(0.0);
        for gp in 0..ngp {
            let lw = tail[gp * ILANES + lane];
            let mw = tail[(ngp + gp) * ILANES + lane];
            // Input-field gradient G[r][l] = Σ_b xe[3b+r] ∂N_b/∂X_l.
            let mut gm = [0.0f64; 9];
            for b in 0..nv {
                for r in 0..3 {
                    let xb = xe[3 * b + r];
                    for l in 0..3 {
                        gm[r * 3 + l] = xb.mul_add(at(3 * b + l, gp), gm[r * 3 + l]);
                    }
                }
            }
            // Weighted stress S = μw (G + Gᵀ) + λw tr(G) I.
            let mut s = [0.0f64; 9];
            for i in 0..3 {
                for j in 0..3 {
                    s[i * 3 + j] = mw * (gm[i * 3 + j] + gm[j * 3 + i]);
                }
            }
            let tr = gm[0] + gm[4] + gm[8];
            for i in 0..3 {
                s[i * 3 + i] = lw.mul_add(tr, s[i * 3 + i]);
            }
            // ye[3a+i] += Σ_J S[i][J] ∂N_a/∂X_J |_gp.
            for a in 0..nv {
                let ga = [at(3 * a, gp), at(3 * a + 1, gp), at(3 * a + 2, gp)];
                for i in 0..3 {
                    ye[3 * a + i] +=
                        s[i * 3 + 2].mul_add(ga[2], s[i * 3 + 1].mul_add(ga[1], s[i * 3] * ga[0]));
                }
            }
        }
    }
}

/// Largest supported quadrature (Hex20's 3×3×3 rule) — bounds the
/// general kernel's stack rows.
const MAX_GP: usize = 27;

/// Element lanes per isotropic SoA block: eight consecutive slots share one
/// interleaved record so the apply can run eight elements per vector
/// register, each lane executing the reference scalar sequence.
const ILANES: usize = 8;

/// General-class scatter: `ye[3a+i] = Σ_gp S[i]·∇N_a |_gp`. The per-point
/// products are one vectorizable unit-stride pass; the reduction over
/// points runs in ascending `gp` order starting from 0.0.
#[inline]
fn scatter_1(grads: &[f64], ngp: usize, s: &[f64], ye: &mut [f64], nv: usize) {
    let mut tvbuf = [0.0f64; MAX_GP];
    let tv = &mut tvbuf[..ngp];
    for a in 0..nv {
        let ga = &grads[3 * a * ngp..(3 * a + 3) * ngp];
        for i in 0..3 {
            for (gp, t) in tv.iter_mut().enumerate() {
                *t = s[(i * 3 + 2) * ngp + gp].mul_add(
                    ga[2 * ngp + gp],
                    s[(i * 3 + 1) * ngp + gp].mul_add(ga[ngp + gp], s[i * 3 * ngp + gp] * ga[gp]),
                );
            }
            let mut acc = 0.0f64;
            for &t in tv.iter() {
                acc += t;
            }
            ye[3 * a + i] = acc;
        }
    }
}

/// Matrix-free representation of the Dirichlet-constrained tangent
/// stiffness at a fixed linearization state. Implements the serial
/// [`Operator`] directly and acts as a [`MatrixFreeFactory`] for the
/// distributed solve (one two-phase kernel per rank).
pub struct MatFreeOperator {
    data: Arc<MfData>,
    /// Whole-domain kernel backing the serial `Operator` impl.
    serial: MfRankKernel,
}

impl MatFreeOperator {
    /// Build the operator from a problem's current geometry cache,
    /// linearized at displacement `u` and the committed history.
    /// `fixed` lists constrained dofs and `scale` must be the
    /// [`constraint_scale`](crate::bc::constraint_scale) of the matching
    /// assembled system so Dirichlet rows agree bitwise.
    ///
    /// The shared geometry cache is read during construction and folded —
    /// together with the per-point tangents — into the batch SoA layout;
    /// no reference to it is retained.
    pub fn new(problem: &FemProblem, u: &[f64], fixed: &[u32], scale: f64) -> MatFreeOperator {
        let mesh = &problem.mesh;
        let ndof = mesh.num_dof();
        assert_eq!(u.len(), ndof);
        let nv = mesh.kind.nodes();
        let ne = mesh.num_elements();
        let quad = problem.quad_points();
        let ngp = quad.len();
        let gstride = 3 * nv + 1;
        let geom = problem.geometry();
        let stride = problem.state_stride();
        let committed = problem.committed_state();
        let materials = problem.material_table();

        let mut fixed_mask = vec![false; ndof];
        for &d in fixed {
            fixed_mask[d as usize] = true;
        }
        let mut conn = vec![0u32; ne * nv];
        for e in 0..ne {
            conn[e * nv..(e + 1) * nv].copy_from_slice(mesh.elem(e));
        }

        // Linearize every Gauss point once (the cost of one assembly's
        // material loop) and classify the tangent. Each slot is computed
        // independently, so chunked parallelism cannot change the bits.
        let mut gp_tan: Vec<GpTan> = Vec::with_capacity(ne * ngp);
        gp_tan.resize_with(ne * ngp, || GpTan::Skip);
        gp_tan
            .par_chunks_mut(ngp.max(1))
            .enumerate()
            .for_each(|(e, slots)| {
                let mat = &materials[mesh.materials[e] as usize];
                let mut state = vec![0.0; stride];
                for (gp, slot) in slots.iter_mut().enumerate() {
                    let g = &geom[(e * ngp + gp) * gstride..][..gstride];
                    let det = g[gstride - 1];
                    if det <= 0.0 {
                        continue; // stays Skip
                    }
                    let grads = &g[..3 * nv];
                    let w = quad[gp].weight * det;
                    let mut h: Mat3 = MAT3_ZERO;
                    for a in 0..nv {
                        let base = 3 * mesh.elem(e)[a] as usize;
                        let ga = &grads[3 * a..3 * a + 3];
                        for i in 0..3 {
                            let ua = u[base + i];
                            for j in 0..3 {
                                h[i][j] += ua * ga[j];
                            }
                        }
                    }
                    if stride > 0 {
                        let s0 = (e * ngp + gp) * stride;
                        state.copy_from_slice(&committed[s0..s0 + stride]);
                    }
                    let (_, a4) = mat.respond(&h, &mut state[..mat.state_size()]);
                    // Isotropic fast path: bitwise comparison against the
                    // canonical elastic tensor built from two probes.
                    let lam = a4.get(0, 0, 1, 1);
                    let mu = a4.get(0, 1, 0, 1);
                    let iso = *elastic_tangent(lam, mu).0 == *a4.0;
                    *slot = if iso {
                        GpTan::Iso {
                            lw: w * lam,
                            mw: w * mu,
                        }
                    } else {
                        let mut aw = a4.0;
                        for v in aw.iter_mut() {
                            *v *= w;
                        }
                        GpTan::Full(aw)
                    };
                }
            });

        // Fold geometry + tangents into the two SoA class buffers. An
        // element is general-class iff any of its points carries a full
        // tangent; skipped points stay all-zero in either layout.
        let mut elem_slot = vec![0i32; ne];
        let (mut n_iso, mut n_full) = (0usize, 0usize);
        for e in 0..ne {
            let full = (0..ngp).any(|gp| matches!(gp_tan[e * ngp + gp], GpTan::Full(_)));
            elem_slot[e] = if full {
                n_full += 1;
                -(n_full as i32)
            } else {
                n_iso += 1;
                (n_iso - 1) as i32
            };
        }
        let iso_stride = 3 * nv + 2;
        let full_stride = 3 * nv + 81;
        let iso_blk = iso_stride * ngp * ILANES;
        let mut iso_soa = vec![0.0f64; n_iso.div_ceil(ILANES) * iso_blk];
        let mut full_soa = vec![0.0f64; n_full * ngp * full_stride];
        for e in 0..ne {
            for gp in 0..ngp {
                let grads = &geom[(e * ngp + gp) * gstride..][..3 * nv];
                match (&gp_tan[e * ngp + gp], elem_slot[e]) {
                    (GpTan::Skip, _) => {} // stays zero: integrates nothing
                    (GpTan::Iso { lw, mw }, slot) if slot >= 0 => {
                        let slot = slot as usize;
                        let dst = &mut iso_soa[(slot / ILANES) * iso_blk..][..iso_blk];
                        let lane = slot % ILANES;
                        for (c, &g) in grads.iter().enumerate() {
                            dst[(c * ngp + gp) * ILANES + lane] = g;
                        }
                        dst[(3 * nv * ngp + gp) * ILANES + lane] = *lw;
                        dst[((3 * nv + 1) * ngp + gp) * ILANES + lane] = *mw;
                    }
                    (tan, slot) => {
                        let fi = (-slot - 1) as usize;
                        let dst = &mut full_soa[fi * full_stride * ngp..][..full_stride * ngp];
                        for (c, &g) in grads.iter().enumerate() {
                            dst[c * ngp + gp] = g;
                        }
                        let aw = &mut dst[3 * nv * ngp..];
                        match tan {
                            GpTan::Full(a) => {
                                for (c, &v) in a.iter().enumerate() {
                                    aw[c * ngp + gp] = v;
                                }
                            }
                            GpTan::Iso { lw, mw } => {
                                // Isotropic point inside a general-class
                                // element: expand λw/μw to the 81-component
                                // weighted tensor so the element runs one
                                // uniform contraction.
                                for i in 0..3 {
                                    for j in 0..3 {
                                        for kk in 0..3 {
                                            for l in 0..3 {
                                                let mut v = 0.0;
                                                if i == j && kk == l {
                                                    v += lw;
                                                }
                                                if i == kk && j == l {
                                                    v += mw;
                                                }
                                                if i == l && j == kk {
                                                    v += mw;
                                                }
                                                aw[(((i * 3 + j) * 3 + kk) * 3 + l) * ngp + gp] = v;
                                            }
                                        }
                                    }
                                }
                            }
                            GpTan::Skip => unreachable!(),
                        }
                    }
                }
            }
        }

        let data = Arc::new(MfData {
            nv,
            ngp,
            ndof,
            conn,
            elem_slot,
            iso_soa,
            full_soa,
            fixed: fixed_mask,
            scale,
        });
        let all: Vec<u32> = (0..ndof as u32).collect();
        let serial = MfRankKernel::build(data.clone(), &all);
        MatFreeOperator { data, serial }
    }
}

impl Operator for MatFreeOperator {
    fn nrows(&self) -> usize {
        self.data.ndof
    }

    fn ncols(&self) -> usize {
        self.data.ndof
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.serial.apply_interior(x, y);
        self.serial.apply_boundary(x, &[], y);
    }

    fn diag(&self) -> Vec<f64> {
        self.serial.diag_local().to_vec()
    }

    fn memory_bytes(&self) -> u64 {
        self.serial.memory_bytes()
    }

    fn flops_per_apply(&self) -> u64 {
        self.serial.flops_per_apply()
    }
}

impl MatrixFreeFactory for MatFreeOperator {
    fn build_kernels(&self, owned: &[&[u32]]) -> Vec<Box<dyn MatrixFreeKernel>> {
        owned
            .iter()
            .map(|rows| Box::new(MfRankKernel::build(self.data.clone(), rows)) as Box<_>)
            .collect()
    }
}

/// Transpose the contiguous 8×n lane-major staging rows of an aligned run
/// (lane `l`'s element-major values at `src[l * n + m]`) into the n×8
/// dof-interleaved tile the block kernel reads (`dst[m * 8 + l]`). Pure
/// data movement, so it cannot change any result bits; the AVX-512 form
/// moves whole cache lines through 8×8 register transposes instead of
/// strided scalar stores.
fn lanes_to_tile(src: &[f64], dst: &mut [f64], n: usize) {
    debug_assert!(src.len() >= ILANES * n && dst.len() >= ILANES * n);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            unsafe { x86::lanes_to_tile_512(src, dst, n) };
            return;
        }
    }
    for m in 0..n {
        for l in 0..ILANES {
            dst[m * ILANES + l] = src[l * n + m];
        }
    }
}

/// Inverse of [`lanes_to_tile`]: tile `src[m * 8 + l]` back to lane-major
/// rows `dst[l * n + m]`.
fn tile_to_lanes(src: &[f64], dst: &mut [f64], n: usize) {
    debug_assert!(src.len() >= ILANES * n && dst.len() >= ILANES * n);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            unsafe { x86::tile_to_lanes_512(src, dst, n) };
            return;
        }
    }
    for m in 0..n {
        for l in 0..ILANES {
            dst[l * n + m] = src[m * ILANES + l];
        }
    }
}

/// Reusable gather/staging buffers of one kernel: grown on first use,
/// reused by every subsequent apply (no steady-state allocation).
#[derive(Default)]
struct MfScratch {
    xbuf: Vec<f64>,
    ybuf: Vec<f64>,
}

/// One rank's two-phase element-loop kernel (see
/// `pmg_sparse::op::MatrixFreeKernel` for the contract).
pub struct MfRankKernel {
    data: Arc<MfData>,
    /// Per global dof: owned local slot (`>= 0`), ghost slot (`-(s+2)`),
    /// or `-1` (constrained or untouched by this rank).
    code: Vec<i32>,
    ghosts: Vec<u32>,
    /// Local slots of owned constrained dofs.
    fixed_slots: Vec<u32>,
    local_rows: usize,
    /// Elements with ≥1 owned free dof and no ghost dof, ascending.
    elems_int: Vec<u32>,
    /// Elements with ≥1 owned free dof and ≥1 ghost dof, ascending.
    elems_bnd: Vec<u32>,
    /// `code[..]` resolved per element dof of `elems_int` (element-major,
    /// `3nv` per element): one flat load replaces the two-step
    /// connectivity → code lookup in every gather and scatter.
    codes_int: Vec<i32>,
    /// Same for `elems_bnd`.
    codes_bnd: Vec<i32>,
    interior_rows: u64,
    boundary_rows: u64,
    diag: Vec<f64>,
    flops: u64,
    /// Gather/staging reuse. One apply runs at a time per kernel (ranks
    /// own distinct kernels, so rank-parallel applies never contend).
    scratch: Mutex<MfScratch>,
}

impl MfRankKernel {
    fn build(data: Arc<MfData>, owned: &[u32]) -> MfRankKernel {
        let ndof = data.ndof;
        let nv = data.nv;
        let mut code = vec![-1i32; ndof];
        let mut fixed_slots = Vec::new();
        for (slot, &g) in owned.iter().enumerate() {
            if data.fixed[g as usize] {
                fixed_slots.push(slot as u32);
            } else {
                code[g as usize] = slot as i32;
            }
        }
        // Elements with at least one owned free dof; their free non-owned
        // dofs are the ghosts (ascending global id — the canonical halo
        // wire order, identical to the assembled operator's ghost columns).
        let ne = data.conn.len() / nv.max(1);
        let mut listed = Vec::new();
        let mut is_ghost = vec![false; ndof];
        for e in 0..ne {
            let mut has_owned_free = false;
            for a in 0..nv {
                let v = data.conn[e * nv + a] as usize;
                for i in 0..3 {
                    if code[3 * v + i] >= 0 {
                        has_owned_free = true;
                    }
                }
            }
            if !has_owned_free {
                continue;
            }
            listed.push(e as u32);
            for a in 0..nv {
                let v = data.conn[e * nv + a] as usize;
                for i in 0..3 {
                    let g = 3 * v + i;
                    if !data.fixed[g] && code[g] < 0 {
                        is_ghost[g] = true;
                    }
                }
            }
        }
        let ghosts: Vec<u32> = (0..ndof as u32).filter(|&g| is_ghost[g as usize]).collect();
        for (s, &g) in ghosts.iter().enumerate() {
            code[g as usize] = -(s as i32 + 2);
        }

        let mut elems_int = Vec::new();
        let mut elems_bnd = Vec::new();
        let mut row_is_boundary = vec![false; owned.len()];
        for &e in &listed {
            if data.gather_codes(e as usize, &code) {
                elems_bnd.push(e);
                for a in 0..nv {
                    let v = data.conn[e as usize * nv + a] as usize;
                    for i in 0..3 {
                        let c = code[3 * v + i];
                        if c >= 0 {
                            row_is_boundary[c as usize] = true;
                        }
                    }
                }
            } else {
                elems_int.push(e);
            }
        }
        let boundary_rows = row_is_boundary.iter().filter(|&&b| b).count() as u64;
        let interior_rows = owned.len() as u64 - boundary_rows;

        let resolve = |elems: &[u32]| -> Vec<i32> {
            let mut codes = Vec::with_capacity(elems.len() * 3 * nv);
            for &e in elems {
                for a in 0..nv {
                    let v = data.conn[e as usize * nv + a] as usize;
                    for i in 0..3 {
                        codes.push(code[3 * v + i]);
                    }
                }
            }
            codes
        };
        let codes_int = resolve(&elems_int);
        let codes_bnd = resolve(&elems_bnd);

        // Diagonal of the owned rows: constrained rows carry `scale`, free
        // rows sum their elements' Gauss-point diagonal contributions.
        let mut diag = vec![0.0f64; owned.len()];
        for &slot in &fixed_slots {
            diag[slot as usize] = data.scale;
        }
        let edof = 3 * nv;
        let mut xe = vec![0.0f64; edof];
        let mut ye = vec![0.0f64; edof];
        for &e in elems_int.iter().chain(&elems_bnd) {
            let e = e as usize;
            for a in 0..nv {
                let v = data.conn[e * nv + a] as usize;
                for i in 0..3 {
                    let c = code[3 * v + i];
                    if c < 0 {
                        continue;
                    }
                    // ke[d][d] via one unit-vector apply per local dof of
                    // this element; setup-only cost.
                    xe.fill(0.0);
                    xe[3 * a + i] = 1.0;
                    data.element_apply(e, &xe, &mut ye);
                    diag[c as usize] += ye[3 * a + i];
                }
            }
        }

        // Flop estimate per full apply: gradient build + contraction +
        // scatter per Gauss point (the branch-free loop runs skipped
        // points too — on zeros).
        let mut flops = fixed_slots.len() as u64;
        for &e in elems_int.iter().chain(&elems_bnd) {
            let per_gp = if data.elem_slot[e as usize] >= 0 {
                18 * nv + 15 + 18 * nv
            } else {
                18 * nv + 162 + 18 * nv
            };
            flops += (data.ngp * per_gp) as u64;
        }

        MfRankKernel {
            data,
            code,
            ghosts,
            fixed_slots,
            local_rows: owned.len(),
            elems_int,
            elems_bnd,
            codes_int,
            codes_bnd,
            interior_rows,
            boundary_rows,
            diag,
            flops,
            scratch: Mutex::new(MfScratch::default()),
        }
    }

    /// Run the element loop over `elems`, accumulating into `y` in fixed
    /// element order. With more than one pool worker: serial gather into
    /// the reused staging, parallel per-batch compute, serial fixed-order
    /// scatter. With one worker the loop fuses gather → kernel → scatter
    /// per element through L1-resident scratch instead of streaming staged
    /// chunks; elements run in the same ascending order and every owned
    /// dof receives its element contributions in that order either way,
    /// so both shapes produce the same bits. Aligned eight-slot isotropic
    /// runs route through the element-lane block kernel in both shapes.
    /// Each lane is bitwise the single-element product and lanes
    /// gather/scatter in ascending element order, so run detection cannot
    /// change the bits either.
    fn run_elements(&self, elems: &[u32], codes: &[i32], xo: &[f64], xg: &[f64], y: &mut [f64]) {
        let d = &self.data;
        let nv = d.nv;
        let edof = 3 * nv;
        if elems.is_empty() {
            return;
        }
        pmg_telemetry::counter_add("op/mf_elements", elems.len() as u64);
        pmg_telemetry::counter_add(
            "op/mf_bytes",
            (elems.len() * (d.ngp * d.iso_stride() + 2 * edof + nv) * 8) as u64,
        );
        pmg_telemetry::counter_add("op/mf_batches", elems.len().div_ceil(BATCH) as u64);
        let mut guard = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let sc = &mut *guard;

        let source = |c: i32| {
            if c >= 0 {
                xo[c as usize]
            } else if c < -1 {
                xg[(-c - 2) as usize]
            } else {
                0.0 // constrained column: eliminated
            }
        };
        let scatter = |y: &mut [f64], ec: &[i32], ye: &[f64]| {
            for (&c, &yv) in ec.iter().zip(ye) {
                if c >= 0 {
                    y[c as usize] += yv;
                }
            }
        };

        // The fused serial loop wins whenever no real parallelism is
        // available: a 1-thread pool, or a pool of any size on a
        // single-core machine (where parallel staging is pure scheduling
        // overhead). Both arms produce identical bits at every thread
        // count, so this routing is a pure perf choice.
        let serial_hw = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        if rayon::current_num_threads() == 1 || serial_hw {
            // Element buffers sized for the eight-lane block kernel.
            let need = edof * ILANES;
            if sc.xbuf.len() < need {
                sc.xbuf.resize(need, 0.0);
            }
            if sc.ybuf.len() < need {
                sc.ybuf.resize(need, 0.0);
            }
            let (xe, ye) = (&mut sc.xbuf[..need], &mut sc.ybuf[..need]);
            let mut off = 0usize;
            while off < elems.len() {
                if let Some(blk) = d.aligned_block(elems, off) {
                    // Gather straight into the tile: lane l is element
                    // elems[off+l].
                    for j in 0..edof {
                        for l in 0..ILANES {
                            xe[j * ILANES + l] = source(codes[(off + l) * edof + j]);
                        }
                    }
                    d.iso_block8(blk, xe, ye);
                    // Scatter lane by lane in ascending element order —
                    // the same `y[c] += yv` operation sequence as eight
                    // consecutive single-element loops.
                    for l in 0..ILANES {
                        let ec = &codes[(off + l) * edof..][..edof];
                        for (j, &c) in ec.iter().enumerate() {
                            if c >= 0 {
                                y[c as usize] += ye[j * ILANES + l];
                            }
                        }
                    }
                    off += ILANES;
                    continue;
                }
                let ec = &codes[off * edof..][..edof];
                for (xv, &c) in xe.iter_mut().zip(ec) {
                    *xv = source(c);
                }
                d.element_apply(elems[off] as usize, &xe[..edof], &mut ye[..edof]);
                scatter(y, ec, &ye[..edof]);
                off += 1;
            }
            return;
        }

        // Each batch's staging region: its elements' outputs plus the in
        // and out tiles of the eight-element block kernel.
        let region = BATCH * edof + 2 * edof * ILANES;
        let mut start = 0usize;
        while start < elems.len() {
            let end = (start + CHUNK).min(elems.len());
            let cnt = end - start;
            let nb = cnt.div_ceil(BATCH);
            if sc.xbuf.len() < cnt * edof {
                sc.xbuf.resize(cnt * edof, 0.0);
            }
            if sc.ybuf.len() < nb * region {
                sc.ybuf.resize(nb * region, 0.0);
            }
            // Gather is cheap and deterministic; do it serially so the
            // parallel part carries no slice-of-x aliasing.
            let chunk_codes = &codes[start * edof..end * edof];
            for (xv, &c) in sc.xbuf.iter_mut().zip(chunk_codes) {
                *xv = source(c);
            }
            {
                let xb = &sc.xbuf[..cnt * edof];
                sc.ybuf[..nb * region]
                    .par_chunks_mut(region)
                    .enumerate()
                    .for_each(|(bi, reg)| {
                        let b0 = bi * BATCH;
                        let bcnt = BATCH.min(cnt - b0);
                        let (ye_all, lane_buf) = reg.split_at_mut(BATCH * edof);
                        let mut off = 0usize;
                        while off < bcnt {
                            if off + ILANES <= bcnt {
                                if let Some(blk) = d.aligned_block(elems, start + b0 + off) {
                                    // The eight staged per-element source
                                    // rows are contiguous: transpose them
                                    // into the kernel's tile, run the
                                    // block kernel, and transpose the
                                    // products back into the per-element
                                    // staging slots the serial scatter
                                    // reads — the staged values are
                                    // bitwise the single-element results.
                                    let (xt, yt) = lane_buf.split_at_mut(edof * ILANES);
                                    let rows = ILANES * edof;
                                    lanes_to_tile(&xb[(b0 + off) * edof..][..rows], xt, edof);
                                    d.iso_block8(blk, xt, yt);
                                    tile_to_lanes(yt, &mut ye_all[off * edof..][..rows], edof);
                                    off += ILANES;
                                    continue;
                                }
                            }
                            let e = elems[start + b0 + off] as usize;
                            let xe = &xb[(b0 + off) * edof..][..edof];
                            d.element_apply(e, xe, &mut ye_all[off * edof..][..edof]);
                            off += 1;
                        }
                    });
            }
            for off in 0..cnt {
                let ye = &sc.ybuf[(off / BATCH) * region + (off % BATCH) * edof..][..edof];
                scatter(y, &codes[(start + off) * edof..][..edof], ye);
            }
            start = end;
        }
    }
}

impl MatrixFreeKernel for MfRankKernel {
    fn local_rows(&self) -> usize {
        self.local_rows
    }

    fn ghosts(&self) -> &[u32] {
        &self.ghosts
    }

    fn apply_interior(&self, x_owned: &[f64], y: &mut [f64]) {
        assert_eq!(x_owned.len(), self.local_rows);
        assert_eq!(y.len(), self.local_rows);
        y.fill(0.0);
        for &slot in &self.fixed_slots {
            y[slot as usize] = self.data.scale * x_owned[slot as usize];
        }
        self.run_elements(&self.elems_int, &self.codes_int, x_owned, &[], y);
    }

    fn apply_boundary(&self, x_owned: &[f64], x_ghost: &[f64], y: &mut [f64]) {
        assert_eq!(x_ghost.len(), self.ghosts.len());
        self.run_elements(&self.elems_bnd, &self.codes_bnd, x_owned, x_ghost, y);
        pmg_telemetry::counter_add("op/mf_flops", self.flops);
    }

    fn interior_rows(&self) -> u64 {
        self.interior_rows
    }

    fn boundary_rows(&self) -> u64 {
        self.boundary_rows
    }

    fn diag_local(&self) -> &[f64] {
        &self.diag
    }

    fn flops_per_apply(&self) -> u64 {
        self.flops
    }

    fn memory_bytes(&self) -> u64 {
        let d = &self.data;
        // The folded SoA buffers are what the apply streams (they subsume
        // the geometry cache reads and the tangent table of the unbatched
        // kernel), plus connectivity, class map, constraint mask, and this
        // rank's maps and diagonal.
        (d.iso_soa.len() * 8
            + d.full_soa.len() * 8
            + d.conn.len() * 4
            + d.elem_slot.len() * 4
            + d.fixed.len()) as u64
            + (self.code.len() * 4
                + self.ghosts.len() * 4
                + self.fixed_slots.len() * 4
                + self.diag.len() * 8
                + (self.elems_int.len() + self.elems_bnd.len()) * 4
                + (self.codes_int.len() + self.codes_bnd.len()) * 4) as u64
    }
}

/// AVX forms of the element kernels. Every lane operation is a vertical
/// IEEE mul, add, or fused multiply-add exactly where the portable
/// reference writes `f64::mul_add` — no compiler contraction, no
/// reassociation — and per-dof
/// reductions over Gauss points run in ascending `gp` order, so each
/// kernel executes exactly the portable reference's floating-point
/// sequence and produces the same bits. The general-class kernels
/// vectorize across Gauss points (4 per `__m256d`, 8 per `__m512d`, scalar
/// tail in the same order); the isotropic block kernel across elements.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ILANES;
    use std::arch::x86_64::*;

    /// Per-element dof bound (Hex20: 3 · 20).
    const MAX_EDOF: usize = 60;

    /// `ye = ke·xe`, general class, one column.
    ///
    /// # Safety
    /// Requires AVX; `grads` is `3nv` rows of `ngp`, `aw` 81 rows of `ngp`.
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn full_apply_1(
        nv: usize,
        ngp: usize,
        grads: &[f64],
        aw: &[f64],
        xe: &[f64],
        ye: &mut [f64],
    ) {
        let mut accbuf = [0.0f64; MAX_EDOF];
        let acc = &mut accbuf[..3 * nv];
        let mut base = 0usize;
        while base + 4 <= ngp {
            let mut gm = [_mm256_setzero_pd(); 9];
            for b in 0..nv {
                let g0 = _mm256_loadu_pd(grads.as_ptr().add(3 * b * ngp + base));
                let g1 = _mm256_loadu_pd(grads.as_ptr().add((3 * b + 1) * ngp + base));
                let g2 = _mm256_loadu_pd(grads.as_ptr().add((3 * b + 2) * ngp + base));
                for r in 0..3 {
                    let xb = _mm256_set1_pd(xe[3 * b + r]);
                    gm[r * 3] = _mm256_fmadd_pd(xb, g0, gm[r * 3]);
                    gm[r * 3 + 1] = _mm256_fmadd_pd(xb, g1, gm[r * 3 + 1]);
                    gm[r * 3 + 2] = _mm256_fmadd_pd(xb, g2, gm[r * 3 + 2]);
                }
            }
            let mut s = [_mm256_setzero_pd(); 9];
            for i in 0..3 {
                for j in 0..3 {
                    let mut sv = _mm256_setzero_pd();
                    for kk in 0..3 {
                        for l in 0..3 {
                            let ar = _mm256_loadu_pd(
                                aw.as_ptr()
                                    .add((((i * 3 + j) * 3 + kk) * 3 + l) * ngp + base),
                            );
                            sv = _mm256_fmadd_pd(ar, gm[kk * 3 + l], sv);
                        }
                    }
                    s[i * 3 + j] = sv;
                }
            }
            scatter_chunk(nv, ngp, base, grads, &s, acc);
            base += 4;
        }
        for gp in base..ngp {
            full_tail_gp(nv, ngp, gp, grads, aw, xe, acc);
        }
        ye[..3 * nv].copy_from_slice(acc);
    }

    /// Element-lane block kernel (AVX-512F): lane `l` of every register is
    /// element slot `8·blk + l`. All loads are unit-stride (the blocked
    /// record IS the lane layout), every operation is a vertical fused
    /// multiply-add matching the portable reference's `f64::mul_add`
    /// calls, and the dof accumulators sum their per-point products in
    /// ascending `gp` order from zero — each lane executes exactly the
    /// scalar reference sequence of its element.
    ///
    /// # Safety
    /// Requires AVX-512F. `grads` is `3nv · ngp` lane groups of 8, `tail`
    /// the `[λw, μw]` lane groups, `xe8`/`ye8` hold dof `d` at lane group
    /// `d`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn iso_block8_512(
        nv: usize,
        ngp: usize,
        grads: &[f64],
        tail: &[f64],
        xe8: &[f64],
        ye8: &mut [f64],
    ) {
        let mut acc = [_mm512_setzero_pd(); MAX_EDOF];
        for gp in 0..ngp {
            let mut gm = [_mm512_setzero_pd(); 9];
            for b in 0..nv {
                let g0 = _mm512_loadu_pd(grads.as_ptr().add((3 * b * ngp + gp) * ILANES));
                let g1 = _mm512_loadu_pd(grads.as_ptr().add(((3 * b + 1) * ngp + gp) * ILANES));
                let g2 = _mm512_loadu_pd(grads.as_ptr().add(((3 * b + 2) * ngp + gp) * ILANES));
                for r in 0..3 {
                    let xb = _mm512_loadu_pd(xe8.as_ptr().add((3 * b + r) * ILANES));
                    gm[r * 3] = _mm512_fmadd_pd(xb, g0, gm[r * 3]);
                    gm[r * 3 + 1] = _mm512_fmadd_pd(xb, g1, gm[r * 3 + 1]);
                    gm[r * 3 + 2] = _mm512_fmadd_pd(xb, g2, gm[r * 3 + 2]);
                }
            }
            let lwv = _mm512_loadu_pd(tail.as_ptr().add(gp * ILANES));
            let mwv = _mm512_loadu_pd(tail.as_ptr().add((ngp + gp) * ILANES));
            let mut s = [_mm512_setzero_pd(); 9];
            for i in 0..3 {
                for j in 0..3 {
                    s[i * 3 + j] = _mm512_mul_pd(mwv, _mm512_add_pd(gm[i * 3 + j], gm[j * 3 + i]));
                }
            }
            // tr(G) is the same bits whether computed once or per row.
            let tr = _mm512_add_pd(_mm512_add_pd(gm[0], gm[4]), gm[8]);
            for i in 0..3 {
                s[i * 3 + i] = _mm512_fmadd_pd(lwv, tr, s[i * 3 + i]);
            }
            for a in 0..nv {
                let ga0 = _mm512_loadu_pd(grads.as_ptr().add((3 * a * ngp + gp) * ILANES));
                let ga1 = _mm512_loadu_pd(grads.as_ptr().add(((3 * a + 1) * ngp + gp) * ILANES));
                let ga2 = _mm512_loadu_pd(grads.as_ptr().add(((3 * a + 2) * ngp + gp) * ILANES));
                for i in 0..3 {
                    let t = _mm512_fmadd_pd(
                        s[i * 3 + 2],
                        ga2,
                        _mm512_fmadd_pd(s[i * 3 + 1], ga1, _mm512_mul_pd(s[i * 3], ga0)),
                    );
                    acc[3 * a + i] = _mm512_add_pd(acc[3 * a + i], t);
                }
            }
        }
        for d in 0..3 * nv {
            _mm512_storeu_pd(ye8.as_mut_ptr().add(d * ILANES), acc[d]);
        }
    }

    /// 8-wide form of `full_apply_1` (AVX-512F).
    ///
    /// # Safety
    /// Requires AVX-512F; slice layout as in `full_apply_1`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn full_apply_1_512(
        nv: usize,
        ngp: usize,
        grads: &[f64],
        aw: &[f64],
        xe: &[f64],
        ye: &mut [f64],
    ) {
        let mut accbuf = [0.0f64; MAX_EDOF];
        let acc = &mut accbuf[..3 * nv];
        let mut base = 0usize;
        while base + 8 <= ngp {
            let mut gm = [_mm512_setzero_pd(); 9];
            for b in 0..nv {
                let g0 = _mm512_loadu_pd(grads.as_ptr().add(3 * b * ngp + base));
                let g1 = _mm512_loadu_pd(grads.as_ptr().add((3 * b + 1) * ngp + base));
                let g2 = _mm512_loadu_pd(grads.as_ptr().add((3 * b + 2) * ngp + base));
                for r in 0..3 {
                    let xb = _mm512_set1_pd(xe[3 * b + r]);
                    gm[r * 3] = _mm512_fmadd_pd(xb, g0, gm[r * 3]);
                    gm[r * 3 + 1] = _mm512_fmadd_pd(xb, g1, gm[r * 3 + 1]);
                    gm[r * 3 + 2] = _mm512_fmadd_pd(xb, g2, gm[r * 3 + 2]);
                }
            }
            let mut s = [_mm512_setzero_pd(); 9];
            for i in 0..3 {
                for j in 0..3 {
                    let mut sv = _mm512_setzero_pd();
                    for kk in 0..3 {
                        for l in 0..3 {
                            let ar = _mm512_loadu_pd(
                                aw.as_ptr()
                                    .add((((i * 3 + j) * 3 + kk) * 3 + l) * ngp + base),
                            );
                            sv = _mm512_fmadd_pd(ar, gm[kk * 3 + l], sv);
                        }
                    }
                    s[i * 3 + j] = sv;
                }
            }
            scatter_chunk8(nv, ngp, base, grads, &s, acc);
            base += 8;
        }
        for gp in base..ngp {
            full_tail_gp(nv, ngp, gp, grads, aw, xe, acc);
        }
        ye[..3 * nv].copy_from_slice(acc);
    }

    /// 8-point analogue of `scatter_chunk`: eight lane contributions join
    /// each dof's running sum in ascending lane (gp) order. Groups of 8
    /// dofs reduce through an in-register 8×8 transpose — row `g` of the
    /// transpose holds the eight dofs' gp-`g` products, and the vertical
    /// adds run `g = 0..8` left-associated, so lane `d` performs exactly
    /// `((acc + t_d[0]) + t_d[1]) + …`: the scalar loop's sequence.
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter_chunk8(
        nv: usize,
        ngp: usize,
        base: usize,
        grads: &[f64],
        s: &[__m512d; 9],
        acc: &mut [f64],
    ) {
        let mut tbuf = [_mm512_setzero_pd(); MAX_EDOF];
        for a in 0..nv {
            let ga0 = _mm512_loadu_pd(grads.as_ptr().add(3 * a * ngp + base));
            let ga1 = _mm512_loadu_pd(grads.as_ptr().add((3 * a + 1) * ngp + base));
            let ga2 = _mm512_loadu_pd(grads.as_ptr().add((3 * a + 2) * ngp + base));
            for i in 0..3 {
                tbuf[3 * a + i] = _mm512_fmadd_pd(
                    s[i * 3 + 2],
                    ga2,
                    _mm512_fmadd_pd(s[i * 3 + 1], ga1, _mm512_mul_pd(s[i * 3], ga0)),
                );
            }
        }
        let edof = 3 * nv;
        let mut d0 = 0usize;
        while d0 + 8 <= edof {
            let u = transpose8(&tbuf[d0..d0 + 8]);
            let mut av = _mm512_loadu_pd(acc.as_ptr().add(d0));
            for ug in u.iter() {
                av = _mm512_add_pd(av, *ug);
            }
            _mm512_storeu_pd(acc.as_mut_ptr().add(d0), av);
            d0 += 8;
        }
        for d in d0..edof {
            let mut tl = [0.0f64; 8];
            _mm512_storeu_pd(tl.as_mut_ptr(), tbuf[d]);
            let mut av = acc[d];
            for &lane in tl.iter() {
                av += lane;
            }
            acc[d] = av;
        }
    }

    /// In-register 8×8 f64 transpose: `out[g][d] = r[d][g]`. Pure lane
    /// permutation — no arithmetic, no effect on any computed bits.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose8(r: &[__m512d]) -> [__m512d; 8] {
        let t0 = _mm512_unpacklo_pd(r[0], r[1]);
        let t1 = _mm512_unpackhi_pd(r[0], r[1]);
        let t2 = _mm512_unpacklo_pd(r[2], r[3]);
        let t3 = _mm512_unpackhi_pd(r[2], r[3]);
        let t4 = _mm512_unpacklo_pd(r[4], r[5]);
        let t5 = _mm512_unpackhi_pd(r[4], r[5]);
        let t6 = _mm512_unpacklo_pd(r[6], r[7]);
        let t7 = _mm512_unpackhi_pd(r[6], r[7]);
        let u0 = _mm512_shuffle_f64x2::<0x88>(t0, t2);
        let u1 = _mm512_shuffle_f64x2::<0x88>(t4, t6);
        let u2 = _mm512_shuffle_f64x2::<0xDD>(t0, t2);
        let u3 = _mm512_shuffle_f64x2::<0xDD>(t4, t6);
        let v0 = _mm512_shuffle_f64x2::<0x88>(t1, t3);
        let v1 = _mm512_shuffle_f64x2::<0x88>(t5, t7);
        let v2 = _mm512_shuffle_f64x2::<0xDD>(t1, t3);
        let v3 = _mm512_shuffle_f64x2::<0xDD>(t5, t7);
        [
            _mm512_shuffle_f64x2::<0x88>(u0, u1),
            _mm512_shuffle_f64x2::<0x88>(v0, v1),
            _mm512_shuffle_f64x2::<0x88>(u2, u3),
            _mm512_shuffle_f64x2::<0x88>(v2, v3),
            _mm512_shuffle_f64x2::<0xDD>(u0, u1),
            _mm512_shuffle_f64x2::<0xDD>(v0, v1),
            _mm512_shuffle_f64x2::<0xDD>(u2, u3),
            _mm512_shuffle_f64x2::<0xDD>(v2, v3),
        ]
    }

    /// `dst[m * 8 + l] = src[l * n + m]` through 8×8 register transposes
    /// (AVX-512F); scalar tail when `n % 8 != 0`.
    ///
    /// # Safety
    /// Requires AVX-512F; `src` and `dst` hold at least `8 * n` values.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn lanes_to_tile_512(src: &[f64], dst: &mut [f64], n: usize) {
        let mut m = 0usize;
        while m + 8 <= n {
            let mut r = [_mm512_setzero_pd(); 8];
            for (l, rv) in r.iter_mut().enumerate() {
                *rv = _mm512_loadu_pd(src.as_ptr().add(l * n + m));
            }
            let t = transpose8(&r);
            for (j, v) in t.iter().enumerate() {
                _mm512_storeu_pd(dst.as_mut_ptr().add((m + j) * ILANES), *v);
            }
            m += 8;
        }
        while m < n {
            for l in 0..ILANES {
                dst[m * ILANES + l] = src[l * n + m];
            }
            m += 1;
        }
    }

    /// `dst[l * n + m] = src[m * 8 + l]` — inverse of `lanes_to_tile_512`.
    ///
    /// # Safety
    /// Requires AVX-512F; `src` and `dst` hold at least `8 * n` values.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_to_lanes_512(src: &[f64], dst: &mut [f64], n: usize) {
        let mut m = 0usize;
        while m + 8 <= n {
            let mut r = [_mm512_setzero_pd(); 8];
            for (j, rv) in r.iter_mut().enumerate() {
                *rv = _mm512_loadu_pd(src.as_ptr().add((m + j) * ILANES));
            }
            let t = transpose8(&r);
            for (l, v) in t.iter().enumerate() {
                _mm512_storeu_pd(dst.as_mut_ptr().add(l * n + m), *v);
            }
            m += 8;
        }
        while m < n {
            for l in 0..ILANES {
                dst[l * n + m] = src[m * ILANES + l];
            }
            m += 1;
        }
    }

    /// Scatter one 4-point chunk: the per-point products are vertical; the
    /// four lane contributions join each dof's running sum in ascending
    /// lane (gp) order.
    #[target_feature(enable = "avx,fma")]
    unsafe fn scatter_chunk(
        nv: usize,
        ngp: usize,
        base: usize,
        grads: &[f64],
        s: &[__m256d; 9],
        acc: &mut [f64],
    ) {
        for a in 0..nv {
            let ga0 = _mm256_loadu_pd(grads.as_ptr().add(3 * a * ngp + base));
            let ga1 = _mm256_loadu_pd(grads.as_ptr().add((3 * a + 1) * ngp + base));
            let ga2 = _mm256_loadu_pd(grads.as_ptr().add((3 * a + 2) * ngp + base));
            for i in 0..3 {
                let t = _mm256_fmadd_pd(
                    s[i * 3 + 2],
                    ga2,
                    _mm256_fmadd_pd(s[i * 3 + 1], ga1, _mm256_mul_pd(s[i * 3], ga0)),
                );
                let mut tl = [0.0f64; 4];
                _mm256_storeu_pd(tl.as_mut_ptr(), t);
                let mut av = acc[3 * a + i];
                av += tl[0];
                av += tl[1];
                av += tl[2];
                av += tl[3];
                acc[3 * a + i] = av;
            }
        }
    }

    /// One trailing Gauss point of the general kernel.
    fn full_tail_gp(
        nv: usize,
        ngp: usize,
        gp: usize,
        grads: &[f64],
        aw: &[f64],
        xe: &[f64],
        acc: &mut [f64],
    ) {
        let mut gm = [0.0f64; 9];
        for b in 0..nv {
            for r in 0..3 {
                let xb = xe[3 * b + r];
                for l in 0..3 {
                    gm[r * 3 + l] = xb.mul_add(grads[(3 * b + l) * ngp + gp], gm[r * 3 + l]);
                }
            }
        }
        let mut s = [0.0f64; 9];
        for i in 0..3 {
            for j in 0..3 {
                let mut sv = 0.0;
                for kk in 0..3 {
                    for l in 0..3 {
                        sv = aw[(((i * 3 + j) * 3 + kk) * 3 + l) * ngp + gp]
                            .mul_add(gm[kk * 3 + l], sv);
                    }
                }
                s[i * 3 + j] = sv;
            }
        }
        scatter_tail_gp(nv, ngp, gp, grads, &s, acc);
    }

    fn scatter_tail_gp(
        nv: usize,
        ngp: usize,
        gp: usize,
        grads: &[f64],
        s: &[f64; 9],
        acc: &mut [f64],
    ) {
        for a in 0..nv {
            let ga0 = grads[3 * a * ngp + gp];
            let ga1 = grads[(3 * a + 1) * ngp + gp];
            let ga2 = grads[(3 * a + 2) * ngp + gp];
            for i in 0..3 {
                let t = s[i * 3 + 2].mul_add(ga2, s[i * 3 + 1].mul_add(ga1, s[i * 3] * ga0));
                acc[3 * a + i] += t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{constrain_system, constraint_scale};
    use crate::material::{J2Plasticity, LinearElastic, Material, NeoHookean};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;

    fn block_problem(mat: Arc<dyn Material>) -> FemProblem {
        let mesh = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        FemProblem::new(mesh, vec![mat])
    }

    fn rel_close(a: &[f64], b: &[f64], tol: f64) {
        let norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * norm,
                "entry {i}: {x} vs {y} (norm {norm})"
            );
        }
    }

    #[test]
    fn matches_assembled_linear_elastic_unconstrained() {
        let mut p = block_problem(Arc::new(LinearElastic::from_e_nu(1.0, 0.3)));
        let n = p.ndof();
        let (k, _) = p.assemble(&vec![0.0; n]);
        let op = MatFreeOperator::new(&p, &vec![0.0; n], &[], 1.0);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 23) as f64 - 11.0) * 0.1)
            .collect();
        let mut ya = vec![0.0; n];
        let mut ym = vec![0.0; n];
        k.spmv(&x, &mut ya);
        op.apply(&x, &mut ym);
        rel_close(&ym, &ya, 1e-13);
        rel_close(&op.diag(), &k.diag(), 1e-13);
    }

    #[test]
    fn matches_assembled_with_dirichlet_rows() {
        let mut p = block_problem(Arc::new(NeoHookean::from_e_nu(1.0, 0.3)));
        let n = p.ndof();
        let (k, r) = p.assemble(&vec![0.0; n]);
        let fixed: Vec<(u32, f64)> = (0..n as u32).step_by(7).map(|d| (d, 0.01)).collect();
        let (kc, _) = constrain_system(&k, &r, &fixed);
        let scale = constraint_scale(&k, &fixed);
        let fdofs: Vec<u32> = fixed.iter().map(|f| f.0).collect();
        let op = MatFreeOperator::new(&p, &vec![0.0; n], &fdofs, scale);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64 * 0.3).sin()).collect();
        let mut ya = vec![0.0; n];
        let mut ym = vec![0.0; n];
        kc.spmv(&x, &mut ya);
        op.apply(&x, &mut ym);
        rel_close(&ym, &ya, 1e-13);
        // Constrained rows agree bitwise: both are scale * x[i].
        for &(d, _) in &fixed {
            assert_eq!(ym[d as usize], ya[d as usize]);
        }
    }

    #[test]
    fn full_tangent_path_matches_assembled_at_finite_strain() {
        // At a nonzero displacement the Neo-Hookean tangent is anisotropic,
        // forcing the general-class SoA — the operator must stay exact.
        let mut p = block_problem(Arc::new(NeoHookean::from_e_nu(2.0, 0.3)));
        let n = p.ndof();
        let u: Vec<f64> = (0..n)
            .map(|i| 0.05 * ((i * 7 % 11) as f64 / 11.0 - 0.5))
            .collect();
        let (k, _) = p.assemble(&u);
        let op = MatFreeOperator::new(&p, &u, &[], 1.0);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 19) as f64 * 0.2).cos()).collect();
        let mut ya = vec![0.0; n];
        let mut ym = vec![0.0; n];
        k.spmv(&x, &mut ya);
        op.apply(&x, &mut ym);
        rel_close(&ym, &ya, 1e-12);
    }

    #[test]
    fn stateful_material_linearizes_from_committed_history() {
        let mut p = block_problem(Arc::new(J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3)));
        let n = p.ndof();
        let (k, _) = p.assemble(&vec![0.0; n]);
        let op = MatFreeOperator::new(&p, &vec![0.0; n], &[], 1.0);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 41 % 29) as f64 - 14.0) * 0.1)
            .collect();
        let mut ya = vec![0.0; n];
        let mut ym = vec![0.0; n];
        k.spmv(&x, &mut ya);
        op.apply(&x, &mut ym);
        rel_close(&ym, &ya, 1e-13);
    }

    #[test]
    fn construction_does_not_retain_geometry() {
        // The batch SoA folds the shape gradients and tangents at build
        // time; no reference to the problem's shared geometry cache is
        // kept (and in particular no clone of it is made).
        let p = block_problem(Arc::new(LinearElastic::from_e_nu(1.0, 0.3)));
        let n = p.ndof();
        let before = Arc::strong_count(p.geometry());
        let op = MatFreeOperator::new(&p, &vec![0.0; n], &[], 1.0);
        assert_eq!(Arc::strong_count(p.geometry()), before);
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn rank_kernels_partition_the_serial_apply() {
        let mut p = block_problem(Arc::new(LinearElastic::from_e_nu(1.0, 0.25)));
        let n = p.ndof();
        let (_, _) = p.assemble(&vec![0.0; n]);
        let fixed: Vec<u32> = (0..n as u32).step_by(11).collect();
        let op = MatFreeOperator::new(&p, &vec![0.0; n], &fixed, 2.5);
        // Split dofs round-robin over 3 ranks.
        let owned: Vec<Vec<u32>> = (0..3)
            .map(|r| (0..n as u32).filter(|d| (d % 3) as usize == r).collect())
            .collect();
        let refs: Vec<&[u32]> = owned.iter().map(|v| v.as_slice()).collect();
        let kernels = op.build_kernels(&refs);
        let x: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64 - 6.0) * 0.2).collect();
        let mut y_serial = vec![0.0; n];
        op.apply(&x, &mut y_serial);
        let mut y_dist = vec![0.0; n];
        for (r, kern) in kernels.iter().enumerate() {
            let xo: Vec<f64> = owned[r].iter().map(|&g| x[g as usize]).collect();
            let xg: Vec<f64> = kern.ghosts().iter().map(|&g| x[g as usize]).collect();
            let mut y = vec![0.0; kern.local_rows()];
            kern.apply_interior(&xo, &mut y);
            kern.apply_boundary(&xo, &xg, &mut y);
            assert_eq!(
                kern.interior_rows() + kern.boundary_rows(),
                kern.local_rows() as u64
            );
            for (slot, &g) in owned[r].iter().enumerate() {
                y_dist[g as usize] = y[slot];
            }
        }
        // Same element loops, different per-row accumulation order across
        // ranks: tolerance, not bitwise (fixed rank layout IS bitwise-
        // reproducible; that is pinned in tests/operator_parity.rs).
        let norm: f64 = y_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (a, b) in y_dist.iter().zip(&y_serial) {
            assert!((a - b).abs() <= 1e-13 * norm.max(1.0));
        }
    }

    #[test]
    fn ragged_mixed_list_is_bitwise_the_per_element_scalar_reference() {
        // A 45-element bar (a multiple of neither 8 nor BATCH) in which
        // four finite-strain Neo-Hookean elements (general class) cut the
        // linear-elastic ones into aligned eight-slot runs, runs broken by
        // a general element, a run straddling the first batch boundary and
        // a short tail — every routing decision of both loop shapes.
        let general = [3usize, 20, 21, 40];
        let mesh = block(45, 1, 1, Vec3::new(45.0, 1.0, 1.0), |c| {
            u32::from(general.contains(&(c.x as usize)))
        });
        let p = FemProblem::new(
            mesh,
            vec![
                Arc::new(LinearElastic::from_e_nu(1.0, 0.3)) as Arc<dyn Material>,
                Arc::new(NeoHookean::from_e_nu(2.0, 0.3)),
            ],
        );
        let n = p.ndof();
        let u: Vec<f64> = (0..n)
            .map(|i| 0.05 * ((i * 7 % 11) as f64 / 11.0 - 0.5))
            .collect();
        let fixed: Vec<u32> = (0..n as u32).step_by(17).collect();
        let op = MatFreeOperator::new(&p, &u, &fixed, 1.5);
        let (kern, d) = (&op.serial, &op.data);
        let (elems, edof) = (&kern.elems_int, 3 * d.nv);
        assert!(elems.len() % ILANES != 0 && elems.len() % BATCH != 0);
        let runs: Vec<usize> = (0..elems.len())
            .filter(|&off| d.aligned_block(elems, off).is_some())
            .collect();
        assert_eq!(runs, [9, 27], "two aligned runs, one across the batch edge");
        for &e in &general {
            assert!(d.elem_slot[e] < 0, "element {e} is general-class");
        }

        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 19) as f64 * 0.2).cos()).collect();
        let mut want = vec![0.0; n];
        for &slot in &kern.fixed_slots {
            want[slot as usize] = d.scale * x[slot as usize];
        }
        let (mut xe, mut ye) = (vec![0.0; edof], vec![0.0; edof]);
        for (pos, &e) in elems.iter().enumerate() {
            let ec = &kern.codes_int[pos * edof..][..edof];
            for (xv, &c) in xe.iter_mut().zip(ec) {
                *xv = if c >= 0 { x[c as usize] } else { 0.0 };
            }
            match d.elem_slot[e as usize] {
                slot if slot >= 0 => d.iso_apply_1(slot as usize, &xe, &mut ye),
                slot => d.full_apply_1_scalar((-slot - 1) as usize, &xe, &mut ye),
            }
            for (&c, &yv) in ec.iter().zip(&ye) {
                if c >= 0 {
                    want[c as usize] += yv;
                }
            }
        }
        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut y = vec![0.0; n];
            pool.install(|| op.apply(&x, &mut y));
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} row={i}");
            }
        }
    }
}

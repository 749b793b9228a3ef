//! Matrix-free application of the constrained tangent stiffness.
//!
//! Instead of assembling CSR/BSR3 and multiplying stored values, the
//! product `y = K̂ x` is computed by an on-the-fly element loop. The
//! operator is linearized once at construction (`respond` runs per Gauss
//! point, exactly as one assembly would) and each element is folded into
//! one of two structure-of-arrays record classes:
//!
//! * **isotropic** — every point's tangent is *bitwise* the elastic tensor
//!   `λ δiJ δkL + μ (δik δJL + δiL δJk)` (every point of the spheres
//!   problem at the first Newton linearization): `[∂N/∂X…, λ·w, μ·w]` per
//!   point (`w = weight · det`), all the closed-form contraction needs;
//! * **general** — any other point: `[∂N/∂X…, 81-component w·A]` per
//!   point, so the operator stays exact at any displacement and history;
//! * inverted points (`det <= 0`) store zeros in either class: the
//!   arithmetic runs but integrates exactly nothing, as the assembler's
//!   skip does.
//!
//! Records are Gauss-transposed (component-major, points adjacent).
//! Isotropic records are also lane-blocked: eight consecutive slots
//! interleave one block (`block[(comp * ngp + gp) * 8 + slot % 8]`).
//!
//! The apply is one loop over the elements in ascending order. An aligned
//! run of eight isotropic elements goes through the lane kernel
//! (`iso_block8`): lane `l` of every `[f64; 8]` accumulator carries
//! element `8b + l` and runs exactly the one-element sequence of
//! `iso_apply_1`, which takes every other isotropic element. A general
//! element goes through `full_apply_1`, eight Gauss points per
//! accumulator and a one-point tail. Gather and scatter go through stack
//! buffers. Both kernels are portable Rust: the per-lane loops over
//! `[f64; 8]` arrays and their explicit `f64::mul_add` calls are what the
//! `target-cpu=native` build (`.cargo/config.toml`) turns into vector
//! fused multiply-adds. Rust never contracts or reassociates on its own,
//! so the bits do not depend on the vector width.
//!
//! Dirichlet rows are treated bitwise identically to
//! [`constrain_system`](crate::bc::constrain_system): constrained sources
//! gather as zero, constrained rows scatter nothing and end as
//! `y[i] = scale · x[i]` with the same [`constraint_scale`](crate::bc::constraint_scale) value.
//!
//! # Determinism
//!
//! The apply runs on the calling thread and every dof receives its element
//! contributions in ascending element order, each element's own sum in
//! ascending Gauss-point order, so the result is bitwise identical for
//! every `PMG_THREADS`. Construction linearizes the points on the pool;
//! each point is computed independently.
//!
//! Telemetry: counts `op/mf_elements` (elements walked), `op/mf_flops`
//! and `op/mf_bytes` (the record bytes each element's class streams,
//! plus its gathered, scattered and mapped values) per apply.

use crate::assembly::FemProblem;
use crate::material::{elastic_tangent, Mat3, MAT3_ZERO};
use crate::shape::MAX_NODES;
use pmg_sparse::op::Operator;
use rayon::prelude::*;

/// Element lanes per isotropic SoA block: eight consecutive slots share one
/// interleaved record so the apply can run eight elements per vector
/// register, each lane executing the one-element sequence.
const ILANES: usize = 8;

/// Gauss points per general-kernel accumulator.
const GP_CHUNK: usize = 8;

/// Per-element dof bound (Hex20: 3 · 20): sizes the apply's stack buffers.
const MAX_EDOF: usize = 3 * MAX_NODES;

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

/// Matrix-free representation of the Dirichlet-constrained tangent
/// stiffness at a fixed linearization state: the whole-domain element loop
/// behind [`Operator`].
pub struct MatFreeOperator {
    nv: usize,
    ngp: usize,
    ndof: usize,
    /// Per element: `>= 0` is an index into the isotropic SoA,
    /// `-(i + 1)` an index into the general SoA.
    elem_slot: Vec<i32>,
    /// Isotropic-class elements, stored in slot-blocked lane interleave:
    /// block `b` holds slots `8b .. 8b+8` with component values
    /// `[g_0 … g_{3nv-1}, λw, μw]` (stride `3nv + 2`) Gauss-transposed and
    /// lane-interleaved — slot `s`'s value of component `c` at point `gp`
    /// lives at `block[(c * ngp + gp) * 8 + s % 8]`. Aligned runs of eight
    /// consecutive slots feed the lane kernel with whole `[f64; 8]` rows;
    /// single-element access indexes the same data with a lane offset.
    /// The tail block and skipped points are all-zero, so the branch-free
    /// loops integrate exactly nothing there.
    iso_soa: Vec<f64>,
    /// General-class elements, same transposition with components
    /// `[g_0 … g_{3nv-1}, 81 weighted tangent components]`
    /// (stride `3nv + 81`).
    full_soa: Vec<f64>,
    /// Per element dof (element-major, `3nv` per element): its global dof,
    /// or `-1` where that dof is constrained — its column gathers as zero
    /// and its row takes no element contribution. One flat load replaces
    /// the connectivity → dof lookup in every gather and scatter.
    codes: Vec<i32>,
    /// Constrained dofs, ascending.
    fixed: Vec<u32>,
    /// Dirichlet row scale (see `bc::constraint_scale`).
    scale: f64,
    diag: Vec<f64>,
    flops: u64,
    /// Estimated bytes one apply streams, summed per element class.
    bytes: u64,
}

impl MatFreeOperator {
    /// Build the operator from a problem's current geometry cache,
    /// linearized at displacement `u` and the committed history.
    /// `fixed` lists constrained dofs and `scale` must be the
    /// [`constraint_scale`](crate::bc::constraint_scale) of the matching
    /// assembled system so Dirichlet rows agree bitwise.
    ///
    /// The shared geometry cache is read during construction and folded —
    /// together with the per-point tangents — into the class SoA buffers;
    /// no reference to it is retained.
    pub fn new(problem: &FemProblem, u: &[f64], fixed: &[u32], scale: f64) -> MatFreeOperator {
        let mesh = &problem.mesh;
        let ndof = mesh.num_dof();
        assert_eq!(u.len(), ndof);
        let nv = mesh.kind.nodes();
        assert!(3 * nv <= MAX_EDOF);
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
                    let iso = elastic_tangent(lam, mu).0 == a4.0;
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
                        GpTan::Full(Box::new(aw))
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

        let mut codes = Vec::with_capacity(ne * 3 * nv);
        for e in 0..ne {
            for &v in mesh.elem(e) {
                for i in 0..3 {
                    let g = 3 * v as usize + i;
                    codes.push(if fixed_mask[g] { -1 } else { g as i32 });
                }
            }
        }
        let fixed: Vec<u32> = (0..ndof as u32)
            .filter(|&g| fixed_mask[g as usize])
            .collect();

        // Flop estimate per apply: gradient build + contraction + scatter
        // per Gauss point (the branch-free loop runs skipped points too — on
        // zeros), plus one product per constrained row.
        let mut flops = fixed.len() as u64;
        for &slot in &elem_slot {
            let contraction = if slot >= 0 { 15 } else { 162 };
            flops += (ngp * (36 * nv + contraction)) as u64;
        }

        // Bytes per apply: each element streams its class's record plus
        // its gathered and scattered values and its dof map, 8 B a value.
        let per_elem = |stride: usize| (8 * (ngp * stride + 2 * 3 * nv + nv)) as u64;
        let bytes = n_iso as u64 * per_elem(iso_stride) + n_full as u64 * per_elem(full_stride);

        let mut op = MatFreeOperator {
            nv,
            ngp,
            ndof,
            elem_slot,
            iso_soa,
            full_soa,
            codes,
            fixed,
            scale,
            diag: Vec::new(),
            flops,
            bytes,
        };
        op.diag = op.assemble_diag();
        op
    }

    /// The diagonal: constrained rows carry `scale`, free rows sum their
    /// elements' contributions, each `ke[d][d]` taken by one unit-vector
    /// element apply (set-up only cost).
    fn assemble_diag(&self) -> Vec<f64> {
        let mut diag = vec![0.0f64; self.ndof];
        for &g in &self.fixed {
            diag[g as usize] = self.scale;
        }
        let edof = 3 * self.nv;
        let mut xe = vec![0.0f64; edof];
        let mut ye = vec![0.0f64; edof];
        for (e, ec) in self.codes.chunks_exact(edof).enumerate() {
            for (d, &c) in ec.iter().enumerate() {
                if c < 0 {
                    continue;
                }
                xe.fill(0.0);
                xe[d] = 1.0;
                self.element_apply(e, &xe, &mut ye);
                diag[c as usize] += ye[d];
            }
        }
        diag
    }

    /// Isotropic slot block `blk`: eight interleaved element records of
    /// `3nv + 2` components per Gauss point.
    fn iso_block(&self, blk: usize) -> &[f64] {
        let len = (3 * self.nv + 2) * self.ngp * ILANES;
        &self.iso_soa[blk * len..][..len]
    }

    /// `ye = ke · xe` for one element, by its class. Isotropic elements
    /// reach this only off an aligned lane run (the hot apply goes through
    /// `iso_block8`).
    #[inline]
    fn element_apply(&self, e: usize, xe: &[f64], ye: &mut [f64]) {
        let slot = self.elem_slot[e];
        if slot >= 0 {
            self.iso_apply_1(slot as usize, xe, ye);
        } else {
            self.full_apply_1((-slot - 1) as usize, xe, ye);
        }
    }

    /// Slot-block index when elements `e0 .. e0 + 8` are exactly the
    /// aligned isotropic lane run `8b .. 8b + 8` — the only shape the
    /// lane kernel accepts. Slots are assigned in ascending element order
    /// at construction, so every stretch of isotropic elements decomposes
    /// into aligned runs plus short single-element edges.
    #[inline]
    fn aligned_block(&self, e0: usize) -> Option<usize> {
        let slots = self.elem_slot.get(e0..e0 + ILANES)?;
        let s0 = slots[0];
        if s0 < 0 || !(s0 as usize).is_multiple_of(ILANES) {
            return None;
        }
        let run = slots.iter().zip(s0..).all(|(&s, want)| s == want);
        run.then_some(s0 as usize / ILANES)
    }

    /// General-class kernel: the 81-component contraction over chunks of
    /// eight Gauss points and a one-point tail, each dof's sum taking its
    /// points in ascending `gp` order from 0.0.
    #[inline]
    fn full_apply_1(&self, slot: usize, xe: &[f64], ye: &mut [f64]) {
        let ngp = self.ngp;
        let len = (3 * self.nv + 81) * ngp;
        let rec = &self.full_soa[slot * len..][..len];
        ye.fill(0.0);
        let mut base = 0;
        while base + GP_CHUNK <= ngp {
            full_points::<GP_CHUNK>(ngp, base, rec, xe, ye);
            base += GP_CHUNK;
        }
        for gp in base..ngp {
            full_points::<1>(ngp, gp, rec, xe, ye);
        }
    }

    /// Single isotropic element: the one-element sequence every lane of
    /// `iso_block8` replicates.
    fn iso_apply_1(&self, slot: usize, xe: &[f64], ye: &mut [f64]) {
        let nv = self.nv;
        let ngp = self.ngp;
        let rec = self.iso_block(slot / ILANES);
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

/// Lane kernel: eight isotropic elements (one slot block `rec`), dof `j`
/// of lane `l` at `xe8[j][l]`. Every operation is lane-wise, and lane
/// `l`'s sequence — gradient accumulation in ascending `b` order,
/// stress with the per-point trace, products joining each dof's sum in
/// ascending `gp` order from 0.0 — is exactly `iso_apply_1`'s, so each
/// lane's bits equal the one-element product.
fn iso_block8(
    nv: usize,
    ngp: usize,
    rec: &[f64],
    xe8: &[[f64; ILANES]],
    ye8: &mut [[f64; ILANES]],
) {
    // Component `c` at point `gp`, one value per lane.
    let row = |c: usize, gp: usize| -> &[f64; ILANES] {
        rec[(c * ngp + gp) * ILANES..][..ILANES]
            .try_into()
            .expect("one lane row")
    };
    ye8.fill([0.0; ILANES]);
    for gp in 0..ngp {
        let mut gm = [[0.0f64; ILANES]; 9];
        for (b, xb) in xe8.chunks_exact(3).enumerate() {
            for (r, xr) in xb.iter().enumerate() {
                for l in 0..3 {
                    let (g, dst) = (row(3 * b + l, gp), &mut gm[r * 3 + l]);
                    for c in 0..ILANES {
                        dst[c] = xr[c].mul_add(g[c], dst[c]);
                    }
                }
            }
        }
        let (lw, mw) = (row(3 * nv, gp), row(3 * nv + 1, gp));
        let mut s = [[0.0f64; ILANES]; 9];
        for i in 0..3 {
            for j in 0..3 {
                for c in 0..ILANES {
                    s[i * 3 + j][c] = mw[c] * (gm[i * 3 + j][c] + gm[j * 3 + i][c]);
                }
            }
        }
        for c in 0..ILANES {
            let tr = gm[0][c] + gm[4][c] + gm[8][c];
            for i in 0..3 {
                s[i * 4][c] = lw[c].mul_add(tr, s[i * 4][c]);
            }
        }
        for (a, ya) in ye8.chunks_exact_mut(3).enumerate() {
            let ga = [row(3 * a, gp), row(3 * a + 1, gp), row(3 * a + 2, gp)];
            for (i, yi) in ya.iter_mut().enumerate() {
                for c in 0..ILANES {
                    yi[c] += s[i * 3 + 2][c].mul_add(
                        ga[2][c],
                        s[i * 3 + 1][c].mul_add(ga[1][c], s[i * 3][c] * ga[0][c]),
                    );
                }
            }
        }
    }
}

/// Gauss points `base .. base + W` of one general record (`3nv` gradient
/// rows then 81 weighted-tangent rows, `ngp` points each): their products
/// join each `ye` dof's sum in ascending point order. Kept out of line:
/// inlined into the class dispatch it compiles to slower vector code.
#[inline(never)]
fn full_points<const W: usize>(ngp: usize, base: usize, rec: &[f64], xe: &[f64], ye: &mut [f64]) {
    // Component `c` at the chunk's points.
    let row = |c: usize| -> &[f64; W] {
        rec[c * ngp + base..][..W]
            .try_into()
            .expect("one chunk row")
    };
    // Input-field gradient G[r][l] = Σ_b xe[3b+r] ∂N_b/∂X_l.
    let mut gm = [[0.0f64; W]; 9];
    for (b, xb) in xe.chunks_exact(3).enumerate() {
        for (r, &xr) in xb.iter().enumerate() {
            for l in 0..3 {
                let (g, dst) = (row(3 * b + l), &mut gm[r * 3 + l]);
                for c in 0..W {
                    dst[c] = xr.mul_add(g[c], dst[c]);
                }
            }
        }
    }
    // S[iJ] = Σ_kL wA[iJ][kL] G[kL].
    let aw = xe.len();
    let mut s = [[0.0f64; W]; 9];
    for (ij, sij) in s.iter_mut().enumerate() {
        for (kl, gkl) in gm.iter().enumerate() {
            let a = row(aw + ij * 9 + kl);
            for c in 0..W {
                sij[c] = a[c].mul_add(gkl[c], sij[c]);
            }
        }
    }
    // ye[3a+i] += Σ_J S[i][J] ∂N_a/∂X_J, one point after another.
    for (a, ya) in ye.chunks_exact_mut(3).enumerate() {
        let ga = [row(3 * a), row(3 * a + 1), row(3 * a + 2)];
        for (i, yi) in ya.iter_mut().enumerate() {
            let mut t = [0.0f64; W];
            for c in 0..W {
                t[c] = s[i * 3 + 2][c].mul_add(
                    ga[2][c],
                    s[i * 3 + 1][c].mul_add(ga[1][c], s[i * 3][c] * ga[0][c]),
                );
            }
            for tc in t {
                *yi += tc;
            }
        }
    }
}

impl Operator for MatFreeOperator {
    fn nrows(&self) -> usize {
        self.ndof
    }

    fn ncols(&self) -> usize {
        self.ndof
    }

    /// One pass over the elements in ascending order: aligned isotropic
    /// runs through the lane kernel, every other element through its class
    /// kernel, each contribution scattered as soon as it is computed.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ndof);
        assert_eq!(y.len(), self.ndof);
        y.fill(0.0);
        for &g in &self.fixed {
            y[g as usize] = self.scale * x[g as usize];
        }
        let edof = 3 * self.nv;
        let ne = self.elem_slot.len();
        // A constrained column gathers as zero; a constrained row takes no
        // element contribution.
        let source = |c: i32| if c >= 0 { x[c as usize] } else { 0.0 };
        let mut xe8 = [[0.0f64; ILANES]; MAX_EDOF];
        let mut ye8 = [[0.0f64; ILANES]; MAX_EDOF];
        let (mut xe, mut ye) = ([0.0f64; MAX_EDOF], [0.0f64; MAX_EDOF]);
        let mut e = 0;
        while e < ne {
            if let Some(blk) = self.aligned_block(e) {
                let run = &self.codes[e * edof..][..ILANES * edof];
                for (j, xj) in xe8[..edof].iter_mut().enumerate() {
                    for (l, xv) in xj.iter_mut().enumerate() {
                        *xv = source(run[l * edof + j]);
                    }
                }
                let rec = self.iso_block(blk);
                iso_block8(self.nv, self.ngp, rec, &xe8[..edof], &mut ye8[..edof]);
                // Lane by lane, in ascending element order: the same
                // `y[c] += yv` sequence as eight one-element steps.
                for (l, ec) in run.chunks_exact(edof).enumerate() {
                    for (&c, yj) in ec.iter().zip(&ye8) {
                        if c >= 0 {
                            y[c as usize] += yj[l];
                        }
                    }
                }
                e += ILANES;
            } else {
                let ec = &self.codes[e * edof..][..edof];
                for (xv, &c) in xe.iter_mut().zip(ec) {
                    *xv = source(c);
                }
                self.element_apply(e, &xe[..edof], &mut ye[..edof]);
                for (&c, &yv) in ec.iter().zip(&ye) {
                    if c >= 0 {
                        y[c as usize] += yv;
                    }
                }
                e += 1;
            }
        }
        pmg_telemetry::counter_add("op/mf_elements", ne as u64);
        pmg_telemetry::counter_add("op/mf_bytes", self.bytes);
        pmg_telemetry::counter_add("op/mf_flops", self.flops);
    }

    fn diag(&self) -> Vec<f64> {
        self.diag.clone()
    }

    fn memory_bytes(&self) -> u64 {
        // The folded SoA buffers are what the apply streams (they subsume
        // the geometry cache reads and the tangent table), plus the class
        // map, the per-element dof codes, the constrained rows and the
        // diagonal.
        (self.iso_soa.len() * 8
            + self.full_soa.len() * 8
            + self.elem_slot.len() * 4
            + self.codes.len() * 4
            + self.fixed.len() * 4
            + self.diag.len() * 8) as u64
    }

    fn flops_per_apply(&self) -> u64 {
        self.flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{constrain_system, constraint_scale};
    use crate::material::{J2Plasticity, LinearElastic, Material, NeoHookean};
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::block;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Telemetry is process-global: every test here that applies holds
    /// this, so the counter test sees only its own apply.
    fn apply_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

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
        let _g = apply_guard();
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
        let _g = apply_guard();
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
        let _g = apply_guard();
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
        let _g = apply_guard();
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

    /// A 45-element bar (not a multiple of 8) in which four finite-strain
    /// Neo-Hookean elements (general class) cut the linear-elastic ones
    /// into aligned eight-slot runs, runs broken by a general element, and
    /// a short tail.
    const GENERAL: [usize; 4] = [3, 20, 21, 40];

    fn mixed_bar() -> MatFreeOperator {
        let mesh = block(45, 1, 1, Vec3::new(45.0, 1.0, 1.0), |c| {
            u32::from(GENERAL.contains(&(c.x as usize)))
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
        MatFreeOperator::new(&p, &u, &fixed, 1.5)
    }

    #[test]
    fn ragged_mixed_list_is_bitwise_the_per_element_scalar_reference() {
        // Every routing decision of the one loop: aligned runs, broken
        // runs, general elements and the tail.
        let _g = apply_guard();
        let op = mixed_bar();
        let (ne, edof, n) = (op.elem_slot.len(), 3 * op.nv, op.ndof);
        assert!(ne % ILANES != 0);
        let runs: Vec<usize> = (0..ne).filter(|&e| op.aligned_block(e).is_some()).collect();
        assert_eq!(runs, [9, 27], "two aligned runs");
        for &e in &GENERAL {
            assert!(op.elem_slot[e] < 0, "element {e} is general-class");
        }

        let x: Vec<f64> = (0..n).map(|i| ((i * 31 % 19) as f64 * 0.2).cos()).collect();
        let mut want = vec![0.0; n];
        for &g in &op.fixed {
            want[g as usize] = op.scale * x[g as usize];
        }
        let (mut xe, mut ye) = (vec![0.0; edof], vec![0.0; edof]);
        for (e, ec) in op.codes.chunks_exact(edof).enumerate() {
            for (xv, &c) in xe.iter_mut().zip(ec) {
                *xv = if c >= 0 { x[c as usize] } else { 0.0 };
            }
            op.element_apply(e, &xe, &mut ye);
            for (&c, &yv) in ec.iter().zip(&ye) {
                if c >= 0 {
                    want[c as usize] += yv;
                }
            }
        }
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for (i, (a, b)) in y.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    #[test]
    fn byte_counter_charges_each_element_its_class_record() {
        // Hex8, 8 Gauss points: an isotropic element streams 8 · (3·8 + 2)
        // record values, a general one 8 · (3·8 + 81); each also moves its
        // 24 gathered and 24 scattered values and 8 map values.
        let _g = apply_guard();
        let op = mixed_bar();
        let iso = 8 * (8 * 26 + 2 * 24 + 8);
        let full = 8 * (8 * 105 + 2 * 24 + 8);
        let want = 41 * iso + 4 * full;
        let counted = || {
            pmg_telemetry::snapshot()
                .counters
                .get("op/mf_bytes")
                .copied()
                .unwrap_or(0)
        };
        let x = vec![1.0; op.ndof];
        let mut y = vec![0.0; op.ndof];
        pmg_telemetry::set_enabled(true);
        let before = counted();
        op.apply(&x, &mut y);
        let delta = counted() - before;
        pmg_telemetry::set_enabled(false);
        assert_eq!(delta, want);
    }
}

//! Symbolic/numeric split for the Galerkin triple product `R A Rᵀ`.
//!
//! [`CsrMatrix::rap`] redoes the full symbolic Gustavson machinery — hash
//! markers, per-row sorts, a fresh transpose of `R` — on every call, even
//! though the repeated-solve paths (Newton re-linearization, operator
//! updates after a rediscretization) change only `A`'s *values*, never its
//! *pattern*. A [`RapPlan`] runs that symbolic phase once: it fixes the
//! output patterns of `RA` and `R A Rᵀ` and flattens every scalar
//! contribution into gather lists
//!
//! ```text
//! stage 1:  RA[t]  = Σ_p  coeff₁[p] · A.vals[src₁[p]]    (coeff₁ = R values)
//! stage 2:  C[t]   = Σ_p  coeff₂[p] · RA[src₂[p]]        (coeff₂ = Rᵀ values)
//! ```
//!
//! so re-executing for a new `A` with the same pattern is a pure
//! multiply-accumulate sweep in O(flops of the product) with no hashing,
//! no sorting, no allocation beyond the output values. `Rᵀ` is folded into
//! the stage-2 coefficients at plan time, so it is never re-transposed.
//!
//! Telemetry: building a plan counts `rap/plan_build`, each numeric
//! re-execution counts `rap/plan_reuse` — the reuse the paper's nonlinear
//! runs (Fig. 13) depend on is thereby observable and testable.

use crate::csr::CsrMatrix;
use crate::flops;
use rayon::prelude::*;

/// One planned sparse product stage: output pattern plus a flat
/// contribution gather list (`offsets[t]..offsets[t+1]` are output entry
/// `t`'s contributions).
struct PlannedProduct {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    offsets: Vec<usize>,
    /// Fixed multiplier of each contribution (an `R` or `Rᵀ` value).
    coeff: Vec<f64>,
    /// Index of the varying factor (into `A.vals` for stage 1, into the
    /// stage-1 output for stage 2).
    src: Vec<u32>,
}

impl PlannedProduct {
    fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Numeric phase: gather-multiply-accumulate into `out`.
    fn execute(&self, src_vals: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nnz());
        out.par_iter_mut().enumerate().for_each(|(t, o)| {
            let mut acc = 0.0;
            for p in self.offsets[t]..self.offsets[t + 1] {
                acc += self.coeff[p] * src_vals[self.src[p] as usize];
            }
            *o = acc;
        });
        flops::add(2 * self.coeff.len() as u64);
    }
}

/// Group a per-row contribution buffer `(out_col, coeff, src)` — sorted by
/// output column — into the planned product's flat arrays.
fn flush_row(
    buf: &mut [(usize, f64, u32)],
    col_idx: &mut Vec<usize>,
    offsets: &mut Vec<usize>,
    coeff: &mut Vec<f64>,
    src: &mut Vec<u32>,
) {
    buf.sort_unstable_by_key(|&(j, _, _)| j);
    let mut p = 0;
    while p < buf.len() {
        let j = buf[p].0;
        col_idx.push(j);
        while p < buf.len() && buf[p].0 == j {
            coeff.push(buf[p].1);
            src.push(buf[p].2);
            p += 1;
        }
        offsets.push(coeff.len());
    }
}

/// Identity of a CSR sparsity pattern: the row count, the stored-entry
/// count, and an FNV-1a hash of the full `(row lengths, column indices)`
/// structure — explicitly *not* of the values. The key the symbolic caches
/// ([`RapPlan`], the block-Jacobi smoother's block plan) hold to detect
/// pattern drift between numeric re-executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternFingerprint {
    rows: usize,
    nnz: usize,
    hash: u64,
}

impl PatternFingerprint {
    /// Fingerprint `a`'s pattern.
    pub fn of(a: &CsrMatrix) -> PatternFingerprint {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |x: usize| {
            h ^= x as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        eat(a.nrows());
        eat(a.ncols());
        for i in 0..a.nrows() {
            let (cols, _) = a.row(i);
            eat(cols.len());
            for &j in cols {
                eat(j);
            }
        }
        PatternFingerprint {
            rows: a.nrows(),
            nnz: a.nnz(),
            hash: h,
        }
    }

    /// Whether `a` has exactly the fingerprinted pattern (the cheap shape
    /// comparison runs first; the hash only when it passes).
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        a.nrows() == self.rows && a.nnz() == self.nnz && *self == PatternFingerprint::of(a)
    }
}

/// A reusable execution plan for the Galerkin triple product
/// `A_c = R A Rᵀ` with `R` frozen and `A`'s sparsity pattern fixed.
///
/// # Invalidation invariant
///
/// A plan is valid **only** for operators whose sparsity pattern is
/// identical to the `A` it was built from; the values may change freely.
/// Validity is checked by [`RapPlan::matches`], which compares the row
/// count, the stored-nonzero count, and an FNV-1a fingerprint of the full
/// `(row lengths, column indices)` structure — explicitly *not* of the
/// values, so Newton re-linearizations on a fixed mesh always reuse the
/// plan. Anything that changes the pattern — remeshing, a different
/// drop-tolerance, a new restriction `R` — must rebuild the plan (callers
/// like `MgHierarchy::update_operator` do this transparently when
/// `matches` returns false). [`RapPlan::execute`] asserts the invariant
/// and panics on a non-matching operator rather than gathering values
/// from stale offsets.
///
/// ```
/// use pmg_sparse::{CooBuilder, RapPlan};
/// let mut b = CooBuilder::new(2, 2);
/// b.push(0, 0, 2.0);
/// b.push(0, 1, -1.0);
/// b.push(1, 1, 3.0);
/// let a = b.build();
/// let mut rb = CooBuilder::new(1, 2);
/// rb.push(0, 0, 1.0);
/// rb.push(0, 1, 0.5);
/// let r = rb.build();
/// let mut plan = RapPlan::new(&a, &r);
/// let ac = plan.execute(&a);
/// assert!((ac.get(0, 0) - a.rap(&r).get(0, 0)).abs() < 1e-14);
/// ```
pub struct RapPlan {
    /// Pattern of the `A` the plan was built for.
    a_pattern: PatternFingerprint,
    stage1: PlannedProduct,
    stage2: PlannedProduct,
    /// Scratch for the stage-1 output values (reused across executions).
    ra_vals: Vec<f64>,
}

impl RapPlan {
    /// Symbolic phase: fix the output patterns and gather lists for
    /// `R A Rᵀ` from `A`'s pattern (values are ignored) and `R`. `Rᵀ` is
    /// formed once here and folded into the plan.
    pub fn new(a: &CsrMatrix, r: &CsrMatrix) -> RapPlan {
        assert_eq!(a.nrows(), a.ncols(), "A must be square");
        assert_eq!(r.ncols(), a.nrows(), "R columns must match A");
        pmg_telemetry::counter_add("rap/plan_build", 1);

        // Stage 1: RA = R · A. Frozen coefficients are R's values; the
        // varying factor indexes straight into A.vals.
        let a_row_ptr = a.row_ptr();
        let a_col_idx = a.col_idx();
        let nc = r.nrows();
        let stage1 = {
            let mut row_ptr = Vec::with_capacity(nc + 1);
            row_ptr.push(0usize);
            let mut col_idx = Vec::new();
            let mut offsets = vec![0usize];
            let mut coeff = Vec::new();
            let mut src = Vec::new();
            let mut buf: Vec<(usize, f64, u32)> = Vec::new();
            for c in 0..nc {
                buf.clear();
                let (rcols, rvals) = r.row(c);
                for (&k, &rv) in rcols.iter().zip(rvals) {
                    for p in a_row_ptr[k]..a_row_ptr[k + 1] {
                        buf.push((a_col_idx[p], rv, p as u32));
                    }
                }
                flush_row(&mut buf, &mut col_idx, &mut offsets, &mut coeff, &mut src);
                row_ptr.push(col_idx.len());
            }
            PlannedProduct {
                nrows: nc,
                ncols: a.ncols(),
                row_ptr,
                col_idx,
                offsets,
                coeff,
                src,
            }
        };

        // Stage 2: C = RA · Rᵀ. Frozen coefficients are Rᵀ's values; the
        // varying factor indexes into the stage-1 output.
        let rt = r.transpose();
        let stage2 = {
            let mut row_ptr = Vec::with_capacity(nc + 1);
            row_ptr.push(0usize);
            let mut col_idx = Vec::new();
            let mut offsets = vec![0usize];
            let mut coeff = Vec::new();
            let mut src = Vec::new();
            let mut buf: Vec<(usize, f64, u32)> = Vec::new();
            for c in 0..nc {
                buf.clear();
                for t in stage1.row_ptr[c]..stage1.row_ptr[c + 1] {
                    let k = stage1.col_idx[t]; // fine column of RA entry t
                    let (tcols, tvals) = rt.row(k);
                    for (&j, &rv) in tcols.iter().zip(tvals) {
                        buf.push((j, rv, t as u32));
                    }
                }
                flush_row(&mut buf, &mut col_idx, &mut offsets, &mut coeff, &mut src);
                row_ptr.push(col_idx.len());
            }
            PlannedProduct {
                nrows: nc,
                ncols: rt.ncols(),
                row_ptr,
                col_idx,
                offsets,
                coeff,
                src,
            }
        };

        let ra_vals = vec![0.0; stage1.nnz()];
        RapPlan {
            a_pattern: PatternFingerprint::of(a),
            stage1,
            stage2,
            ra_vals,
        }
    }

    /// Whether `a` has the exact sparsity pattern this plan was built for.
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        self.a_pattern.matches(a)
    }

    /// Numeric phase: compute `R A Rᵀ` for a new `A` with the planned
    /// pattern. Panics if the pattern changed — callers that cannot
    /// guarantee stability should guard with [`RapPlan::matches`] and
    /// rebuild.
    pub fn execute(&mut self, a: &CsrMatrix) -> CsrMatrix {
        assert!(
            self.matches(a),
            "RapPlan::execute: A's sparsity pattern changed since the plan \
             was built (rebuild with RapPlan::new)"
        );
        pmg_telemetry::counter_add("rap/plan_reuse", 1);
        self.stage1.execute(a.vals(), &mut self.ra_vals);
        let mut c_vals = vec![0.0; self.stage2.nnz()];
        self.stage2.execute(&self.ra_vals, &mut c_vals);
        CsrMatrix::from_parts(
            self.stage2.nrows,
            self.stage2.ncols,
            self.stage2.row_ptr.clone(),
            self.stage2.col_idx.clone(),
            c_vals,
        )
    }
}

/// Owned Galerkin rows from purely **local** row sets — the kernel of the
/// sharded setup path, where no rank ever holds the full `A` or `R`.
///
/// Inputs are row subsets with *global* column ids:
///
/// * `r_rows` — the owned coarse rows of the restriction `R` (one local
///   row per owned coarse row, in owned order; `ncols` = global fine).
/// * `a_row_ids` / `a_rows` — the fine operator rows this rank holds
///   (owned plus fetched), ids strictly ascending, one CSR row per id.
///   Every fine column of `r_rows` must appear in `a_row_ids`.
/// * `rt_row_ids` / `rt_rows` — rows of the **full** transpose `Rᵀ` (each
///   carrying every coarse row touching that fine row, ascending — not
///   just this rank's), ids strictly ascending. Every fine column of the
///   held `A` rows reachable from `r_rows` must appear; a superset is
///   fine, unused rows are ignored.
///
/// Returns the owned coarse rows of `R·A·Rᵀ` (`ncols` = global coarse).
///
/// # Bitwise contract
///
/// Each output row runs the exact [`RapPlan`] machinery on the local row
/// sets: the stage-1/stage-2 contribution buffers are filled in the same
/// order as [`RapPlan::new`] (`R` row columns ascending × `A` row entries
/// in stored order, then `RA` entries ascending × `Rᵀ` row entries in
/// stored order), grouped by the same unstable sort (whose permutation
/// depends only on the — identical — output-column sequence), and
/// accumulated in the same order as [`RapPlan::execute`]. The output
/// values are therefore **bitwise identical** to the corresponding row
/// segments of the full planned product; the partition tests and the
/// ownership-map proptest below pin this.
pub fn rap_local_rows(
    r_rows: &CsrMatrix,
    a_row_ids: &[u32],
    a_rows: &CsrMatrix,
    rt_row_ids: &[u32],
    rt_rows: &CsrMatrix,
) -> CsrMatrix {
    assert_eq!(a_rows.nrows(), a_row_ids.len(), "one A row per id");
    assert_eq!(rt_rows.nrows(), rt_row_ids.len(), "one Rᵀ row per id");
    assert_eq!(r_rows.ncols(), a_rows.ncols(), "R columns must match A");
    debug_assert!(a_row_ids.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(rt_row_ids.windows(2).all(|w| w[0] < w[1]));

    let nl = r_rows.nrows();
    let a_row_ptr = a_rows.row_ptr();
    let a_col_idx = a_rows.col_idx();
    let a_vals = a_rows.vals();

    let mut out_row_ptr = Vec::with_capacity(nl + 1);
    out_row_ptr.push(0usize);
    let mut out_cols: Vec<usize> = Vec::new();
    let mut out_vals: Vec<f64> = Vec::new();

    // Per-row scratch, cleared between rows: the same shapes RapPlan's
    // symbolic stages use, so flush_row sees the identical contribution
    // sequence per row.
    let mut buf: Vec<(usize, f64, u32)> = Vec::new();
    let mut s_cols: Vec<usize> = Vec::new();
    let mut s_offsets: Vec<usize> = Vec::new();
    let mut s_coeff: Vec<f64> = Vec::new();
    let mut s_src: Vec<u32> = Vec::new();
    let mut ra_vals: Vec<f64> = Vec::new();
    let mut contribs = 0u64;

    for lc in 0..nl {
        // Stage 1 symbolic: R row columns ascending, then that A row's
        // entries in stored order; src indexes this rank's flat A values.
        buf.clear();
        s_cols.clear();
        s_offsets.clear();
        s_offsets.push(0);
        s_coeff.clear();
        s_src.clear();
        let (rcols, rvals) = r_rows.row(lc);
        for (&k, &rv) in rcols.iter().zip(rvals) {
            let lk = a_row_ids
                .binary_search(&(k as u32))
                .unwrap_or_else(|_| panic!("rap_local_rows: A row {k} not held locally"));
            for p in a_row_ptr[lk]..a_row_ptr[lk + 1] {
                buf.push((a_col_idx[p], rv, p as u32));
            }
        }
        flush_row(
            &mut buf,
            &mut s_cols,
            &mut s_offsets,
            &mut s_coeff,
            &mut s_src,
        );

        // Stage 1 numeric: this row's RA values, in output-entry order.
        ra_vals.clear();
        for t in 0..s_cols.len() {
            let mut acc = 0.0;
            for p in s_offsets[t]..s_offsets[t + 1] {
                acc += s_coeff[p] * a_vals[s_src[p] as usize];
            }
            ra_vals.push(acc);
            contribs += (s_offsets[t + 1] - s_offsets[t]) as u64;
        }
        let s1_cols: Vec<usize> = s_cols.clone();

        // Stage 2 symbolic: RA entries ascending × full Rᵀ rows in stored
        // order; src indexes this row's stage-1 output.
        buf.clear();
        s_cols.clear();
        s_offsets.clear();
        s_offsets.push(0);
        s_coeff.clear();
        s_src.clear();
        for (t, &k) in s1_cols.iter().enumerate() {
            let lk = rt_row_ids
                .binary_search(&(k as u32))
                .unwrap_or_else(|_| panic!("rap_local_rows: Rᵀ row {k} not held locally"));
            let (tcols, tvals) = rt_rows.row(lk);
            for (&j, &rv) in tcols.iter().zip(tvals) {
                buf.push((j, rv, t as u32));
            }
        }
        flush_row(
            &mut buf,
            &mut s_cols,
            &mut s_offsets,
            &mut s_coeff,
            &mut s_src,
        );

        // Stage 2 numeric straight into the output row.
        for t in 0..s_cols.len() {
            let mut acc = 0.0;
            for p in s_offsets[t]..s_offsets[t + 1] {
                acc += s_coeff[p] * ra_vals[s_src[p] as usize];
            }
            out_vals.push(acc);
            contribs += (s_offsets[t + 1] - s_offsets[t]) as u64;
        }
        out_cols.extend_from_slice(&s_cols);
        out_row_ptr.push(out_cols.len());
    }
    flops::add(2 * contribs);
    pmg_telemetry::counter_add("rap/local_rows", nl as u64);
    CsrMatrix::from_parts(nl, rt_rows.ncols(), out_row_ptr, out_cols, out_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_sym(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 4.0 + rng.gen_range(0.0..1.0));
            for _ in 0..per_row {
                let j = rng.gen_range(0..n);
                let v = rng.gen_range(-1.0..1.0);
                b.push(i, j, v);
                b.push(j, i, v);
            }
        }
        b.build()
    }

    fn random_restriction(nc: usize, nf: usize, seed: u64) -> CsrMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = CooBuilder::new(nc, nf);
        for c in 0..nc {
            b.push(c, c * nf / nc, 1.0);
            for _ in 0..3 {
                b.push(c, rng.gen_range(0..nf), rng.gen_range(0.0..1.0));
            }
        }
        b.build()
    }

    #[test]
    fn plan_matches_unplanned_rap() {
        let a = random_sym(60, 4, 7);
        let r = random_restriction(20, 60, 8);
        let reference = a.rap(&r);
        let mut plan = RapPlan::new(&a, &r);
        let planned = plan.execute(&a);
        assert_eq!(planned.nrows(), reference.nrows());
        assert_eq!(planned.nnz(), reference.nnz());
        for ((i1, j1, v1), (i2, j2, v2)) in planned.iter().zip(reference.iter()) {
            assert_eq!((i1, j1), (i2, j2));
            assert!((v1 - v2).abs() < 1e-12, "({i1},{j1}): {v1} vs {v2}");
        }
    }

    #[test]
    fn reexecution_tracks_new_values() {
        let a = random_sym(40, 3, 11);
        let r = random_restriction(13, 40, 12);
        let mut plan = RapPlan::new(&a, &r);
        let _ = plan.execute(&a);
        // Same pattern, new values.
        let mut a2 = a.clone();
        a2.scale(std::f64::consts::PI);
        assert!(plan.matches(&a2));
        let planned = plan.execute(&a2);
        let reference = a2.rap(&r);
        for ((_, _, v1), (_, _, v2)) in planned.iter().zip(reference.iter()) {
            assert!((v1 - v2).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_change_detected() {
        let a = random_sym(30, 3, 21);
        let r = random_restriction(10, 30, 22);
        let plan = RapPlan::new(&a, &r);
        // Different pattern: extra entry.
        let mut b = CooBuilder::new(30, 30);
        for (i, j, v) in a.iter() {
            b.push(i, j, v);
        }
        b.push(0, 29, 1e-9);
        b.push(29, 0, 1e-9);
        let a2 = b.build();
        assert!(!plan.matches(&a2));
    }

    #[test]
    fn identity_restriction_reproduces_a() {
        let a = random_sym(25, 3, 31);
        let r = CsrMatrix::identity(25);
        let mut plan = RapPlan::new(&a, &r);
        let c = plan.execute(&a);
        assert_eq!(c.nnz(), a.nnz());
        for ((i1, j1, v1), (i2, j2, v2)) in c.iter().zip(a.iter()) {
            assert_eq!((i1, j1), (i2, j2));
            assert!((v1 - v2).abs() < 1e-13);
        }
    }

    /// Assemble the local-row-set inputs of [`rap_local_rows`] for a rank
    /// owning coarse rows `owned` (global `a`, `r` in hand — test-side
    /// only; the production path ships the rows instead).
    fn local_inputs(
        a: &CsrMatrix,
        r: &CsrMatrix,
        rt: &CsrMatrix,
        owned: &[u32],
    ) -> (CsrMatrix, Vec<u32>, CsrMatrix, Vec<u32>, CsrMatrix) {
        let r_rows = r.extract_rows(owned);
        let mut a_ids: Vec<u32> = r_rows.col_idx().iter().map(|&k| k as u32).collect();
        a_ids.sort_unstable();
        a_ids.dedup();
        let a_rows = a.extract_rows(&a_ids);
        let mut rt_ids: Vec<u32> = a_rows.col_idx().iter().map(|&k| k as u32).collect();
        rt_ids.sort_unstable();
        rt_ids.dedup();
        let rt_rows = rt.extract_rows(&rt_ids);
        (r_rows, a_ids, a_rows, rt_ids, rt_rows)
    }

    #[test]
    fn local_rows_are_bitwise_planned_rows() {
        // The sharded-RAP contract: a rank holding only its owned R rows,
        // the referenced A rows, and the referenced full Rᵀ rows computes
        // exactly its rows of the full planned product.
        let a = random_sym(50, 4, 17);
        let r = random_restriction(18, 50, 18);
        let rt = r.transpose();
        let mut plan = RapPlan::new(&a, &r);
        let full = plan.execute(&a);
        for nparts in [1usize, 2, 3, 5] {
            for part in 0..nparts {
                let owned: Vec<u32> = (0..r.nrows() as u32)
                    .filter(|c| *c as usize % nparts == part)
                    .collect();
                let (r_rows, a_ids, a_rows, rt_ids, rt_rows) = local_inputs(&a, &r, &rt, &owned);
                let local = rap_local_rows(&r_rows, &a_ids, &a_rows, &rt_ids, &rt_rows);
                assert_eq!(local.nrows(), owned.len());
                assert_eq!(local.ncols(), r.nrows());
                for (lc, &c) in owned.iter().enumerate() {
                    let (gcols, gvals) = full.row(c as usize);
                    let (lcols, lvals) = local.row(lc);
                    assert_eq!(lcols, gcols, "row {c} pattern (nparts={nparts})");
                    for (x, y) in lvals.iter().zip(gvals) {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn local_rows_empty_rank_is_empty() {
        let a = random_sym(30, 3, 5);
        let r = random_restriction(10, 30, 6);
        let rt = r.transpose();
        let (r_rows, a_ids, a_rows, rt_ids, rt_rows) = local_inputs(&a, &r, &rt, &[]);
        let local = rap_local_rows(&r_rows, &a_ids, &a_rows, &rt_ids, &rt_rows);
        assert_eq!(local.nrows(), 0);
        assert_eq!(local.nnz(), 0);
    }

    #[test]
    fn local_rows_tolerate_superset_row_sets() {
        // Extra A / Rᵀ rows beyond the needed closure must not change a
        // single bit (the ingest path ships an adjacency superset).
        let a = random_sym(40, 4, 9);
        let r = random_restriction(14, 40, 10);
        let rt = r.transpose();
        let owned: Vec<u32> = vec![2, 3, 7, 11];
        let want = RapPlan::new(&a, &r).execute(&a).extract_rows(&owned);
        let r_rows = r.extract_rows(&owned);
        let all: Vec<u32> = (0..40).collect();
        let a_rows = a.extract_rows(&all);
        let rt_rows = rt.extract_rows(&all);
        let local = rap_local_rows(&r_rows, &all, &a_rows, &all, &rt_rows);
        assert_eq!(local.nnz(), want.nnz());
        for (x, y) in local.vals().iter().zip(want.vals()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_local_rows_cover_full_product(
            seed in 0u64..1000,
            owner in proptest::collection::vec(0u32..4, 12),
        ) {
            // Arbitrary ownership maps — including ranks owning nothing —
            // tile the full planned product bitwise.
            let a = random_sym(36, 3, seed);
            let r = random_restriction(12, 36, seed.wrapping_add(1));
            let rt = r.transpose();
            let mut plan = RapPlan::new(&a, &r);
            let full = plan.execute(&a);
            let mut seen = vec![false; full.nnz()];
            for rank in 0..4u32 {
                let owned: Vec<u32> = (0..12u32)
                    .filter(|c| owner[*c as usize] == rank)
                    .collect();
                let (r_rows, a_ids, a_rows, rt_ids, rt_rows) =
                    local_inputs(&a, &r, &rt, &owned);
                let local = rap_local_rows(&r_rows, &a_ids, &a_rows, &rt_ids, &rt_rows);
                for (lc, &c) in owned.iter().enumerate() {
                    let rng = full.row_ptr()[c as usize]..full.row_ptr()[c as usize + 1];
                    let (lcols, lvals) = local.row(lc);
                    let (gcols, _) = full.row(c as usize);
                    prop_assert_eq!(lcols, gcols);
                    for (k, &v) in rng.clone().zip(lvals) {
                        prop_assert_eq!(v.to_bits(), full.vals()[k].to_bits());
                        seen[k] = true;
                    }
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "ownership map must tile all rows");
        }

        #[test]
        fn prop_plan_equals_rap(
            entries in proptest::collection::vec(
                (0usize..10, 0usize..10, -5.0f64..5.0), 1..60),
            r_entries in proptest::collection::vec(
                (0usize..4, 0usize..10, -2.0f64..2.0), 1..20),
        ) {
            let mut b = CooBuilder::new(10, 10);
            for (i, j, v) in entries {
                b.push(i, j, v);
            }
            let a = b.build();
            let mut rb = CooBuilder::new(4, 10);
            for (i, j, v) in r_entries {
                rb.push(i, j, v);
            }
            let r = rb.build();
            let reference = a.rap(&r);
            let mut plan = RapPlan::new(&a, &r);
            let planned = plan.execute(&a);
            prop_assert_eq!(planned.nrows(), reference.nrows());
            prop_assert_eq!(planned.nnz(), reference.nnz());
            for ((i1, j1, v1), (i2, j2, v2)) in planned.iter().zip(reference.iter()) {
                prop_assert_eq!((i1, j1), (i2, j2));
                prop_assert!((v1 - v2).abs() < 1e-9);
            }
        }
    }
}

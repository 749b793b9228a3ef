//! Small dense matrices and the one factorization.
//!
//! Used for the coarsest-grid direct solve and for the block-Jacobi
//! smoother's per-block factorizations (the paper factors each METIS block
//! once per matrix setup). Both factor SPD matrices — principal submatrices
//! and Galerkin products of an SPD operator — so [`Cholesky`] is the only
//! factorization: it stores, factors and solves only inside the matrix's
//! envelope — the profile of its lower triangle, which fill never leaves —
//! with the bits of the dense factor: what it skips subtracts products with
//! exact zeros. A full profile is the dense packed triangle. Factoring a
//! matrix that is not numerically SPD in place leaves a factor that
//! records the failure, and every solve through it writes NaN.

use crate::flops;
use std::ops::{Index, IndexMut};

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows` x `ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Fill an `nrows` x `ncols` matrix from `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        flops::add((2 * self.nrows * self.ncols) as u64);
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Symmetry check up to `tol` relative to the largest entry — the
    /// verdict [`CsrMatrix::is_symmetric`](crate::CsrMatrix::is_symmetric)
    /// gives on the same entries (absent ones zero; a pair holding a `NaN`
    /// fails), without the transpose a sparse check builds.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        let n = self.nrows;
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        self.ncols == n
            && (0..n).all(|i| (0..i).all(|j| (self[(i, j)] - self[(j, i)]).abs() <= tol * scale))
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

/// Partial sums of [`lane_dot`]; part of [`Cholesky`]'s bit contract.
const LANES: usize = 8;

/// `Σ u[j]·x[j]` in a defined, chain-free order. The groups of [`LANES`]
/// consecutive entries are anchored at the **end** of the slices and taken
/// from the last group towards the front; lane `l` sums the products at
/// position `l` of each group. The lanes combine as
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))` (the shape a halving vector
/// reduction has), and the `len % LANES` entries left at the front are then
/// added one by one, entry 0 last.
///
/// Back to front because of who calls it: in the backward solve `x[0]` is
/// the unknown the previous row just produced, so it enters last and the
/// lanes of one row run while the previous row's division is in flight.
#[inline]
fn lane_dot(u: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), x.len());
    let mut s = [0.0f64; LANES];
    let (mut ug, mut xg) = (u.rchunks_exact(LANES), x.rchunks_exact(LANES));
    for (uc, xc) in (&mut ug).zip(&mut xg) {
        for l in 0..LANES {
            s[l] += uc[l] * xc[l];
        }
    }
    let mut sum = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
    for (uj, xj) in ug.remainder().iter().zip(xg.remainder()).rev() {
        sum += uj * xj;
    }
    sum
}

/// Rows of `U` finished together, and eliminating rows subtracted per pass,
/// in [`Cholesky::factor_in_place`] (the two kernels below are written out
/// for four). Throughput only: every entry receives its subtractions one by
/// one in ascending row order whatever the grouping. The envelope is padded
/// so that the rows of one panel end in the same column.
const PANEL: usize = 4;

/// `t[j] -= c[q] · e[q][j]` for the four eliminating rows `q` in ascending
/// order: one load and one store of `t` per four updates, independent lanes
/// across `j`.
#[inline]
fn eliminate_row(t: &mut [f64], e: [&[f64]; PANEL], c: [f64; PANEL]) {
    let len = t.len();
    let [e0, e1, e2, e3] = e.map(|s| &s[..len]);
    for j in 0..len {
        let mut v = t[j];
        v -= c[0] * e0[j];
        v -= c[1] * e1[j];
        v -= c[2] * e2[j];
        v -= c[3] * e3[j];
        t[j] = v;
    }
}

/// [`eliminate_row`] on four target rows at once (`c[q][p]` multiplies
/// eliminating row `q` into target `p`), so each eliminating entry is also
/// loaded once per four targets. The references are separate parameters so
/// that none can alias another inside the loop.
#[inline(never)]
fn eliminate_panel(
    t0: &mut [f64],
    t1: &mut [f64],
    t2: &mut [f64],
    t3: &mut [f64],
    e: [&[f64]; PANEL],
    c: &[[f64; PANEL]; PANEL],
) {
    let len = t0.len();
    let (t1, t2, t3) = (&mut t1[..len], &mut t2[..len], &mut t3[..len]);
    let [e0, e1, e2, e3] = e.map(|s| &s[..len]);
    for j in 0..len {
        let a = [e0[j], e1[j], e2[j], e3[j]];
        let sub = |mut v: f64, p: usize| {
            v -= c[0][p] * a[0];
            v -= c[1][p] * a[1];
            v -= c[2][p] * a[2];
            v -= c[3][p] * a[3];
            v
        };
        t0[j] = sub(t0[j], 0);
        t1[j] = sub(t1[j], 1);
        t2[j] = sub(t2[j], 2);
        t3[j] = sub(t3[j], 3);
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
/// matrix, stored and computed only inside its envelope.
///
/// **Envelope.** Let `f_j ≤ j` be the first column of row `j` of `A`'s lower
/// triangle that can be nonzero. No fill ever reaches left of it
/// (`L[j, k] = 0` for `k < f_j`), so row `k` of `U = Lᵀ` is nonzero only up
/// to `e_k = max{j : f_j ≤ k}` (nondecreasing in `k`). Row `k` stores
/// `U[k, k..=ê_k]` contiguously, all rows in one allocation, where `ê_k` is
/// `e_k` padded twice: to the `e` of the last row of its panel of 4 rows
/// (so the rows finished together end together and the 4 × 4 kernels run
/// on equal slices), then to the end of its group of 8 columns counted
/// from `n` (so the backward solve's lane groups are the dense row's). A full
/// profile is the dense packed layout. The factorization's and the forward
/// solve's inner loops are contiguous axpys with independent lanes (they
/// vectorize without reassociating anything) and the backward solve is a
/// contiguous dot over one row.
///
/// **Row form.** The storage starts as `A`'s lower triangle
/// (`U[k, j] = A[j, k]`) and is factored in place, row by row: row `k` is
/// finished by subtracting every earlier row's contribution
/// `U[m, k] · U[m, k..=ê_m]` in ascending `m`, then taking one square root
/// and dividing the finished row by its pivot — independent lanes. The
/// up-looking form this replaced computed `L[i, k] = x[k] / U[k, k]` and
/// needed it before `x[k + 1]` was final: a divide → multiply → subtract
/// chain taken `n²/2` times per factor, which — not flops or bytes — set
/// the time of a 166-dof block. Rows are finished four at a time against
/// four eliminating rows per pass, so an entry is loaded and stored once
/// per four updates; a group of eliminating rows that ends left of a panel
/// is not visited.
///
/// **Bit contract.** The *factor* is textbook: every stored entry receives
/// the subtractions `U[m, k] · U[m, j]` of the dense row-by-row dot-product
/// form (the unit tests keep that form as an oracle), one by one in the
/// same ascending-`m` order, except those with `j > ê_m`. Each of those
/// subtracts a product with a structural zero, which the dense form holds
/// as exactly `+0.0` (it is never written and only ever receives `±0`
/// subtractions), so skipping it can change nothing but the sign of an
/// exact zero — and only where `A` holds `-0.0` inside the envelope, the
/// one way a `-0.0` enters the factor. The *solve* bits are defined here.
/// The forward pass is the textbook order. The backward pass computes
/// `x[i] = (y[i] − U[i, i+1..n] · x[i+1..n]) / U[i, i]` with the dot taken
/// in 8 independent partial sums (lanes) over the groups of 8 consecutive
/// entries counted from the row's end, one fixed combine tree
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the fewer than 8 entries
/// next to the diagonal one by one, the nearest last. That order is
/// spelled out in scalar code (and again, independently, in the unit
/// tests' oracle), so it does not depend on the vector width the compiler
/// picks or on the pool size. A serial `sum -= u·x` chain would pin bits
/// just as well but cannot be vectorized under strict IEEE semantics, and
/// at the smoother's 166-dof blocks its add latency — not the factor's
/// bytes — set the sweep time. The groups past `ê_i` are whole groups of
/// `+0.0` taken first, into lanes that are still `+0.0`, and the forward
/// pass's skipped updates subtract `±0`: for finite data the solve, too,
/// can differ from the dense one only in the sign of an exact zero, and
/// only where the right-hand side or the factor holds `-0.0`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    n: usize,
    /// Row `k` of `U` (columns `k..=ê_k`) at `u[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    u: Vec<f64>,
    /// Flops of one factorization and of one solve inside the envelope.
    factor_flops: u64,
    solve_flops: u64,
    /// Whether `u` holds a factor: `false` until
    /// [`factor_in_place`](Self::factor_in_place) succeeds, and again after
    /// it fails; every solve then writes NaN.
    spd: bool,
}

/// The zero-filled envelope [`Cholesky::factor_in_place`] hands its `fill`.
pub struct EnvelopeFill<'a> {
    start: &'a [usize],
    u: &'a mut [f64],
}

impl EnvelopeFill<'_> {
    /// Store `A[j, k]` (the lower triangle, `k <= j`); it must lie inside
    /// the envelope the factor was built for (`f_j <= k`), or this panics.
    #[inline]
    pub fn set(&mut self, j: usize, k: usize, v: f64) {
        // `U[k, j]`, in row `k`'s slice: `j < k` wraps past its end.
        self.u[self.start[k]..self.start[k + 1]][j.wrapping_sub(k)] = v;
    }
}

impl Cholesky {
    /// Storage for the factor of an `n × n` matrix whose row `j` has its
    /// first possibly nonzero lower-triangle entry in column `first[j]`
    /// (`<= j`; `n = first.len()`), to be filled and factored by
    /// [`factor_in_place`](Self::factor_in_place); until that has returned
    /// `true` it is a failed factor, whose every solve writes NaN.
    pub fn with_profile(first: &[usize]) -> Cholesky {
        let (start, factor_flops, solve_flops) = Self::profile(first);
        Cholesky {
            n: first.len(),
            u: vec![0.0; start[first.len()]],
            start,
            factor_flops,
            solve_flops,
            spd: false,
        }
    }

    /// Row offsets of the storage [`with_profile`](Self::with_profile)
    /// lays out for `first`, and the flops of one factorization and of one
    /// solve in it.
    fn profile(first: &[usize]) -> (Vec<usize>, u64, u64) {
        let n = first.len();
        // e[k] = max{j : first[j] <= k}: the last row reaching column k,
        // as a running maximum (row k itself reaches it).
        let mut e = vec![0usize; n];
        for (j, &f) in first.iter().enumerate() {
            assert!(f <= j, "row {j} starts right of its diagonal");
            e[f] = e[f].max(j);
        }
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let (mut reach, mut factor_flops, mut solve_flops) = (0, 0u64, 0u64);
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            // The panel's rows end where its last row does, rounded up to
            // a lane group counted from `n`.
            reach = e[k0..k1].iter().fold(reach, |a, &b| a.max(b));
            let end = n - 1 - (n - 1 - reach) / LANES * LANES;
            for k in k0..k1 {
                // Row `k`'s `l` off-diagonal entries cost the factor
                // `l (l + 1) / 2` multiply-adds into the rows below, `l`
                // divides and a square root, and the solve one multiply-add
                // per entry and one divide in each pass (a multiply-add is
                // two flops).
                let l = (end - k) as u64;
                start.push(start[k] + end - k + 1);
                factor_flops += l * (l + 1) + l + 1;
                solve_flops += 4 * l + 2;
            }
        }
        (start, factor_flops, solve_flops)
    }

    /// Factor `a` (only its lower triangle is read) inside the envelope of
    /// its nonzeros: row `j` starts at its first entry that is not `±0.0`.
    /// Returns `None` if the matrix is not (numerically) SPD.
    pub fn factor(a: &DenseMatrix) -> Option<Cholesky> {
        let first = Self::envelope(a);
        let mut ch = Cholesky::with_profile(&first);
        ch.fill_and_factor(a, &first).then_some(ch)
    }

    /// [`factor`](Self::factor) of `a` in the storage this factor owns, bit
    /// for bit, when `a`'s envelope is laid out as this factor's (as it is
    /// for new values on the same nonzeros); `false`, and nothing touched,
    /// when it is not. Also `false` if `a` is not (numerically) SPD: the
    /// factor then records the failure, and every solve writes NaN.
    pub fn refactor(&mut self, a: &DenseMatrix) -> bool {
        let first = Self::envelope(a);
        Self::profile(&first).0 == self.start && self.fill_and_factor(a, &first)
    }

    /// First column of each row of `a`'s lower triangle that is not `±0.0`.
    fn envelope(a: &DenseMatrix) -> Vec<usize> {
        assert_eq!(a.nrows, a.ncols);
        let rows = 0..a.nrows;
        rows.map(|j| a.row(j)[..j].iter().position(|&v| v != 0.0).unwrap_or(j))
            .collect()
    }

    fn fill_and_factor(&mut self, a: &DenseMatrix, first: &[usize]) -> bool {
        self.factor_in_place(|u| {
            for (j, &f) in first.iter().enumerate() {
                for (k, &v) in a.row(j)[..=j].iter().enumerate().skip(f) {
                    u.set(j, k, v);
                }
            }
        })
    }

    /// Factor, in the storage this factor already owns, the matrix whose
    /// lower triangle `fill` writes into the zero-filled envelope through
    /// [`EnvelopeFill::set`] — bit for bit [`factor`](Self::factor) of the
    /// same entries with the same envelope, without a dense copy or a new
    /// allocation. Returns `false` if the matrix is not (numerically) SPD —
    /// a pivot that is not positive, a non-finite entry in the lower
    /// triangle — and the factor then records the failure: every solve
    /// through it writes NaN until a later call succeeds.
    pub fn factor_in_place(&mut self, fill: impl FnOnce(&mut EnvelopeFill<'_>)) -> bool {
        let n = self.n;
        self.spd = false;
        self.u.fill(0.0);
        fill(&mut EnvelopeFill {
            start: &self.start,
            u: &mut self.u,
        });
        let start = &self.start[..];
        // One past the last stored column of row `k`.
        let end = |k: usize| k + start[k + 1] - start[k];
        // The first group of eliminating rows that reaches the panel; the
        // ends grow with the row, so it only moves forward.
        let mut m0 = 0;
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            while m0 < k0 && end(m0) <= k0 {
                m0 += PANEL;
            }
            let (done, panel) = self.u.split_at_mut(start[k0]);
            // Columns `from..` of the finished rows `m..m + PANEL`, up to
            // their common end.
            let rows = |m: usize, from: usize| -> [&[f64]; PANEL] {
                std::array::from_fn(|q| &done[start[m + q] + from - (m + q)..start[m + q + 1]])
            };
            // Rows above the panel, PANEL at a time (`k0` is a multiple).
            if k1 - k0 == PANEL {
                let w = end(k0) - k0;
                let (t0, rest) = panel.split_at_mut(w);
                let (t1, rest) = rest.split_at_mut(w - 1);
                let (t2, rest) = rest.split_at_mut(w - 2);
                let t3 = &mut rest[..w - 3];
                for m in (m0..k0).step_by(PANEL) {
                    let e = rows(m, k0);
                    let reach = e[0].len();
                    // Columns `k0..k1` the group does not store are zeros.
                    let c: [[f64; PANEL]; PANEL] = std::array::from_fn(|q| {
                        std::array::from_fn(|p| if p < reach { e[q][p] } else { 0.0 })
                    });
                    // The panel's own triangle (columns `k0..k1`), whose
                    // eliminating entries are the coefficients themselves...
                    let heads: [&mut [f64]; PANEL] =
                        [&mut t0[..4], &mut t1[..3], &mut t2[..2], &mut t3[..1]];
                    for (p, head) in heads.into_iter().enumerate() {
                        for (v, j) in head.iter_mut().zip(p..) {
                            for cq in &c {
                                *v -= cq[p] * cq[j];
                            }
                        }
                    }
                    // ...then columns `k1..` of all four rows together, as
                    // far as the eliminating rows reach.
                    if reach > PANEL {
                        let tail = reach - PANEL;
                        eliminate_panel(
                            &mut t0[4..][..tail],
                            &mut t1[3..],
                            &mut t2[2..],
                            &mut t3[1..],
                            e.map(|s| &s[PANEL..]),
                            &c,
                        );
                    }
                }
            } else {
                for p in k0..k1 {
                    let t = &mut panel[start[p] - start[k0]..start[p + 1] - start[k0]];
                    for m in (m0..k0).step_by(PANEL).filter(|&m| end(m) > p) {
                        let e = rows(m, p);
                        eliminate_row(&mut t[..e[0].len()], e, e.map(|s| s[0]));
                    }
                }
            }
            // Inside the panel: the rows just above, then the pivot.
            for p in k0..k1 {
                let (above, t) = panel.split_at_mut(start[p] - start[k0]);
                let t = &mut t[..start[p + 1] - start[p]];
                for m in k0..p {
                    let e = &above[start[m] - start[k0] + p - m..start[m + 1] - start[k0]];
                    let c = e[0];
                    for (tj, ej) in t.iter_mut().zip(e) {
                        *tj -= c * ej;
                    }
                }
                let d = t[0];
                if d <= 0.0 || !d.is_finite() {
                    return false;
                }
                let pivot = d.sqrt();
                t[0] = pivot;
                for v in &mut t[1..] {
                    *v /= pivot;
                }
            }
        }
        flops::add(self.factor_flops.max(1));
        self.spd = true;
        true
    }

    /// Resident bytes of the envelope and its row offsets.
    pub fn memory_bytes(&self) -> u64 {
        8 * (self.u.len() + self.start.len()) as u64
    }

    /// Flops one [`solve_in_place`](Self::solve_in_place) performs: two
    /// per stored off-diagonal entry and pass, and a divide per row and
    /// pass (`2n²` for a full profile).
    pub fn solve_flops(&self) -> u64 {
        self.solve_flops
    }

    /// Solve `A x = b` in place; all NaN if the factorization failed.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        if !self.spd {
            b.fill(f64::NAN);
            return;
        }
        // Forward: Uᵀ y = b, one axpy per finished `y[k]`.
        for k in 0..n {
            let row = &self.u[self.start[k]..self.start[k + 1]];
            let yk = b[k] / row[0];
            b[k] = yk;
            for (bj, ukj) in b[k + 1..k + row.len()].iter_mut().zip(&row[1..]) {
                *bj -= ukj * yk;
            }
        }
        // Backward: U x = y, one lane dot over row `i` per unknown.
        for i in (0..n).rev() {
            let row = &self.u[self.start[i]..self.start[i + 1]];
            let dot = lane_dot(&row[1..], &b[i + 1..i + row.len()]);
            b[i] = (b[i] - dot) / row[0];
        }
        flops::add(self.solve_flops);
    }

    /// Solve `A x = b`, returning a fresh `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook row-by-row dot-product Cholesky (unpacked row-major
    /// `L`), every product taken, structural zeros included: bit for bit
    /// the dense packed factor the envelope replaced. Kept as the bitwise
    /// oracle: the envelope factor must reproduce its entries bit for bit
    /// (and hold only `+0.0` where it stores nothing), and its solutions in
    /// the summation order the bit contract defines.
    struct DotCholesky {
        l: DenseMatrix,
    }

    impl DotCholesky {
        fn factor(a: &DenseMatrix) -> Option<DotCholesky> {
            let n = a.nrows;
            let mut l = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a[(i, j)];
                    for k in 0..j {
                        sum -= l[(i, k)] * l[(j, k)];
                    }
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            return None;
                        }
                        l[(i, j)] = sum.sqrt();
                    } else {
                        l[(i, j)] = sum / l[(j, j)];
                    }
                }
            }
            Some(DotCholesky { l })
        }

        /// The solve in the order `Cholesky`'s bit contract defines,
        /// written index by index with no slices, chunks or helpers shared
        /// with the implementation: textbook forward pass; backward pass
        /// with eight lanes over the groups of eight columns counted from
        /// the last one, the fixed combine tree, then the leftover columns
        /// next to the diagonal in descending order.
        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.l.nrows;
            let mut b = b.to_vec();
            for i in 0..n {
                let mut sum = b[i];
                for k in 0..i {
                    sum -= self.l[(i, k)] * b[k];
                }
                b[i] = sum / self.l[(i, i)];
            }
            for i in (0..n).rev() {
                let groups = (n - i - 1) / 8;
                let mut s = [0.0f64; 8];
                for g in 1..=groups {
                    for (lane, acc) in s.iter_mut().enumerate() {
                        let k = n - 8 * g + lane;
                        *acc += self.l[(k, i)] * b[k];
                    }
                }
                let mut dot = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
                for k in (i + 1..n - 8 * groups).rev() {
                    dot += self.l[(k, i)] * b[k];
                }
                b[i] = (b[i] - dot) / self.l[(i, i)];
            }
            b
        }
    }

    /// `M Mᵀ + shift·I` from the leading `n x n` of `vals`.
    fn gram(n: usize, vals: &[f64], shift: f64) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| {
            let dot: f64 = (0..n).map(|k| vals[i * n + k] * vals[j * n + k]).sum();
            dot + if i == j { shift } else { 0.0 }
        })
    }

    fn spd3() -> DenseMatrix {
        // Diagonally dominant symmetric => SPD.
        DenseMatrix::from_fn(3, 3, |i, j| if i == j { 4.0 } else { -1.0 })
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = spd3();
        a[(1, 1)] = -5.0;
        assert!(Cholesky::factor(&a).is_none());
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        i.matvec(&x, &mut y);
        assert_eq!(x, y);
    }

    /// `U[k, j]` as the factor holds it: `+0.0` outside the envelope.
    fn u_at(ch: &Cholesky, k: usize, j: usize) -> f64 {
        let len = ch.start[k + 1] - ch.start[k];
        if j - k < len {
            ch.u[ch.start[k] + j - k]
        } else {
            0.0
        }
    }

    #[test]
    fn packed_factor_entries_match_the_oracle() {
        // U[k, j] == L[j, k] bit for bit, at a size with ragged vector tails.
        let n = 37;
        let vals: Vec<f64> = (0..n * n)
            .map(|t| ((t * 37 % 101) as f64 / 50.0 - 1.0) * 0.7)
            .collect();
        let a = gram(n, &vals, 0.5);
        let ch = Cholesky::factor(&a).unwrap();
        assert_eq!(ch.u.len(), n * (n + 1) / 2, "a full profile is dense");
        let oracle = DotCholesky::factor(&a).unwrap();
        for k in 0..n {
            for j in k..n {
                assert_eq!(
                    u_at(&ch, k, j).to_bits(),
                    oracle.l[(j, k)].to_bits(),
                    "U[{k},{j}]"
                );
            }
        }
    }

    fn assert_factor_is_the_oracle(a: &DenseMatrix, what: &str) {
        let (ch, oracle) = (Cholesky::factor(a), DotCholesky::factor(a));
        assert_eq!(ch.is_some(), oracle.is_some(), "{what}: SPD verdict");
        let (Some(ch), Some(oracle)) = (ch, oracle) else {
            return;
        };
        for k in 0..a.nrows {
            for j in k..a.nrows {
                assert_eq!(
                    u_at(&ch, k, j).to_bits(),
                    oracle.l[(j, k)].to_bits(),
                    "{what}: U[{k},{j}]"
                );
            }
        }
    }

    fn assert_solve_is_the_oracle(a: &DenseMatrix, b: &[f64], what: &str) {
        let ch = Cholesky::factor(a).unwrap();
        let (x, want) = (ch.solve(b), DotCholesky::factor(a).unwrap().solve(b));
        for (i, (u, v)) in x.iter().zip(&want).enumerate() {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}, x[{i}]: {u} vs {v}");
        }
    }

    /// A symmetric, strictly diagonally dominant (so SPD) matrix whose row
    /// `j` of the lower triangle starts in column `first[j]`; entries
    /// inside the profile are pseudo-random, some of them zero.
    fn profiled(first: &[usize], seed: usize) -> DenseMatrix {
        let n = first.len();
        let mut a = DenseMatrix::zeros(n, n);
        for (j, &f) in first.iter().enumerate() {
            for k in f..j {
                let t = (j * 31 + k * 17 + seed) % 23;
                // The first entry is nonzero, so the profile is exact.
                let v = if t == 0 && k > f {
                    0.0
                } else {
                    t as f64 / 11.0 - 1.05
                };
                a[(j, k)] = v;
                a[(k, j)] = v;
            }
        }
        for i in 0..n {
            a[(i, i)] = 1.0 + (0..n).map(|k| a[(i, k)].abs()).sum::<f64>();
        }
        a
    }

    /// Every row's extent ends where the contract says: at or after the
    /// last row that reaches its column, together with its panel, at the
    /// end of a lane group counted from `n`.
    fn assert_extents(ch: &Cholesky, first: &[usize], what: &str) {
        let n = first.len();
        for k in 0..n {
            let end = k + ch.start[k + 1] - ch.start[k]; // one past
            let e = (0..n).filter(|&j| first[j] <= k).max().unwrap();
            assert!(end > e, "{what}: row {k} ends before row {e} reaches it");
            assert_eq!((n - end) % LANES, 0, "{what}: row {k} ends mid-group");
            let last = (k / PANEL * PANEL + PANEL - 1).min(n - 1);
            let last_end = last + ch.start[last + 1] - ch.start[last];
            assert_eq!(end, last_end, "{what}: row {k} and its panel");
        }
    }

    #[test]
    fn envelope_factor_and_solve_are_bitwise_the_dense_oracle() {
        // Banded (half-widths 1, 3, 9) and variable profiles, at every size
        // up to ten panels — each `n mod 4` remainder, rows whose envelope
        // ends at every position of a lane group — and the smoother's
        // block size; `n = 0` and `n = 1` included.
        let mut cases: Vec<(String, Vec<usize>)> = Vec::new();
        for n in (0..=40).chain([166]) {
            for w in [1, 3, 9] {
                cases.push((
                    format!("n = {n}, band {w}"),
                    (0..n).map(|j: usize| j.saturating_sub(w)).collect(),
                ));
            }
            // Row `j` reaches back a pseudo-random 0..=12 columns, with an
            // occasional long reach.
            let first = (0..n)
                .map(|j: usize| match (j * 7 + n) % 19 {
                    0 => j / 3,
                    r => j.saturating_sub(r % 13),
                })
                .collect();
            cases.push((format!("n = {n}, variable"), first));
        }
        let mut saved = 0;
        for (what, first) in &cases {
            let n = first.len();
            let a = profiled(first, n);
            assert_factor_is_the_oracle(&a, what);
            let ch = Cholesky::factor(&a).unwrap();
            if n > 0 {
                assert_extents(&ch, first, what);
            }
            saved += n * (n + 1) / 2 - ch.u.len();
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 29 + n) % 23) as f64 / 4.0 - 2.5)
                .collect();
            assert_solve_is_the_oracle(&a, &b, what);
        }
        assert!(saved > 0, "no profile was narrower than dense");
        let narrow = Cholesky::factor(&profiled(
            &(0..166)
                .map(|j: usize| j.saturating_sub(3))
                .collect::<Vec<_>>(),
            1,
        ))
        .unwrap();
        assert!(
            narrow.u.len() < 166 * 167 / 8,
            "a band of 3 stores {}",
            narrow.u.len()
        );
        assert!(narrow.solve_flops() < 2 * 166 * 166 / 4);
    }

    #[test]
    fn a_stored_negative_zero_may_change_only_the_sign_of_a_zero() {
        // The documented exception. A tridiagonal matrix, except that row 5
        // reaches back to column 0 (`A[5, 0] < 0`, zeros in columns 1..=3,
        // `A[5, 4] > 0`) and row 12 to column 5 through a stored `-0.0`.
        // Rows 0..=3 then end at column 7 (column 5, rounded up to a lane
        // group counted from n = 16), so in the dense factor
        // `U[5, 12] = -0.0 − U[0, 5]·(+0.0)` turns the zero positive; the
        // envelope never takes that product, and the stored zero products
        // it does take (`U[4, 5] > 0` times `+0.0`) keep its sign.
        let n: usize = 16;
        let mut first: Vec<usize> = (0..n).map(|j| j.saturating_sub(1)).collect();
        first[5] = 0;
        first[12] = 5;
        let mut a = DenseMatrix::zeros(n, n);
        for (j, &f) in first.iter().enumerate() {
            for k in f..j {
                let v = match (j, k) {
                    (5, 1..=3) | (12, 6..=10) => 0.0,
                    (5, 4) => 1.0,
                    (12, 5) => -0.0,
                    _ => -0.5,
                };
                a[(j, k)] = v;
                a[(k, j)] = v;
            }
        }
        for i in 0..n {
            a[(i, i)] = 1.0 + (0..n).map(|k| a[(i, k)].abs()).sum::<f64>();
        }
        let mut ch = Cholesky::with_profile(&first);
        assert!(ch.factor_in_place(|u| {
            for (j, &f) in first.iter().enumerate() {
                for k in f..=j {
                    u.set(j, k, a[(j, k)]);
                }
            }
        }));
        let oracle = DotCholesky::factor(&a).unwrap();
        for k in 0..n {
            for j in k..n {
                let (got, want) = (u_at(&ch, k, j), oracle.l[(j, k)]);
                if (k, j) == (5, 12) {
                    let signs = (got.to_bits(), want.to_bits());
                    assert_eq!(signs, ((-0.0f64).to_bits(), 0), "U[5,12]");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "U[{k},{j}]");
                }
            }
        }
        // The solve on that factor, with `-0.0` in the right-hand side (the
        // contract's other case): equal values, signs of zeros aside.
        let b: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 2 { -0.0 } else { i as f64 - 7.5 })
            .collect();
        let (x, want) = (ch.solve(&b), oracle.solve(&b));
        for (i, (u, v)) in x.iter().zip(&want).enumerate() {
            let same = u.to_bits() == v.to_bits() || (*u == 0.0 && *v == 0.0);
            assert!(same, "x[{i}]: {u} vs {v}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn filling_outside_the_envelope_panics() {
        // Rows 0..=3 couple only among themselves: at n = 12 they end at
        // column 3, the end of the lane group 4..12 leaves them.
        let first: Vec<usize> = (0..12).map(|j| if j < 4 { 0 } else { j }).collect();
        let mut ch = Cholesky::with_profile(&first);
        ch.factor_in_place(|u| u.set(11, 0, 1.0));
    }

    #[test]
    fn row_form_factor_is_bitwise_the_oracle_at_every_panel_remainder() {
        // Every size up to ten panels — each remainder against the panel
        // and pass widths, panels with and without rows above them — and
        // the smoother's block size.
        for n in (1..=40).chain([166]) {
            let vals: Vec<f64> = (0..n * n)
                .map(|t| ((t * 37 + n) % 101) as f64 / 50.0 - 1.0)
                .collect();
            assert_factor_is_the_oracle(&gram(n, &vals, 0.5), &format!("n = {n}"));
        }
    }

    #[test]
    fn row_form_rejects_what_the_oracle_rejects() {
        // A failing pivot at every position of every panel shape: the
        // verdict must be the oracle's whether the bad row is the panel's
        // first, its last, or in a short last panel.
        for n in 1..=13usize {
            let vals: Vec<f64> = (0..n * n).map(|t| (t % 13) as f64 / 6.0 - 1.0).collect();
            let spd = gram(n, &vals, 1.0);
            assert!(Cholesky::factor(&spd).is_some());
            for p in 0..n {
                // Indefinite: the pivot goes negative at `p`.
                let mut a = spd.clone();
                a[(p, p)] = -a[(p, p)];
                assert!(Cholesky::factor(&a).is_none(), "n = {n}: indefinite at {p}");
                assert_factor_is_the_oracle(&a, &format!("n = {n}, indefinite at {p}"));
                // Zero pivot: row and column `p` vanish.
                let mut a = spd.clone();
                for k in 0..n {
                    a[(p, k)] = 0.0;
                    a[(k, p)] = 0.0;
                }
                assert!(Cholesky::factor(&a).is_none(), "n = {n}: zero pivot at {p}");
                // NaN anywhere in row `p` of the triangle.
                for k in 0..=p {
                    let mut a = spd.clone();
                    a[(p, k)] = f64::NAN;
                    assert!(Cholesky::factor(&a).is_none(), "n = {n}: NaN at ({p},{k})");
                }
            }
        }
    }

    #[test]
    fn only_the_lower_triangle_is_read() {
        let n = 11;
        let vals: Vec<f64> = (0..n * n).map(|t| (t % 17) as f64 / 8.0 - 1.0).collect();
        let a = gram(n, &vals, 0.75);
        let mut garbage = a.clone();
        for i in 0..n {
            for j in i + 1..n {
                garbage[(i, j)] = if (i + j) % 2 == 0 { f64::NAN } else { 1e300 };
            }
        }
        let (want, got) = (
            Cholesky::factor(&a).unwrap(),
            Cholesky::factor(&garbage).unwrap(),
        );
        let bits = |c: &Cholesky| -> Vec<u64> { c.u.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(got.start, want.start);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn in_place_factor_is_entry_for_entry_the_dense_one() {
        // One storage factored three times: a banded matrix, a sparser one
        // in the same envelope (the entries it does not write must read
        // zero again, not the last factor), and a non-SPD one.
        let n = 23;
        let first: Vec<usize> = (0..n).map(|j: usize| j.saturating_sub(5)).collect();
        let banded = profiled(&first, 3);
        let sparser = DenseMatrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 4.0,
            1 | 5 => -1.0,
            _ => 0.0,
        });
        let mut ch = Cholesky::with_profile(&first);
        for a in [&banded, &sparser] {
            let spd = ch.factor_in_place(|u| {
                for (j, &f) in first.iter().enumerate() {
                    for k in f..=j {
                        if a[(j, k)] != 0.0 {
                            u.set(j, k, a[(j, k)]);
                        }
                    }
                }
            });
            assert!(spd);
            let want = DotCholesky::factor(a).unwrap();
            for k in 0..n {
                for j in k..n {
                    assert_eq!(
                        u_at(&ch, k, j).to_bits(),
                        want.l[(j, k)].to_bits(),
                        "U[{k},{j}]"
                    );
                }
            }
        }
        assert!(!ch.factor_in_place(|u| u.set(7, 7, 1.0)));
    }

    #[test]
    fn a_failed_factor_solves_to_nan_until_it_is_refactored() {
        // A tridiagonal 3 × 3 with diagonal `d`: SPD for `d = 4`, its last
        // pivot fails for `d = 1.2`, its first for a NaN.
        let mut ch = Cholesky::with_profile(&[0, 0, 1]);
        let fill = |d: f64| {
            move |u: &mut EnvelopeFill<'_>| {
                for j in 0..3 {
                    u.set(j, j, d);
                }
                u.set(1, 0, -1.0);
                u.set(2, 1, -1.0);
            }
        };
        let solves_to_nan = |ch: &Cholesky| ch.solve(&[1.0, -0.0, 2.0]).iter().all(|v| v.is_nan());
        assert!(solves_to_nan(&ch), "never factored");
        for (d, spd) in [(1.2, false), (4.0, true), (f64::NAN, false), (4.0, true)] {
            assert_eq!(ch.factor_in_place(fill(d)), spd, "d = {d}");
            assert_eq!(solves_to_nan(&ch), !spd, "d = {d}");
        }
        let x = ch.solve(&[3.0, 2.0, 3.0]);
        assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-15), "{x:?}");
    }

    #[test]
    fn cholesky_rejects_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 0), (2, 1), (2, 2)] {
                let mut a = spd3();
                a[(i, j)] = bad;
                a[(j, i)] = bad;
                assert!(Cholesky::factor(&a).is_none(), "{bad} at ({i},{j})");
            }
        }
        // Zero pivot: positive semi-definite is not positive definite.
        assert!(Cholesky::factor(&DenseMatrix::zeros(1, 1)).is_none());
    }

    #[test]
    fn solve_is_bitwise_the_lane_order_oracle() {
        // Every row length from 0 to 39 occurs — rows shorter than one lane
        // group, every leftover count, several groups — and, across `n`,
        // every alignment of the groups against the diagonal.
        for n in 1..=40usize {
            let vals: Vec<f64> = (0..n * n)
                .map(|t| ((t * 37 + n) % 101) as f64 / 50.0 - 1.0)
                .collect();
            let a = gram(n, &vals, 0.5);
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 29 + n) % 23) as f64 / 4.0 - 2.5)
                .collect();
            let ch = Cholesky::factor(&a).unwrap();
            let oracle = DotCholesky::factor(&a).unwrap();
            let (x, want) = (ch.solve(&b), oracle.solve(&b));
            for (i, (u, v)) in x.iter().zip(&want).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "n = {n}, x[{i}]: {u} vs {v}");
            }
            let mut ax = vec![0.0; n];
            a.matvec(&x, &mut ax);
            for (u, v) in ax.iter().zip(&b) {
                assert!((u - v).abs() < 1e-9, "n = {n}: residual {}", u - v);
            }
        }
    }

    #[test]
    fn non_finite_right_hand_sides_propagate() {
        let n = 19;
        let vals: Vec<f64> = (0..n * n).map(|t| (t % 13) as f64 / 6.0 - 1.0).collect();
        let ch = Cholesky::factor(&gram(n, &vals, 1.0)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 7, n - 1] {
                let mut b = vec![1.0; n];
                b[at] = bad;
                ch.solve_in_place(&mut b);
                assert!(b.iter().any(|v| !v.is_finite()), "{bad} at {at} vanished");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_cholesky_random_spd(
            vals in proptest::collection::vec(-1.0f64..1.0, 16),
            b in proptest::collection::vec(-5.0f64..5.0, 4),
        ) {
            // Build A = M Mᵀ + n·I which is SPD.
            let m = DenseMatrix::from_fn(4, 4, |i, j| vals[i * 4 + j]);
            let mut a = DenseMatrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    let mut acc = if i == j { 4.0 } else { 0.0 };
                    for k in 0..4 {
                        acc += m[(i, k)] * m[(j, k)];
                    }
                    a[(i, j)] = acc;
                }
            }
            let ch = Cholesky::factor(&a).unwrap();
            let x = ch.solve(&b);
            let mut ax = vec![0.0; 4];
            a.matvec(&x, &mut ax);
            for (u, v) in ax.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}

//! Small dense matrices and factorizations.
//!
//! Used for the coarsest-grid direct solve and for the block-Jacobi
//! smoother's per-block factorizations (the paper factors each METIS block
//! once per matrix setup).

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

    /// The `n` x `n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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
/// one in ascending row order whatever the grouping.
const PANEL: usize = 4;

/// Offset of `U[k, k]` in the packed storage of an `n`-row factor.
#[inline]
fn packed_row_start(n: usize, k: usize) -> usize {
    k * (2 * n - k + 1) / 2
}

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

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// The factor is stored as packed row-major `U = Lᵀ`: row `k` holds
/// `U[k, k..n]` contiguously, so the factorization's and the forward
/// solve's inner loops are contiguous axpys with independent lanes (they
/// vectorize without reassociating anything) and the backward solve is a
/// contiguous dot over one row.
///
/// **Row form.** The packed storage starts as `A`'s lower triangle
/// (`U[k, j] = A[j, k]`) and is factored in place, row by row: row `k` is
/// finished by subtracting every earlier row's contribution
/// `U[m, k] · U[m, k..n]` in ascending `m`, then taking one square root and
/// dividing the finished row by its pivot — independent lanes. The
/// up-looking form this replaced computed `L[i, k] = x[k] / U[k, k]` and
/// needed it before `x[k + 1]` was final: a divide → multiply → subtract
/// chain taken `n²/2` times per factor, which — not flops or bytes — set
/// the time of a 166-dof block. Rows are finished four at a time against
/// four eliminating rows per pass, so an entry is loaded and stored once
/// per four updates.
///
/// **Bit contract.** The *factor* is textbook: every entry receives the
/// same subtractions `U[m, k] · U[m, j]`, one by one in the same
/// ascending-`m` order, as the row-by-row dot-product form (the unit tests
/// keep that form as an oracle) — the row form only changes *when* an
/// entry's turn comes, not what is subtracted from it or in which order,
/// so its bits are those of the up-looking loop. The *solve* bits are
/// defined here. The forward pass is the textbook order.
/// The backward pass computes
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
/// bytes — set the sweep time.
#[derive(Clone, Debug)]
pub struct Cholesky {
    n: usize,
    /// `U[k, j]` (`j >= k`) at `row_start(k) + j - k`; `n (n + 1) / 2` long.
    u: Vec<f64>,
}

impl Cholesky {
    /// Offset of `U[k, k]` in the packed storage.
    #[inline]
    fn row_start(&self, k: usize) -> usize {
        packed_row_start(self.n, k)
    }

    /// Packed storage for an `n`-row factor, to be filled and factored by
    /// [`factor_in_place`](Self::factor_in_place); it solves nothing
    /// before that has returned `true`.
    pub fn with_dim(n: usize) -> Cholesky {
        Cholesky {
            n,
            u: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Where `A[j, k]` (`k <= j < n`, the lower triangle) goes in the
    /// storage [`factor_in_place`](Self::factor_in_place) hands to `fill`.
    #[inline]
    pub fn packed_index(n: usize, j: usize, k: usize) -> usize {
        debug_assert!(k <= j && j < n);
        packed_row_start(n, k) + j - k
    }

    /// Factor `a` (only its lower triangle is read); returns `None` if the
    /// matrix is not (numerically) SPD.
    pub fn factor(a: &DenseMatrix) -> Option<Cholesky> {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut ch = Cholesky::with_dim(n);
        ch.factor_in_place(|u| {
            for j in 0..n {
                for (k, &v) in a.row(j)[..=j].iter().enumerate() {
                    u[Cholesky::packed_index(n, j, k)] = v;
                }
            }
        })
        .then_some(ch)
    }

    /// Factor, in the storage this factor already owns, the matrix whose
    /// lower triangle `fill` writes into the zero-filled packed array
    /// (`A[j, k]` at [`packed_index`](Self::packed_index)`(n, j, k)`) —
    /// bit for bit [`factor`](Self::factor) of the same entries, without
    /// the dense copy or a new allocation. Returns `false` if the matrix
    /// is not (numerically) SPD; the storage then holds no factor.
    pub fn factor_in_place(&mut self, fill: impl FnOnce(&mut [f64])) -> bool {
        let n = self.n;
        self.u.fill(0.0);
        fill(&mut self.u);
        let start = |k: usize| packed_row_start(n, k);
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            let (done, panel) = self.u.split_at_mut(start(k0));
            // Columns `from..n` of the finished rows `m..m + PANEL`.
            let rows = |m: usize, from: usize| -> [&[f64]; PANEL] {
                std::array::from_fn(|q| {
                    let r = start(m + q);
                    &done[r + from - (m + q)..r + n - (m + q)]
                })
            };
            // Rows above the panel, PANEL at a time (`k0` is a multiple).
            if k1 - k0 == PANEL {
                let (t0, rest) = panel.split_at_mut(n - k0);
                let (t1, rest) = rest.split_at_mut(n - k0 - 1);
                let (t2, rest) = rest.split_at_mut(n - k0 - 2);
                let t3 = &mut rest[..n - k0 - 3];
                for m in (0..k0).step_by(PANEL) {
                    let e = rows(m, k0);
                    let c: [[f64; PANEL]; PANEL] =
                        std::array::from_fn(|q| std::array::from_fn(|p| e[q][p]));
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
                    // ...then columns `k1..n` of all four rows together.
                    eliminate_panel(
                        &mut t0[4..],
                        &mut t1[3..],
                        &mut t2[2..],
                        &mut t3[1..],
                        e.map(|s| &s[PANEL..]),
                        &c,
                    );
                }
            } else {
                for p in k0..k1 {
                    let t = &mut panel[start(p) - start(k0)..][..n - p];
                    for m in (0..k0).step_by(PANEL) {
                        let e = rows(m, p);
                        eliminate_row(t, e, e.map(|s| s[0]));
                    }
                }
            }
            // Inside the panel: the rows just above, then the pivot.
            for p in k0..k1 {
                let (above, t) = panel.split_at_mut(start(p) - start(k0));
                let t = &mut t[..n - p];
                for m in k0..p {
                    let e = &above[start(m) - start(k0) + p - m..][..n - p];
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
        flops::add((n * n * n / 3).max(1) as u64);
        true
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward: Uᵀ y = b, one axpy per finished `y[k]`.
        for k in 0..n {
            let rk = self.row_start(k);
            let yk = b[k] / self.u[rk];
            b[k] = yk;
            let urow = &self.u[rk + 1..rk + n - k];
            for (bj, ukj) in b[k + 1..].iter_mut().zip(urow) {
                *bj -= ukj * yk;
            }
        }
        // Backward: U x = y, one lane dot over row `i` per unknown.
        for i in (0..n).rev() {
            let ri = self.row_start(i);
            let dot = lane_dot(&self.u[ri + 1..ri + n - i], &b[i + 1..]);
            b[i] = (b[i] - dot) / self.u[ri];
        }
        flops::add((2 * n * n) as u64);
    }

    /// Solve `A x = b`, returning a fresh `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// LU factorization with partial pivoting (for indefinite or unsymmetric
/// systems, e.g. coarse operators that lost definiteness to roundoff).
#[derive(Clone, Debug)]
pub struct Lu {
    lu: DenseMatrix,
    /// Row `k` was swapped with row `swaps[k] >= k` at elimination step `k`.
    swaps: Vec<usize>,
}

impl Lu {
    /// Factor `a`; returns `None` for (numerically) singular matrices.
    pub fn factor(a: &DenseMatrix) -> Option<Lu> {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut lu = a.clone();
        let mut swaps = Vec::with_capacity(n);
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return None;
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            swaps.push(p);
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                for j in (k + 1)..n {
                    let v = m * lu[(k, j)];
                    lu[(i, j)] -= v;
                }
            }
        }
        flops::add((2 * n * n * n / 3).max(1) as u64);
        Some(Lu { lu, swaps })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows
    }

    /// Solve `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.lu.nrows;
        assert_eq!(b.len(), n);
        // b ← P b: replay the elimination's row swaps.
        for (k, &p) in self.swaps.iter().enumerate() {
            b.swap(k, p);
        }
        // Forward: L y = P b (unit diagonal).
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * b[k];
            }
            b[i] = sum;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * b[k];
            }
            b[i] = sum / self.lu[(i, i)];
        }
        flops::add((2 * n * n) as u64);
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
    /// `L`). Kept as the bitwise oracle: the
    /// packed factor must reproduce its entries bit for bit, and its
    /// solutions in the summation order the bit contract defines.
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
    fn lu_solves_unsymmetric() {
        let a = DenseMatrix::from_fn(3, 3, |i, j| {
            (1 + i * 3 + j) as f64 + if i == j { 10.0 } else { 0.0 }
        });
        let lu = Lu::factor(&a).unwrap();
        let b = vec![3.0, -1.0, 4.0];
        let x = lu.solve(&b);
        let mut ax = vec![0.0; 3];
        a.matvec(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let mut a = DenseMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = DenseMatrix::from_fn(2, 2, |i, _| (i + 1) as f64);
        assert!(Lu::factor(&a).is_none());
    }

    #[test]
    fn identity_matvec() {
        let i = DenseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 4];
        i.matvec(&x, &mut y);
        assert_eq!(x, y);
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
        let oracle = DotCholesky::factor(&a).unwrap();
        for k in 0..n {
            for j in k..n {
                assert_eq!(
                    ch.u[ch.row_start(k) + j - k].to_bits(),
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
                let u = ch.u[ch.row_start(k) + j - k];
                assert_eq!(
                    u.to_bits(),
                    oracle.l[(j, k)].to_bits(),
                    "{what}: U[{k},{j}]"
                );
            }
        }
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
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn in_place_factor_is_entry_for_entry_the_dense_one() {
        // One storage factored three times: a matrix, a sparser one (the
        // entries it does not write must read zero again, not the last
        // factor), and a non-SPD one.
        let n = 23;
        let vals: Vec<f64> = (0..n * n).map(|t| (t % 19) as f64 / 9.0 - 1.0).collect();
        let full = gram(n, &vals, 0.5);
        let banded = DenseMatrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 4.0,
            1 | 5 => -1.0,
            _ => 0.0,
        });
        let mut ch = Cholesky::with_dim(n);
        for a in [&full, &banded] {
            let spd = ch.factor_in_place(|u| {
                for j in 0..n {
                    for k in 0..=j {
                        if a[(j, k)] != 0.0 {
                            u[Cholesky::packed_index(n, j, k)] = a[(j, k)];
                        }
                    }
                }
            });
            assert!(spd);
            let want = Cholesky::factor(a).unwrap();
            for (i, (u, v)) in ch.u.iter().zip(&want.u).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "packed entry {i}");
            }
        }
        assert!(!ch.factor_in_place(|u| u[Cholesky::packed_index(n, 7, 7)] = 1.0));
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

    #[test]
    fn lu_solves_in_place_through_several_row_swaps() {
        // The dominant entry of column `j` sits in row `j - 2 (mod 5)`, so
        // elimination swaps rows at more than one step.
        let a = DenseMatrix::from_fn(5, 5, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 4.0 + if (i + 2) % 5 == j { 9.0 } else { 0.0 }
        });
        let lu = Lu::factor(&a).unwrap();
        assert!(
            lu.swaps
                .iter()
                .enumerate()
                .filter(|&(k, &p)| p != k)
                .count()
                > 1
        );
        let b = [3.0, -1.0, 4.0, 1.5, -2.5];
        let mut x = b;
        lu.solve_in_place(&mut x);
        let mut ax = vec![0.0; 5];
        a.matvec(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
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
            // LU must agree with Cholesky.
            let lu = Lu::factor(&a).unwrap();
            let x2 = lu.solve(&b);
            for (u, v) in x.iter().zip(&x2) {
                prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}

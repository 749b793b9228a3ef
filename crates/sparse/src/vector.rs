//! Dense vector kernels (the BLAS-1 layer of the solver).
//!
//! All kernels run on the calling thread. Reductions ([`dot`], [`norm2`])
//! use a *fixed-shape pairwise tree*: the input is cut into
//! [`REDUCE_CHUNK`]-aligned blocks and adjacent halves are combined
//! recursively, so the summation order depends only on the vector length.
//! Every rank layout that hands a kernel the same slice gets the same bits.

use crate::flops;

/// Leaf size of the pairwise reduction tree, in elements. Part of the
/// determinism contract: changing it changes the summation order (and so
/// the low-order bits) of every [`dot`]/[`norm2`] in the solver.
pub const REDUCE_CHUNK: usize = 1024;

/// Fixed-shape pairwise reduction of `f(i)` over `lo..hi`.
///
/// Splits at a `REDUCE_CHUNK`-aligned midpoint and combines the halves
/// with `+`; the tree shape is a function of the index range alone.
fn pairwise_sum<F>(lo: usize, hi: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64,
{
    let n = hi - lo;
    if n <= REDUCE_CHUNK {
        let mut s = 0.0;
        for i in lo..hi {
            s += f(i);
        }
        return s;
    }
    // Midpoint = half the chunks, rounded down — aligned so leaf
    // boundaries are stable as vectors grow.
    let nchunks = n.div_ceil(REDUCE_CHUNK);
    let mid = lo + (nchunks / 2) * REDUCE_CHUNK;
    pairwise_sum(lo, mid, f) + pairwise_sum(mid, hi, f)
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    flops::add(2 * x.len() as u64);
}

/// `y = x + beta * y` (the CG update for the search direction).
pub fn aypx(beta: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
    flops::add(2 * x.len() as u64);
}

/// Euclidean inner product, fixed-shape pairwise (see module docs).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    flops::add(2 * x.len() as u64);
    pairwise_sum(0, x.len(), &|i| x[i] * y[i])
}

/// 2-norm, via the same pairwise tree as [`dot`].
pub fn norm2(x: &[f64]) -> f64 {
    flops::add(2 * x.len() as u64);
    pairwise_sum(0, x.len(), &|i| x[i] * x[i]).sqrt()
}

/// `x *= s`.
pub fn scale(x: &mut [f64], s: f64) {
    for xi in x.iter_mut() {
        *xi *= s;
    }
    flops::add(x.len() as u64);
}

/// Copy `src` into `dst`.
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Set all entries to zero.
pub fn zero(x: &mut [f64]) {
    x.iter_mut().for_each(|v| *v = 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn blas1_kernels() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        aypx(0.5, &x, &mut y);
        assert_eq!(y, vec![7.0, 14.0, 21.0]);
        assert_eq!(dot(&x, &x), 14.0);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-15);
        let mut z = vec![0.0; 3];
        copy(&y, &mut z);
        axpy(-1.0, &x, &mut z);
        assert_eq!(z, vec![6.0, 12.0, 18.0]);
        scale(&mut z, 1.0 / 6.0);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
        let mut w = vec![0.0; 3];
        copy(&z, &mut w);
        assert_eq!(w, z);
        zero(&mut w);
        assert_eq!(w, vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let x = vec![1.0];
        let mut y = vec![1.0, 2.0];
        axpy(1.0, &x, &mut y);
    }

    /// The reduction tree written out for one product — the bitwise
    /// reference [`dot`] must reproduce.
    fn pairwise_ref(x: &[f64], y: &[f64], lo: usize, hi: usize) -> f64 {
        let n = hi - lo;
        if n <= REDUCE_CHUNK {
            let mut s = 0.0;
            for i in lo..hi {
                s += x[i] * y[i];
            }
            return s;
        }
        let nchunks = n.div_ceil(REDUCE_CHUNK);
        let mid = lo + (nchunks / 2) * REDUCE_CHUNK;
        pairwise_ref(x, y, lo, mid) + pairwise_ref(x, y, mid, hi)
    }

    proptest! {
        #[test]
        fn pairwise_dot_matches_sequential_exactly(
            x in proptest::collection::vec(-2.0f64..2.0, 0..5000usize),
        ) {
            let reference = pairwise_ref(&x, &x, 0, x.len());
            let d = dot(&x, &x);
            prop_assert_eq!(d.to_bits(), reference.to_bits());
            // Pairwise association error vs the naive left-fold is tiny.
            let naive: f64 = x.iter().map(|a| a * a).sum();
            prop_assert!((d - naive).abs() <= 1e-12 * (1.0 + naive.abs()));
        }

        #[test]
        fn elementwise_kernels_match_serial(
            x in proptest::collection::vec(-3.0f64..3.0, 0..9000usize),
        ) {
            let y0: Vec<f64> = x.iter().map(|v| 0.5 * v + 1.0).collect();
            let mut y = y0.clone();
            axpy(1.5, &x, &mut y);
            let seq_y: Vec<f64> = y0.iter().zip(&x).map(|(y, x)| y + 1.5 * x).collect();
            prop_assert!(y.iter().zip(&seq_y).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

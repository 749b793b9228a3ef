//! Dense vector kernels (the BLAS-1 layer of the solver).
//!
//! All kernels run on the workspace thread pool and are **bitwise
//! deterministic independent of thread count**. Elementwise updates
//! (`axpy`, `aypx`, ...) are trivially so — each slot is written once.
//! Reductions ([`dot`], [`norm2`]) use a *fixed-shape pairwise tree*: the
//! input is cut into [`REDUCE_CHUNK`]-aligned blocks, adjacent halves are
//! combined recursively, and the recursion shape depends only on the
//! vector length — never on how many threads happen to execute the two
//! halves. A 1-thread pool and a 16-thread pool therefore produce the
//! same floating-point result bit for bit, which keeps CG residual
//! histories reproducible across `PMG_THREADS` settings.

use crate::flops;
use rayon::prelude::*;

/// Leaf size of the pairwise reduction tree, in elements. Part of the
/// determinism contract: changing it changes the summation order (and so
/// the low-order bits) of every [`dot`]/[`norm2`] in the solver.
pub const REDUCE_CHUNK: usize = 1024;

/// Chunk size for parallel elementwise kernels. Only affects scheduling
/// granularity, never results (each element is written exactly once).
const ELEM_CHUNK: usize = 4096;

/// Fixed-shape pairwise reduction of `f(i)` over `lo..hi`.
///
/// Splits at a `REDUCE_CHUNK`-aligned midpoint and combines the halves
/// with `+` via `rayon::join`; the tree shape is a function of the index
/// range alone, so the result is identical for every pool size.
fn pairwise_sum<F>(lo: usize, hi: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
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
    let (a, b) = rayon::join(|| pairwise_sum(lo, mid, f), || pairwise_sum(mid, hi, f));
    a + b
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    y.par_chunks_mut(ELEM_CHUNK)
        .zip(x.par_chunks(ELEM_CHUNK))
        .for_each(|(yc, xc)| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += alpha * xi;
            }
        });
    flops::add(2 * x.len() as u64);
}

/// `y = x + beta * y` (the CG update for the search direction).
pub fn aypx(beta: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    y.par_chunks_mut(ELEM_CHUNK)
        .zip(x.par_chunks(ELEM_CHUNK))
        .for_each(|(yc, xc)| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi = xi + beta * *yi;
            }
        });
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

/// Infinity norm.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &a| m.max(a.abs()))
}

/// `z = x - y`.
pub fn sub_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    z.par_chunks_mut(ELEM_CHUNK)
        .zip(x.par_chunks(ELEM_CHUNK))
        .zip(y.par_chunks(ELEM_CHUNK))
        .for_each(|((zc, xc), yc)| {
            for ((zi, xi), yi) in zc.iter_mut().zip(xc).zip(yc) {
                *zi = xi - yi;
            }
        });
    flops::add(x.len() as u64);
}

/// `x *= s`.
pub fn scale(x: &mut [f64], s: f64) {
    x.par_chunks_mut(ELEM_CHUNK).for_each(|xc| {
        for xi in xc.iter_mut() {
            *xi *= s;
        }
    });
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
        assert_eq!(norm_inf(&[-5.0, 2.0]), 5.0);
        let mut z = vec![0.0; 3];
        sub_into(&y, &x, &mut z);
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

    /// Plain sequential evaluation of the identical reduction tree — the
    /// bitwise reference the parallel execution must reproduce.
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

    fn pool(n: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn dot_bitwise_identical_across_pools() {
        let x: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.031)
            .collect();
        let y: Vec<f64> = (0..10_000)
            .map(|i| ((i * 17 % 97) as f64 - 48.0) * 0.047)
            .collect();
        let reference = pairwise_ref(&x, &y, 0, x.len());
        for threads in [1usize, 2, 4] {
            let d = pool(threads).install(|| dot(&x, &y));
            assert_eq!(d.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    proptest! {
        #[test]
        fn pairwise_dot_matches_sequential_exactly(
            x in proptest::collection::vec(-2.0f64..2.0, 0..5000usize),
        ) {
            let reference = pairwise_ref(&x, &x, 0, x.len());
            let par4 = pool(4).install(|| dot(&x, &x));
            prop_assert_eq!(par4.to_bits(), reference.to_bits());
            // Pairwise association error vs the naive left-fold is tiny.
            let naive: f64 = x.iter().map(|a| a * a).sum();
            prop_assert!((par4 - naive).abs() <= 1e-12 * (1.0 + naive.abs()));
        }

        #[test]
        fn elementwise_kernels_match_serial(
            x in proptest::collection::vec(-3.0f64..3.0, 0..9000usize),
        ) {
            let y0: Vec<f64> = x.iter().map(|v| 0.5 * v + 1.0).collect();
            let mut par_y = y0.clone();
            pool(4).install(|| axpy(1.5, &x, &mut par_y));
            let seq_y: Vec<f64> = y0.iter().zip(&x).map(|(y, x)| y + 1.5 * x).collect();
            prop_assert!(par_y.iter().zip(&seq_y).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

//! Floating-point expansion arithmetic after Shewchuk.
//!
//! An *expansion* represents a real number exactly as a sum of f64
//! components, ordered by increasing magnitude and pairwise nonoverlapping.
//! All operations here are exact: no information is lost, so determinant
//! signs computed through expansions are the true signs. This is the same
//! machinery that backs the "geometric predicates (4,000 lines of C)"
//! dependency cited by the paper [Shewchuk 1997].
//!
//! The primitives (`two_sum`, `two_product`, `fast_expansion_sum_zeroelim`,
//! `scale_expansion_zeroelim`) follow the classical algorithms and never
//! touch the heap: an expansion is a prefix of a caller-owned buffer, and
//! `Exp` pairs such a buffer with its length so the exact stages in
//! [`crate::predicates`] can lay their intermediates out per determinant,
//! each at the capacity Shewchuk's bounds give it. Zero is the one-component
//! expansion `[0.0]`, so every expansion has a last (most significant)
//! component whose sign is the sign of the whole.

/// Error-free transform: returns `(x, y)` with `x = fl(a+b)` and `a+b = x+y`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    let avirt = x - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (x, around + bround)
}

/// `two_sum` specialization valid when `|a| >= |b|`.
#[inline]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    (x, b - bvirt)
}

/// Error-free transform for subtraction: `a - b = x + y` exactly.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bvirt = a - x;
    let avirt = x + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (x, around + bround)
}

/// Veltkamp splitter for dekker-style products: 2^27 + 1.
const SPLITTER: f64 = 134_217_729.0;

/// Split `a` into high and low halves whose product terms are exact.
#[inline]
pub fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let abig = c - a;
    let ahi = c - abig;
    let alo = a - ahi;
    (ahi, alo)
}

/// Error-free transform for multiplication: `a * b = x + y` exactly.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let err1 = x - ahi * bhi;
    let err2 = err1 - alo * bhi;
    let err3 = err2 - ahi * blo;
    (x, alo * blo - err3)
}

/// Exact `(a1 + a0) - b` as a three-component expansion `(x2, x1, x0)`,
/// most significant first (Shewchuk's `Two_One_Diff`).
#[inline]
fn two_one_diff(a1: f64, a0: f64, b: f64) -> (f64, f64, f64) {
    let (i, x0) = two_diff(a0, b);
    let (x2, x1) = two_sum(a1, i);
    (x2, x1, x0)
}

/// Exact `(a1 + a0) - (b1 + b0)` as a four-component expansion in
/// increasing-magnitude order (Shewchuk's `Two_Two_Diff`; components may be
/// zero).
#[inline]
pub(crate) fn two_two_diff(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    let (j, r0, x0) = two_one_diff(a1, a0, b0);
    let (x3, x2, x1) = two_one_diff(j, r0, b1);
    [x0, x1, x2, x3]
}

/// The exact 2x2 determinant `ax * by - bx * ay` (four components, zeros
/// not eliminated).
#[inline]
pub(crate) fn cross_product_2x2(ax: f64, ay: f64, bx: f64, by: f64) -> [f64; 4] {
    let (p1, p0) = two_product(ax, by);
    let (q1, q0) = two_product(bx, ay);
    two_two_diff(p1, p0, q1, q0)
}

/// Sum two nonempty expansions (nonoverlapping components in
/// increasing-magnitude order) into `h`, eliminating zero components, and
/// return the number of components written (at least one: zero is `[0.0]`).
/// `h` must hold `e.len() + f.len()` components.
pub fn fast_expansion_sum_zeroelim(e: &[f64], f: &[f64], h: &mut [f64]) -> usize {
    assert!(!e.is_empty() && !f.is_empty() && h.len() >= e.len() + f.len());
    let (mut ei, mut fi, mut hi) = (0usize, 0usize, 0usize);
    // `f` goes next when it is the smaller in magnitude.
    let e_next = |ei: usize, fi: usize| (f[fi] > e[ei]) == (f[fi] > -e[ei]);

    let mut q = if e_next(ei, fi) {
        ei += 1;
        e[ei - 1]
    } else {
        fi += 1;
        f[fi - 1]
    };
    if ei < e.len() && fi < f.len() {
        // The first addend is no smaller than `q`; later ones may be.
        let (qnew, hh) = if e_next(ei, fi) {
            ei += 1;
            fast_two_sum(e[ei - 1], q)
        } else {
            fi += 1;
            fast_two_sum(f[fi - 1], q)
        };
        q = qnew;
        if hh != 0.0 {
            h[hi] = hh;
            hi += 1;
        }
        while ei < e.len() && fi < f.len() {
            let (qnew, hh) = if e_next(ei, fi) {
                ei += 1;
                two_sum(q, e[ei - 1])
            } else {
                fi += 1;
                two_sum(q, f[fi - 1])
            };
            q = qnew;
            if hh != 0.0 {
                h[hi] = hh;
                hi += 1;
            }
        }
    }
    for &rest in e[ei..].iter().chain(&f[fi..]) {
        let (qnew, hh) = two_sum(q, rest);
        q = qnew;
        if hh != 0.0 {
            h[hi] = hh;
            hi += 1;
        }
    }
    if q != 0.0 || hi == 0 {
        h[hi] = q;
        hi += 1;
    }
    hi
}

/// Multiply the nonempty expansion `e` by the scalar `b` into `h`,
/// eliminating zero components, and return the number of components written
/// (at least one). `h` must hold `2 * e.len()` components.
pub fn scale_expansion_zeroelim(e: &[f64], b: f64, h: &mut [f64]) -> usize {
    assert!(!e.is_empty() && h.len() >= 2 * e.len());
    let (bhi, blo) = split(b);
    let product = |enow: f64| {
        let x = enow * b;
        let (ehi, elo) = split(enow);
        let err1 = x - ehi * bhi;
        let err2 = err1 - elo * bhi;
        let err3 = err2 - ehi * blo;
        (x, elo * blo - err3)
    };

    let mut hi = 0usize;
    let (mut q, hh) = product(e[0]);
    if hh != 0.0 {
        h[hi] = hh;
        hi += 1;
    }
    for &enow in &e[1..] {
        let (product1, product0) = product(enow);
        let (sum, hh) = two_sum(q, product0);
        if hh != 0.0 {
            h[hi] = hh;
            hi += 1;
        }
        let (qnew, hh) = fast_two_sum(product1, sum);
        q = qnew;
        if hh != 0.0 {
            h[hi] = hh;
            hi += 1;
        }
    }
    if q != 0.0 || hi == 0 {
        h[hi] = q;
        hi += 1;
    }
    hi
}

/// An expansion of at most `N` components in a buffer of its own: the unit
/// the exact predicate stages are laid out in. Sums and products write into
/// `self` from operands held elsewhere, so a stage is a fixed set of these
/// and no allocation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exp<const N: usize> {
    len: usize,
    c: [f64; N],
}

impl<const N: usize> Exp<N> {
    /// The zero expansion.
    pub const ZERO: Self = Exp {
        len: 1,
        c: [0.0; N],
    };

    /// The components, least significant first.
    #[inline]
    pub fn components(&self) -> &[f64] {
        &self.c[..self.len]
    }

    /// `self = e + f`, exactly. `N` must be at least the operands' lengths
    /// combined.
    #[inline]
    pub fn set_sum(&mut self, e: &[f64], f: &[f64]) {
        self.len = fast_expansion_sum_zeroelim(e, f, &mut self.c);
    }

    /// `self = e * b`, exactly. `N` must be at least twice `e`'s length.
    #[inline]
    pub fn set_scaled(&mut self, e: &[f64], b: f64) {
        self.len = scale_expansion_zeroelim(e, b, &mut self.c);
    }

    /// `self = -self`.
    #[inline]
    pub fn negate(&mut self) {
        for c in &mut self.c[..self.len] {
            *c = -*c;
        }
    }

    /// The exact sign: -1, 0 or +1.
    #[inline]
    pub fn sign(&self) -> i32 {
        let top = self.c[self.len - 1];
        (top > 0.0) as i32 - (top < 0.0) as i32
    }
}

/// The heap-backed exact calculator the predicates used before their stages
/// were laid out on fixed buffers: one `Vec` per operation, general
/// expansion-by-expansion products. Kept as the oracle the fixed-capacity
/// stages are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{fast_two_sum, split, two_diff, two_product, two_sum};

    /// Sum two expansions (given as slices of nonoverlapping components in
    /// increasing-magnitude order), eliminating zero components.
    pub fn fast_expansion_sum_zeroelim(e: &[f64], f: &[f64], h: &mut Vec<f64>) {
        h.clear();
        if e.is_empty() {
            h.extend_from_slice(f);
            h.retain(|&c| c != 0.0);
            return;
        }
        if f.is_empty() {
            h.extend_from_slice(e);
            h.retain(|&c| c != 0.0);
            return;
        }

        let mut eindex = 0usize;
        let mut findex = 0usize;
        let mut enow = e[0];
        let mut fnow = f[0];

        let mut q;
        if (fnow > enow) == (fnow > -enow) {
            q = enow;
            eindex += 1;
        } else {
            q = fnow;
            findex += 1;
        }

        let mut hh;
        if eindex < e.len() && findex < f.len() {
            enow = e[eindex];
            fnow = f[findex];
            loop {
                let qnew;
                if (fnow > enow) == (fnow > -enow) {
                    let (s, e_) = fast_two_sum(enow, q);
                    qnew = s;
                    hh = e_;
                    eindex += 1;
                } else {
                    let (s, e_) = fast_two_sum(fnow, q);
                    qnew = s;
                    hh = e_;
                    findex += 1;
                }
                q = qnew;
                if hh != 0.0 {
                    h.push(hh);
                }
                if eindex >= e.len() || findex >= f.len() {
                    break;
                }
                enow = e[eindex];
                fnow = f[findex];
            }
        }
        while eindex < e.len() {
            let (s, e_) = two_sum(q, e[eindex]);
            q = s;
            hh = e_;
            eindex += 1;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        while findex < f.len() {
            let (s, e_) = two_sum(q, f[findex]);
            q = s;
            hh = e_;
            findex += 1;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        if q != 0.0 || h.is_empty() {
            h.push(q);
        }
    }

    /// Multiply expansion `e` by scalar `b`, eliminating zero components.
    pub fn scale_expansion_zeroelim(e: &[f64], b: f64, h: &mut Vec<f64>) {
        h.clear();
        if e.is_empty() || b == 0.0 {
            h.push(0.0);
            return;
        }
        let (bhi, blo) = split(b);

        let (mut q, hh0) = {
            let x = e[0] * b;
            let (ehi, elo) = split(e[0]);
            let err1 = x - ehi * bhi;
            let err2 = err1 - elo * bhi;
            let err3 = err2 - ehi * blo;
            (x, elo * blo - err3)
        };
        if hh0 != 0.0 {
            h.push(hh0);
        }
        for &enow in &e[1..] {
            let (product1, product0) = {
                let x = enow * b;
                let (ehi, elo) = split(enow);
                let err1 = x - ehi * bhi;
                let err2 = err1 - elo * bhi;
                let err3 = err2 - ehi * blo;
                (x, elo * blo - err3)
            };
            let (sum, hh) = two_sum(q, product0);
            if hh != 0.0 {
                h.push(hh);
            }
            let (qnew, hh) = fast_two_sum(product1, sum);
            q = qnew;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        if q != 0.0 || h.is_empty() {
            h.push(q);
        }
    }

    /// An exact multi-component floating-point number.
    ///
    /// Components are stored in increasing-magnitude order and are pairwise
    /// nonoverlapping, so `self.components.iter().sum()` loses precision but
    /// the *sign* of the expansion is the sign of its largest (last) component.
    #[derive(Clone, Debug, Default)]
    pub struct Expansion {
        components: Vec<f64>,
    }

    impl Expansion {
        /// The exact zero.
        pub fn zero() -> Self {
            Expansion {
                components: Vec::new(),
            }
        }

        /// An expansion holding the single component `v`.
        pub fn from_f64(v: f64) -> Self {
            if v == 0.0 {
                Self::zero()
            } else {
                Expansion {
                    components: vec![v],
                }
            }
        }

        /// Exact product of two f64 values.
        pub fn from_product(a: f64, b: f64) -> Self {
            let (x, y) = two_product(a, b);
            let mut components = Vec::with_capacity(2);
            if y != 0.0 {
                components.push(y);
            }
            if x != 0.0 {
                components.push(x);
            }
            Expansion { components }
        }

        /// Exact difference of two f64 values.
        pub fn from_diff(a: f64, b: f64) -> Self {
            let (x, y) = two_diff(a, b);
            let mut components = Vec::with_capacity(2);
            if y != 0.0 {
                components.push(y);
            }
            if x != 0.0 {
                components.push(x);
            }
            Expansion { components }
        }

        /// Exact sum.
        pub fn add(&self, other: &Expansion) -> Expansion {
            let mut h = Vec::with_capacity(self.components.len() + other.components.len());
            fast_expansion_sum_zeroelim(&self.components, &other.components, &mut h);
            if h.len() == 1 && h[0] == 0.0 {
                h.clear();
            }
            Expansion { components: h }
        }

        /// Exact difference.
        pub fn sub(&self, other: &Expansion) -> Expansion {
            self.add(&other.neg())
        }

        /// Exact negation.
        pub fn neg(&self) -> Expansion {
            Expansion {
                components: self.components.iter().map(|c| -c).collect(),
            }
        }

        /// Exact product with a scalar.
        pub fn scale(&self, b: f64) -> Expansion {
            if b == 0.0 || self.components.is_empty() {
                return Self::zero();
            }
            let mut h = Vec::with_capacity(2 * self.components.len());
            scale_expansion_zeroelim(&self.components, b, &mut h);
            if h.len() == 1 && h[0] == 0.0 {
                h.clear();
            }
            Expansion { components: h }
        }

        /// Exact product of two expansions (distributes `scale` over the
        /// components of the shorter operand and sums the partial products).
        pub fn mul(&self, other: &Expansion) -> Expansion {
            let (small, big) = if self.components.len() <= other.components.len() {
                (self, other)
            } else {
                (other, self)
            };
            let mut acc = Expansion::zero();
            for &c in &small.components {
                acc = acc.add(&big.scale(c));
            }
            acc
        }

        /// Approximate value (correct to within one ulp of the exact value).
        pub fn estimate(&self) -> f64 {
            self.components.iter().sum()
        }

        /// The exact sign: -1, 0, or +1.
        pub fn sign(&self) -> i32 {
            match self.components.last() {
                None => 0,
                Some(&c) if c > 0.0 => 1,
                Some(&c) if c < 0.0 => -1,
                _ => 0,
            }
        }

        pub fn is_zero(&self) -> bool {
            self.sign() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Expansion;
    use super::*;

    #[test]
    fn two_sum_exact() {
        let (x, y) = two_sum(1e16, 1.0);
        // x + y must equal the true sum exactly.
        assert_eq!(x, 1e16); // 1.0 is below the ulp of 1e16 at this magnitude? No: ulp(1e16)=2. Round to even keeps 1e16.
        assert_eq!(y, 1.0);
    }

    #[test]
    fn two_product_exact() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-30);
        let (x, y) = two_product(a, b);
        // a*b = 1 + 2^-29 + 2^-60; x misses the 2^-60 tail.
        assert_eq!(y, 2f64.powi(-60));
        assert_eq!(x, 1.0 + 2f64.powi(-29));
    }

    #[test]
    fn expansion_add_sub() {
        let a = Expansion::from_f64(1e16);
        let b = Expansion::from_f64(1.0);
        let s = a.add(&b);
        assert_eq!(s.estimate(), 1e16 + 1.0);
        let d = s.sub(&a);
        assert_eq!(d.estimate(), 1.0);
        assert_eq!(d.sign(), 1);
        let z = d.sub(&b);
        assert!(z.is_zero());
    }

    #[test]
    fn expansion_mul() {
        let a = Expansion::from_f64(1.0 + 2f64.powi(-40));
        let sq = a.mul(&a);
        // (1+e)^2 = 1 + 2e + e^2 exactly.
        let expect = Expansion::from_f64(1.0)
            .add(&Expansion::from_f64(2f64.powi(-39)))
            .add(&Expansion::from_f64(2f64.powi(-80)));
        assert!(sq.sub(&expect).is_zero());
    }

    #[test]
    fn sign_of_tiny_difference() {
        // (a*b - c*d) where the difference is far below f64 rounding of
        // the naive computation.
        let a = 1.0 + 2f64.powi(-52);
        let naive = a * a - (1.0 + 2f64.powi(-51));
        // naive is 0 in f64 arithmetic (a*a rounds to 1+2^-51)...
        assert_eq!(naive, 0.0);
        // ...but the exact value is +2^-104.
        let exact = Expansion::from_product(a, a).sub(&Expansion::from_f64(1.0 + 2f64.powi(-51)));
        assert_eq!(exact.sign(), 1);
        assert_eq!(exact.estimate(), 2f64.powi(-104));
    }

    #[test]
    fn from_product_zero() {
        assert!(Expansion::from_product(0.0, 5.0).is_zero());
        assert!(Expansion::from_f64(0.0).is_zero());
        assert_eq!(Expansion::zero().estimate(), 0.0);
    }

    /// `n` components with full 53-bit significands, 2^120 apart: nothing
    /// overlaps, nothing cancels.
    fn spread(n: usize, offset: i32) -> Vec<f64> {
        (0..n as i32)
            .map(|i| (1.0 + (i + 1) as f64 * f64::EPSILON) * 2f64.powi(offset + 120 * i))
            .collect()
    }

    #[test]
    fn sum_fills_its_capacity_bound() {
        // Interleaved magnitudes: every input component survives, so the
        // result has exactly `e.len() + f.len()` components.
        let (e, f) = (spread(4, -300), spread(4, -240));
        let mut h = [0.0; 8];
        assert_eq!(fast_expansion_sum_zeroelim(&e, &f, &mut h), 8);
        let mut want = Vec::new();
        oracle::fast_expansion_sum_zeroelim(&e, &f, &mut want);
        assert_eq!(h.as_slice(), want.as_slice());
        assert!(h.windows(2).all(|w| w[0].abs() < w[1].abs()));

        let mut sum = Exp::<8>::ZERO;
        sum.set_sum(&e, &f);
        assert_eq!(sum.components(), want.as_slice());
        assert_eq!(sum.sign(), 1);
        sum.negate();
        assert_eq!(sum.sign(), -1);
    }

    #[test]
    #[should_panic]
    fn sum_rejects_a_buffer_below_the_bound() {
        let (e, f) = (spread(4, -300), spread(4, -240));
        fast_expansion_sum_zeroelim(&e, &f, &mut [0.0; 7]);
    }

    #[test]
    fn scale_fills_its_capacity_bound() {
        // Full significands on both sides: every product has a nonzero tail,
        // so the result has exactly `2 * e.len()` components.
        let e = spread(4, -200);
        let b = 1.0 + 3.0 * f64::EPSILON;
        let mut h = [0.0; 8];
        assert_eq!(scale_expansion_zeroelim(&e, b, &mut h), 8);
        let mut want = Vec::new();
        oracle::scale_expansion_zeroelim(&e, b, &mut want);
        assert_eq!(h.as_slice(), want.as_slice());

        let mut scaled = Exp::<8>::ZERO;
        scaled.set_scaled(&e, b);
        assert_eq!(scaled.components(), want.as_slice());
    }

    #[test]
    #[should_panic]
    fn scale_rejects_a_buffer_below_the_bound() {
        scale_expansion_zeroelim(&spread(4, -200), 1.5, &mut [0.0; 7]);
    }

    #[test]
    fn zero_is_one_zero_component() {
        let mut h = [1.0; 4];
        assert_eq!(fast_expansion_sum_zeroelim(&[0.0], &[0.0], &mut h), 1);
        assert_eq!(h[0], 0.0);
        // Exact cancellation leaves the one-component zero, too.
        assert_eq!(
            fast_expansion_sum_zeroelim(&[1.0, 4e20], &[-1.0, -4e20], &mut h),
            1
        );
        assert_eq!(h[0], 0.0);
        assert_eq!(scale_expansion_zeroelim(&[3.0, 5e20], 0.0, &mut h), 1);
        assert_eq!(h[0], 0.0);
        assert_eq!(Exp::<4>::ZERO.sign(), 0);
        assert_eq!(Exp::<4>::ZERO.components(), [0.0]);
    }

    #[test]
    fn two_two_diff_is_exact() {
        // (a1 + a0) - (b1 + b0) against the oracle's calculator.
        let (a1, a0) = two_product(1.0 + 2f64.powi(-30), 3.0 + 2f64.powi(-40));
        let (b1, b0) = two_product(3.0 - 2f64.powi(-33), 1.0 + 2f64.powi(-29));
        let got = two_two_diff(a1, a0, b1, b0);
        let want = Expansion::from_f64(a1)
            .add(&Expansion::from_f64(a0))
            .sub(&Expansion::from_f64(b1))
            .sub(&Expansion::from_f64(b0));
        let mut sum = Expansion::zero();
        for c in got {
            sum = sum.add(&Expansion::from_f64(c));
        }
        assert!(sum.sub(&want).is_zero());
        assert_eq!(
            cross_product_2x2(
                1.0 + 2f64.powi(-30),
                3.0 - 2f64.powi(-33),
                1.0 + 2f64.powi(-29),
                3.0 + 2f64.powi(-40)
            ),
            got
        );
    }
}

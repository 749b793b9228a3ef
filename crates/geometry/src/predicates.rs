//! Adaptive robust predicates `orient3d` and `insphere`.
//!
//! Each predicate first evaluates the determinant in plain f64 alongside a
//! *permanent* (the same computation with every subtraction replaced by an
//! addition of absolute values). If the magnitude of the determinant exceeds
//! a forward-error bound proportional to the permanent, the f64 sign is
//! provably correct and is returned; otherwise we fall back to an exact
//! evaluation with expansion arithmetic ([`crate::expansion`]): on the
//! coordinate differences when all of them are exactly representable (the
//! *exact-diff* stage), else on the raw coordinates (the *full-exact* stage).
//!
//! The exact stages are Shewchuk's, laid out per determinant on
//! fixed-capacity expansions and free of heap traffic per call: `orient3d`
//! works on the stack, `insphere` on scratch that a [`Predicates`] allocates
//! on its first fallback and keeps, so a triangulation pays for it once.
//!
//! Sign conventions follow Shewchuk:
//!
//! * `orient3d(a, b, c, d) > 0` iff `d` lies *below* the plane through
//!   `a, b, c`, where below means the side from which `a, b, c` appear in
//!   counterclockwise order.
//! * `insphere(a, b, c, d, e) > 0` iff `e` lies inside the circumsphere of
//!   the tetrahedron `(a, b, c, d)`, **assuming** `orient3d(a,b,c,d) > 0`.
//!   (For negatively oriented tetrahedra the sign flips.)

use crate::expansion::{cross_product_2x2, two_diff, Exp};
use crate::vec3::Vec3;

/// True when `x = fl(a - b)` is the exact difference (two_diff tail is
/// zero) — common for mesh coordinates on structured or rational grids.
#[inline]
fn diff_is_exact(a: f64, b: f64) -> bool {
    two_diff(a, b).1 == 0.0
}

/// True when every coordinate of `p - q` is computed exactly.
#[inline]
fn diffs_are_exact(p: Vec3, q: Vec3) -> bool {
    diff_is_exact(p.x, q.x) && diff_is_exact(p.y, q.y) && diff_is_exact(p.z, q.z)
}

/// Machine epsilon for the error bounds: 2^-53 (half an ulp at 1.0).
const EPS: f64 = 1.1102230246251565e-16;

/// Forward-error coefficient for the 3x3 orientation determinant.
const O3D_ERRBOUND: f64 = (7.0 + 56.0 * EPS) * EPS;

/// Forward-error coefficient for the 4x4 insphere determinant.
const ISP_ERRBOUND: f64 = (16.0 + 224.0 * EPS) * EPS;

/// Qualitative result of an orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    Negative,
    Zero,
    Positive,
}

impl Orientation {
    fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Less => Orientation::Negative,
            std::cmp::Ordering::Equal => Orientation::Zero,
            std::cmp::Ordering::Greater => Orientation::Positive,
        }
    }
}

/// The precision level that resolves one predicate call.
enum Stage {
    /// The f64 determinant cleared its error bound; this is its sign.
    Filter(i32),
    /// Every coordinate difference is exact: evaluate on the differences.
    ExactDiff,
    /// Evaluate on the raw coordinates.
    FullExact,
}

/// Non-robust f64 orientation determinant (used where speed matters and the
/// caller tolerates sign errors near degeneracy, e.g. quality metrics).
#[inline]
pub fn orient3d_fast(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let adz = a.z - d.z;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let bdz = b.z - d.z;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;
    let cdz = c.z - d.z;
    adx * (bdy * cdz - bdz * cdy) + ady * (bdz * cdx - bdx * cdz) + adz * (bdx * cdy - bdy * cdx)
}

/// The f64 filter of `orient3d`, and the exact stage to use when it fails.
#[inline]
fn orient3d_stage(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Stage {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let adz = a.z - d.z;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let bdz = b.z - d.z;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;
    let cdz = c.z - d.z;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;

    let det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * adz.abs()
        + (cdxady.abs() + adxcdy.abs()) * bdz.abs()
        + (adxbdy.abs() + bdxady.abs()) * cdz.abs();
    let errbound = O3D_ERRBOUND * permanent;
    if det > errbound || -det > errbound {
        return Stage::Filter(if det > 0.0 { 1 } else { -1 });
    }
    // Adaptive stage (Shewchuk's structure): when every coordinate
    // difference is exactly representable — the common case for mesh
    // coordinates — the determinant of the *differences* is the true
    // determinant, and it evaluates exactly at a fraction of the
    // full-precision cost.
    if diffs_are_exact(a, d) && diffs_are_exact(b, d) && diffs_are_exact(c, d) {
        Stage::ExactDiff
    } else {
        Stage::FullExact
    }
}

/// Exact sign of the orientation determinant of exact differences
/// `ad = a - d`, `bd = b - d`, `cd = c - d` (24 components at most).
fn orient3d_diff_sign(ad: Vec3, bd: Vec3, cd: Vec3) -> i32 {
    let (mut adet, mut bdet, mut cdet) = (Exp::<8>::ZERO, Exp::<8>::ZERO, Exp::<8>::ZERO);
    adet.set_scaled(&cross_product_2x2(bd.x, bd.y, cd.x, cd.y), ad.z);
    bdet.set_scaled(&cross_product_2x2(cd.x, cd.y, ad.x, ad.y), bd.z);
    cdet.set_scaled(&cross_product_2x2(ad.x, ad.y, bd.x, bd.y), cd.z);
    let (mut abdet, mut det) = (Exp::<16>::ZERO, Exp::<24>::ZERO);
    abdet.set_sum(adet.components(), bdet.components());
    det.set_sum(abdet.components(), cdet.components());
    det.sign()
}

/// Exact sign of the orientation determinant from the raw coordinates
/// (Shewchuk's `orient3dexact`: 2x2 minors of all six point pairs, four
/// 12-component 3x3 minors, 96 components at most).
fn orient3d_exact_sign(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> i32 {
    let ab = cross_product_2x2(a.x, a.y, b.x, b.y);
    let bc = cross_product_2x2(b.x, b.y, c.x, c.y);
    let cd = cross_product_2x2(c.x, c.y, d.x, d.y);
    let da = cross_product_2x2(d.x, d.y, a.x, a.y);
    let ac = cross_product_2x2(a.x, a.y, c.x, c.y);
    let bd = cross_product_2x2(b.x, b.y, d.x, d.y);
    let ca = ac.map(|x| -x);
    let db = bd.map(|x| -x);

    // `p + q + r` of three 2x2 minors, scaled by the fourth point's `z`.
    let term = |p: &[f64; 4], q: &[f64; 4], r: &[f64; 4], z: f64| {
        let (mut t8, mut t12, mut out) = (Exp::<8>::ZERO, Exp::<12>::ZERO, Exp::<24>::ZERO);
        t8.set_sum(p, q);
        t12.set_sum(t8.components(), r);
        out.set_scaled(t12.components(), z);
        out
    };
    let adet = term(&bc, &cd, &db, a.z);
    let bdet = term(&cd, &da, &ac, -b.z);
    let cdet = term(&da, &ab, &bd, c.z);
    let ddet = term(&ab, &bc, &ca, -d.z);

    let (mut abdet, mut cddet, mut det) = (Exp::<48>::ZERO, Exp::<48>::ZERO, Exp::<96>::ZERO);
    abdet.set_sum(adet.components(), bdet.components());
    cddet.set_sum(cdet.components(), ddet.components());
    det.set_sum(abdet.components(), cddet.components());
    det.sign()
}

/// The f64 filter of `insphere`, and the exact stage to use when it fails.
#[inline]
fn insphere_stage(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Stage {
    let aex = a.x - e.x;
    let aey = a.y - e.y;
    let aez = a.z - e.z;
    let bex = b.x - e.x;
    let bey = b.y - e.y;
    let bez = b.z - e.z;
    let cex = c.x - e.x;
    let cey = c.y - e.y;
    let cez = c.z - e.z;
    let dex = d.x - e.x;
    let dey = d.y - e.y;
    let dez = d.z - e.z;

    // Pairwise 2x2 minors in the (x, y) coordinates, with their permanents.
    let ab = aex * bey - bex * aey;
    let ab_p = (aex * bey).abs() + (bex * aey).abs();
    let bc = bex * cey - cex * bey;
    let bc_p = (bex * cey).abs() + (cex * bey).abs();
    let cd = cex * dey - dex * cey;
    let cd_p = (cex * dey).abs() + (dex * cey).abs();
    let da = dex * aey - aex * dey;
    let da_p = (dex * aey).abs() + (aex * dey).abs();
    let ac = aex * cey - cex * aey;
    let ac_p = (aex * cey).abs() + (cex * aey).abs();
    let bd = bex * dey - dex * bey;
    let bd_p = (bex * dey).abs() + (dex * bey).abs();

    // 3x3 minors (xyz) and their permanents.
    let abc = aez * bc - bez * ac + cez * ab;
    let abc_p = aez.abs() * bc_p + bez.abs() * ac_p + cez.abs() * ab_p;
    let bcd = bez * cd - cez * bd + dez * bc;
    let bcd_p = bez.abs() * cd_p + cez.abs() * bd_p + dez.abs() * bc_p;
    let cda = cez * da + dez * ac + aez * cd;
    let cda_p = cez.abs() * da_p + dez.abs() * ac_p + aez.abs() * cd_p;
    let dab = dez * ab + aez * bd + bez * da;
    let dab_p = dez.abs() * ab_p + aez.abs() * bd_p + bez.abs() * da_p;

    let alift = aex * aex + aey * aey + aez * aez;
    let blift = bex * bex + bey * bey + bez * bez;
    let clift = cex * cex + cey * cey + cez * cez;
    let dlift = dex * dex + dey * dey + dez * dez;

    let det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd);
    let permanent = dlift * abc_p + clift * dab_p + blift * cda_p + alift * bcd_p;
    let errbound = ISP_ERRBOUND * permanent;
    if det > errbound || -det > errbound {
        return Stage::Filter(if det > 0.0 { 1 } else { -1 });
    }
    if [a, b, c, d].iter().all(|&p| diffs_are_exact(p, e)) {
        Stage::ExactDiff
    } else {
        Stage::FullExact
    }
}

/// Intermediates of one lifted cofactor `± |l|² (m0 s0 + m1 s1 + m2 s2)`:
/// three 2x2 minors scaled into a 24-component 3x3 minor, then scaled twice
/// by each coordinate of the lifted point.
struct LiftScratch<const M: usize, const M2: usize, const M4: usize, const M8: usize> {
    minor: Exp<M>,
    once: Exp<M2>,
    x: Exp<M4>,
    y: Exp<M4>,
    z: Exp<M4>,
    xy: Exp<M8>,
}

impl<const M: usize, const M2: usize, const M4: usize, const M8: usize> LiftScratch<M, M2, M4, M8> {
    const ZERO: Self = LiftScratch {
        minor: Exp::ZERO,
        once: Exp::ZERO,
        x: Exp::ZERO,
        y: Exp::ZERO,
        z: Exp::ZERO,
        xy: Exp::ZERO,
    };

    /// `out = sign * (l.x² + l.y² + l.z²) * self.minor`; `out` holds 12 M
    /// components.
    fn lift<const OUT: usize>(&mut self, out: &mut Exp<OUT>, l: Vec3, sign: f64) {
        for (axis, sq) in [(l.x, &mut self.x), (l.y, &mut self.y), (l.z, &mut self.z)] {
            self.once.set_scaled(self.minor.components(), axis);
            sq.set_scaled(self.once.components(), sign * axis);
        }
        self.xy.set_sum(self.x.components(), self.y.components());
        out.set_sum(self.xy.components(), self.z.components());
    }
}

/// Scratch of the exact-diff `insphere` stage (Shewchuk's first adaptive
/// stage): four 288-component lifted cofactors summed into 1152 components.
struct InsphereDiffScratch {
    t8a: Exp<8>,
    t8b: Exp<8>,
    t8c: Exp<8>,
    t16: Exp<16>,
    lift: LiftScratch<24, 48, 96, 192>,
    dets: [Exp<288>; 4],
    abdet: Exp<576>,
    cddet: Exp<576>,
    det: Exp<1152>,
}

impl InsphereDiffScratch {
    const ZERO: Self = InsphereDiffScratch {
        t8a: Exp::ZERO,
        t8b: Exp::ZERO,
        t8c: Exp::ZERO,
        t16: Exp::ZERO,
        lift: LiftScratch::ZERO,
        dets: [Exp::ZERO; 4],
        abdet: Exp::ZERO,
        cddet: Exp::ZERO,
        det: Exp::ZERO,
    };

    /// Exact sign of the insphere determinant of exact differences
    /// `ae = a - e`, ..., `de = d - e`.
    fn sign(&mut self, ae: Vec3, be: Vec3, ce: Vec3, de: Vec3) -> i32 {
        let ab = cross_product_2x2(ae.x, ae.y, be.x, be.y);
        let bc = cross_product_2x2(be.x, be.y, ce.x, ce.y);
        let cd = cross_product_2x2(ce.x, ce.y, de.x, de.y);
        let da = cross_product_2x2(de.x, de.y, ae.x, ae.y);
        let ac = cross_product_2x2(ae.x, ae.y, ce.x, ce.y);
        let bd = cross_product_2x2(be.x, be.y, de.x, de.y);

        // Cofactor k: the 3x3 minor of the other three points, lifted by
        // point k, with the sign of its place in the 4x4 determinant.
        let cofactors = [
            ([(&cd, be.z), (&bd, -ce.z), (&bc, de.z)], ae, -1.0),
            ([(&da, ce.z), (&ac, de.z), (&cd, ae.z)], be, 1.0),
            ([(&ab, de.z), (&bd, ae.z), (&da, be.z)], ce, -1.0),
            ([(&bc, ae.z), (&ac, -be.z), (&ab, ce.z)], de, 1.0),
        ];
        for (out, (minor, lifted, sign)) in self.dets.iter_mut().zip(cofactors) {
            self.t8a.set_scaled(minor[0].0, minor[0].1);
            self.t8b.set_scaled(minor[1].0, minor[1].1);
            self.t8c.set_scaled(minor[2].0, minor[2].1);
            self.t16
                .set_sum(self.t8a.components(), self.t8b.components());
            self.lift
                .minor
                .set_sum(self.t8c.components(), self.t16.components());
            self.lift.lift(out, lifted, sign);
        }
        let [adet, bdet, cdet, ddet] = &self.dets;
        self.abdet.set_sum(adet.components(), bdet.components());
        self.cddet.set_sum(cdet.components(), ddet.components());
        self.det
            .set_sum(self.abdet.components(), self.cddet.components());
        self.det.sign()
    }
}

/// Scratch of the full-exact `insphere` stage (Shewchuk's `insphereexact`
/// on the raw coordinates of all five points): ten 2x2 minors, ten
/// 24-component 3x3 minors, five 96-component 4x4 minors each lifted into
/// 1152 components, 5760 components in the sum.
struct InsphereFullScratch {
    t8a: Exp<8>,
    t8b: Exp<8>,
    t16: Exp<16>,
    minors: [Exp<24>; 10],
    t48a: Exp<48>,
    t48b: Exp<48>,
    lift: LiftScratch<96, 192, 384, 768>,
    det: Exp<1152>,
    acc: [Exp<5760>; 2],
}

impl InsphereFullScratch {
    const ZERO: Self = InsphereFullScratch {
        t8a: Exp::ZERO,
        t8b: Exp::ZERO,
        t16: Exp::ZERO,
        minors: [Exp::ZERO; 10],
        t48a: Exp::ZERO,
        t48b: Exp::ZERO,
        lift: LiftScratch::ZERO,
        det: Exp::ZERO,
        acc: [Exp::ZERO; 2],
    };

    fn sign(&mut self, p: [Vec3; 5]) -> i32 {
        let [a, b, c, d, e] = p;
        let xy = |p: Vec3, q: Vec3| cross_product_2x2(p.x, p.y, q.x, q.y);
        let (ab, bc, cd, de, ea) = (xy(a, b), xy(b, c), xy(c, d), xy(d, e), xy(e, a));
        let (ac, bd, ce, da, eb) = (xy(a, c), xy(b, d), xy(c, e), xy(d, a), xy(e, b));

        // 3x3 minors `m0 z0 + m1 z1 + m2 z2` of the point triples, in the
        // order ABC BCD CDE DEA EAB ABD BCE CDA DEB EAC.
        const ABC: usize = 0;
        const BCD: usize = 1;
        const CDE: usize = 2;
        const DEA: usize = 3;
        const EAB: usize = 4;
        const ABD: usize = 5;
        const BCE: usize = 6;
        const CDA: usize = 7;
        const DEB: usize = 8;
        const EAC: usize = 9;
        let triples = [
            [(&bc, a.z), (&ac, -b.z), (&ab, c.z)],
            [(&cd, b.z), (&bd, -c.z), (&bc, d.z)],
            [(&de, c.z), (&ce, -d.z), (&cd, e.z)],
            [(&ea, d.z), (&da, -e.z), (&de, a.z)],
            [(&ab, e.z), (&eb, -a.z), (&ea, b.z)],
            [(&bd, a.z), (&da, b.z), (&ab, d.z)],
            [(&ce, b.z), (&eb, c.z), (&bc, e.z)],
            [(&da, c.z), (&ac, d.z), (&cd, a.z)],
            [(&eb, d.z), (&bd, e.z), (&de, b.z)],
            [(&ac, e.z), (&ce, a.z), (&ea, c.z)],
        ];
        for (out, t) in self.minors.iter_mut().zip(triples) {
            self.t8a.set_scaled(t[0].0, t[0].1);
            self.t8b.set_scaled(t[1].0, t[1].1);
            self.t16
                .set_sum(self.t8a.components(), self.t8b.components());
            self.t8a.set_scaled(t[2].0, t[2].1);
            out.set_sum(self.t8a.components(), self.t16.components());
        }

        // 4x4 minor k leaves point k out: `(m0 + m1) - (m2 + m3)`, lifted by
        // point k and added to the running sum.
        let quads = [
            ([CDE, BCE, DEB, BCD], a),
            ([DEA, CDA, EAC, CDE], b),
            ([EAB, DEB, ABD, DEA], c),
            ([ABC, EAC, BCE, EAB], d),
            ([BCD, ABD, CDA, ABC], e),
        ];
        for (k, (m, lifted)) in quads.into_iter().enumerate() {
            let m = m.map(|i| self.minors[i].components());
            self.t48a.set_sum(m[0], m[1]);
            self.t48b.set_sum(m[2], m[3]);
            self.t48b.negate();
            self.lift
                .minor
                .set_sum(self.t48a.components(), self.t48b.components());
            if k == 0 {
                self.lift.lift(&mut self.acc[0], lifted, 1.0);
            } else {
                self.lift.lift(&mut self.det, lifted, 1.0);
                let [acc0, acc1] = &mut self.acc;
                let (from, to) = if k % 2 == 1 {
                    (acc0, acc1)
                } else {
                    (acc1, acc0)
                };
                to.set_sum(from.components(), self.det.components());
            }
        }
        // Four additions after the first cofactor: the sum ends in `acc[0]`.
        self.acc[0].sign()
    }
}

/// A predicate evaluator: the `insphere` scratch and a count of how often
/// each precision level resolved a call. One per triangulation; the free
/// functions [`orient3d`] and [`insphere`] make a throw-away one per call.
#[derive(Default)]
pub struct Predicates {
    filter: u64,
    exact_diff: u64,
    full_exact: u64,
    insphere_diff: Option<Box<InsphereDiffScratch>>,
    insphere_full: Option<Box<InsphereFullScratch>>,
}

impl Predicates {
    /// An evaluator with zero counts; scratch is allocated on first need.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(filter, exact-diff stage, full-exact stage)` call counts so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.filter, self.exact_diff, self.full_exact)
    }

    /// Robust orientation test; the returned sign is exact.
    pub fn orient3d(&mut self, a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
        Orientation::from_sign(match orient3d_stage(a, b, c, d) {
            Stage::Filter(sign) => {
                self.filter += 1;
                sign
            }
            Stage::ExactDiff => {
                self.exact_diff += 1;
                orient3d_diff_sign(a - d, b - d, c - d)
            }
            Stage::FullExact => {
                self.full_exact += 1;
                orient3d_exact_sign(a, b, c, d)
            }
        })
    }

    /// Robust insphere test; the returned sign is exact.
    ///
    /// Positive means `e` is strictly inside the circumsphere of the
    /// positively oriented tetrahedron `(a, b, c, d)`.
    pub fn insphere(&mut self, a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Orientation {
        Orientation::from_sign(match insphere_stage(a, b, c, d, e) {
            Stage::Filter(sign) => {
                self.filter += 1;
                sign
            }
            Stage::ExactDiff => {
                self.exact_diff += 1;
                self.insphere_diff
                    .get_or_insert_with(|| Box::new(InsphereDiffScratch::ZERO))
                    .sign(a - e, b - e, c - e, d - e)
            }
            Stage::FullExact => {
                self.full_exact += 1;
                self.insphere_full
                    .get_or_insert_with(|| Box::new(InsphereFullScratch::ZERO))
                    .sign([a, b, c, d, e])
            }
        })
    }
}

/// Robust orientation test; the returned sign is exact.
pub fn orient3d(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
    Predicates::new().orient3d(a, b, c, d)
}

/// Robust insphere test; the returned sign is exact.
///
/// Positive means `e` is strictly inside the circumsphere of the positively
/// oriented tetrahedron `(a, b, c, d)`.
pub fn insphere(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Orientation {
    Predicates::new().insphere(a, b, c, d, e)
}

/// Circumcenter and squared circumradius of a tetrahedron (f64 arithmetic;
/// returns `None` for (near-)degenerate tetrahedra).
pub fn circumsphere(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Option<(Vec3, f64)> {
    let ba = b - a;
    let ca = c - a;
    let da = d - a;
    let denom = 2.0 * ba.dot(ca.cross(da));
    if denom.abs() < 1e-30 {
        return None;
    }
    let num = ba.norm2() * ca.cross(da) + ca.norm2() * da.cross(ba) + da.norm2() * ba.cross(ca);
    let center = a + num / denom;
    let r2 = center.dist2(a);
    if r2.is_finite() {
        Some((center, r2))
    } else {
        None
    }
}

/// The predicates as they were before their exact stages moved onto fixed
/// buffers: the same filter and stage choice, the signs from the general
/// [`Expansion`] calculator. The oracle of the tests here and of the
/// triangulation oracle in [`crate::delaunay`].
#[cfg(test)]
pub(crate) mod oracle {
    use super::{insphere_stage, orient3d_stage, Orientation, Stage};
    use crate::expansion::oracle::Expansion;
    use crate::vec3::Vec3;

    pub fn orient3d(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
        Orientation::from_sign(match orient3d_stage(a, b, c, d) {
            Stage::Filter(sign) => sign,
            Stage::ExactDiff => orient3d_from_diffs(a - d, b - d, c - d),
            Stage::FullExact => orient3d_exact_sign(a, b, c, d),
        })
    }

    pub fn insphere(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Orientation {
        Orientation::from_sign(match insphere_stage(a, b, c, d, e) {
            Stage::Filter(sign) => sign,
            Stage::ExactDiff => insphere_from_diffs(
                (a - e).to_array(),
                (b - e).to_array(),
                (c - e).to_array(),
                (d - e).to_array(),
            ),
            Stage::FullExact => insphere_exact_sign(a, b, c, d, e),
        })
    }

    pub fn orient3d_from_diffs(ad: Vec3, bd: Vec3, cd: Vec3) -> i32 {
        let e = Expansion::from_f64;
        let m1 = e(bd.y).mul(&e(cd.z)).sub(&e(bd.z).mul(&e(cd.y)));
        let m2 = e(bd.z).mul(&e(cd.x)).sub(&e(bd.x).mul(&e(cd.z)));
        let m3 = e(bd.x).mul(&e(cd.y)).sub(&e(bd.y).mul(&e(cd.x)));
        e(ad.x)
            .mul(&m1)
            .add(&e(ad.y).mul(&m2))
            .add(&e(ad.z).mul(&m3))
            .sign()
    }

    pub fn orient3d_exact_sign(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> i32 {
        let adx = Expansion::from_diff(a.x, d.x);
        let ady = Expansion::from_diff(a.y, d.y);
        let adz = Expansion::from_diff(a.z, d.z);
        let bdx = Expansion::from_diff(b.x, d.x);
        let bdy = Expansion::from_diff(b.y, d.y);
        let bdz = Expansion::from_diff(b.z, d.z);
        let cdx = Expansion::from_diff(c.x, d.x);
        let cdy = Expansion::from_diff(c.y, d.y);
        let cdz = Expansion::from_diff(c.z, d.z);

        let m1 = bdy.mul(&cdz).sub(&bdz.mul(&cdy));
        let m2 = bdz.mul(&cdx).sub(&bdx.mul(&cdz));
        let m3 = bdx.mul(&cdy).sub(&bdy.mul(&cdx));
        adx.mul(&m1).add(&ady.mul(&m2)).add(&adz.mul(&m3)).sign()
    }

    /// Exact insphere determinant from already-exact coordinate differences
    /// (single-component expansion inputs: much shorter intermediate
    /// expansions than the general exact path).
    pub fn insphere_from_diffs(ad: [f64; 3], bd: [f64; 3], cd: [f64; 3], dd: [f64; 3]) -> i32 {
        let e = Expansion::from_f64;
        let (aex, aey, aez) = (e(ad[0]), e(ad[1]), e(ad[2]));
        let (bex, bey, bez) = (e(bd[0]), e(bd[1]), e(bd[2]));
        let (cex, cey, cez) = (e(cd[0]), e(cd[1]), e(cd[2]));
        let (dex, dey, dez) = (e(dd[0]), e(dd[1]), e(dd[2]));

        let xy2 = |px: &Expansion, py: &Expansion, qx: &Expansion, qy: &Expansion| {
            px.mul(qy).sub(&qx.mul(py))
        };
        let ab = xy2(&aex, &aey, &bex, &bey);
        let bc = xy2(&bex, &bey, &cex, &cey);
        let cd_ = xy2(&cex, &cey, &dex, &dey);
        let da = xy2(&dex, &dey, &aex, &aey);
        let ac = xy2(&aex, &aey, &cex, &cey);
        let bd_ = xy2(&bex, &bey, &dex, &dey);

        let abc = aez.mul(&bc).sub(&bez.mul(&ac)).add(&cez.mul(&ab));
        let bcd = bez.mul(&cd_).sub(&cez.mul(&bd_)).add(&dez.mul(&bc));
        let cda = cez.mul(&da).add(&dez.mul(&ac)).add(&aez.mul(&cd_));
        let dab = dez.mul(&ab).add(&aez.mul(&bd_)).add(&bez.mul(&da));

        let lift =
            |x: &Expansion, y: &Expansion, z: &Expansion| x.mul(x).add(&y.mul(y)).add(&z.mul(z));
        let alift = lift(&aex, &aey, &aez);
        let blift = lift(&bex, &bey, &bez);
        let clift = lift(&cex, &cey, &cez);
        let dlift = lift(&dex, &dey, &dez);

        dlift
            .mul(&abc)
            .sub(&clift.mul(&dab))
            .add(&blift.mul(&cda))
            .sub(&alift.mul(&bcd))
            .sign()
    }

    pub fn insphere_exact_sign(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> i32 {
        let ex = |p: Vec3| {
            (
                Expansion::from_diff(p.x, e.x),
                Expansion::from_diff(p.y, e.y),
                Expansion::from_diff(p.z, e.z),
            )
        };
        let (aex, aey, aez) = ex(a);
        let (bex, bey, bez) = ex(b);
        let (cex, cey, cez) = ex(c);
        let (dex, dey, dez) = ex(d);

        let xy2 = |px: &Expansion, py: &Expansion, qx: &Expansion, qy: &Expansion| {
            px.mul(qy).sub(&qx.mul(py))
        };
        let ab = xy2(&aex, &aey, &bex, &bey);
        let bc = xy2(&bex, &bey, &cex, &cey);
        let cd = xy2(&cex, &cey, &dex, &dey);
        let da = xy2(&dex, &dey, &aex, &aey);
        let ac = xy2(&aex, &aey, &cex, &cey);
        let bd = xy2(&bex, &bey, &dex, &dey);

        let abc = aez.mul(&bc).sub(&bez.mul(&ac)).add(&cez.mul(&ab));
        let bcd = bez.mul(&cd).sub(&cez.mul(&bd)).add(&dez.mul(&bc));
        let cda = cez.mul(&da).add(&dez.mul(&ac)).add(&aez.mul(&cd));
        let dab = dez.mul(&ab).add(&aez.mul(&bd)).add(&bez.mul(&da));

        let lift =
            |x: &Expansion, y: &Expansion, z: &Expansion| x.mul(x).add(&y.mul(y)).add(&z.mul(z));
        let alift = lift(&aex, &aey, &aez);
        let blift = lift(&bex, &bey, &bez);
        let clift = lift(&cex, &cey, &cez);
        let dlift = lift(&dex, &dey, &dez);

        dlift
            .mul(&abc)
            .sub(&clift.mul(&dab))
            .add(&blift.mul(&cda))
            .sub(&alift.mul(&bcd))
            .sign()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    const A: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    const B: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    const C: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };

    #[test]
    fn orient3d_basic() {
        // With d *below* the plane z=0 (i.e. z < 0), a,b,c are CCW seen from
        // below... verify both sides are consistent and opposite.
        let up = Vec3::new(0.0, 0.0, 1.0);
        let dn = Vec3::new(0.0, 0.0, -1.0);
        let s_up = orient3d(A, B, C, up);
        let s_dn = orient3d(A, B, C, dn);
        assert_ne!(s_up, s_dn);
        assert_ne!(s_up, Orientation::Zero);
        // Shewchuk convention: (0,0,1) is *above* the CCW plane abc, so the
        // determinant for d above is negative.
        assert_eq!(s_up, Orientation::Negative);
        assert_eq!(s_dn, Orientation::Positive);
    }

    #[test]
    fn orient3d_coplanar() {
        let d = Vec3::new(0.3, 0.4, 0.0);
        assert_eq!(orient3d(A, B, C, d), Orientation::Zero);
    }

    #[test]
    fn orient3d_near_degenerate_exact() {
        // d is displaced off the plane by far less than f64 evaluation noise
        // would resolve at this scale.
        let scale = 1e10;
        let a = Vec3::new(scale, scale, 0.0);
        let b = Vec3::new(scale + 1.0, scale, 0.0);
        let c = Vec3::new(scale, scale + 1.0, 0.0);
        let d_above = Vec3::new(scale + 0.3, scale + 0.3, 1e-12);
        let d_on = Vec3::new(scale + 0.3, scale + 0.3, 0.0);
        assert_eq!(orient3d(a, b, c, d_above), Orientation::Negative);
        assert_eq!(orient3d(a, b, c, d_on), Orientation::Zero);
    }

    #[test]
    fn insphere_basic() {
        let d = Vec3::new(0.0, 0.0, -1.0); // positively oriented (a,b,c,d)
        assert_eq!(orient3d(A, B, C, d), Orientation::Positive);
        // Circumsphere of this tet contains the origin-ish interior point.
        let inside = Vec3::new(0.25, 0.25, -0.25);
        let outside = Vec3::new(10.0, 10.0, 10.0);
        assert_eq!(insphere(A, B, C, d, inside), Orientation::Positive);
        assert_eq!(insphere(A, B, C, d, outside), Orientation::Negative);
    }

    #[test]
    fn insphere_cospherical() {
        // Unit sphere through 4 points; 5th point also on the sphere.
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(-1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        let e = Vec3::new(0.0, -1.0, 0.0);
        assert_eq!(insphere(a, b, c, d, e), Orientation::Zero);
    }

    #[test]
    fn insphere_sign_flips_with_orientation() {
        let d = Vec3::new(0.0, 0.0, -1.0);
        let p = Vec3::new(0.25, 0.25, -0.25);
        let s1 = insphere(A, B, C, d, p);
        // Swapping two vertices flips the tetrahedron orientation and must
        // flip the insphere sign.
        let s2 = insphere(B, A, C, d, p);
        assert_ne!(s1, s2);
    }

    #[test]
    fn circumsphere_regular() {
        let d = Vec3::new(0.0, 0.0, 1.0);
        let (ctr, r2) = circumsphere(A, B, C, d).unwrap();
        for p in [A, B, C, d] {
            assert!((ctr.dist2(p) - r2).abs() < 1e-12);
        }
        // Degenerate: coplanar points have no circumsphere.
        assert!(circumsphere(A, B, C, Vec3::new(0.5, 0.5, 0.0)).is_none());
    }

    #[test]
    fn consistency_fast_vs_robust() {
        // On well-separated points the fast determinant agrees with the
        // robust sign.
        let pts = [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(1.5, -0.2, 0.4),
            Vec3::new(-0.3, 1.1, 0.9),
            Vec3::new(0.6, 0.7, -1.2),
        ];
        let f = orient3d_fast(pts[0], pts[1], pts[2], pts[3]);
        let r = orient3d(pts[0], pts[1], pts[2], pts[3]);
        assert_eq!(r, Orientation::from_sign(if f > 0.0 { 1 } else { -1 }));
    }

    /// Five points that sit on or next to a degeneracy of both predicates,
    /// one family per `kind`.
    fn near_degenerate(rng: &mut rand::rngs::StdRng, kind: usize) -> [Vec3; 5] {
        let unit = |rng: &mut rand::rngs::StdRng| loop {
            let v = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            if v.norm2() > 0.01 && v.norm2() <= 1.0 {
                return v / v.norm();
            }
        };
        let wild = |rng: &mut rand::rngs::StdRng| {
            rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-30i32..30))
        };
        let mut pts = [Vec3::ZERO; 5];
        match kind {
            // Rounded onto a common sphere: irrational coordinates (0), or
            // on a 2^-24 lattice so every difference is exact (1).
            0 | 1 => {
                let centre = Vec3::new(
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                    rng.gen_range(-4.0..4.0),
                );
                let r = rng.gen_range(0.5..8.0);
                for p in &mut pts {
                    *p = centre + r * unit(rng);
                    if kind == 1 {
                        let q = |x: f64| (x * 16_777_216.0).round() / 16_777_216.0;
                        *p = Vec3::new(q(p.x), q(p.y), q(p.z));
                    }
                }
            }
            // Corners of structured-grid cells: cospherical and coplanar
            // subsets, repeated points.
            2 => {
                for p in &mut pts {
                    *p = Vec3::new(
                        rng.gen_range(0..3i32) as f64,
                        rng.gen_range(0..3i32) as f64,
                        rng.gen_range(0..3i32) as f64,
                    );
                }
            }
            // Exactly cospherical: integer points of norm 3 about an
            // integer centre, in a power-of-two unit.
            3 => {
                let scale = 2f64.powi(rng.gen_range(-8i32..8));
                let centre = Vec3::new(
                    rng.gen_range(-9i32..9) as f64,
                    rng.gen_range(-9i32..9) as f64,
                    rng.gen_range(-9i32..9) as f64,
                );
                for p in &mut pts {
                    let mut v = if rng.gen::<bool>() {
                        [3.0, 0.0, 0.0]
                    } else {
                        [1.0, 2.0, 2.0]
                    };
                    v.rotate_left(rng.gen_range(0..3usize));
                    let s = |rng: &mut rand::rngs::StdRng| if rng.gen() { 1.0 } else { -1.0 };
                    *p = scale * (centre + Vec3::new(s(rng) * v[0], s(rng) * v[1], s(rng) * v[2]));
                }
            }
            // Rounded onto a common plane.
            4 => {
                let (o, u, v) = (4.0 * unit(rng), unit(rng), unit(rng));
                for p in &mut pts {
                    *p = o + rng.gen_range(-3.0..3.0) * u + rng.gen_range(-3.0..3.0) * v;
                }
            }
            // Exactly coplanar (a shared x) with coordinates of unrelated
            // magnitudes, so the differences are inexact.
            5 => {
                let x = wild(rng);
                for p in &mut pts {
                    *p = Vec3::new(x, wild(rng), wild(rng));
                }
            }
            // The query point repeats a vertex, among unrelated magnitudes.
            6 => {
                for p in &mut pts {
                    *p = Vec3::new(wild(rng), wild(rng), wild(rng));
                }
                pts[4] = pts[rng.gen_range(0..4usize)];
            }
            // A grid cell pushed off its lattice by a few ulps.
            _ => {
                for p in &mut pts {
                    let c = |rng: &mut rand::rngs::StdRng| {
                        rng.gen_range(0..3i32) as f64 + 0.1 + 1e-15 * rng.gen_range(0..3i32) as f64
                    };
                    *p = Vec3::new(c(rng), c(rng), c(rng));
                }
            }
        }
        pts
    }

    /// Signs seen per exact stage, to show the inputs reach all of them.
    #[derive(Default)]
    struct SignsSeen {
        diff: [usize; 3],
        full: [usize; 3],
    }

    /// Drive one input through the fixed-capacity stages and the
    /// [`oracle`]'s general calculator, whatever the filter would have said.
    fn check_against_oracle(
        pts: [Vec3; 5],
        diff: &mut InsphereDiffScratch,
        full: &mut InsphereFullScratch,
        seen: &mut SignsSeen,
    ) {
        let [a, b, c, d, e] = pts;

        // insphere: the full-exact stage is valid on any input.
        let exact = full.sign(pts);
        let diffs_exact = [a, b, c, d].iter().all(|&p| diffs_are_exact(p, e));
        if diffs_exact {
            assert_eq!(diff.sign(a - e, b - e, c - e, d - e), exact, "{pts:?}");
            let want = oracle::insphere_from_diffs(
                (a - e).to_array(),
                (b - e).to_array(),
                (c - e).to_array(),
                (d - e).to_array(),
            );
            assert_eq!(exact, want, "insphere exact-diff {pts:?}");
            seen.diff[(exact + 1) as usize] += 1;
        } else {
            assert_eq!(
                exact,
                oracle::insphere_exact_sign(a, b, c, d, e),
                "insphere full-exact {pts:?}"
            );
            seen.full[(exact + 1) as usize] += 1;
        }
        if let Stage::Filter(sign) = insphere_stage(a, b, c, d, e) {
            assert_eq!(sign, exact, "insphere filter {pts:?}");
        }
        assert_eq!(insphere(a, b, c, d, e), Orientation::from_sign(exact));
        assert_eq!(
            oracle::insphere(a, b, c, d, e),
            Orientation::from_sign(exact)
        );

        // orient3d on the first four points.
        let exact = orient3d_exact_sign(a, b, c, d);
        assert_eq!(
            exact,
            oracle::orient3d_exact_sign(a, b, c, d),
            "orient3d full-exact {pts:?}"
        );
        if diffs_are_exact(a, d) && diffs_are_exact(b, d) && diffs_are_exact(c, d) {
            assert_eq!(orient3d_diff_sign(a - d, b - d, c - d), exact, "{pts:?}");
            assert_eq!(
                oracle::orient3d_from_diffs(a - d, b - d, c - d),
                exact,
                "orient3d exact-diff {pts:?}"
            );
        }
        if let Stage::Filter(sign) = orient3d_stage(a, b, c, d) {
            assert_eq!(sign, exact, "orient3d filter {pts:?}");
        }
        assert_eq!(orient3d(a, b, c, d), Orientation::from_sign(exact));
    }

    proptest! {
        /// 64 cases of 1 600 inputs: over 10^5 near-degenerate quintuples
        /// through both exact stages of both predicates and the oracle.
        #[test]
        fn exact_stages_agree_with_expansion_oracle(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut diff = Box::new(InsphereDiffScratch::ZERO);
            let mut full = Box::new(InsphereFullScratch::ZERO);
            let mut seen = SignsSeen::default();
            for i in 0..1600 {
                let pts = near_degenerate(&mut rng, i % 8);
                check_against_oracle(pts, &mut diff, &mut full, &mut seen);
            }
            for counts in [seen.diff, seen.full] {
                prop_assert!(counts.iter().all(|&n| n > 0), "{:?}", counts);
            }
        }
    }

    #[test]
    fn counts_follow_the_resolving_stage() {
        let mut p = Predicates::new();
        let far = Vec3::new(0.3, 0.3, -5.0);
        assert_eq!(p.orient3d(A, B, C, far), Orientation::Positive);
        assert_eq!(p.counts(), (1, 0, 0));
        // Coplanar on a lattice: exact differences.
        assert_eq!(
            p.orient3d(A, B, C, Vec3::new(0.5, 0.25, 0.0)),
            Orientation::Zero
        );
        assert_eq!(p.counts(), (1, 1, 0));
        // Coplanar off the lattice: 1e10 + 0.3 - 1e10 is inexact.
        let s = 1e10;
        assert_eq!(
            p.orient3d(
                Vec3::new(s, s, 0.0),
                Vec3::new(s + 1.0, s, 0.0),
                Vec3::new(s, s + 1.0, 0.0),
                Vec3::new(0.3, 0.3, 0.0),
            ),
            Orientation::Zero
        );
        assert_eq!(p.counts(), (1, 1, 1));
        // insphere: cospherical lattice points, then a repeated point among
        // unrelated magnitudes.
        let (a, b, c, d) = (
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        );
        assert_eq!(
            p.insphere(a, b, c, d, Vec3::new(0.0, -1.0, 0.0)),
            Orientation::Zero
        );
        assert_eq!(p.counts(), (1, 2, 1));
        let a = Vec3::new(1e10 + 2.0, 0.3, 0.7);
        let b = Vec3::new(0.1, 1e-9, 3.0);
        assert_eq!(p.insphere(a, b, c, d, a), Orientation::Zero);
        assert_eq!(p.counts(), (1, 2, 2));
    }
}

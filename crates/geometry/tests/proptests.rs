//! Property-based tests of the geometric predicates and the Delaunay
//! tetrahedralization.

use pmg_geometry::{insphere, orient3d, Delaunay, Orientation, Vec3};
use proptest::prelude::*;

fn vec3_strategy() -> impl Strategy<Value = Vec3> {
    (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn flip(o: Orientation) -> Orientation {
    match o {
        Orientation::Positive => Orientation::Negative,
        Orientation::Negative => Orientation::Positive,
        Orientation::Zero => Orientation::Zero,
    }
}

proptest! {
    #[test]
    fn orient3d_antisymmetric_under_swap(
        a in vec3_strategy(), b in vec3_strategy(),
        c in vec3_strategy(), d in vec3_strategy(),
    ) {
        let o = orient3d(a, b, c, d);
        prop_assert_eq!(orient3d(b, a, c, d), flip(o));
        prop_assert_eq!(orient3d(a, c, b, d), flip(o));
        prop_assert_eq!(orient3d(a, b, d, c), flip(o));
        // Even permutation preserves the sign.
        prop_assert_eq!(orient3d(b, c, a, d), o);
    }

    #[test]
    fn orient3d_degenerate_cases(
        a in vec3_strategy(), b in vec3_strategy(), c in vec3_strategy(),
    ) {
        // A repeated vertex is always degenerate.
        prop_assert_eq!(orient3d(a, a, b, c), Orientation::Zero);
        prop_assert_eq!(orient3d(a, b, b, c), Orientation::Zero);
        prop_assert_eq!(orient3d(a, b, c, c), Orientation::Zero);
        // Note: a floating-point midpoint (a+b)/2 is NOT exactly colinear
        // in general (the addition rounds), and the exact predicate
        // correctly distinguishes it — so no colinearity check here.
    }

    #[test]
    fn insphere_flips_with_tet_orientation(
        a in vec3_strategy(), b in vec3_strategy(),
        c in vec3_strategy(), d in vec3_strategy(), e in vec3_strategy(),
    ) {
        prop_assume!(orient3d(a, b, c, d) != Orientation::Zero);
        let s1 = insphere(a, b, c, d, e);
        let s2 = insphere(b, a, c, d, e);
        prop_assert_eq!(s2, flip(s1));
    }

    #[test]
    fn insphere_vertex_on_sphere(
        a in vec3_strategy(), b in vec3_strategy(),
        c in vec3_strategy(), d in vec3_strategy(),
    ) {
        // Each defining vertex lies exactly on the circumsphere.
        prop_assume!(orient3d(a, b, c, d) != Orientation::Zero);
        for q in [a, b, c, d] {
            prop_assert_eq!(insphere(a, b, c, d, q), Orientation::Zero);
        }
    }

    #[test]
    fn delaunay_on_random_clouds(
        pts in proptest::collection::vec(vec3_strategy(), 5..40),
    ) {
        let dt = Delaunay::new(&pts).expect("triangulation");
        prop_assert!(dt.verify_delaunay());
        // Positive orientation of every real tet.
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            prop_assert_eq!(orient3d(v[0], v[1], v[2], v[3]), Orientation::Positive);
        }
    }

    #[test]
    fn delaunay_locate_every_input_point(
        pts in proptest::collection::vec(vec3_strategy(), 8..30),
    ) {
        let dt = Delaunay::new(&pts).expect("triangulation");
        for (i, &p) in pts.iter().enumerate() {
            let t = dt.locate(p, 0).expect("point inside bounding tet");
            // The located tet's barycentric weights reproduce the point.
            let w = dt.barycentric(t, p);
            let verts = dt.tet(t).verts();
            let mut rec = Vec3::ZERO;
            for (wi, vi) in w.iter().zip(verts.iter()) {
                rec += *wi * dt.points()[*vi];
            }
            prop_assert!(rec.dist(p) < 1e-6 * (1.0 + p.norm()), "point {i}");
        }
    }

    #[test]
    fn delaunay_hull_volume_matches_sum(
        pts in proptest::collection::vec(vec3_strategy(), 5..25),
    ) {
        // Sum of real tet volumes is non-negative and bounded by the
        // bounding box volume.
        let dt = Delaunay::new(&pts).expect("triangulation");
        let mut vol = 0.0;
        for (_, t) in dt.real_tets() {
            let v = t.verts().map(|i| dt.points()[i]);
            vol += pmg_geometry::predicates::orient3d_fast(v[0], v[1], v[2], v[3]) / 6.0;
        }
        let bb = pmg_geometry::Aabb::from_points(pts.iter().copied());
        let e = bb.extent();
        prop_assert!(vol >= -1e-9);
        prop_assert!(vol <= e.x * e.y * e.z + 1e-6);
    }
}

#[test]
fn adaptive_stage_resolves_grid_degeneracies_without_full_exact() {
    // Structured-grid coordinates have exactly representable differences,
    // so every filtered-out predicate resolves in the exact-diff shortcut;
    // the full multi-component path should never be needed.
    let mut pts = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            for k in 0..5 {
                pts.push(Vec3::new(i as f64, j as f64, k as f64));
            }
        }
    }
    let dt = Delaunay::new(&pts).expect("triangulation");
    assert!(dt.verify_delaunay());
    // Counted per triangulation: other tests' predicates do not show here.
    let counts = dt.predicate_counts();
    assert!(counts.filter > 0);
    assert_eq!(
        counts.double_word, 0,
        "what the filter leaves on a grid is an exact zero"
    );
    assert!(
        counts.exact_diff > 0,
        "grid ties must hit the exact-diff shortcut"
    );
    assert_eq!(
        counts.full_exact, 0,
        "grid coordinates never need the full exact path"
    );
}

#[test]
fn adaptive_stage_agrees_with_full_exact_on_perturbed_grids() {
    // Slightly irrational offsets force inexact differences: the full
    // exact path engages and all stages stay mutually consistent (checked
    // implicitly by verify_delaunay on a near-degenerate cloud).
    let mut pts = Vec::new();
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                pts.push(Vec3::new(
                    i as f64 + 1e-14 * ((i * 7 + j) % 3) as f64 + 0.1,
                    j as f64 + 0.1f64.sqrt() * 1e-15,
                    k as f64 + 0.1,
                ));
            }
        }
    }
    let dt = Delaunay::new(&pts).expect("triangulation");
    assert!(dt.verify_delaunay());
    assert!(
        dt.predicate_counts().full_exact > 0,
        "inexact differences engage the full exact path"
    );
}

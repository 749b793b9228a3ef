//! Element shape functions and quadrature.

use pmg_geometry::Vec3;
use pmg_mesh::ElementKind;

/// Local corner coordinates of the hex8 reference element (matching the
/// node ordering documented on [`ElementKind::Hex8`]).
const HEX_CORNERS: [[f64; 3]; 8] = [
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, 1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
    [1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0],
    [-1.0, 1.0, 1.0],
];

/// Local node coordinates of the hex20 serendipity element: corners 0-7
/// (as hex8), then mid-edge nodes with exactly one zero coordinate, in the
/// ordering documented on `ElementKind::Hex20`.
const HEX20_NODES: [[f64; 3]; 20] = [
    [-1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0],
    [1.0, 1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
    [1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [0.0, -1.0, -1.0],
    [1.0, 0.0, -1.0],
    [0.0, 1.0, -1.0],
    [-1.0, 0.0, -1.0],
    [0.0, -1.0, 1.0],
    [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0],
    [-1.0, 0.0, 1.0],
    [-1.0, -1.0, 0.0],
    [1.0, -1.0, 0.0],
    [1.0, 1.0, 0.0],
    [-1.0, 1.0, 0.0],
];

/// The most nodes any element kind has (Hex20): the size of the fixed
/// per-element buffers the gradient routines write into.
pub(crate) const MAX_NODES: usize = 20;

/// A quadrature point: reference coordinates and weight.
#[derive(Clone, Copy, Debug)]
pub struct QuadPoint {
    pub xi: [f64; 3],
    pub weight: f64,
}

/// Gauss quadrature rule for an element kind: 2x2x2 for hexes (exact for
/// the trilinear stiffness), 1-point for linear tets.
pub fn quadrature(kind: ElementKind) -> Vec<QuadPoint> {
    match kind {
        ElementKind::Hex8 => {
            let g = 1.0 / 3.0f64.sqrt();
            let mut pts = Vec::with_capacity(8);
            for &x in &[-g, g] {
                for &y in &[-g, g] {
                    for &z in &[-g, g] {
                        pts.push(QuadPoint {
                            xi: [x, y, z],
                            weight: 1.0,
                        });
                    }
                }
            }
            pts
        }
        ElementKind::Tet4 => vec![QuadPoint {
            xi: [0.25, 0.25, 0.25],
            weight: 1.0 / 6.0,
        }],
        ElementKind::Hex20 => {
            // 3x3x3 Gauss (exact for the serendipity stiffness).
            let g = (3.0f64 / 5.0).sqrt();
            let pts1 = [(-g, 5.0 / 9.0), (0.0, 8.0 / 9.0), (g, 5.0 / 9.0)];
            let mut pts = Vec::with_capacity(27);
            for &(x, wx) in &pts1 {
                for &(y, wy) in &pts1 {
                    for &(z, wz) in &pts1 {
                        pts.push(QuadPoint {
                            xi: [x, y, z],
                            weight: wx * wy * wz,
                        });
                    }
                }
            }
            pts
        }
    }
}

/// Shape function values at reference point `xi`.
pub fn shape_values(kind: ElementKind, xi: [f64; 3]) -> Vec<f64> {
    match kind {
        ElementKind::Hex8 => HEX_CORNERS
            .iter()
            .map(|c| 0.125 * (1.0 + c[0] * xi[0]) * (1.0 + c[1] * xi[1]) * (1.0 + c[2] * xi[2]))
            .collect(),
        ElementKind::Tet4 => {
            vec![1.0 - xi[0] - xi[1] - xi[2], xi[0], xi[1], xi[2]]
        }
        ElementKind::Hex20 => HEX20_NODES
            .iter()
            .enumerate()
            .map(|(a, c)| {
                let [x, y, z] = xi;
                if a < 8 {
                    0.125
                        * (1.0 + c[0] * x)
                        * (1.0 + c[1] * y)
                        * (1.0 + c[2] * z)
                        * (c[0] * x + c[1] * y + c[2] * z - 2.0)
                } else if c[0] == 0.0 {
                    0.25 * (1.0 - x * x) * (1.0 + c[1] * y) * (1.0 + c[2] * z)
                } else if c[1] == 0.0 {
                    0.25 * (1.0 + c[0] * x) * (1.0 - y * y) * (1.0 + c[2] * z)
                } else {
                    0.25 * (1.0 + c[0] * x) * (1.0 + c[1] * y) * (1.0 - z * z)
                }
            })
            .collect(),
    }
}

/// Shape function gradients with respect to reference coordinates, one
/// `[f64;3]` per node, written into `out[..kind.nodes()]`.
pub fn shape_grads_ref(kind: ElementKind, xi: [f64; 3], out: &mut [[f64; 3]]) {
    match kind {
        ElementKind::Hex8 => {
            for (o, c) in out[..8].iter_mut().zip(&HEX_CORNERS) {
                *o = [
                    0.125 * c[0] * (1.0 + c[1] * xi[1]) * (1.0 + c[2] * xi[2]),
                    0.125 * c[1] * (1.0 + c[0] * xi[0]) * (1.0 + c[2] * xi[2]),
                    0.125 * c[2] * (1.0 + c[0] * xi[0]) * (1.0 + c[1] * xi[1]),
                ];
            }
        }
        ElementKind::Tet4 => {
            out[..4].copy_from_slice(&[
                [-1.0, -1.0, -1.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]);
        }
        ElementKind::Hex20 => {
            for (a, (o, c)) in out[..20].iter_mut().zip(&HEX20_NODES).enumerate() {
                *o = hex20_grad_ref(a, c, xi);
            }
        }
    }
}

/// Reference gradient of Hex20 node `a` (local coordinates `c`) at `xi`.
fn hex20_grad_ref(a: usize, c: &[f64; 3], xi: [f64; 3]) -> [f64; 3] {
    let [x, y, z] = xi;
    if a < 8 {
        let fx = 1.0 + c[0] * x;
        let fy = 1.0 + c[1] * y;
        let fz = 1.0 + c[2] * z;
        [
            0.125 * c[0] * fy * fz * (2.0 * c[0] * x + c[1] * y + c[2] * z - 1.0),
            0.125 * c[1] * fx * fz * (c[0] * x + 2.0 * c[1] * y + c[2] * z - 1.0),
            0.125 * c[2] * fx * fy * (c[0] * x + c[1] * y + 2.0 * c[2] * z - 1.0),
        ]
    } else if c[0] == 0.0 {
        let fy = 1.0 + c[1] * y;
        let fz = 1.0 + c[2] * z;
        [
            -0.5 * x * fy * fz,
            0.25 * c[1] * (1.0 - x * x) * fz,
            0.25 * c[2] * (1.0 - x * x) * fy,
        ]
    } else if c[1] == 0.0 {
        let fx = 1.0 + c[0] * x;
        let fz = 1.0 + c[2] * z;
        [
            0.25 * c[0] * (1.0 - y * y) * fz,
            -0.5 * y * fx * fz,
            0.25 * c[2] * (1.0 - y * y) * fx,
        ]
    } else {
        let fx = 1.0 + c[0] * x;
        let fy = 1.0 + c[1] * y;
        [
            0.25 * c[0] * (1.0 - z * z) * fy,
            0.25 * c[1] * (1.0 - z * z) * fx,
            -0.5 * z * fx * fy,
        ]
    }
}

/// Physical-space shape gradients at a quadrature point, written into
/// `grads[..coords.len()]`, from the reference gradients `dref` there
/// ([`shape_grads_ref`]) and the element's node positions `coords`.
/// Returns the Jacobian determinant, or `None` (writing nothing) for a
/// non-positive one (inverted elements).
pub fn shape_grads_phys(dref: &[[f64; 3]], coords: &[Vec3], grads: &mut [[f64; 3]]) -> Option<f64> {
    // Jacobian J[a][b] = dx_a / dxi_b.
    let mut j = [[0.0f64; 3]; 3];
    for (g, p) in dref.iter().zip(coords) {
        for a in 0..3 {
            for b in 0..3 {
                j[a][b] += p[a] * g[b];
            }
        }
    }
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    if det <= 0.0 || !det.is_finite() {
        return None;
    }
    let inv_det = 1.0 / det;
    // Inverse Jacobian Jinv[b][a] = dxi_b / dx_a.
    let jinv = [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) * inv_det,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) * inv_det,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) * inv_det,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) * inv_det,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) * inv_det,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) * inv_det,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) * inv_det,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) * inv_det,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) * inv_det,
        ],
    ];
    // dN/dx_a = dN/dxi_b * dxi_b/dx_a.
    for (out, g) in grads[..coords.len()].iter_mut().zip(dref) {
        for (a, o) in out.iter_mut().enumerate() {
            *o = g[0] * jinv[0][a] + g[1] * jinv[1][a] + g[2] * jinv[2][a];
        }
    }
    Some(det)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads_ref(kind: ElementKind, xi: [f64; 3]) -> Vec<[f64; 3]> {
        let mut out = vec![[0.0; 3]; kind.nodes()];
        shape_grads_ref(kind, xi, &mut out);
        out
    }

    fn grads_phys(
        kind: ElementKind,
        coords: &[Vec3],
        xi: [f64; 3],
    ) -> Option<(Vec<[f64; 3]>, f64)> {
        let mut out = vec![[0.0; 3]; kind.nodes()];
        let det = shape_grads_phys(&grads_ref(kind, xi), coords, &mut out)?;
        Some((out, det))
    }

    fn unit_hex_coords() -> Vec<Vec3> {
        HEX_CORNERS
            .iter()
            .map(|c| Vec3::new(0.5 * (c[0] + 1.0), 0.5 * (c[1] + 1.0), 0.5 * (c[2] + 1.0)))
            .collect()
    }

    #[test]
    fn partition_of_unity() {
        for kind in [ElementKind::Hex8, ElementKind::Tet4, ElementKind::Hex20] {
            for xi in [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.2, 0.1, 0.05]] {
                let n = shape_values(kind, xi);
                let sum: f64 = n.iter().sum();
                assert!((sum - 1.0).abs() < 1e-14, "{kind:?}");
                // Gradients of a partition of unity sum to zero.
                let g = grads_ref(kind, xi);
                for a in 0..3 {
                    let s: f64 = g.iter().map(|gi| gi[a]).sum();
                    assert!(s.abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn kronecker_at_nodes() {
        for (i, c) in HEX_CORNERS.iter().enumerate() {
            let n = shape_values(ElementKind::Hex8, *c);
            for (j, &v) in n.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn quadrature_integrates_volume() {
        // Unit cube hex: sum of w*detJ = 1.
        let coords = unit_hex_coords();
        let mut vol = 0.0;
        for q in quadrature(ElementKind::Hex8) {
            let (_, det) = grads_phys(ElementKind::Hex8, &coords, q.xi).unwrap();
            vol += q.weight * det;
        }
        assert!((vol - 1.0).abs() < 1e-14);
    }

    #[test]
    fn tet_quadrature_volume() {
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        ];
        let mut vol = 0.0;
        for q in quadrature(ElementKind::Tet4) {
            let (_, det) = grads_phys(ElementKind::Tet4, &coords, q.xi).unwrap();
            vol += q.weight * det;
        }
        assert!((vol - 8.0 / 6.0).abs() < 1e-13);
    }

    #[test]
    fn physical_gradients_reproduce_linear_field() {
        // u(x) = 3x + 2y - z must have exact gradient from the isoparametric
        // map, even on a distorted hex.
        let mut coords = unit_hex_coords();
        coords[6] = Vec3::new(1.4, 1.3, 1.2); // distort one corner
        let nodal: Vec<f64> = coords.iter().map(|p| 3.0 * p.x + 2.0 * p.y - p.z).collect();
        for q in quadrature(ElementKind::Hex8) {
            let (grads, _) = grads_phys(ElementKind::Hex8, &coords, q.xi).unwrap();
            let mut g = [0.0f64; 3];
            for (ga, &ua) in grads.iter().zip(&nodal) {
                for a in 0..3 {
                    g[a] += ga[a] * ua;
                }
            }
            assert!((g[0] - 3.0).abs() < 1e-12);
            assert!((g[1] - 2.0).abs() < 1e-12);
            assert!((g[2] + 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hex20_kronecker_at_nodes() {
        for (i, c) in HEX20_NODES.iter().enumerate() {
            let n = shape_values(ElementKind::Hex20, *c);
            for (j, &v) in n.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-14, "N_{j}({i}) = {v}");
            }
        }
    }

    #[test]
    fn hex20_gradients_match_fd() {
        let xi = [0.21, -0.43, 0.57];
        let g = grads_ref(ElementKind::Hex20, xi);
        let eps = 1e-6;
        for a in 0..20 {
            for c in 0..3 {
                let mut xp = xi;
                xp[c] += eps;
                let mut xm = xi;
                xm[c] -= eps;
                let fd = (shape_values(ElementKind::Hex20, xp)[a]
                    - shape_values(ElementKind::Hex20, xm)[a])
                    / (2.0 * eps);
                assert!((g[a][c] - fd).abs() < 1e-9, "node {a} comp {c}");
            }
        }
    }

    #[test]
    fn hex20_reproduces_quadratic_fields() {
        // Serendipity shape functions interpolate full quadratics exactly:
        // u(x) = x² + 2xy − yz + 3z includes every monomial class they span.
        let f = |p: [f64; 3]| p[0] * p[0] + 2.0 * p[0] * p[1] - p[1] * p[2] + 3.0 * p[2];
        let nodal: Vec<f64> = HEX20_NODES.iter().map(|&c| f(c)).collect();
        for xi in [[0.3, -0.2, 0.7], [0.0, 0.0, 0.0], [-0.9, 0.5, 0.1]] {
            let n = shape_values(ElementKind::Hex20, xi);
            let interp: f64 = n.iter().zip(&nodal).map(|(a, b)| a * b).sum();
            assert!(
                (interp - f(xi)).abs() < 1e-12,
                "at {xi:?}: {interp} vs {}",
                f(xi)
            );
        }
    }

    #[test]
    fn hex20_quadrature_volume() {
        // Straight-sided reference-cube hex20: volume 8.
        let coords: Vec<Vec3> = HEX20_NODES.iter().map(|&c| Vec3::from_array(c)).collect();
        let mut vol = 0.0;
        for q in quadrature(ElementKind::Hex20) {
            let (_, det) = grads_phys(ElementKind::Hex20, &coords, q.xi).unwrap();
            vol += q.weight * det;
        }
        assert!((vol - 8.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_element_rejected() {
        let mut coords = unit_hex_coords();
        coords.swap(0, 1); // tangled element
        let bad = quadrature(ElementKind::Hex8)
            .iter()
            .any(|q| grads_phys(ElementKind::Hex8, &coords, q.xi).is_none());
        assert!(bad);
    }
}

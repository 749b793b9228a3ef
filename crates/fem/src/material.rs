//! Material models of the paper's Table 1.
//!
//! | material | E | ν | deformation | yield stress | hardening |
//! |----------|------|------|-------------|--------------|-----------|
//! | soft     | 1e-4 | 0.49 | large (Neo-Hookean hyperelastic) | — | — |
//! | hard     | 1    | 0.3  | large (J2 plasticity, kinematic hardening) | 0.001 | 0.002 E |
//!
//! All models expose one interface: given the displacement gradient
//! `H = ∂u/∂X`, return the nominal stress `P` and the nominal tangent
//! `A = ∂P/∂H`, updating the Gauss-point history state (trial). The paper's
//! mixed (u-p) formulation is replaced by a pure displacement formulation —
//! near-incompressibility at ν = 0.49 then enters the operator directly,
//! preserving the ill-conditioning the solver must digest (see DESIGN.md).
//! The hard shells yield at strain ~1e-3, so their J2 model is evaluated in
//! small strain (radial return, Simo & Hughes Box 3.1), also per DESIGN.md.

/// A 3x3 tensor as nested arrays, `m[i][j]`.
pub type Mat3 = [[f64; 3]; 3];

pub const MAT3_ZERO: Mat3 = [[0.0; 3]; 3];

/// Fourth-order nominal tangent `A[i][J][k][L]` stored flat.
#[derive(Clone)]
pub struct Tangent(pub Box<[f64; 81]>);

impl Tangent {
    pub fn zero() -> Tangent {
        Tangent(Box::new([0.0; 81]))
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, l: usize) -> f64 {
        self.0[((i * 3 + j) * 3 + k) * 3 + l]
    }

    #[inline]
    pub fn add(&mut self, i: usize, j: usize, k: usize, l: usize, v: f64) {
        self.0[((i * 3 + j) * 3 + k) * 3 + l] += v;
    }

    /// Major symmetry check `A[iJ][kL] == A[kL][iJ]` (holds for
    /// hyperelastic and associative-plastic tangents).
    pub fn is_major_symmetric(&self, tol: f64) -> bool {
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        if (self.get(i, j, k, l) - self.get(k, l, i, j)).abs() > tol {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// The common material interface used by the assembler.
pub trait Material: Send + Sync {
    /// Number of f64 history slots per Gauss point.
    fn state_size(&self) -> usize {
        0
    }

    /// Initialize a fresh history state.
    fn init_state(&self, _state: &mut [f64]) {}

    /// Evaluate stress and tangent at displacement gradient `h`. `state`
    /// holds the committed history on entry and the trial history on exit.
    fn respond(&self, h: &Mat3, state: &mut [f64]) -> (Mat3, Tangent);

    fn name(&self) -> &'static str;
}

fn sym(h: &Mat3) -> Mat3 {
    let mut e = MAT3_ZERO;
    for i in 0..3 {
        for j in 0..3 {
            e[i][j] = 0.5 * (h[i][j] + h[j][i]);
        }
    }
    e
}

fn trace(m: &Mat3) -> f64 {
    m[0][0] + m[1][1] + m[2][2]
}

fn det3(m: &Mat3) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

fn inv3(m: &Mat3, det: f64) -> Mat3 {
    let id = 1.0 / det;
    [
        [
            (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * id,
            (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * id,
            (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * id,
        ],
        [
            (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * id,
            (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * id,
            (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * id,
        ],
        [
            (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * id,
            (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * id,
            (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * id,
        ],
    ]
}

/// Isotropic elastic tangent `λ δij δkl + μ (δik δjl + δil δjk)`.
pub(crate) fn elastic_tangent(lambda: f64, mu: f64) -> Tangent {
    let mut a = Tangent::zero();
    for i in 0..3 {
        for j in 0..3 {
            a.add(i, i, j, j, lambda);
            a.add(i, j, i, j, mu);
            a.add(i, j, j, i, mu);
        }
    }
    a
}

/// Small-strain isotropic linear elasticity.
#[derive(Clone, Copy, Debug)]
pub struct LinearElastic {
    pub lambda: f64,
    pub mu: f64,
}

impl LinearElastic {
    pub fn from_e_nu(e: f64, nu: f64) -> LinearElastic {
        LinearElastic {
            lambda: e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu)),
            mu: e / (2.0 * (1.0 + nu)),
        }
    }
}

impl Material for LinearElastic {
    fn respond(&self, h: &Mat3, _state: &mut [f64]) -> (Mat3, Tangent) {
        let e = sym(h);
        let tr = trace(&e);
        let mut s = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                s[i][j] = 2.0 * self.mu * e[i][j];
            }
            s[i][i] += self.lambda * tr;
        }
        (s, elastic_tangent(self.lambda, self.mu))
    }

    fn name(&self) -> &'static str {
        "linear-elastic"
    }
}

/// Compressible Neo-Hookean hyperelasticity (large deformation):
/// `W = μ/2 (tr(FᵀF) − 3) − μ ln J + λ/2 (ln J)²`.
#[derive(Clone, Copy, Debug)]
pub struct NeoHookean {
    pub lambda: f64,
    pub mu: f64,
}

impl NeoHookean {
    pub fn from_e_nu(e: f64, nu: f64) -> NeoHookean {
        let le = LinearElastic::from_e_nu(e, nu);
        NeoHookean {
            lambda: le.lambda,
            mu: le.mu,
        }
    }
}

impl Material for NeoHookean {
    fn respond(&self, h: &Mat3, _state: &mut [f64]) -> (Mat3, Tangent) {
        let mut f = *h;
        for (i, row) in f.iter_mut().enumerate() {
            row[i] += 1.0;
        }
        let j = det3(&f);
        if j <= 1e-8 || !j.is_finite() {
            // Element inverted mid-Newton: fall back to the linearized
            // response so the iteration can recover.
            return LinearElastic {
                lambda: self.lambda,
                mu: self.mu,
            }
            .respond(h, _state);
        }
        let finv = inv3(&f, j);
        let lnj = j.ln();
        // P = μ (F − F⁻ᵀ) + λ ln J F⁻ᵀ;  (F⁻ᵀ)_{iJ} = finv[J][i].
        let mut p = MAT3_ZERO;
        for i in 0..3 {
            for jj in 0..3 {
                p[i][jj] = self.mu * (f[i][jj] - finv[jj][i]) + self.lambda * lnj * finv[jj][i];
            }
        }
        // A_iJkL = μ δik δJL + (μ − λ lnJ) F⁻¹_Jk F⁻¹_Li + λ F⁻¹_Ji F⁻¹_Lk.
        let mut a = Tangent::zero();
        let c1 = self.mu - self.lambda * lnj;
        for i in 0..3 {
            for jj in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        let mut v =
                            c1 * finv[jj][k] * finv[l][i] + self.lambda * finv[jj][i] * finv[l][k];
                        if i == k && jj == l {
                            v += self.mu;
                        }
                        a.add(i, jj, k, l, v);
                    }
                }
            }
        }
        (p, a)
    }

    fn name(&self) -> &'static str {
        "neo-hookean"
    }
}

/// J2 plasticity with combined linear kinematic and isotropic hardening,
/// integrated by radial return (Simo & Hughes Box 3.1). History per Gauss
/// point: plastic strain (6), back stress (6), yielded flag (1),
/// accumulated plastic strain ᾱ (1) — 14 slots.
#[derive(Clone, Copy, Debug)]
pub struct J2Plasticity {
    pub lambda: f64,
    pub mu: f64,
    /// Uniaxial yield stress σ_y.
    pub sigma_y: f64,
    /// Kinematic hardening modulus H.
    pub h_kin: f64,
    /// Isotropic hardening modulus K (the paper's material has K = 0).
    pub h_iso: f64,
}

/// Symmetric tensor component order used in the J2 history state.
const SYM_IDX: [(usize, usize); 6] = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)];

fn sym_to_mat(v: &[f64]) -> Mat3 {
    let mut m = MAT3_ZERO;
    for (c, &(i, j)) in SYM_IDX.iter().enumerate() {
        m[i][j] = v[c];
        m[j][i] = v[c];
    }
    m
}

fn mat_to_sym(m: &Mat3, v: &mut [f64]) {
    for (c, &(i, j)) in SYM_IDX.iter().enumerate() {
        v[c] = m[i][j];
    }
}

impl J2Plasticity {
    pub fn from_e_nu(e: f64, nu: f64, sigma_y: f64, h_kin: f64) -> J2Plasticity {
        let le = LinearElastic::from_e_nu(e, nu);
        J2Plasticity {
            lambda: le.lambda,
            mu: le.mu,
            sigma_y,
            h_kin,
            h_iso: 0.0,
        }
    }

    /// Combined hardening: kinematic modulus `h_kin` plus isotropic
    /// modulus `h_iso` (the yield surface both translates and grows).
    pub fn with_isotropic(mut self, h_iso: f64) -> J2Plasticity {
        self.h_iso = h_iso;
        self
    }

    /// Did this Gauss point yield in the last evaluation?
    pub fn is_yielded(state: &[f64]) -> bool {
        state[12] != 0.0
    }
}

impl Material for J2Plasticity {
    fn state_size(&self) -> usize {
        14
    }

    fn respond(&self, h: &Mat3, state: &mut [f64]) -> (Mat3, Tangent) {
        let eps = sym(h);
        let eps_p = sym_to_mat(&state[0..6]);
        let alpha = sym_to_mat(&state[6..12]);

        // Elastic trial stress.
        let mut e_el = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                e_el[i][j] = eps[i][j] - eps_p[i][j];
            }
        }
        let tr = trace(&e_el);
        let mut sigma = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                sigma[i][j] = 2.0 * self.mu * e_el[i][j];
            }
            sigma[i][i] += self.lambda * tr;
        }
        // Deviator and relative stress.
        let p_mean = trace(&sigma) / 3.0;
        let mut xi = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                xi[i][j] = sigma[i][j] - alpha[i][j];
            }
            xi[i][i] -= p_mean;
        }
        let xi_norm = {
            let mut s = 0.0;
            for row in &xi {
                for v in row {
                    s += v * v;
                }
            }
            s.sqrt()
        };
        let alpha_bar = state[13];
        let radius = (2.0f64 / 3.0).sqrt() * (self.sigma_y + self.h_iso * alpha_bar);
        let f = xi_norm - radius;

        // Tolerance absorbs roundoff when re-evaluating exactly on the
        // yield surface (e.g. the converged state of the previous step).
        if f <= 1e-10 * radius {
            state[12] = 0.0;
            return (sigma, elastic_tangent(self.lambda, self.mu));
        }

        // Radial return (combined hardening enters the consistency
        // denominator).
        let dgamma = f / (2.0 * self.mu + 2.0 / 3.0 * (self.h_kin + self.h_iso));
        let inv_norm = 1.0 / xi_norm;
        let mut n = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                n[i][j] = xi[i][j] * inv_norm;
            }
        }
        let mut eps_p_new = eps_p;
        let mut alpha_new = alpha;
        for i in 0..3 {
            for j in 0..3 {
                sigma[i][j] -= 2.0 * self.mu * dgamma * n[i][j];
                eps_p_new[i][j] += dgamma * n[i][j];
                alpha_new[i][j] += 2.0 / 3.0 * self.h_kin * dgamma * n[i][j];
            }
        }
        mat_to_sym(&eps_p_new, &mut state[0..6]);
        mat_to_sym(&alpha_new, &mut state[6..12]);
        state[12] = 1.0;
        state[13] = alpha_bar + (2.0f64 / 3.0).sqrt() * dgamma;

        // Consistent elastoplastic tangent (Simo & Hughes):
        // C = κ I⊗I + 2μθ (I_s − I⊗I/3) − 2μ θ̄ n⊗n.
        let kappa = self.lambda + 2.0 * self.mu / 3.0;
        let theta = 1.0 - 2.0 * self.mu * dgamma * inv_norm;
        let h_total = self.h_kin + self.h_iso;
        let theta_bar = 1.0 / (1.0 + h_total / (3.0 * self.mu)) - (1.0 - theta);
        let mut a = Tangent::zero();
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        let i_s = 0.5
                            * ((if i == k && j == l { 1.0 } else { 0.0 })
                                + (if i == l && j == k { 1.0 } else { 0.0 }));
                        let vol = if i == j && k == l { 1.0 } else { 0.0 };
                        let v = kappa * vol + 2.0 * self.mu * theta * (i_s - vol / 3.0)
                            - 2.0 * self.mu * theta_bar * n[i][j] * n[k][l];
                        a.add(i, j, k, l, v);
                    }
                }
            }
        }
        (sigma, a)
    }

    fn name(&self) -> &'static str {
        "j2-plasticity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_tangent(mat: &dyn Material, h: &Mat3, state0: &[f64]) -> Tangent {
        // Finite-difference the nominal stress around h with the *committed*
        // state re-supplied each evaluation (consistent with radial return).
        let eps = 1e-7;
        let mut a = Tangent::zero();
        for k in 0..3 {
            for l in 0..3 {
                let mut hp = *h;
                hp[k][l] += eps;
                let mut hm = *h;
                hm[k][l] -= eps;
                let mut sp = state0.to_vec();
                let (pp, _) = mat.respond(&hp, &mut sp);
                let mut sm = state0.to_vec();
                let (pm, _) = mat.respond(&hm, &mut sm);
                for i in 0..3 {
                    for j in 0..3 {
                        a.add(i, j, k, l, (pp[i][j] - pm[i][j]) / (2.0 * eps));
                    }
                }
            }
        }
        a
    }

    fn assert_tangent_close(a: &Tangent, b: &Tangent, tol: f64) {
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        let d = (a.get(i, j, k, l) - b.get(i, j, k, l)).abs();
                        assert!(d < tol, "A[{i}{j}{k}{l}] differs by {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn linear_elastic_uniaxial() {
        let m = LinearElastic::from_e_nu(200.0, 0.3);
        // Uniaxial strain e_xx.
        let mut h = MAT3_ZERO;
        h[0][0] = 1e-3;
        let (s, a) = m.respond(&h, &mut []);
        let expect_xx = (m.lambda + 2.0 * m.mu) * 1e-3;
        let expect_yy = m.lambda * 1e-3;
        assert!((s[0][0] - expect_xx).abs() < 1e-12);
        assert!((s[1][1] - expect_yy).abs() < 1e-12);
        assert!(a.is_major_symmetric(1e-12));
    }

    #[test]
    fn linear_elastic_shear_symmetrizes() {
        let m = LinearElastic::from_e_nu(1.0, 0.25);
        let mut h = MAT3_ZERO;
        h[0][1] = 2e-3; // pure (unsymmetric) gradient
        let (s, _) = m.respond(&h, &mut []);
        // σ_xy = 2 μ ε_xy = μ h_xy.
        assert!((s[0][1] - m.mu * 2e-3).abs() < 1e-15);
        assert_eq!(s[0][1], s[1][0]);
        assert!(s[0][0].abs() < 1e-18);
    }

    #[test]
    fn neo_hookean_stress_free_reference() {
        let m = NeoHookean::from_e_nu(1e-4, 0.49);
        let (p, a) = m.respond(&MAT3_ZERO, &mut []);
        for row in &p {
            for v in row {
                assert!(v.abs() < 1e-18);
            }
        }
        // At F = I the tangent equals the linear elastic one.
        let le = elastic_tangent(m.lambda, m.mu);
        assert_tangent_close(&a, &le, 1e-18);
    }

    #[test]
    fn neo_hookean_tangent_matches_fd() {
        let m = NeoHookean::from_e_nu(2.0, 0.3);
        let h = [[0.05, 0.02, -0.01], [0.0, -0.03, 0.04], [0.01, 0.0, 0.06]];
        let (_, a) = m.respond(&h, &mut []);
        let fd = fd_tangent(&m, &h, &[]);
        assert_tangent_close(&a, &fd, 1e-5);
        assert!(a.is_major_symmetric(1e-12));
    }

    #[test]
    fn neo_hookean_volumetric_stiffening() {
        // Near-incompressible: hydrostatic compression produces much larger
        // stress than shear of the same magnitude.
        let m = NeoHookean::from_e_nu(1e-4, 0.49);
        let mut hv = MAT3_ZERO;
        for (i, row) in hv.iter_mut().enumerate() {
            row[i] = -0.01;
        }
        let (pv, _) = m.respond(&hv, &mut []);
        let mut hs = MAT3_ZERO;
        hs[0][1] = 0.01;
        hs[1][0] = 0.01;
        let (ps, _) = m.respond(&hs, &mut []);
        assert!(pv[0][0].abs() > 5.0 * ps[0][1].abs());
    }

    #[test]
    fn j2_elastic_below_yield() {
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3);
        let mut state = vec![0.0; 14];
        let mut h = MAT3_ZERO;
        h[0][0] = 1e-4; // well below yield strain ~1e-3
        let (s, a) = m.respond(&h, &mut state);
        assert!(!J2Plasticity::is_yielded(&state));
        let le = LinearElastic {
            lambda: m.lambda,
            mu: m.mu,
        };
        let (se, _) = le.respond(&h, &mut []);
        for i in 0..3 {
            for j in 0..3 {
                assert!((s[i][j] - se[i][j]).abs() < 1e-15);
            }
        }
        assert!(a.is_major_symmetric(1e-12));
    }

    #[test]
    fn j2_returns_to_yield_surface() {
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3);
        let mut state = vec![0.0; 14];
        let mut h = MAT3_ZERO;
        h[0][0] = 5e-3; // far beyond yield
        let (s, _) = m.respond(&h, &mut state);
        assert!(J2Plasticity::is_yielded(&state));
        // |dev σ − α| must sit on the yield surface radius.
        let alpha = sym_to_mat(&state[6..12]);
        let pm = trace(&s) / 3.0;
        let mut xi = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                xi[i][j] = s[i][j] - alpha[i][j];
            }
            xi[i][i] -= pm;
        }
        let norm: f64 = xi.iter().flatten().map(|v| v * v).sum::<f64>().sqrt();
        let radius = (2.0f64 / 3.0).sqrt() * m.sigma_y;
        assert!((norm - radius).abs() < 1e-12, "{norm} vs {radius}");
        // Plastic strain is deviatoric.
        let ep = sym_to_mat(&state[0..6]);
        assert!(trace(&ep).abs() < 1e-15);
    }

    #[test]
    fn j2_consistent_tangent_matches_fd_in_loading() {
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3);
        let state0 = vec![0.0; 14];
        let h = [[4e-3, 1e-3, 0.0], [1e-3, -2e-3, 5e-4], [0.0, 5e-4, 1e-3]];
        let mut st = state0.clone();
        let (_, a) = m.respond(&h, &mut st);
        assert!(J2Plasticity::is_yielded(&st));
        let fd = fd_tangent(&m, &h, &state0);
        assert_tangent_close(&a, &fd, 1e-4);
    }

    #[test]
    fn j2_isotropic_hardening_grows_surface() {
        // With isotropic hardening the elastic range *expands*: after a
        // plastic excursion and commit, the stress needed to re-yield is
        // higher than the virgin yield stress.
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 0.0).with_isotropic(0.05);
        let mut state = vec![0.0; 14];
        let mut h = MAT3_ZERO;
        h[0][0] = 5e-3;
        let (s1, _) = m.respond(&h, &mut state);
        assert!(J2Plasticity::is_yielded(&state));
        assert!(state[13] > 0.0, "accumulated plastic strain must grow");
        // Effective stress sits on the *expanded* surface.
        let pm = trace(&s1) / 3.0;
        let mut dev = s1;
        for i in 0..3 {
            dev[i][i] -= pm;
        }
        let norm: f64 = dev.iter().flatten().map(|v| v * v).sum::<f64>().sqrt();
        let virgin = (2.0f64 / 3.0).sqrt() * m.sigma_y;
        assert!(
            norm > virgin * 1.05,
            "surface did not grow: {norm} vs {virgin}"
        );
        // Consistent tangent still matches finite differences.
        let committed = state.clone();
        let mut h2 = h;
        h2[0][0] = 7e-3;
        let mut st = committed.clone();
        let (_, a) = m.respond(&h2, &mut st);
        assert!(J2Plasticity::is_yielded(&st));
        let fd = fd_tangent(&m, &h2, &committed);
        assert_tangent_close(&a, &fd, 1e-4);
    }

    #[test]
    fn j2_combined_hardening_return_is_consistent() {
        // Kinematic + isotropic together: the return still lands exactly on
        // the (shifted and grown) yield surface.
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 2e-3).with_isotropic(0.02);
        let mut state = vec![0.0; 14];
        let mut h = MAT3_ZERO;
        h[0][0] = 4e-3;
        h[1][1] = -1e-3;
        let (s, _) = m.respond(&h, &mut state);
        assert!(J2Plasticity::is_yielded(&state));
        let alpha = sym_to_mat(&state[6..12]);
        let pm = trace(&s) / 3.0;
        let mut xi = MAT3_ZERO;
        for i in 0..3 {
            for j in 0..3 {
                xi[i][j] = s[i][j] - alpha[i][j];
            }
            xi[i][i] -= pm;
        }
        let norm: f64 = xi.iter().flatten().map(|v| v * v).sum::<f64>().sqrt();
        let radius = (2.0f64 / 3.0).sqrt() * (m.sigma_y + m.h_iso * state[13]);
        assert!((norm - radius).abs() < 1e-12, "{norm} vs {radius}");
    }

    #[test]
    fn j2_kinematic_hardening_shifts_center() {
        // Load plastically, commit, then the elastic range is recentered:
        // reloading to the same strain is now elastic.
        let m = J2Plasticity::from_e_nu(1.0, 0.3, 1e-3, 0.1);
        let mut state = vec![0.0; 14];
        let mut h = MAT3_ZERO;
        h[0][0] = 3e-3;
        let _ = m.respond(&h, &mut state); // plastic; trial becomes committed
        assert!(J2Plasticity::is_yielded(&state));
        let committed = state.clone();
        let mut state2 = committed.clone();
        let (_, _) = m.respond(&h, &mut state2); // same strain again
        assert!(
            !J2Plasticity::is_yielded(&state2),
            "reload should be elastic"
        );
        // A small partial unload stays inside the (shifted) elastic range.
        let mut h_small = h;
        h_small[0][0] *= 0.95;
        let mut state3 = committed.clone();
        let (_, _) = m.respond(&h_small, &mut state3);
        assert!(!J2Plasticity::is_yielded(&state3));
        // Back stress is nonzero.
        assert!(committed[6..12].iter().any(|v| v.abs() > 1e-9));
    }
}

//! The paper's opening claim, measured: "finite element matrices are often
//! poorly conditioned" — and the multigrid preconditioner repairs this.
//! Lanczos estimates the spectrum of the raw and the FMG-preconditioned
//! operator on the spheres problem (material jump 1e4, ν = 0.49).

use pmg_fem::bc::constrain_system;
use pmg_mesh::SpheresParams;
use pmg_parallel::{DistMatrix, DistVec, Layout, MachineModel, Sim};
use pmg_solver::{IdentityPrecond, JacobiPrecond, Precond};
use pmg_sparse::CooBuilder;
use prometheus::{classify_mesh, MgHierarchy, MgOptions};

/// Extreme-eigenvalue estimate of `M⁻¹ A` (SPD `A`, SPD `M`).
#[derive(Clone, Copy, Debug)]
struct SpectrumEstimate {
    lambda_min: f64,
    lambda_max: f64,
}

impl SpectrumEstimate {
    fn condition(&self) -> f64 {
        if self.lambda_min > 0.0 {
            self.lambda_max / self.lambda_min
        } else {
            f64::INFINITY
        }
    }
}

/// Estimate the extreme eigenvalues of the preconditioned operator
/// `M⁻¹ A` by `steps` of the Lanczos process in the M-inner product (the
/// same recurrence PCG performs, so this is exactly the spectrum PCG
/// sees). Uses full reorthogonalization for robustness at small `steps`.
fn lanczos_spectrum(
    sim: &mut Sim,
    a: &DistMatrix,
    m: &dyn Precond,
    steps: usize,
) -> SpectrumEstimate {
    let layout = a.row_layout().clone();
    let n = layout.num_global();
    let steps = steps.min(n).max(2);

    // Start vector (deterministic pseudo-random).
    let seed: Vec<f64> = (0..n)
        .map(|i| ((i.wrapping_mul(2654435761).wrapping_add(12345)) % 2048) as f64 / 1024.0 - 1.0)
        .collect();
    // Lanczos in the M-inner product on B = M⁻¹A: keep z = M⁻¹ r alongside
    // r, as CG does.
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);

    let mut r = DistVec::from_global(layout.clone(), &seed);
    let mut z = DistVec::zeros(layout.clone());
    m.apply(sim, &r, &mut z);
    let rz = r.dot(sim, &z);
    if rz <= 0.0 {
        return SpectrumEstimate {
            lambda_min: 0.0,
            lambda_max: 0.0,
        };
    }
    // Normalize in the M⁻¹-inner product.
    let nrm = rz.sqrt();
    r.scale(sim, 1.0 / nrm);
    z.scale(sim, 1.0 / nrm);

    // History for full reorthogonalization: pairs (r_k, z_k).
    let mut hist: Vec<(DistVec, DistVec)> = vec![(r.clone(), z.clone())];

    for _ in 0..steps {
        // w = A z.
        let mut w = DistVec::zeros(layout.clone());
        a.spmv(sim, &z, &mut w);
        let alpha = z.dot(sim, &w);
        alphas.push(alpha);
        // w <- w - alpha r - beta r_prev, then reorthogonalize against all.
        w.axpy(sim, -alpha, &r);
        if let Some(beta) = betas.last() {
            let (rp, _) = &hist[hist.len() - 2];
            w.axpy(sim, -*beta, rp);
        }
        // Full reorthogonalization in the M⁻¹ inner product:
        // proj = z_kᵀ w (since <r_k, M⁻¹ w> = z_kᵀ w).
        let mut zw = DistVec::zeros(layout.clone());
        m.apply(sim, &w, &mut zw);
        for (rk, zk) in &hist {
            let proj = zk.dot(sim, &w);
            if proj.abs() > 0.0 {
                w.axpy(sim, -proj, rk);
                let mut tmp = DistVec::zeros(layout.clone());
                m.apply(sim, rk, &mut tmp);
                zw.axpy(sim, -proj, &tmp);
            }
        }
        let beta2 = zw.dot(sim, &w);
        if beta2 <= 1e-28 {
            break;
        }
        let beta = beta2.sqrt();
        betas.push(beta);
        r = w;
        r.scale(sim, 1.0 / beta);
        z = zw;
        z.scale(sim, 1.0 / beta);
        hist.push((r.clone(), z.clone()));
        if hist.len() > steps {
            break;
        }
    }

    // Eigenvalues of the small tridiagonal (alphas, betas).
    let k = alphas.len();
    let mut t = vec![0.0f64; k * k];
    for i in 0..k {
        t[i * k + i] = alphas[i];
        if i + 1 < k && i < betas.len() {
            t[i * k + i + 1] = betas[i];
            t[(i + 1) * k + i] = betas[i];
        }
    }
    let eigs = symmetric_eigenvalues(&mut t, k);
    SpectrumEstimate {
        lambda_min: eigs.iter().cloned().fold(f64::INFINITY, f64::min),
        lambda_max: eigs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Eigenvalues of a small dense symmetric matrix by cyclic Jacobi.
fn symmetric_eigenvalues(a: &mut [f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    let frob = |a: &[f64]| a.iter().map(|v| v * v).sum::<f64>().sqrt();
    for _sweep in 0..64 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += a[i * n + j] * a[i * n + j];
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + frob(a)) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p, q.
                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
    }
    (0..n).map(|i| a[i * n + i]).collect()
}

#[test]
fn jacobi_eigenvalues_of_diagonal() {
    let mut a = vec![0.0; 9];
    a[0] = 3.0;
    a[4] = 1.0;
    a[8] = 7.0;
    a[1] = 0.5;
    a[3] = 0.5;
    let mut eigs = symmetric_eigenvalues(&mut a, 3);
    eigs.sort_by(|x, y| x.partial_cmp(y).unwrap());
    // Analytic eigenvalues of [[3,.5,0],[.5,1,0],[0,0,7]]: 2 ± sqrt(1.25), and 7.
    let lo = 2.0 - 1.25f64.sqrt();
    let hi = 2.0 + 1.25f64.sqrt();
    assert!((eigs[0] - lo).abs() < 1e-10);
    assert!((eigs[1] - hi).abs() < 1e-10);
    assert!((eigs[2] - 7.0).abs() < 1e-10);
}

#[test]
fn lanczos_brackets_laplacian_spectrum() {
    let n = 40;
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 2.0);
        if i > 0 {
            b.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            b.push(i, i + 1, -1.0);
        }
    }
    let l = Layout::block(n, 2);
    let mut sim = Sim::new(2, MachineModel::default());
    let da = DistMatrix::from_global(&b.build(), l.clone(), l);
    let est = lanczos_spectrum(&mut sim, &da, &IdentityPrecond, 30);
    // True spectrum: 2 - 2cos(kπ/(n+1)), k=1..n.
    let true_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
    let true_max = 2.0 - 2.0 * (n as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
    assert!(
        (est.lambda_max - true_max).abs() < 0.05 * true_max,
        "{est:?}"
    );
    assert!(est.lambda_min < 3.0 * true_min, "{est:?} vs {true_min}");
    assert!(est.condition() > 100.0);
}

#[test]
fn jacobi_preconditioning_improves_condition() {
    // Badly scaled SPD matrix: Jacobi restores O(1) conditioning.
    let n = 30;
    let scale = |i: usize| if i.is_multiple_of(2) { 10.0 } else { 1.0 };
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 2.0 * scale(i) * scale(i));
    }
    // Weak coupling keeps it SPD.
    for i in 0..n - 1 {
        b.push(i, i + 1, -0.1 * scale(i) * scale(i + 1));
        b.push(i + 1, i, -0.1 * scale(i) * scale(i + 1));
    }
    let l = Layout::block(n, 1);
    let mut sim = Sim::new(1, MachineModel::default());
    let da = DistMatrix::from_global(&b.build(), l.clone(), l);
    let raw = lanczos_spectrum(&mut sim, &da, &IdentityPrecond, 25);
    let pre = lanczos_spectrum(&mut sim, &da, &JacobiPrecond::new(&da), 25);
    assert!(
        pre.condition() < 0.2 * raw.condition(),
        "raw {} vs preconditioned {}",
        raw.condition(),
        pre.condition()
    );
}

#[test]
fn fmg_preconditioning_collapses_condition_number() {
    let params = SpheresParams::tiny();
    let mut problem = pmg_fem::spheres_problem(&params);
    let mesh = problem.fem.mesh.clone();
    let ndof = mesh.num_dof();
    let (k, r) = problem.fem.assemble(&vec![0.0; ndof]);
    let bcs = problem.bcs_for_step(1, 10);
    let fixed: Vec<(u32, f64)> = bcs.iter().map(|b| (b.dof, b.value)).collect();
    let (kc, _) = constrain_system(&k, &r, &fixed);

    let mut sim = Sim::new(1, MachineModel::default());
    let layout = Layout::serial(ndof);
    let da = DistMatrix::from_global(&kc, layout.clone(), layout);

    let raw = lanczos_spectrum(&mut sim, &da, &IdentityPrecond, 40);
    // Lanczos with 40 steps lower-bounds the true condition number; even
    // the bound is in the thousands on this tiny mesh (it grows with
    // refinement).
    assert!(
        raw.condition() > 1e3,
        "the spheres operator should be badly conditioned: {:?}",
        raw
    );

    let graph = mesh.vertex_graph();
    let classes = classify_mesh(&mesh, 0.7);
    let mg = MgHierarchy::build(
        &mut sim,
        &kc,
        &mesh.coords,
        &graph,
        &classes,
        MgOptions {
            coarse_dof_threshold: 400,
            ..Default::default()
        },
    );
    // Note: the hierarchy owns its own layout; rebuild the operator on it.
    let pre = lanczos_spectrum(&mut sim, &mg.levels[0].a, &mg, 40);
    assert!(
        pre.lambda_min > 0.0,
        "preconditioned operator must stay definite: {pre:?}"
    );
    assert!(
        pre.condition() < 1e-2 * raw.condition(),
        "FMG should collapse the condition number: raw {:.3e} vs preconditioned {:.3e}",
        raw.condition(),
        pre.condition()
    );
    // A good multigrid preconditioner yields O(1..tens) conditioning even
    // with the 1e4 material jump.
    assert!(
        pre.condition() < 200.0,
        "preconditioned κ = {:.3e}",
        pre.condition()
    );
}

//! Seeded input generation. The solver only ever sees what this module
//! generates; `--seed` reaches nothing else.
//!
//! Seeds change the *bits* of the inputs, never the *amount of work*: the
//! mesh is written in another length unit (a power of two, so every
//! floating-point operation of the pipeline is the same up to the
//! exponent), right-hand sides are scaled by seeded amplitudes (PCG on
//! `a b` is PCG on `b`), and the serving workload draws its request order
//! from the seed. Ten runs with ten seeds therefore measure the machine's
//! noise, which is what the repeatability bound is about.

use pmg_fem::{DirichletBc, FemProblem};
use pmg_geometry::Vec3;
use pmg_mesh::Mesh;

/// SplitMix64: small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded length unit: the mesh is scaled by `2^k`, `k` in `-16..=16`.
pub fn unit_exponent(rng: &mut Rng) -> i32 {
    rng.below(33) as i32 - 16
}

/// `mesh` with every coordinate multiplied by `2^k`.
pub fn scaled(mesh: &Mesh, k: i32) -> Mesh {
    let s = 2f64.powi(k);
    let coords = mesh
        .coords
        .iter()
        .map(|p| Vec3::new(p.x * s, p.y * s, p.z * s))
        .collect();
    Mesh::new(
        coords,
        mesh.kind,
        mesh.elem_verts.clone(),
        mesh.materials.clone(),
    )
}

/// The paper's spheres octant at ladder point 1 with a coarser surface grid:
/// 17 shells, 3 264 vertices, 9 792 dof — a fine operator of 7 MB, out of L2.
pub fn spheres10k_params() -> pmg_mesh::SpheresParams {
    pmg_mesh::SpheresParams {
        n_surf: 6,
        ..pmg_mesh::SpheresParams::ladder(1)
    }
}

/// The spheres problem rebuilt from an ingested mesh: Table 1 materials,
/// symmetry planes on the three coordinate planes, the crushed top face.
/// (`pmg_fem::spheres_problem` generates its own mesh from parameters; a
/// workload that starts from bytes has to attach the load program itself.)
pub struct CrushProblem {
    pub fem: FemProblem,
    symmetry: Vec<DirichletBc>,
    top_dofs: Vec<u32>,
    /// Crush per load step (a tenth of 3.6 of 12.5, in the mesh's unit).
    step_crush: f64,
}

impl CrushProblem {
    /// `side` is the octant cube's side in the mesh's unit.
    pub fn new(mesh: Mesh, side: f64) -> CrushProblem {
        let tol = 1e-9 * side;
        let mut symmetry = Vec::new();
        let mut top_dofs = Vec::new();
        for (v, p) in mesh.coords.iter().enumerate() {
            for (c, x) in [p.x, p.y, p.z].into_iter().enumerate() {
                if x.abs() < tol {
                    symmetry.push(DirichletBc {
                        dof: 3 * v as u32 + c as u32,
                        value: 0.0,
                    });
                }
            }
            if (p.z - side).abs() < tol {
                top_dofs.push(3 * v as u32 + 2);
            }
        }
        CrushProblem {
            fem: FemProblem::new(mesh, pmg_fem::table1_materials()),
            symmetry,
            top_dofs,
            step_crush: 0.36 * side / 12.5,
        }
    }

    /// Constrained-dof increments `(dof, target - u[dof])` for load step
    /// `step` scaled by `amplitude`, at displacement `u`.
    pub fn increments(&self, step: usize, amplitude: f64, u: &[f64]) -> Vec<(u32, f64)> {
        let crush = -self.step_crush * step as f64 * amplitude;
        self.symmetry
            .iter()
            .map(|b| (b.dof, b.value))
            .chain(self.top_dofs.iter().map(|&d| (d, crush)))
            .map(|(d, target)| (d, target - u[d as usize]))
            .collect()
    }

    /// Total prescribed values, for `NewtonDriver`.
    pub fn bcs(&self, step: usize) -> Vec<DirichletBc> {
        let crush = -self.step_crush * step as f64;
        self.symmetry
            .iter()
            .copied()
            .chain(self.top_dofs.iter().map(|&d| DirichletBc {
                dof: d,
                value: crush,
            }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_numbers() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(8, 1);
        assert_ne!(a[0], other.next_u64());
        let mut r = Rng::new(1, 2);
        for _ in 0..100 {
            let k = unit_exponent(&mut r);
            assert!((-16..=16).contains(&k));
            let x = r.range(0.75, 1.25);
            assert!((0.75..1.25).contains(&x));
        }
    }
}

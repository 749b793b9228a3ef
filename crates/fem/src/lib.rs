#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in the numeric kernels

//! Finite element substrate ("FEAP" + the per-processor part of "Athena").
//!
//! The multigrid solver consumes assembled stiffness matrices and residuals;
//! this crate produces them for 3D solid mechanics on the meshes of
//! `pmg-mesh`:
//!
//! * [`shape`] — trilinear hex8 / linear tet4 shape functions and Gauss
//!   quadrature,
//! * [`material`] — the paper's Table 1 materials: linear elasticity (for
//!   the linear studies), large-deformation Neo-Hookean hyperelasticity
//!   (the "soft" rubber), and J2 plasticity with kinematic hardening via
//!   radial return (the "hard" shells; see DESIGN.md for the small-strain
//!   substitution),
//! * [`assembly`] — element assembly into CSR, with history-state
//!   management for the plastic material,
//! * [`bc`] — symmetric Dirichlet elimination for the symmetry planes and
//!   the prescribed crushing displacement,
//! * [`newton`] — the full Newton driver with the paper's dynamic linear
//!   tolerance (§7.2),
//! * [`problem`] — the concentric-spheres problem assembled end to end.

pub mod assembly;
pub mod athena;
pub mod bc;
pub mod material;
pub mod matfree;
pub mod newton;
pub mod problem;
pub mod shape;

pub use assembly::FemProblem;
pub use athena::RankAssembly;
pub use bc::DirichletBc;
pub use material::{J2Plasticity, LinearElastic, Material, NeoHookean};
pub use matfree::MatFreeOperator;
pub use newton::{NewtonDriver, NewtonOptions, NewtonStats};
pub use problem::{spheres_problem, table1_materials, SpheresProblem};

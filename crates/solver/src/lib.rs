//! Krylov solvers, smoothers, and coarse-grid direct solves ("PETSc KSP"
//! stand-in) operating on the simulated distributed runtime.
//!
//! The paper's solve configuration (§7.2): preconditioned conjugate
//! gradient, preconditioned with one full multigrid cycle, whose smoother is
//! block Jacobi with "6 blocks for every 1,000 unknowns (these block Jacobi
//! sub-domains are constructed with METIS)", one pre- and one post-smoothing
//! step, and a direct solve on the coarsest grid.
//!
//! * [`pcg()`] — preconditioned conjugate gradients on [`pmg_parallel`]
//!   distributed vectors/matrices,
//! * [`smoother`] — damped Jacobi and block-Jacobi smoothers (blocks built
//!   per rank with the graph partitioner, factored once per matrix setup),
//! * [`direct`] — gather-to-root dense direct solver for the coarsest grid,
//! * [`precond`] — the preconditioner interface shared with the multigrid
//!   crate.

pub mod chebyshev;
pub mod direct;
pub mod lanczos;
pub mod pcg;
pub mod precond;
pub mod smoother;

pub use chebyshev::Chebyshev;
pub use direct::CoarseDirect;
pub use lanczos::{lanczos_spectrum, SpectrumEstimate};
pub use pcg::{pcg, pcg_generic, PcgBackend, PcgOptions, PcgResult};
pub use precond::{IdentityPrecond, JacobiPrecond, Precond};
pub use smoother::{BlockJacobi, RankJacobi, RankSmoother};

//! Simulated distributed-memory runtime ("MPI on the 960-processor IBM
//! cluster" stand-in).
//!
//! The paper runs flat-MPI PETSc kernels over up to 960 processors. We
//! reproduce the *algorithmic* parallel structure exactly — a partition of
//! every vector and matrix over `P` virtual ranks, ghost exchanges before
//! off-rank matrix columns are touched, allreduce for inner products — while
//! executing on one address space (virtual ranks run one after another on
//! the calling thread). Every superstep is charged to per-rank performance counters and
//! to a BSP machine model (latency `α`, inverse bandwidth `β`, per-rank flop
//! rate), from which the paper's efficiency metrics (§6: work efficiency
//! `e_w`, flop scale efficiency `e_s^F`, communication efficiency `e_c`,
//! load balance) are recomputed. Absolute seconds differ from the 1999
//! hardware; the efficiency *shapes* are machine-model driven and documented
//! in EXPERIMENTS.md.
//!
//! * [`layout::Layout`] — ownership map of global indices over ranks,
//! * [`sim::Sim`] — superstep accounting and the machine model,
//! * [`vec::DistVec`] — rank-partitioned vectors,
//! * [`matrix::RankMatrix`] — one rank's share of a matrix and its
//!   products over a real transport, its owned-column block read in place
//!   through [`matrix::LocalBlock`],
//! * [`matrix::DistMatrix`] — every virtual rank's [`RankMatrix`] on one
//!   ghost-column plan.

pub mod halo;
pub mod layout;
pub mod matfree;
pub mod matrix;
pub mod sim;
pub mod vec;

pub use halo::{HaloMsg, HaloPlan, RankHalo};
pub use layout::Layout;
pub use matfree::{DistMatFree, SimOperator};
pub use matrix::{DistMatrix, LocalBlock, RankMatrix};
pub use sim::{MachineModel, PhaseStats, RankCounters, Sim};
pub use vec::DistVec;

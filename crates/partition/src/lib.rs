//! Graph partitioning and ordering substrate ("METIS / ParMetis" stand-in).
//!
//! The paper uses ParMetis to partition the finite element graph onto
//! processors (and METIS again to build the block-Jacobi smoother blocks —
//! 6 blocks per 1000 unknowns). This crate provides the same services:
//!
//! * [`graph::Graph`] — CSR adjacency structure shared across the workspace,
//! * [`rcb`] — recursive coordinate bisection for geometric partitioning,
//! * [`greedy`] — graph-growing partitioner with Kernighan–Lin style
//!   boundary refinement (the METIS replacement used for smoother blocks),
//!   run on [`quotient::TwinQuotient`], the graph's quotient by runs of
//!   closed twins, read from a graph or straight from a stored block,
//! * [`order`] — Cuthill–McKee ("natural", cache-friendly) and random
//!   orderings, the two MIS vertex-ordering heuristics of §4.7.

pub mod graph;
pub mod greedy;
pub mod order;
pub mod quotient;
pub mod rcb;

pub use graph::Graph;
pub use greedy::{part_counts, part_imbalance, partition_graph};
pub use order::{cuthill_mckee, random_permutation, reverse_cuthill_mckee};
pub use quotient::{BlockPattern, TwinQuotient};
pub use rcb::recursive_coordinate_bisection;

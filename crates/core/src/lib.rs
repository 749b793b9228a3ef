#![allow(clippy::needless_range_loop)] // indexed loops are the clearer idiom in the numeric kernels
#![warn(missing_docs)]

//! # Prometheus-rs
//!
//! A reproduction of *"Parallel Multigrid Solver for 3D Unstructured Finite
//! Element Problems"* (Adams & Demmel, SC 1999) — a fully automatic
//! geometric multigrid solver for unstructured finite element problems: the
//! user provides only the fine grid (vertices, connectivity, coordinates,
//! and the assembled operator), and the solver builds the entire grid
//! hierarchy itself.
//!
//! Pipeline per level (§3-§4 of the paper):
//!
//! 1. **Classify** vertices topologically ([`classify`]): identify boundary
//!    *faces* by a normal-tolerance BFS over boundary facets, then label
//!    each vertex interior / surface / edge / corner.
//! 2. **Modify** the MIS graph ([`classify::modified_mis_graph`]): remove
//!    edges between exterior vertices that share no face, so thin regions
//!    keep a vertex cover (§4.6).
//! 3. **Coarsen** with a maximal independent set ([`mis`]): rank-ordered so
//!    corners survive, then edges, then surfaces, then interiors; natural
//!    order on the boundary, random inside (§4.7).
//! 4. **Remesh** the selected vertices with Delaunay tetrahedra and build
//!    the **restriction operator** from linear tet shape functions
//!    ([`coarsen`]), recovering "lost" fine vertices from nearby elements.
//! 5. Form **Galerkin coarse operators** `A_c = R A Rᵀ` and recurse
//!    ([`mg`]); solve with FMG-preconditioned CG ([`solver`]).

pub mod classify;
pub mod coarsen;
mod cycle;
pub mod fingerprint;
pub mod ingest;
pub mod inspect;
pub mod mg;
pub mod mis;
pub mod solver;
pub mod spmd;

pub use classify::{
    classify_mesh, classify_mesh_parallel, classify_mesh_transport, classify_vertices,
    identify_faces, identify_faces_transport, modified_mis_graph, VertexClass, VertexClasses,
};
pub use coarsen::{coarsen_level, coarsen_level_transport, CoarseLevel, CoarsenOptions};
pub use fingerprint::{fingerprint_hex, parse_fingerprint_hex, solver_fingerprint};
pub use ingest::{
    plan_ingest, plan_ingest_with_part, scatter_seeds, CoarseSeed, IngestPlan, RankSeed,
};
pub use inspect::{classify_mesh_levels, tets_to_obj, LevelInfo};
pub use mg::{MgHierarchy, MgOptions};
pub use mis::{greedy_mis, parallel_mis_transport, MisOrdering};
pub use solver::{Prometheus, PrometheusOptions};
pub use spmd::{
    build_threads, solve_threads, spmd_pcg, DistributedSetup, PhaseWaits, RankHierarchy,
    SpmdSolveOutcome,
};

#[cfg(test)]
mod decoder_fuzz;

//! Robust computational geometry substrate for the Prometheus multigrid solver.
//!
//! The SC'99 paper relies on two geometric components that we rebuild here:
//!
//! * **Robust predicates** ([`predicates`]): the paper links Shewchuk's
//!   adaptive-precision geometric predicates (~4k lines of C). We implement
//!   the same construction — floating-point *expansion* arithmetic
//!   ([`expansion`]) with a fast semi-static filter and an exact fallback —
//!   for `orient3d` and `insphere`.
//! * **Delaunay tetrahedralization** ([`delaunay`]): Watson's incremental
//!   (Bowyer–Watson) algorithm, used in §4.8 of the paper to remesh each
//!   coarse vertex set so that linear tetrahedral shape functions define the
//!   restriction operator.
//!
//! Also provided: a small 3-vector type ([`vec3::Vec3`]), axis-aligned
//! bounding boxes ([`aabb::Aabb`]), and barycentric interpolation helpers
//! used when evaluating shape functions of the coarse mesh at fine vertices.

pub mod aabb;
pub mod delaunay;
pub mod expansion;
pub mod predicates;
pub mod vec3;

pub use aabb::Aabb;
pub use delaunay::{Delaunay, Tet};
pub use predicates::{insphere, orient3d, Orientation, Predicates, StageCounts};
pub use vec3::Vec3;

//! Unstructured 3D finite element meshes and problem generators.
//!
//! The paper's solver consumes "data that is easily available in most finite
//! element applications": vertex coordinates, element connectivity, and
//! material ids. [`mesh::Mesh`] carries exactly that. On top of it we build:
//!
//! * boundary facet extraction including material-interface boundaries
//!   ([`facets`]) — the input to the face-identification algorithm (§4.4),
//! * the element-connectivity vertex graph used by the MIS coarsener,
//! * structured generators for test problems ([`generators`]) and the
//!   paper's concentric-spheres workload ([`spheres`], §7: seventeen
//!   alternating hard/soft spherical shells embedded in a soft cube,
//!   meshed with hexahedra as one octant).

pub mod facets;
pub mod flatfile;
pub mod generators;
pub mod io;
pub mod mesh;
pub mod shard;
pub mod spheres;

pub use facets::{boundary_facets, facet_adjacency, facet_centroids, Facet};
pub use flatfile::{read_flat, read_flat_bytes, write_flat, write_flat_bytes};
pub use io::to_vtk;
pub use mesh::{ElementKind, Mesh};
pub use shard::{element_imbalance, shard_mesh, MeshShard};
pub use spheres::{sphere_in_cube, SpheresParams};

//! Face identification and topological vertex classification (§4.3-§4.6).
//!
//! Boundary facets (including material interfaces) are grouped into *faces*
//! — maximal "flat" manifolds — by a breadth-first search that admits a
//! facet only while its normal stays within `arccos(TOL)` of both the root
//! facet's normal and its neighbor's (Figure 3 of the paper). Vertices are
//! then classified by how many faces touch them: 1 = surface, 2 = edge,
//! more = corner; vertices on no facet are interior. The face sets also
//! drive the *modified MIS graph*: edges between exterior vertices that
//! share no face are removed, and corner-corner edges are removed so
//! corners are never deleted (§4.6).

use pmg_mesh::facets::{facet_adjacency, vertex_to_facets, Facet};
use pmg_partition::Graph;

/// Topological class of a vertex; doubles as the MIS rank (§4.4: interior
/// 0, surface 1, edge 2, corner 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VertexClass {
    /// Touches no boundary face.
    Interior = 0,
    /// On exactly one face.
    Surface = 1,
    /// On two faces (a crease between them).
    Edge = 2,
    /// On three or more faces.
    Corner = 3,
}

impl VertexClass {
    /// MIS ordering rank of the class (higher survives coarsening longer).
    pub fn rank(self) -> u8 {
        self as u8
    }
}

/// Classification of all vertices of one grid.
#[derive(Clone, Debug)]
pub struct VertexClasses {
    /// Topological class per vertex.
    pub class: Vec<VertexClass>,
    /// Sorted face ids touching each vertex (empty for interior vertices).
    pub faces: Vec<Vec<u32>>,
}

impl VertexClasses {
    /// All-interior classification (used when no boundary data exists).
    pub fn all_interior(n: usize) -> VertexClasses {
        VertexClasses {
            class: vec![VertexClass::Interior; n],
            faces: vec![Vec::new(); n],
        }
    }

    /// Per-vertex MIS ranks (the §4.4 heuristic input).
    pub fn ranks(&self) -> Vec<u8> {
        self.class.iter().map(|c| c.rank()).collect()
    }

    /// Number of vertices with class `c`.
    pub fn count(&self, c: VertexClass) -> usize {
        self.class.iter().filter(|&&x| x == c).count()
    }
}

/// The face identification algorithm (Figure 3): returns a face id per
/// facet. `tol` is the cosine tolerance (−1 < TOL ≤ 1); facets join a face
/// only while `root_norm·f1_norm > tol` and `f_norm·f1_norm > tol`.
pub fn identify_faces(facets: &[Facet], adjacency: &Graph, tol: f64) -> Vec<u32> {
    let n = facets.len();
    let mut face_id = vec![0u32; n];
    let mut current = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if face_id[root] != 0 {
            continue;
        }
        current += 1;
        let root_norm = facets[root].normal;
        face_id[root] = current;
        queue.push_back(root);
        while let Some(f) = queue.pop_front() {
            let fn_ = facets[f].normal;
            for &f1 in adjacency.neighbors(f) {
                let f1 = f1 as usize;
                if face_id[f1] != 0 {
                    continue;
                }
                let n1 = facets[f1].normal;
                if root_norm.dot(n1) > tol && fn_.dot(n1) > tol {
                    face_id[f1] = current;
                    queue.push_back(f1);
                }
            }
        }
    }
    face_id
}

/// What the §4.5 per-processor passes produce, as id pairs.
#[derive(Default)]
struct FacePasses {
    /// `(facet, id)` for every facet of the processors that ran.
    assigned: Vec<(u32, u32)>,
    /// `G_fid` edges between two ids of one processor.
    edges: Vec<(u32, u32)>,
    /// `(facet f1, my_id)`: an admissible neighbor on a higher processor,
    /// whose id completes the `G_fid` edge once every pass is known.
    candidates: Vec<(u32, u32)>,
}

impl FacePasses {
    fn lists(&self) -> [&Vec<(u32, u32)>; 3] {
        [&self.assigned, &self.edges, &self.candidates]
    }

    fn lists_mut(&mut self) -> [&mut Vec<(u32, u32)>; 3] {
        [&mut self.assigned, &mut self.edges, &mut self.candidates]
    }
}

/// Processor `p`'s face-identification pass (§4.5), appended to `out`: the
/// serial BFS over its own facets, with ids `p * stride + counter` (the
/// paper's `<p, Current_ID>` tuple flattened).
///
/// A pass reads other processors' facets only to *record* `G_fid` edges,
/// never to steer its own traversal (it assigns ids only to own-processor
/// facets), so what it appends depends on nothing but
/// `(facets, adjacency, tol, proc_of_facet, p)` and it can run on any
/// rank. In the paper's high→low processor order a cross-processor
/// neighbor `f1` is "already identified" at `p`'s turn **iff**
/// `proc_of_facet[f1] > p`, which is why exactly those become candidates.
fn proc_pass(
    facets: &[Facet],
    adjacency: &Graph,
    tol: f64,
    proc_of_facet: &[u32],
    p: u32,
    out: &mut FacePasses,
) {
    let n = facets.len();
    let stride = n as u32 + 1;
    let mut face_id = vec![0u32; n];
    let mut counter = 0u32;
    for root in 0..n {
        if proc_of_facet[root] != p || face_id[root] != 0 {
            continue;
        }
        counter += 1;
        let my_id = p * stride + counter;
        let root_norm = facets[root].normal;
        face_id[root] = my_id;
        out.assigned.push((root as u32, my_id));
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(f) = queue.pop_front() {
            let fn_ = facets[f].normal;
            for &f1 in adjacency.neighbors(f) {
                let f1 = f1 as usize;
                let n1 = facets[f1].normal;
                let admissible = root_norm.dot(n1) > tol && fn_.dot(n1) > tol;
                if !admissible {
                    continue;
                }
                if proc_of_facet[f1] != p {
                    if proc_of_facet[f1] > p {
                        out.candidates.push((f1 as u32, my_id));
                    }
                    continue;
                }
                if face_id[f1] == 0 {
                    face_id[f1] = my_id;
                    out.assigned.push((f1 as u32, my_id));
                    queue.push_back(f1);
                } else if face_id[f1] != my_id {
                    out.edges.push((face_id[f1], my_id));
                }
            }
        }
    }
}

/// Global reduction of `G_fid` over every processor's pass: each facet
/// takes the largest id reachable from its own (union-find by max), so the
/// result depends only on the edge *set*, not on the order the passes
/// arrived in. `None` if a pair names a facet outside the grid or an id no
/// facet carries — impossible for passes computed here, possible for
/// passes decoded from a peer.
fn merge_face_ids(n: usize, all: &FacePasses) -> Option<Vec<u32>> {
    let mut face_id = vec![0u32; n];
    for &(f, id) in &all.assigned {
        *face_id.get_mut(f as usize)? = id;
    }
    let mut ids: Vec<u32> = face_id.clone();
    ids.sort_unstable();
    ids.dedup();
    let mut parent: Vec<usize> = (0..ids.len()).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let completed = all
        .candidates
        .iter()
        .map(|&(f1, my_id)| Some((*face_id.get(f1 as usize)?, my_id)));
    for edge in all.edges.iter().map(|&e| Some(e)).chain(completed) {
        let (a, b) = edge?;
        let ra = find(&mut parent, ids.binary_search(&a).ok()?);
        let rb = find(&mut parent, ids.binary_search(&b).ok()?);
        if ra != rb {
            parent[ra] = rb;
        }
    }
    // Max id per component.
    let mut max_of = vec![0u32; ids.len()];
    for (k, &id) in ids.iter().enumerate() {
        let r = find(&mut parent, k);
        max_of[r] = max_of[r].max(id);
    }
    let index_of = |id: u32| ids.binary_search(&id).expect("ids lists every facet's id");
    Some(
        face_id
            .iter()
            .map(|&id| max_of[find(&mut parent, index_of(id))])
            .collect(),
    )
}

/// Wire form of a rank's passes: the three pair lists, each
/// `[count u32] ([a u32][b u32])*`, little-endian.
fn pack_passes(passes: &FacePasses) -> Vec<u8> {
    let mut blob = Vec::new();
    for pairs in passes.lists() {
        blob.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for &(a, b) in pairs {
            blob.extend_from_slice(&a.to_le_bytes());
            blob.extend_from_slice(&b.to_le_bytes());
        }
    }
    blob
}

/// Append the passes of one [`pack_passes`] blob to `all`.
fn unpack_passes(blob: &[u8], all: &mut FacePasses) -> Result<(), pmg_comm::CommError> {
    let r = &mut pmg_comm::LeReader::new(blob);
    let mut decode = || {
        for pairs in all.lists_mut() {
            let count = r.u32()? as usize;
            let flat: Vec<u32> = r.u32s(count.checked_mul(2)?)?.collect();
            pairs.extend(flat.chunks_exact(2).map(|ab| (ab[0], ab[1])));
        }
        r.is_empty().then_some(())
    };
    decode().ok_or_else(|| pmg_comm::CommError::Invalid("malformed face-ID merge blob".into()))
}

/// The parallel face identification algorithm (§4.5): facets are divided
/// among `nproc` virtual processors; each processor runs the serial
/// algorithm on its own facets, and face ids that meet across a boundary
/// are merged through the face-id graph `G_fid`, each facet taking the
/// largest id reachable from its own. Processors run from highest to
/// lowest (the highest "starts the process").
///
/// The processors are distributed round-robin over the transport ranks
/// (`p % size == rank`), each rank runs the passes of its own processors
/// only, and the id assignments plus `G_fid` edges are merged in one
/// allgather — the paper's face-ID merge collective. The passes append the
/// same pairs wherever they run and the merge depends only on the set of
/// edges, so every rank count gives every rank the same ids. On a one-rank
/// endpoint nothing is sent.
pub fn identify_faces_transport<T: pmg_comm::Transport>(
    t: &mut T,
    facets: &[Facet],
    adjacency: &Graph,
    tol: f64,
    proc_of_facet: &[u32],
    nproc: usize,
) -> Result<Vec<u32>, pmg_comm::CommError> {
    assert_eq!(proc_of_facet.len(), facets.len());
    let (rank, size) = (t.rank(), t.size());
    let mut mine = FacePasses::default();
    for p in (0..nproc as u32)
        .rev()
        .filter(|&p| p as usize % size == rank)
    {
        proc_pass(facets, adjacency, tol, proc_of_facet, p, &mut mine);
    }
    let mut all = FacePasses::default();
    for part in pmg_comm::allgather(t, &pack_passes(&mine))? {
        unpack_passes(&part, &mut all)?;
    }
    merge_face_ids(facets.len(), &all).ok_or_else(|| {
        pmg_comm::CommError::Invalid("face-ID merge names an unknown facet or id".into())
    })
}

/// Classify vertices from facet face-ids (§4.4 item 1).
pub fn classify_vertices(num_vertices: usize, facets: &[Facet], face_ids: &[u32]) -> VertexClasses {
    let v2f = vertex_to_facets(num_vertices, facets);
    let mut class = Vec::with_capacity(num_vertices);
    let mut faces = Vec::with_capacity(num_vertices);
    for lists in &v2f {
        let mut ids: Vec<u32> = lists.iter().map(|&f| face_ids[f as usize]).collect();
        ids.sort_unstable();
        ids.dedup();
        let c = match ids.len() {
            0 => VertexClass::Interior,
            1 => VertexClass::Surface,
            2 => VertexClass::Edge,
            _ => VertexClass::Corner,
        };
        class.push(c);
        faces.push(ids);
    }
    VertexClasses { class, faces }
}

/// A one-rank endpoint in the calling thread: the in-process runtime of
/// the §4 message-passing programs, whose collectives never send.
pub(crate) fn in_process() -> pmg_comm::LocalTransport {
    pmg_comm::LocalTransport::pairs(1).remove(0)
}

/// Convenience: extract facets, identify faces, classify (the full §4.3/4.4
/// pipeline on a mesh, with the serial face identification).
pub fn classify_mesh(mesh: &pmg_mesh::Mesh, tol: f64) -> VertexClasses {
    classify_mesh_parallel(mesh, tol, 1)
}

/// The same pipeline with the §4.5 parallel face identification over
/// `nproc` virtual processors, in process: [`classify_mesh_transport`] on a
/// one-rank endpoint.
pub fn classify_mesh_parallel(mesh: &pmg_mesh::Mesh, tol: f64, nproc: usize) -> VertexClasses {
    classify_mesh_transport(&mut in_process(), mesh, tol, nproc)
        .expect("a one-rank classification sends nothing, so cannot fail")
}

/// The classification pipeline run SPMD over a [`Transport`](pmg_comm::Transport):
/// facets are distributed geometrically over `nproc` virtual processors
/// (RCB of facet centroids, standing in for the vertex-partition-induced
/// distribution), and [`identify_faces_transport`] runs their passes on
/// the transport ranks and merges them. Produces the same
/// [`VertexClasses`] on every rank for any rank count — the oracle parity
/// `RankHierarchy::build_from_shards` relies on.
pub fn classify_mesh_transport<T: pmg_comm::Transport>(
    t: &mut T,
    mesh: &pmg_mesh::Mesh,
    tol: f64,
    nproc: usize,
) -> Result<VertexClasses, pmg_comm::CommError> {
    let _t = pmg_telemetry::scope("classify");
    let facets = pmg_mesh::boundary_facets(mesh);
    let adj = facet_adjacency(&facets);
    if nproc <= 1 || facets.is_empty() {
        // One processor: the serial pass, replicated on every rank.
        let ids = identify_faces(&facets, &adj, tol);
        return Ok(classify_vertices(mesh.num_vertices(), &facets, &ids));
    }
    let centroids = pmg_mesh::facet_centroids(mesh, &facets);
    let proc = pmg_partition::recursive_coordinate_bisection(&centroids, nproc);
    let ids = identify_faces_transport(t, &facets, &adj, tol, &proc, nproc)?;
    Ok(classify_vertices(mesh.num_vertices(), &facets, &ids))
}

/// The modified MIS graph (§4.6): drop edges between exterior vertices
/// that share no face (so one feature cannot decimate another across a thin
/// region), and drop corner-corner edges entirely (corners are never
/// deleted).
pub fn modified_mis_graph(g: &Graph, classes: &VertexClasses) -> Graph {
    let n = g.num_vertices();
    let mut edges = Vec::new();
    for v in 0..n {
        for &w in g.neighbors(v) {
            let w = w as usize;
            if v >= w {
                continue;
            }
            let cv = classes.class[v];
            let cw = classes.class[w];
            let both_exterior = cv != VertexClass::Interior && cw != VertexClass::Interior;
            if both_exterior {
                if cv == VertexClass::Corner && cw == VertexClass::Corner {
                    continue; // corners never suppress each other
                }
                let share = classes.faces[v]
                    .iter()
                    .any(|f| classes.faces[w].binary_search(f).is_ok());
                if !share {
                    continue;
                }
            }
            edges.push((v as u32, w as u32));
        }
    }
    Graph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmg_geometry::Vec3;
    use pmg_mesh::generators::{block, thin_plate};
    use pmg_mesh::{boundary_facets, facet_adjacency};

    /// [`identify_faces_transport`] on a one-rank endpoint at `TOL` 0.7.
    fn in_process_face_ids(facets: &[Facet], adj: &Graph, proc: &[u32], nproc: usize) -> Vec<u32> {
        identify_faces_transport(&mut in_process(), facets, adj, 0.7, proc, nproc).unwrap()
    }

    #[test]
    fn cube_has_six_faces_and_correct_classes() {
        let m = block(3, 3, 3, Vec3::splat(1.0), |_| 0);
        let facets = boundary_facets(&m);
        let adj = facet_adjacency(&facets);
        let ids = identify_faces(&facets, &adj, 0.7);
        let mut unique: Vec<u32> = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 6, "a cube has six flat faces");
        let classes = classify_vertices(m.num_vertices(), &facets, &ids);
        assert_eq!(classes.count(VertexClass::Corner), 8);
        assert_eq!(classes.count(VertexClass::Edge), 12 * 2); // 2 interior verts per edge
        assert_eq!(classes.count(VertexClass::Surface), 6 * 4); // 4 per face
        assert_eq!(classes.count(VertexClass::Interior), 2 * 2 * 2);
    }

    #[test]
    fn classify_mesh_shortcut_matches() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let c = classify_mesh(&m, 0.7);
        assert_eq!(c.count(VertexClass::Corner), 8);
        assert_eq!(c.count(VertexClass::Interior), 1);
    }

    #[test]
    fn interface_creates_faces() {
        // Two materials split a 2x1x1 bar: the interface plane is a face on
        // each side; every vertex is exterior.
        let m = block(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |c| {
            if c.x < 1.0 {
                0
            } else {
                1
            }
        });
        let c = classify_mesh(&m, 0.7);
        assert_eq!(c.count(VertexClass::Interior), 0);
        // The 4 interface vertices touch many faces -> corners.
        let interface: Vec<usize> = m
            .vertices_where(|p| (p.x - 1.0).abs() < 1e-12)
            .iter()
            .map(|&v| v as usize)
            .collect();
        for v in interface {
            assert_eq!(c.class[v], VertexClass::Corner);
        }
    }

    #[test]
    fn tol_controls_face_granularity() {
        // On a sphere-ish surface a loose TOL merges everything; TOL→1
        // fragments. Use the spheres mesh boundary as a curved surface.
        let m = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams::tiny());
        let facets = boundary_facets(&m);
        let adj = facet_adjacency(&facets);
        let loose = identify_faces(&facets, &adj, 0.2);
        let tight = identify_faces(&facets, &adj, 0.999);
        let count = |ids: &[u32]| {
            let mut u = ids.to_vec();
            u.sort_unstable();
            u.dedup();
            u.len()
        };
        assert!(count(&loose) < count(&tight));
    }

    #[test]
    fn parallel_face_id_equivalent_partition() {
        // The parallel algorithm must produce the same *partition* of
        // facets into faces as the serial one on a flat-faced mesh (ids
        // differ, groupings must not).
        let m = block(4, 3, 2, Vec3::new(4.0, 3.0, 2.0), |_| 0);
        let facets = boundary_facets(&m);
        let adj = facet_adjacency(&facets);
        let serial = identify_faces(&facets, &adj, 0.7);
        for nproc in [1, 2, 5] {
            let proc: Vec<u32> = (0..facets.len()).map(|f| (f % nproc) as u32).collect();
            let par = in_process_face_ids(&facets, &adj, &proc, nproc);
            // Same grouping: build normalized keys.
            let key = |ids: &[u32]| {
                let mut groups = std::collections::HashMap::new();
                let mut sig = Vec::new();
                for &id in ids {
                    let next = groups.len() as u32;
                    let e = groups.entry(id).or_insert(next);
                    sig.push(*e);
                }
                sig
            };
            assert_eq!(key(&serial), key(&par), "nproc={nproc}");
        }
    }

    #[test]
    fn face_ids_are_rank_count_invariant() {
        // The in-process §4.5 merge (one rank) is what 2, 3 and 4 rank
        // threads compute — the same ids, not merely the same grouping —
        // on every rank, for any processor count.
        let m = block(4, 3, 2, Vec3::new(4.0, 3.0, 2.0), |_| 0);
        let facets = boundary_facets(&m);
        let adj = facet_adjacency(&facets);
        for nproc in [1usize, 2, 5, 7] {
            let proc: Vec<u32> = (0..facets.len()).map(|f| (f % nproc) as u32).collect();
            let reference = in_process_face_ids(&facets, &adj, &proc, nproc);
            for nranks in [2usize, 3, 4] {
                let facets = facets.clone();
                let adj = adj.clone();
                let proc = proc.clone();
                let outs = pmg_comm::LocalTransport::run_ranks(nranks, move |mut t| {
                    identify_faces_transport(&mut t, &facets, &adj, 0.7, &proc, nproc).unwrap()
                });
                for (r, ids) in outs.iter().enumerate() {
                    assert_eq!(ids, &reference, "nproc={nproc} nranks={nranks} rank={r}");
                }
            }
        }
    }

    #[test]
    fn malformed_face_merge_blob_is_a_typed_error() {
        let passes = FacePasses {
            assigned: vec![(0, 5), (1, 5)],
            edges: vec![(5, 6)],
            candidates: vec![(1, 9)],
        };
        let blob = pack_passes(&passes);
        let mut back = FacePasses::default();
        unpack_passes(&blob, &mut back).unwrap();
        assert_eq!(back.lists(), passes.lists());
        let malformed = Err(pmg_comm::CommError::Invalid(
            "malformed face-ID merge blob".into(),
        ));
        let over_long = [&blob[..], &[0u8; 8]].concat();
        // Truncated mid-pair, truncated at a list boundary, over-long.
        for bad in [&blob[..blob.len() - 5], &blob[..20], &over_long[..]] {
            assert_eq!(unpack_passes(bad, &mut FacePasses::default()), malformed);
        }
        // Well-formed bytes naming a facet or an id the grid does not have.
        assert!(
            merge_face_ids(2, &passes).is_none(),
            "ids 6 and 9 are unassigned"
        );
        assert!(
            merge_face_ids(1, &passes).is_none(),
            "facet 1 is out of range"
        );
    }

    #[test]
    fn transport_classification_matches_parallel() {
        // Full pipeline parity on a curved boundary (spheres): transport
        // classification must equal classify_mesh_parallel exactly.
        let m = pmg_mesh::sphere_in_cube(&pmg_mesh::SpheresParams::tiny());
        for nproc in [2usize, 4] {
            let reference = classify_mesh_parallel(&m, 0.7, nproc);
            let outs = {
                let m = m.clone();
                pmg_comm::LocalTransport::run_ranks(2, move |mut t| {
                    classify_mesh_transport(&mut t, &m, 0.7, nproc).unwrap()
                })
            };
            for c in &outs {
                assert_eq!(c.class, reference.class, "nproc={nproc}");
                assert_eq!(c.faces, reference.faces, "nproc={nproc}");
            }
        }
    }

    #[test]
    fn modified_graph_protects_thin_plate() {
        // §4.6: on a thin plate the unmodified MIS lets the top surface
        // delete the bottom surface. The modified graph removes top-bottom
        // edges (different faces), so both surfaces keep vertices.
        let m = thin_plate(8, 8.0, 0.25);
        let g = m.vertex_graph();
        let c = classify_mesh(&m, 0.7);
        let mg = modified_mis_graph(&g, &c);
        assert!(mg.num_edges() < g.num_edges());
        // Check: no surviving edge connects a top-surface vertex to a
        // bottom-surface vertex.
        let top: Vec<bool> = m.coords.iter().map(|p| p.z > 0.2).collect();
        for v in 0..g.num_vertices() {
            if c.class[v] != VertexClass::Surface {
                continue;
            }
            for &w in mg.neighbors(v) {
                let w = w as usize;
                if c.class[w] == VertexClass::Surface {
                    assert_eq!(
                        top[v], top[w],
                        "surface-surface edge crosses the plate thickness"
                    );
                }
            }
        }
    }

    #[test]
    fn corner_corner_edges_removed() {
        let m = block(1, 1, 1, Vec3::splat(1.0), |_| 0);
        let g = m.vertex_graph();
        let c = classify_mesh(&m, 0.7);
        // All 8 vertices of a single hex are corners.
        assert_eq!(c.count(VertexClass::Corner), 8);
        let mg = modified_mis_graph(&g, &c);
        assert_eq!(mg.num_edges(), 0);
        // MIS on the modified graph selects all corners.
        let sel = crate::mis::greedy_mis(&mg, &(0..8).collect::<Vec<u32>>());
        assert!(sel.iter().all(|&s| s));
    }

    #[test]
    fn all_interior_passthrough() {
        let c = VertexClasses::all_interior(5);
        assert_eq!(c.ranks(), vec![0; 5]);
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]);
        let mg = modified_mis_graph(&g, &c);
        assert_eq!(mg, g);
    }
}

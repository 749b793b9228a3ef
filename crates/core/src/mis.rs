//! Maximal independent set coarsening (§4.1, §4.2, §4.7).
//!
//! The MIS picks the coarse vertex set: selected vertices survive to the
//! next grid, their neighbors are deleted. The *order* vertices are visited
//! controls the MIS density (natural orders give dense MISs near the 1/2³
//! bound on uniform hex meshes, random orders sparse ones near 1/3³), and a
//! per-vertex *rank* (the topological class) guarantees that a vertex is
//! never suppressed by a lower-ranked neighbor — the parallel algorithm
//! enforces the same dominance rule across processor boundaries.

use pmg_comm::{CommError, LeReader, Transport};
use pmg_partition::{random_permutation, Graph};

/// Vertex visiting order heuristic (§4.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisOrdering {
    /// The input order: produces denser MISs.
    Natural,
    /// Seeded random order: produces sparser MISs.
    Random(u64),
    /// The paper's recommendation: natural order for exterior vertices,
    /// random for interior ones (keeps boundaries well articulated while
    /// thinning the interior aggressively).
    NaturalExteriorRandomInterior(u64),
    /// Cuthill–McKee order — the paper's example of a "cache optimizing"
    /// natural order (a breadth-first traversal of the graph).
    CuthillMcKee,
}

impl MisOrdering {
    /// Produce the visit order for the vertices of `g` with the given ranks
    /// (rank 0 = interior). Higher ranks are always visited first; within a
    /// rank class the heuristic's relative order is kept.
    pub fn order(self, g: &Graph, rank: &[u8]) -> Vec<u32> {
        let n = g.num_vertices();
        assert_eq!(rank.len(), n);
        let mut idx: Vec<u32> = match self {
            MisOrdering::Natural => (0..n as u32).collect(),
            MisOrdering::Random(seed) => random_permutation(n, seed),
            MisOrdering::CuthillMcKee => pmg_partition::cuthill_mckee(g),
            MisOrdering::NaturalExteriorRandomInterior(seed) => {
                // Exterior vertices keep their natural relative order,
                // interior ones take the random one.
                let mut inv = vec![0u32; n];
                for (k, v) in random_permutation(n, seed).into_iter().enumerate() {
                    inv[v as usize] = k as u32;
                }
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.sort_by_key(|&v| match rank[v as usize] {
                    0 => (1u8, inv[v as usize]),
                    _ => (0u8, v),
                });
                idx
            }
        };
        idx.sort_by_key(|&v| std::cmp::Reverse(rank[v as usize]));
        idx
    }
}

/// The greedy serial MIS (Figure 2 of the paper): visit vertices in
/// `order`; an undone vertex is selected and its neighbors deleted.
/// Returns the selection mask.
///
/// ```
/// use pmg_partition::Graph;
/// use prometheus::greedy_mis;
/// // A path 0-1-2-3-4: natural order selects 0, 2, 4.
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let sel = greedy_mis(&g, &[0, 1, 2, 3, 4]);
/// assert_eq!(sel, vec![true, false, true, false, true]);
/// ```
pub fn greedy_mis(g: &Graph, order: &[u32]) -> Vec<bool> {
    let n = g.num_vertices();
    assert_eq!(order.len(), n);
    let mut state = vec![S::Undone; n];
    for &v in order {
        let v = v as usize;
        if state[v] == S::Undone {
            state[v] = S::Selected;
            for &w in g.neighbors(v) {
                state[w as usize] = S::Deleted;
            }
        }
    }
    state.iter().map(|&s| s == S::Selected).collect()
}

#[derive(Clone, Copy, PartialEq)]
enum S {
    Undone,
    Selected,
    Deleted,
}

/// One processor's pass of a BSP round: decide selections/deletions against
/// the round-start `state` snapshot plus an overlay of the processor's own
/// in-round updates (remote vertices keep their snapshot state until the
/// merge).
fn proc_pass(
    g: &Graph,
    rank: &[u8],
    proc: &[u32],
    state: &[S],
    plist: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let mut selected: Vec<u32> = Vec::new();
    let mut deleted: Vec<u32> = Vec::new();
    let mut overlay: std::collections::HashMap<u32, S> = std::collections::HashMap::new();
    let view = |overlay: &std::collections::HashMap<u32, S>, w: u32| {
        overlay.get(&w).copied().unwrap_or(state[w as usize])
    };
    for &v in plist {
        if view(&overlay, v) != S::Undone {
            continue;
        }
        let vu = v as usize;
        let selectable = g.neighbors(vu).iter().all(|&w| {
            let wu = w as usize;
            match view(&overlay, w) {
                S::Deleted => true,
                S::Selected => false,
                S::Undone => rank[vu] > rank[wu] || (rank[vu] == rank[wu] && proc[vu] >= proc[wu]),
            }
        });
        if selectable {
            overlay.insert(v, S::Selected);
            selected.push(v);
            for &w in g.neighbors(vu) {
                overlay.insert(w, S::Deleted);
                deleted.push(w);
            }
        }
    }
    (selected, deleted)
}

/// The partition-based parallel MIS (§4.2). Each vertex carries an
/// immutable `rank` and its owning virtual processor `proc`; processor `p`
/// may select a vertex `v` only if every adjacent vertex `v1` is already
/// deleted, or `v.rank > v1.rank`, or (`v.rank == v1.rank` and
/// `v.proc ≥ v1.proc`). Each processor traverses its local vertices in the
/// order induced by `order`; rounds repeat until a fixed point. The result
/// is a correct global MIS respecting any rank heuristic.
///
/// Rounds are bulk-synchronous. Transport rank `r` owns the processors
/// `p ≡ r (mod size)` and runs their passes in parallel on the thread pool,
/// each against its replica of the round-start state plus the processor's
/// own overlay. One deterministic allgather per round exchanges the
/// decision lists, which every rank merges in processor order. Two
/// processors can never select adjacent vertices in the same round — that
/// would require each to dominate the other under the (rank, proc) rule —
/// so the merge is conflict-free and every rank returns the same mask for
/// any rank count and pool size. On a one-rank endpoint nothing is sent.
pub fn parallel_mis_transport<T: Transport>(
    t: &mut T,
    g: &Graph,
    rank: &[u8],
    proc: &[u32],
    order: &[u32],
) -> Result<Vec<bool>, CommError> {
    use rayon::prelude::*;

    let n = g.num_vertices();
    assert_eq!(rank.len(), n);
    assert_eq!(proc.len(), n);
    assert_eq!(order.len(), n);

    // Per-processor local traversal orders, indexed by processor id.
    let nproc = proc.iter().map(|&p| p as usize + 1).max().unwrap_or(1);
    let mut local: Vec<Vec<u32>> = vec![Vec::new(); nproc];
    for &v in order {
        local[proc[v as usize] as usize].push(v);
    }
    let mine: Vec<usize> = (t.rank()..nproc).step_by(t.size()).collect();

    let mut state = vec![S::Undone; n];
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let decisions: ProcDecisions = mine
            .par_iter()
            .map(|&p| (p as u32, proc_pass(g, rank, proc, &state, &local[p])))
            .collect();
        let all = pmg_comm::allgather(t, &pack_decisions(&decisions))?;

        // Re-key every rank's decisions by processor id and merge in
        // processor order.
        let mut by_proc: Vec<Option<(Vec<u32>, Vec<u32>)>> = vec![None; nproc];
        for rank_blob in &all {
            for (p, lists) in unpack_decisions(rank_blob)? {
                *by_proc.get_mut(p as usize).ok_or_else(|| {
                    CommError::Invalid(format!("MIS decisions for processor {p}"))
                })? = Some(lists);
            }
        }
        let mut progress = false;
        for (selected, deleted) in by_proc.iter().flatten() {
            for &v in selected {
                debug_assert!(state[v as usize] == S::Undone);
                state[v as usize] = S::Selected;
                progress = true;
            }
            for &w in deleted {
                debug_assert!(state[w as usize] != S::Selected);
                state[w as usize] = S::Deleted;
            }
        }
        if !progress {
            break;
        }
    }
    if t.rank() == 0 {
        pmg_telemetry::counter_add("mis/rounds", rounds);
    }
    debug_assert!(
        state.iter().all(|&s| s != S::Undone),
        "MIS did not cover the graph"
    );
    Ok(state.iter().map(|&s| s == S::Selected).collect())
}

/// One rank's share of a round: `(processor id, (selected, deleted))`.
type ProcDecisions = Vec<(u32, (Vec<u32>, Vec<u32>))>;

/// Wire format for one rank's round decisions:
/// `[nproc u32] ([proc u32][nsel u32][sel u32…][ndel u32][del u32…])*`,
/// all little-endian.
fn pack_decisions(mine: &ProcDecisions) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(mine.len() as u32).to_le_bytes());
    for (p, (sel, del)) in mine {
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&(sel.len() as u32).to_le_bytes());
        for v in sel {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(del.len() as u32).to_le_bytes());
        for v in del {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

fn unpack_decisions(buf: &[u8]) -> Result<ProcDecisions, CommError> {
    fn decode(r: &mut LeReader) -> Option<ProcDecisions> {
        let count = r.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..count {
            let p = r.u32()?;
            let nsel = r.u32()? as usize;
            let sel = r.u32s(nsel)?.collect();
            let ndel = r.u32()? as usize;
            let del = r.u32s(ndel)?.collect();
            out.push((p, (sel, del)));
        }
        r.is_empty().then_some(out)
    }
    decode(&mut LeReader::new(buf))
        .ok_or_else(|| CommError::Invalid("malformed MIS decision blob".into()))
}

/// Check independence: no two selected vertices are adjacent.
pub fn is_independent(g: &Graph, sel: &[bool]) -> bool {
    for v in 0..g.num_vertices() {
        if !sel[v] {
            continue;
        }
        if g.neighbors(v).iter().any(|&w| sel[w as usize]) {
            return false;
        }
    }
    true
}

/// Check maximality: every unselected vertex has a selected neighbor.
pub fn is_maximal(g: &Graph, sel: &[bool]) -> bool {
    for v in 0..g.num_vertices() {
        if sel[v] {
            continue;
        }
        if !g.neighbors(v).iter().any(|&w| sel[w as usize]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    fn grid3(n: usize) -> Graph {
        // n^3 grid vertices adjacent iff they share a hex element => 26
        // neighbors: build via the mesh crate's machinery indirectly? Use a
        // simple 6-connected grid here; MIS properties don't depend on it.
        let id = |i: usize, j: usize, k: usize| (i * n * n + j * n + k) as u32;
        let mut e = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i + 1 < n {
                        e.push((id(i, j, k), id(i + 1, j, k)));
                    }
                    if j + 1 < n {
                        e.push((id(i, j, k), id(i, j + 1, k)));
                    }
                    if k + 1 < n {
                        e.push((id(i, j, k), id(i, j, k + 1)));
                    }
                }
            }
        }
        Graph::from_edges(n * n * n, e)
    }

    #[test]
    fn greedy_path_natural() {
        let g = path(7);
        let sel = greedy_mis(&g, &(0..7).collect::<Vec<u32>>());
        // Natural order on a path selects 0, 2, 4, 6.
        assert_eq!(sel, vec![true, false, true, false, true, false, true]);
        assert!(is_independent(&g, &sel));
        assert!(is_maximal(&g, &sel));
    }

    /// [`parallel_mis_transport`] on a one-rank endpoint: the in-process MIS.
    fn in_process_mis(g: &Graph, rank: &[u8], proc: &[u32], order: &[u32]) -> Vec<bool> {
        let mut t = crate::classify::in_process();
        parallel_mis_transport(&mut t, g, rank, proc, order).unwrap()
    }

    #[test]
    fn natural_is_denser_than_random() {
        let g = grid3(10);
        let rank = vec![0u8; 1000];
        let nat = greedy_mis(&g, &MisOrdering::Natural.order(&g, &rank));
        let rnd = greedy_mis(&g, &MisOrdering::Random(5).order(&g, &rank));
        let n_nat = nat.iter().filter(|&&s| s).count();
        let n_rnd = rnd.iter().filter(|&&s| s).count();
        assert!(
            n_nat > n_rnd,
            "natural {n_nat} should exceed random {n_rnd}"
        );
        for sel in [&nat, &rnd] {
            assert!(is_independent(&g, sel));
            assert!(is_maximal(&g, sel));
        }
    }

    #[test]
    fn ranks_are_respected_by_parallel_mis() {
        // A star: center has rank 0, leaves rank 1 => all leaves selected.
        let n = 6;
        let g = Graph::from_edges(n, (1..n as u32).map(|i| (0, i)));
        let mut rank = vec![1u8; n];
        rank[0] = 0;
        let proc = vec![0u32; n];
        let order: Vec<u32> = (0..n as u32).collect();
        let sel = in_process_mis(&g, &rank, &proc, &order);
        assert!(!sel[0]);
        assert!(sel[1..].iter().all(|&s| s));
        assert!(is_independent(&g, &sel));
        assert!(is_maximal(&g, &sel));
    }

    #[test]
    fn parallel_mis_multiproc_consistent() {
        let g = grid3(6);
        let n = g.num_vertices();
        let rank = vec![0u8; n];
        let order: Vec<u32> = (0..n as u32).collect();
        for nproc in [1, 2, 7] {
            let proc: Vec<u32> = (0..n).map(|v| (v % nproc) as u32).collect();
            let sel = in_process_mis(&g, &rank, &proc, &order);
            assert!(is_independent(&g, &sel), "nproc={nproc}");
            assert!(is_maximal(&g, &sel), "nproc={nproc}");
        }
    }

    #[test]
    fn uniform_grid_mis_ratio_bounds() {
        // §4.7: on a uniform 3D mesh the MIS fraction lies between 1/27 and
        // 1/8 (asymptotically; allow slack on a finite 6-connected grid).
        let g = grid3(12);
        let n = g.num_vertices();
        let rank = vec![0u8; n];
        for ordering in [MisOrdering::Natural, MisOrdering::Random(42)] {
            let sel = greedy_mis(&g, &ordering.order(&g, &rank));
            let frac = sel.iter().filter(|&&s| s).count() as f64 / n as f64;
            // 6-connected grid MIS is denser than the element-graph bound;
            // sanity-check the broad range.
            assert!(frac > 0.03 && frac < 0.51, "{ordering:?}: {frac}");
        }
    }

    #[test]
    fn cuthill_mckee_ordering_is_dense_like_natural() {
        // CM is a "natural" order in the paper's taxonomy: it should land
        // near the natural MIS density, not the random one.
        let g = grid3(10);
        let n = g.num_vertices();
        let rank = vec![0u8; n];
        let count = |ord: MisOrdering| {
            greedy_mis(&g, &ord.order(&g, &rank))
                .iter()
                .filter(|&&s| s)
                .count()
        };
        let cm = count(MisOrdering::CuthillMcKee);
        let nat = count(MisOrdering::Natural);
        let rnd = count(MisOrdering::Random(3));
        assert!(cm > rnd, "CM {cm} should be denser than random {rnd}");
        assert!(
            (cm as f64 - nat as f64).abs() < 0.35 * nat as f64,
            "CM {cm} should be near natural {nat}"
        );
        let sel = greedy_mis(&g, &MisOrdering::CuthillMcKee.order(&g, &rank));
        assert!(is_independent(&g, &sel));
        assert!(is_maximal(&g, &sel));
    }

    #[test]
    fn exterior_natural_interior_random_orders_exterior_first() {
        let n = 10;
        let mut rank = vec![0u8; n];
        rank[3] = 1;
        rank[7] = 2;
        let g = Graph::from_edges(n, []);
        let ord = MisOrdering::NaturalExteriorRandomInterior(1).order(&g, &rank);
        assert_eq!(ord[0], 7); // highest rank first
        assert_eq!(ord[1], 3);
    }

    #[test]
    fn malformed_decision_blob_is_a_typed_error() {
        let mine: ProcDecisions = vec![(2, (vec![4, 7], vec![1])), (5, (vec![], vec![3]))];
        let blob = pack_decisions(&mine);
        assert_eq!(unpack_decisions(&blob).unwrap(), mine);
        let over_long = [&blob[..], &[0u8; 4]].concat();
        for bad in [&blob[..blob.len() - 1], &blob[..6], &over_long[..]] {
            assert_eq!(
                unpack_decisions(bad),
                Err(pmg_comm::CommError::Invalid(
                    "malformed MIS decision blob".into()
                ))
            );
        }
    }

    #[test]
    fn mis_is_rank_count_invariant() {
        // The in-process MIS (one rank) is what 2, 3 and 4 rank threads
        // compute, on every rank, for any virtual-processor count.
        let g = grid3(5);
        let n = g.num_vertices();
        let rank: Vec<u8> = (0..n).map(|v| (v % 3) as u8).collect();
        let order: Vec<u32> = (0..n as u32).collect();
        for nproc in [1usize, 3, 7] {
            let proc: Vec<u32> = (0..n).map(|v| (v % nproc) as u32).collect();
            let expect = in_process_mis(&g, &rank, &proc, &order);
            for nranks in [2usize, 3, 4] {
                let (g2, rank2, proc2, order2) = (&g, &rank, &proc, &order);
                let masks = pmg_comm::LocalTransport::run_ranks(nranks, move |mut t| {
                    parallel_mis_transport(&mut t, g2, rank2, proc2, order2).unwrap()
                });
                for mask in &masks {
                    assert_eq!(mask, &expect, "nproc={nproc} nranks={nranks}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_greedy_mis_invariants(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..120),
            seed in 0u64..1000,
        ) {
            let g = Graph::from_edges(30, edges);
            let order = MisOrdering::Random(seed).order(&g, &[0u8; 30]);
            let sel = greedy_mis(&g, &order);
            prop_assert!(is_independent(&g, &sel));
            prop_assert!(is_maximal(&g, &sel));
        }

        #[test]
        fn prop_parallel_mis_invariants(
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            ranks in proptest::collection::vec(0u8..4, 24),
            nproc in 1u32..5,
        ) {
            let g = Graph::from_edges(24, edges);
            let proc: Vec<u32> = (0..24).map(|v| v % nproc).collect();
            let order: Vec<u32> = (0..24).collect();
            let sel = in_process_mis(&g, &ranks, &proc, &order);
            prop_assert!(is_independent(&g, &sel));
            prop_assert!(is_maximal(&g, &sel));
            // Rank dominance: a deleted vertex has a selected neighbor of
            // rank >= ... (not strictly true: equal-rank proc ties) — check
            // the weaker invariant that no vertex was suppressed by a
            // strictly lower-ranked selected neighbor *only*: every deleted
            // vertex has some selected neighbor with rank >= its own, OR
            // was deleted by an equal/higher proc tie... The guaranteed
            // invariant from the algorithm: some selected neighbor exists
            // (maximality), already checked.
        }
    }
}

//! Graph-growing partitioner with Kernighan–Lin style boundary refinement.
//!
//! This is the METIS stand-in used to build the block-Jacobi smoother blocks
//! (the paper: "block Jacobi with 6 blocks for every 1,000 unknowns (these
//! block Jacobi sub-domains are constructed with METIS)").

use crate::graph::Graph;

/// Partition `g` into `nparts` parts of near-equal size by repeated greedy
/// region growing, then improve the edge cut with [`refine_kl`].
///
/// Each region is a plain FIFO breadth-first search from a pseudo-peripheral
/// seed of the unassigned remainder, enqueuing neighbours in ascending
/// order, until it holds `⌈n / nparts⌉` vertices. Linear in `n + E` apart
/// from the seed search, which is still one search per region, but over
/// the twin quotient: runs of consecutive vertices with equal closed
/// neighbourhoods (the dofs of one mesh vertex) are searched as one class.
pub fn partition_graph(g: &Graph, nparts: usize) -> Vec<u32> {
    assert!(nparts >= 1);
    let n = g.num_vertices();
    let mut part = vec![u32::MAX; n];
    if nparts == 1 || n == 0 {
        part.iter_mut().for_each(|p| *p = 0);
        return part;
    }
    let target = n.div_ceil(nparts);
    let mut assigned = 0usize;
    let mut current = 0u32;
    let mut count = 0usize;
    // Assignments are never undone, so the first unassigned vertex only
    // moves forward.
    let mut first_unassigned = 0usize;
    let mut quotient = TwinQuotient::new(g);
    let mut queue = std::collections::VecDeque::new();
    while assigned < n {
        while part[first_unassigned] != u32::MAX {
            first_unassigned += 1;
        }
        let seed = quotient.peripheral_unassigned(&part, first_unassigned);
        queue.clear();
        queue.push_back(seed as u32);
        while let Some(v) = queue.pop_front() {
            let v = v as usize;
            if part[v] != u32::MAX {
                continue;
            }
            part[v] = current;
            quotient.assign(v);
            assigned += 1;
            count += 1;
            if count >= target && current + 1 < nparts as u32 {
                current += 1;
                count = 0;
                break;
            }
            for &w in g.neighbors(v) {
                if part[w as usize] == u32::MAX {
                    queue.push_back(w);
                }
            }
        }
        // Region ran out of frontier (disconnected remainder): loop finds a
        // new seed and keeps filling the same part until it reaches target.
    }
    refine_kl(g, &mut part, nparts, 4);
    part
}

/// The seed search's graph: the quotient of `g` by its twin classes,
/// maximal runs of consecutive vertices whose closed neighbourhoods
/// `adj(v) ∪ {v}` are equal, with a per-class count of unassigned members.
///
/// A search over classes finds the vertex the scalar BFS over unassigned
/// vertices finds (`oracle::peripheral_unassigned`). Every vertex adjacent
/// to one member of a class is adjacent to all of them, and a class's
/// members are consecutive, so the first scan that reaches a class appends
/// all of its unassigned members together, in ascending order; their twins
/// scan the same neighbourhood and find nothing new. The root's own class
/// is the one exception: the root's scan appends the class's other
/// unassigned members at the class's sorted position. The root is the
/// lowest unassigned vertex, so no class below its own has an unassigned
/// member and that position is first, right after the root: the class
/// order is the scalar order with each class's run collapsed.
///
/// `stamp[c] == epoch` marks class `c` visited by the current search, so
/// starting a search is a counter bump, not a clear.
struct TwinQuotient {
    /// The class of each vertex.
    class_of: Vec<u32>,
    /// Class `c` is the vertex run `start[c]..start[c + 1]`.
    start: Vec<u32>,
    /// Class adjacency in CSR form, ascending, without self loops.
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    unassigned: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    order: Vec<u32>,
}

impl TwinQuotient {
    /// O(n + E): each list is compared with the next one, and a class's
    /// adjacency is read off its first member's list.
    fn new(g: &Graph) -> TwinQuotient {
        let n = g.num_vertices();
        let mut class_of = Vec::with_capacity(n);
        let mut start = vec![0u32];
        for v in 0..n {
            if v > 0 && !closed_twins(g, v - 1) {
                start.push(v as u32);
            }
            class_of.push(start.len() as u32 - 1);
        }
        let classes = start.len();
        start.push(n as u32);
        let mut xadj = Vec::with_capacity(classes + 1);
        xadj.push(0);
        let mut adjncy = Vec::new();
        for (c, &first) in start[..classes].iter().enumerate() {
            // The list is sorted and classes are index runs, so the class
            // ids come non-decreasing: a repeat is the last one pushed.
            let row = adjncy.len();
            for &w in g.neighbors(first as usize) {
                let d = class_of[w as usize];
                if d as usize != c && adjncy[row..].last() != Some(&d) {
                    adjncy.push(d);
                }
            }
            xadj.push(adjncy.len());
        }
        TwinQuotient {
            class_of,
            unassigned: start.windows(2).map(|r| r[1] - r[0]).collect(),
            start,
            xadj,
            adjncy,
            stamp: vec![0; classes],
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// Record that vertex `v` was assigned to a part.
    fn assign(&mut self, v: usize) {
        self.unassigned[self.class_of[v] as usize] -= 1;
    }

    /// BFS-farthest vertex from `root`, the lowest unassigned vertex,
    /// restricted to unassigned vertices (a cheap pseudo-peripheral
    /// heuristic): the highest unassigned member of the last class the
    /// search appends, the root's own class if it appends no other.
    fn peripheral_unassigned(&mut self, part: &[u32], root: usize) -> usize {
        // At most one search per vertex, so the epoch cannot wrap.
        self.epoch += 1;
        let root_class = self.class_of[root];
        self.order.clear();
        self.order.push(root_class);
        self.stamp[root_class as usize] = self.epoch;
        let mut head = 0;
        while head < self.order.len() {
            self.scan(self.order[head]);
            head += 1;
        }
        let last = self.order[self.order.len() - 1];
        let mut v = self.start[last as usize + 1] as usize - 1;
        while part[v] != u32::MAX {
            v -= 1;
        }
        v
    }

    /// Append the unvisited classes next to `c` that still have an
    /// unassigned member, in ascending order.
    fn scan(&mut self, c: u32) {
        let c = c as usize;
        for &d in &self.adjncy[self.xadj[c]..self.xadj[c + 1]] {
            if self.stamp[d as usize] != self.epoch && self.unassigned[d as usize] > 0 {
                self.stamp[d as usize] = self.epoch;
                self.order.push(d);
            }
        }
    }
}

/// Whether `v` and `v + 1` are closed twins: `v + 1` is in `adj(v)` and
/// stands where `v` stands in `adj(v + 1)`, every other entry equal.
fn closed_twins(g: &Graph, v: usize) -> bool {
    let (a, b) = (g.neighbors(v), g.neighbors(v + 1));
    let (v, next) = (v as u32, v as u32 + 1);
    a.len() == b.len()
        && a.binary_search(&next).is_ok()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| x == y || (x == next && y == v))
}

/// Greedy boundary refinement: repeatedly move boundary vertices to the
/// neighboring part where they have more neighbors, when balance permits
/// (parts may not shrink below `ideal - slack`). A lightweight
/// Kernighan–Lin / Fiduccia–Mattheyses variant; `passes` bounds the sweeps.
///
/// O(deg) per vertex: one pass over the neighbors counts them per part,
/// remembering the parts in first-seen order; the winner is the first of
/// those whose gain is strictly greater than every earlier one's.
pub fn refine_kl(g: &Graph, part: &mut [u32], nparts: usize, passes: usize) {
    let n = g.num_vertices();
    if n == 0 || nparts <= 1 {
        return;
    }
    let mut sizes = vec![0usize; nparts];
    for &p in part.iter() {
        sizes[p as usize] += 1;
    }
    let ideal = n / nparts;
    let min_size = ideal.saturating_sub(ideal / 4 + 1).max(1);
    // Neighbors of the current vertex per part (all zero between vertices)
    // and the parts with a nonzero count, in first-seen order.
    let mut neighbors_in = vec![0i64; nparts];
    let mut touched: Vec<u32> = Vec::new();

    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let pv = part[v] as usize;
            if sizes[pv] <= min_size {
                continue;
            }
            for &w in g.neighbors(v) {
                let p = part[w as usize];
                if neighbors_in[p as usize] == 0 {
                    touched.push(p);
                }
                neighbors_in[p as usize] += 1;
            }
            let internal = neighbors_in[pv];
            let mut best_part = pv;
            let mut best_gain = 0i64;
            for &cand in &touched {
                let cand = cand as usize;
                let gain = neighbors_in[cand] - internal;
                if cand != pv && gain > best_gain {
                    best_gain = gain;
                    best_part = cand;
                }
            }
            for p in touched.drain(..) {
                neighbors_in[p as usize] = 0;
            }
            if best_part != pv {
                part[v] = best_part as u32;
                sizes[pv] -= 1;
                sizes[best_part] += 1;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Group vertex indices by part: `groups[p]` lists the vertices of part `p`.
pub fn parts_to_groups(part: &[u32], nparts: usize) -> Vec<Vec<u32>> {
    let mut groups = vec![Vec::new(); nparts];
    for (v, &p) in part.iter().enumerate() {
        groups[p as usize].push(v as u32);
    }
    groups
}

/// Per-part vertex counts of an assignment.
pub fn part_counts(part: &[u32], nparts: usize) -> Vec<usize> {
    let mut counts = vec![0usize; nparts];
    for &p in part {
        counts[p as usize] += 1;
    }
    counts
}

/// Load imbalance of an assignment: largest part size over the ideal share
/// `len/nparts`. 1.0 is perfectly balanced; the paper's weak-scaling
/// efficiency degrades roughly with this factor on the heaviest rank.
/// Returns 0.0 for an empty assignment.
pub fn part_imbalance(part: &[u32], nparts: usize) -> f64 {
    if part.is_empty() || nparts == 0 {
        return 0.0;
    }
    let max = part_counts(part, nparts).into_iter().max().unwrap_or(0);
    max as f64 * nparts as f64 / part.len() as f64
}

/// The quadratic partitioner the linear-time kernels above replaced — an
/// O(n) seed scan, a fresh visited array and a BFS over vertices per region
/// (the scalar seed search the twin quotient replaced), an O(deg²)
/// refinement step — kept verbatim as the oracle: the fast kernels must
/// return the identical `part` vector (the smoother's blocks, and with
/// them every solution bit, depend on it).
#[cfg(test)]
mod oracle {
    use crate::graph::Graph;

    pub fn partition_graph(g: &Graph, nparts: usize) -> Vec<u32> {
        let n = g.num_vertices();
        let mut part = vec![u32::MAX; n];
        if nparts == 1 || n == 0 {
            part.iter_mut().for_each(|p| *p = 0);
            return part;
        }
        let target = n.div_ceil(nparts);
        let mut assigned = 0usize;
        let mut current = 0u32;
        let mut count = 0usize;
        while assigned < n {
            let seed = (0..n).find(|&v| part[v] == u32::MAX).unwrap();
            let seed = peripheral_unassigned(g, &part, seed);
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(seed as u32);
            while let Some(v) = queue.pop_front() {
                let v = v as usize;
                if part[v] != u32::MAX {
                    continue;
                }
                part[v] = current;
                assigned += 1;
                count += 1;
                if count >= target && current + 1 < nparts as u32 {
                    current += 1;
                    count = 0;
                    queue.clear();
                    break;
                }
                for &w in g.neighbors(v) {
                    if part[w as usize] == u32::MAX {
                        queue.push_back(w);
                    }
                }
            }
        }
        refine_kl(g, &mut part, nparts, 4);
        part
    }

    fn peripheral_unassigned(g: &Graph, part: &[u32], seed: usize) -> usize {
        let mut visited = vec![false; g.num_vertices()];
        let mut order = vec![seed as u32];
        visited[seed] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &w in g.neighbors(v) {
                if !visited[w as usize] && part[w as usize] == u32::MAX {
                    visited[w as usize] = true;
                    order.push(w);
                }
            }
        }
        *order.last().unwrap() as usize
    }

    pub fn refine_kl(g: &Graph, part: &mut [u32], nparts: usize, passes: usize) {
        let n = g.num_vertices();
        if n == 0 || nparts <= 1 {
            return;
        }
        let mut sizes = vec![0usize; nparts];
        for &p in part.iter() {
            sizes[p as usize] += 1;
        }
        let ideal = n / nparts;
        let min_size = ideal.saturating_sub(ideal / 4 + 1).max(1);

        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..n {
                let pv = part[v] as usize;
                if sizes[pv] <= min_size {
                    continue;
                }
                let mut best_part = pv;
                let mut internal = 0i64;
                for &w in g.neighbors(v) {
                    if part[w as usize] as usize == pv {
                        internal += 1;
                    }
                }
                let mut best_gain = 0i64;
                for &w in g.neighbors(v) {
                    let cand = part[w as usize] as usize;
                    if cand == pv || cand == best_part {
                        continue;
                    }
                    let external = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&x| part[x as usize] as usize == cand)
                        .count() as i64;
                    let gain = external - internal;
                    if gain > best_gain {
                        best_gain = gain;
                        best_part = cand;
                    }
                }
                if best_part != pv && best_gain > 0 {
                    part[v] = best_part as u32;
                    sizes[pv] -= 1;
                    sizes[best_part] += 1;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        let id = |i: usize, j: usize| (i * ny + j) as u32;
        let mut edges = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    edges.push((id(i, j), id(i + 1, j)));
                }
                if j + 1 < ny {
                    edges.push((id(i, j), id(i, j + 1)));
                }
            }
        }
        Graph::from_edges(nx * ny, edges)
    }

    #[test]
    fn covers_all_vertices() {
        let g = grid_graph(10, 10);
        for nparts in [1, 2, 3, 5, 8] {
            let part = partition_graph(&g, nparts);
            assert!(part.iter().all(|&p| (p as usize) < nparts));
            let groups = parts_to_groups(&part, nparts);
            let total: usize = groups.iter().map(|g| g.len()).sum();
            assert_eq!(total, 100);
            for grp in &groups {
                assert!(!grp.is_empty(), "empty part with nparts={nparts}");
            }
        }
    }

    #[test]
    fn balance_quality() {
        let g = grid_graph(20, 20);
        let part = partition_graph(&g, 6);
        let groups = parts_to_groups(&part, 6);
        let ideal = 400.0 / 6.0;
        for grp in &groups {
            assert!(
                (grp.len() as f64) > 0.5 * ideal && (grp.len() as f64) < 1.7 * ideal,
                "part size {} vs ideal {ideal}",
                grp.len()
            );
        }
    }

    #[test]
    fn cut_is_reasonable() {
        // A 2-part split of a 16x16 grid should approach the 16-edge optimum
        // (allow 3x).
        let g = grid_graph(16, 16);
        let part = partition_graph(&g, 2);
        assert!(g.edge_cut(&part) <= 48, "cut = {}", g.edge_cut(&part));
    }

    #[test]
    fn refine_improves_cut() {
        let g = grid_graph(12, 12);
        // Intentionally bad partition: striped by parity.
        let mut part: Vec<u32> = (0..144).map(|v| (v % 2) as u32).collect();
        let before = g.edge_cut(&part);
        refine_kl(&g, &mut part, 2, 8);
        let after = g.edge_cut(&part);
        assert!(after < before, "refinement failed: {before} -> {after}");
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let part = partition_graph(&g, 2);
        let groups = parts_to_groups(&part, 2);
        assert_eq!(groups[0].len() + groups[1].len(), 6);
        assert!(!groups[0].is_empty() && !groups[1].is_empty());
    }

    #[test]
    fn imbalance_metrics() {
        // Perfectly balanced 2-way split.
        let part: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        assert_eq!(part_counts(&part, 2), vec![4, 4]);
        assert!((part_imbalance(&part, 2) - 1.0).abs() < 1e-15);
        // Skewed 6/2 split: imbalance = 6 / (8/2) = 1.5.
        let part: Vec<u32> = (0..8).map(|v| u32::from(v >= 6)).collect();
        assert_eq!(part_counts(&part, 2), vec![6, 2]);
        assert!((part_imbalance(&part, 2) - 1.5).abs() < 1e-15);
        // Degenerate inputs.
        assert_eq!(part_imbalance(&[], 2), 0.0);
        assert_eq!(part_counts(&[], 2), vec![0, 0]);
    }

    #[test]
    fn single_vertex() {
        let g = Graph::from_edges(1, std::iter::empty());
        let part = partition_graph(&g, 1);
        assert_eq!(part, vec![0]);
    }

    #[test]
    fn matches_the_oracle_on_a_grid() {
        let g = grid_graph(23, 17);
        for nparts in [2, 3, 7, 40] {
            assert_eq!(
                partition_graph(&g, nparts),
                oracle::partition_graph(&g, nparts),
                "nparts={nparts}"
            );
        }
    }

    /// `n` vertices in `islands` groups with no edge between groups; each
    /// `(a, b)` draw becomes an edge inside `a`'s group.
    fn island_graph(n: usize, islands: usize, draws: &[(usize, usize)]) -> Graph {
        let edges = draws.iter().filter_map(|&(a, b)| {
            let (a, b) = (a % n, b % n);
            // Same residue class: step `b` onto `a`'s island.
            let b = b - b % islands + a % islands;
            (b < n).then_some((a as u32, b as u32))
        });
        Graph::from_edges(n, edges)
    }

    /// `base` with each vertex `i` blown up into a run of `runs[i] % 4 + 1`
    /// consecutive closed twins, adjacent to one another and to every member
    /// of `i`'s neighbours as a mesh vertex's dofs are; then the members
    /// `fixed` names lose every edge, as a Dirichlet dof does.
    fn twin_graph(base: &Graph, runs: &[usize], fixed: &[usize]) -> Graph {
        let m = base.num_vertices();
        let mut first = vec![0usize; m + 1];
        for i in 0..m {
            first[i + 1] = first[i] + runs[i] % 4 + 1;
        }
        let n = first[m];
        let mut free = vec![true; n];
        for &f in fixed {
            free[f % n] = false;
        }
        let mut edges = Vec::new();
        for i in 0..m {
            let coupled = base.neighbors(i).iter().map(|&j| j as usize);
            for j in std::iter::once(i).chain(coupled.filter(|&j| j > i)) {
                for a in first[i]..first[i + 1] {
                    for b in first[j]..first[j + 1] {
                        if free[a] && free[b] {
                            edges.push((a as u32, b as u32));
                        }
                    }
                }
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn twin_classes_of_an_fe_pattern() {
        // A 3 x 2 grid of mesh vertices under two quads, 3 dofs a vertex,
        // with vertex 1 on a symmetry plane: its z dof (5) is fixed, so its
        // row and column keep only the diagonal.
        let quads = [[0, 1, 3, 4], [1, 2, 4, 5]];
        let fixed = 5;
        let (mut row_ptr, mut col_idx) = (vec![0], Vec::new());
        for i in 0..18 {
            col_idx.extend((0..18).filter(|&j| {
                let coupled = (quads.iter()).any(|q| q.contains(&(i / 3)) && q.contains(&(j / 3)));
                i == j || (coupled && i != fixed && j != fixed)
            }));
            row_ptr.push(col_idx.len());
        }
        let g = Graph::from_pattern(&row_ptr, &col_idx);
        let q = TwinQuotient::new(&g);
        // Classes of 3, 2 (vertex 1's free dofs) and 1 (its fixed dof).
        assert_eq!(q.start, [0, 3, 5, 6, 9, 12, 15, 18]);
        assert_eq!(q.unassigned, [3, 2, 1, 3, 3, 3, 3]);
        // Regions of ⌈18 / 4⌉ = 5 dofs: the first, seeded at dof 17, is
        // {17, 3, 4, 6, 7}, splitting the classes {6, 7, 8} and {15, 16, 17}.
        let part = [2, 2, 2, 2, 2, 3, 1, 0, 1, 2, 2, 2, 2, 2, 2, 3, 2, 0];
        assert_eq!(oracle::partition_graph(&g, 4), part);
        assert_eq!(partition_graph(&g, 4), part);
    }

    proptest! {
        #[test]
        fn prop_partition_is_the_oracles(
            n in 1usize..60,
            islands in 1usize..4,
            density in 0usize..12,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 700),
            nparts_draw in 0usize..1000,
        ) {
            // Sparse to dense (degree far above the part count), connected
            // or in islands (plus whatever vertices no draw touched).
            let g = island_graph(n, islands, &draws[..(n * density).min(draws.len())]);
            for nparts in [1, 2, 1 + nparts_draw % n, n] {
                prop_assert_eq!(
                    (nparts, partition_graph(&g, nparts)),
                    (nparts, oracle::partition_graph(&g, nparts))
                );
            }
        }

        #[test]
        fn prop_partition_is_the_oracles_on_twins(
            m in 1usize..30,
            islands in 1usize..4,
            density in 0usize..8,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 240),
            runs in proptest::collection::vec(0usize..1000, 30),
            fixed in proptest::collection::vec(0usize..1000, 0..4),
            nparts_draw in 0usize..1000,
        ) {
            // Runs of 1-4 twins a vertex, so regions and seeds land inside
            // classes, with a few members cut loose mid-run.
            let base = island_graph(m, islands, &draws[..(m * density).min(draws.len())]);
            let g = twin_graph(&base, &runs[..m], &fixed);
            let n = g.num_vertices();
            for nparts in [1, 2, 1 + nparts_draw % n, n] {
                prop_assert_eq!(
                    (nparts, partition_graph(&g, nparts)),
                    (nparts, oracle::partition_graph(&g, nparts))
                );
            }
        }

        #[test]
        fn prop_refine_is_the_oracles(
            n in 2usize..50,
            density in 1usize..10,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 500),
            labels in proptest::collection::vec(0usize..1000, 50),
            nparts in 2usize..9,
        ) {
            // An arbitrary (unbalanced, scattered) start exercises the tie
            // breaks and the size floor harder than a grown partition.
            let g = island_graph(n, 1, &draws[..(n * density).min(draws.len())]);
            let start: Vec<u32> = labels[..n].iter().map(|&l| (l % nparts) as u32).collect();
            let (mut fast, mut slow) = (start.clone(), start);
            refine_kl(&g, &mut fast, nparts, 6);
            oracle::refine_kl(&g, &mut slow, nparts, 6);
            prop_assert_eq!(fast, slow);
        }
    }
}

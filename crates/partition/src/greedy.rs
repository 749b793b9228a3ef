//! Graph-growing partitioner with Kernighan–Lin style boundary refinement.
//!
//! This is the METIS stand-in used to build the block-Jacobi smoother blocks
//! (the paper: "block Jacobi with 6 blocks for every 1,000 unknowns (these
//! block Jacobi sub-domains are constructed with METIS)").

use crate::graph::Graph;

/// Partition `g` into `nparts` parts of near-equal size by repeated greedy
/// region growing, then improve the edge cut with [`refine_kl`].
///
/// Linear in `n + E` apart from the pseudo-peripheral seed search, which
/// walks the unassigned remainder of the seed's component once per region.
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
    let mut seen = SeedSearch::new(n);
    let mut queue = std::collections::VecDeque::new();
    // Deterministic seeds: grow each region from a pseudo-peripheral vertex
    // of the unassigned remainder, BFS preferring vertices with the most
    // assigned-to-current neighbors (compact regions).
    while assigned < n {
        while part[first_unassigned] != u32::MAX {
            first_unassigned += 1;
        }
        let seed = seen.peripheral_unassigned(g, &part, first_unassigned);
        queue.clear();
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

/// Scratch of the seed search, reused across regions: `stamp[v] == epoch`
/// marks `v` visited by the current search, so starting a search is a
/// counter bump, not an O(n) clear.
struct SeedSearch {
    stamp: Vec<u32>,
    epoch: u32,
    order: Vec<u32>,
}

impl SeedSearch {
    fn new(n: usize) -> SeedSearch {
        SeedSearch {
            stamp: vec![0; n],
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// BFS-farthest unassigned vertex from `seed` restricted to unassigned
    /// vertices (a cheap pseudo-peripheral heuristic).
    fn peripheral_unassigned(&mut self, g: &Graph, part: &[u32], seed: usize) -> usize {
        // At most one search per vertex, so the epoch cannot wrap.
        self.epoch += 1;
        self.order.clear();
        self.order.push(seed as u32);
        self.stamp[seed] = self.epoch;
        let mut head = 0;
        while head < self.order.len() {
            let v = self.order[head] as usize;
            head += 1;
            for &w in g.neighbors(v) {
                let w = w as usize;
                if self.stamp[w] != self.epoch && part[w] == u32::MAX {
                    self.stamp[w] = self.epoch;
                    self.order.push(w as u32);
                }
            }
        }
        *self.order.last().expect("the seed is in the order") as usize
    }
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
/// O(n) seed scan, a fresh visited array and BFS per region, an O(deg²)
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

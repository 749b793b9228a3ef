//! Graph-growing partitioner with Kernighan–Lin style boundary refinement.
//!
//! This is the METIS stand-in used to build the block-Jacobi smoother blocks
//! (the paper: "block Jacobi with 6 blocks for every 1,000 unknowns (these
//! block Jacobi sub-domains are constructed with METIS)"). The algorithm
//! runs on the twin quotient ([`crate::quotient`]); the vertex-level
//! algorithm it replays is kept as the `#[cfg(test)]` oracle.

use crate::graph::Graph;
use crate::quotient::TwinQuotient;

/// Partition `g` into `nparts` parts of near-equal size by repeated greedy
/// region growing, then improve the edge cut with Kernighan–Lin style
/// refinement: [`TwinQuotient::partition`] on the quotient of `g` by its
/// maximal runs of consecutive closed twins (the dofs of one mesh vertex).
pub fn partition_graph(g: &Graph, nparts: usize) -> Vec<u32> {
    TwinQuotient::of_graph(g).partition(nparts)
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

/// The vertex-level partitioner the quotient replays — an O(n) seed scan,
/// a fresh visited array and a BFS over vertices per region, an O(deg²)
/// refinement step — kept verbatim as the oracle: the quotient partitioner
/// must return the identical `part` vector (the smoother's blocks, and
/// with them every solution bit, depend on it).
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
    use crate::quotient::BlockPattern;
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
        TwinQuotient::of_graph(&g).refine_kl(&mut part, 2, 8);
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

    /// A stored square pattern in CSR form, columns ascending per row.
    struct Pattern {
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
    }

    impl Pattern {
        /// The entries `(i, j)` of an `n × n` pattern that `stored` names.
        fn of(n: usize, stored: impl Fn(usize, usize) -> bool) -> Pattern {
            let (mut row_ptr, mut col_idx) = (vec![0], Vec::new());
            for i in 0..n {
                col_idx.extend((0..n).filter(|&j| stored(i, j)));
                row_ptr.push(col_idx.len());
            }
            Pattern { row_ptr, col_idx }
        }

        /// The graph the partitioner sees: symmetrised, no diagonal.
        fn graph(&self) -> Graph {
            Graph::from_pattern(&self.row_ptr, &self.col_idx)
        }

        /// Read in `b × b` blocks.
        fn blocks(&self, b: usize) -> Blocks<'_> {
            Blocks { p: self, b }
        }
    }

    struct Blocks<'a> {
        p: &'a Pattern,
        b: usize,
    }

    impl BlockPattern for Blocks<'_> {
        fn nrows(&self) -> usize {
            self.p.row_ptr.len() - 1
        }

        fn block_size(&self) -> usize {
            self.b
        }

        fn for_each_block(&self, br: usize, mut f: impl FnMut(usize, u16)) {
            let (b, p) = (self.b, self.p);
            let mut blocks = std::collections::BTreeMap::<usize, u16>::new();
            for r in 0..b {
                let i = b * br + r;
                for &j in &p.col_idx[p.row_ptr[i]..p.row_ptr[i + 1]] {
                    *blocks.entry(j / b).or_default() |= 1 << (b * (j % b) + r);
                }
            }
            blocks.into_iter().for_each(|(bc, mask)| f(bc, mask));
        }
    }

    /// The pattern of `base` with vertex `i` blown up into `dofs[i]`
    /// consecutive dofs, coupled to one another and to every dof of `i`'s
    /// neighbours as a mesh vertex's dofs are, padded with uncoupled dofs
    /// to a multiple of 3. The dofs `fixed` names keep only their
    /// diagonal, as a Dirichlet dof does, and each `(a, k)` of `drop`
    /// removes entry `(a, b)`, `b = a + 1 + k % 5`, and column `a` from
    /// the rows of `b`'s vertex: a structurally unsymmetric pattern, whose
    /// rows of `b`'s vertex still agree while their columns do not.
    fn fe_pattern(
        base: &Graph,
        dofs: &[usize],
        fixed: &[usize],
        drop: &[(usize, usize)],
    ) -> Pattern {
        let mut vertex: Vec<usize> = (0..base.num_vertices())
            .flat_map(|i| std::iter::repeat_n(i, dofs[i]))
            .collect();
        while !vertex.len().is_multiple_of(3) {
            vertex.push(usize::MAX);
        }
        let n = vertex.len();
        let mut free = vec![true; n];
        for &f in fixed {
            free[f % n] = false;
        }
        let dropped: Vec<(usize, usize)> = (drop.iter())
            .map(|&(a, k)| (a % n, (a % n + 1 + k % 5) % n))
            .collect();
        let of_vertex =
            |i: usize, b: usize| i == b || (vertex[b] != usize::MAX && vertex[i] == vertex[b]);
        Pattern::of(n, |i, j| {
            let (u, v) = (vertex[i], vertex[j]);
            let coupled = u != usize::MAX && v != usize::MAX && (u == v || base.has_edge(u, v));
            let gone =
                (dropped.iter()).any(|&(a, b)| (i, j) == (a, b) || (j == a && of_vertex(i, b)));
            i == j || (coupled && free[i] && free[j] && !gone)
        })
    }

    /// Every route to the blocks — the quotients of the graph and of the
    /// pattern read in 3x3 and in 1x1 blocks — partitions as the oracle
    /// does on the symmetrised pattern, at 1, 2, a drawn and `n` parts, and
    /// refines an arbitrary start as the oracle does.
    fn assert_partitions_are_the_oracles(
        p: &Pattern,
        nparts_draw: usize,
        labels: &[usize],
    ) -> Result<(), TestCaseError> {
        let g = p.graph();
        let n = g.num_vertices();
        let quotients = [
            TwinQuotient::of_graph(&g),
            TwinQuotient::of_block_rows(&p.blocks(3)),
            TwinQuotient::of_block_rows(&p.blocks(1)),
        ];
        for nparts in [1, 2, 1 + nparts_draw % n, n] {
            let want = oracle::partition_graph(&g, nparts);
            for (route, q) in quotients.iter().enumerate() {
                prop_assert_eq!(
                    (nparts, route, q.partition(nparts)),
                    (nparts, route, want.clone())
                );
            }
        }
        // Classes split across parts: the refinement's per-member counts.
        let nparts = 2 + nparts_draw % 7;
        let start: Vec<u32> = (0..n)
            .map(|v| (labels[v % labels.len()] % nparts) as u32)
            .collect();
        let mut want = start.clone();
        oracle::refine_kl(&g, &mut want, nparts, 6);
        for (route, q) in quotients.iter().enumerate() {
            let mut got = start.clone();
            q.refine_kl(&mut got, nparts, 6);
            prop_assert_eq!((route, got), (route, want.clone()));
        }
        Ok(())
    }

    #[test]
    fn twin_classes_of_an_fe_pattern() {
        // A 3 x 2 grid of mesh vertices under two quads, 3 dofs a vertex,
        // with vertex 1 on a symmetry plane: its z dof (5) is fixed, so its
        // row and column keep only the diagonal.
        let quads = [[0, 1, 3, 4], [1, 2, 4, 5]];
        let fixed = 5;
        let p = Pattern::of(18, |i, j| {
            let coupled = (quads.iter()).any(|q| q.contains(&(i / 3)) && q.contains(&(j / 3)));
            i == j || (coupled && i != fixed && j != fixed)
        });
        let g = p.graph();
        // Regions of ⌈18 / 4⌉ = 5 dofs: the first, seeded at dof 17, is
        // {17, 3, 4, 6, 7}, splitting the classes {6, 7, 8} and {15, 16, 17}.
        let part = [2, 2, 2, 2, 2, 3, 1, 0, 1, 2, 2, 2, 2, 2, 2, 3, 2, 0];
        assert_eq!(oracle::partition_graph(&g, 4), part);
        for q in [
            TwinQuotient::of_graph(&g),
            TwinQuotient::of_block_rows(&p.blocks(3)),
        ] {
            // Classes of 3, 2 (vertex 1's free dofs) and 1 (its fixed dof).
            assert_eq!(q.start, [0, 3, 5, 6, 9, 12, 15, 18]);
            assert_eq!(q.classes.num_edges(), 11);
            assert_eq!(q.partition(4), part);
        }
    }

    #[test]
    fn an_unsymmetric_column_splits_a_block_row_and_keeps_the_blocks() {
        // Two fully coupled 3-dof vertices, but row 3 does not store
        // column 1: the symmetrised graph is still complete (row 1 stores
        // column 3), so the graph's quotient is one class of 6. Read in
        // blocks, column 1 differs from columns 0 and 2, and row 3 from row
        // 4, so dofs 0 | 1 | 2 and 3 | 4 5 are cut: finer classes, the same
        // blocks.
        let p = Pattern::of(6, |i, j| (i, j) != (3, 1));
        let g = p.graph();
        assert_eq!(g.num_edges(), 15);
        let (whole, cut) = (
            TwinQuotient::of_graph(&g),
            TwinQuotient::of_block_rows(&p.blocks(3)),
        );
        assert_eq!(whole.start, [0, 6]);
        assert_eq!(cut.start, [0, 1, 2, 3, 4, 6]);
        for nparts in 1..=6 {
            let want = oracle::partition_graph(&g, nparts);
            assert_eq!(whole.partition(nparts), want);
            assert_eq!(cut.partition(nparts), want);
        }
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
        fn prop_quotients_are_the_oracles_on_constrained_twins(
            m in 1usize..25,
            islands in 1usize..4,
            density in 0usize..8,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 200),
            fixed in proptest::collection::vec(0usize..1000, 0..6),
            drop in proptest::collection::vec((0usize..1000, 0usize..1000), 0..3),
            nparts_draw in 0usize..1000,
            labels in proptest::collection::vec(0usize..1000, 40),
        ) {
            // Three dofs a mesh vertex, a few fixed: twin runs fill or
            // split a vertex's block row and never cross one.
            let base = island_graph(m, islands, &draws[..(m * density).min(draws.len())]);
            let p = fe_pattern(&base, &vec![3; m], &fixed, &drop);
            assert_partitions_are_the_oracles(&p, nparts_draw, &labels)?;
        }

        #[test]
        fn prop_quotients_are_the_oracles_on_cut_twin_runs(
            m in 1usize..30,
            islands in 1usize..4,
            density in 0usize..8,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 240),
            runs in proptest::collection::vec(0usize..1000, 30),
            fixed in proptest::collection::vec(0usize..1000, 0..4),
            drop in proptest::collection::vec((0usize..1000, 0usize..1000), 0..3),
            nparts_draw in 0usize..1000,
            labels in proptest::collection::vec(0usize..1000, 40),
        ) {
            // Runs of 1-4 twins a mesh vertex read in blocks of 3: a run
            // starts anywhere in a block and the block's end cuts it, and
            // regions and seeds land inside classes.
            let base = island_graph(m, islands, &draws[..(m * density).min(draws.len())]);
            let dofs: Vec<usize> = runs[..m].iter().map(|r| r % 4 + 1).collect();
            let p = fe_pattern(&base, &dofs, &fixed, &drop);
            assert_partitions_are_the_oracles(&p, nparts_draw, &labels)?;
        }

        #[test]
        fn prop_quotients_are_the_oracles_on_a_run_over_two_vertices(
            m in 1usize..25,
            density in 0usize..8,
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 200),
            wide in 0usize..1000,
            extra in 1usize..4,
            fixed in proptest::collection::vec(0usize..1000, 0..3),
            nparts_draw in 0usize..1000,
            labels in proptest::collection::vec(0usize..1000, 40),
        ) {
            // Three dofs a mesh vertex but one with 4-6: its twin run
            // crosses a block boundary, which cuts it where the graph's
            // quotient keeps one class.
            let base = island_graph(m, 1, &draws[..(m * density).min(draws.len())]);
            let mut dofs = vec![3; m];
            dofs[wide % m] += extra;
            let p = fe_pattern(&base, &dofs, &fixed, &[]);
            assert_partitions_are_the_oracles(&p, nparts_draw, &labels)?;
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
            TwinQuotient::of_graph(&g).refine_kl(&mut fast, nparts, 6);
            oracle::refine_kl(&g, &mut slow, nparts, 6);
            prop_assert_eq!(fast, slow);
        }
    }
}

//! Undirected graph in CSR (adjacency list) form.

/// An undirected graph stored as compressed adjacency lists (the METIS
/// `xadj`/`adjncy` convention). Self loops are not stored; edges appear in
/// both endpoint lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
}

impl Graph {
    /// Build from an undirected edge list; duplicates and self loops are
    /// removed.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Graph {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            if a != b {
                pairs.push((a, b));
                pairs.push((b, a));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut xadj = vec![0usize; n + 1];
        for &(a, _) in &pairs {
            xadj[a as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let adjncy = pairs.into_iter().map(|(_, b)| b).collect();
        Graph { xadj, adjncy }
    }

    /// The graph of a square sparsity pattern in CSR form (`row_ptr`,
    /// `col_idx` with sorted, unique columns per row): vertices `i != j` are
    /// adjacent when `(i, j)` or `(j, i)` is stored. Equal to
    /// [`from_edges`](Self::from_edges) over the stored off-diagonal
    /// entries; see [`from_rows`](Self::from_rows).
    pub fn from_pattern(row_ptr: &[usize], col_idx: &[usize]) -> Graph {
        Graph::from_rows(row_ptr.len() - 1, |i| {
            col_idx[row_ptr[i]..row_ptr[i + 1]].iter().copied()
        })
    }

    /// [`from_pattern`](Self::from_pattern) of the `n` rows `row(i)` yields
    /// (sorted, unique columns), read where they are stored — each row is
    /// read three times and nothing of the pattern is copied. Built by
    /// counting — transpose the pattern, then merge each row with its
    /// transpose — so it is linear in the entry count.
    pub fn from_rows<I>(n: usize, row: impl Fn(usize) -> I) -> Graph
    where
        I: Iterator<Item = usize>,
    {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        // Transposed pattern; filling by ascending row keeps it sorted.
        let mut t_ptr = vec![0usize; n + 1];
        for i in 0..n {
            row(i).for_each(|j| {
                assert!(j < n, "pattern is not square");
                t_ptr[j + 1] += 1;
            });
        }
        for j in 0..n {
            t_ptr[j + 1] += t_ptr[j];
        }
        let mut t_idx = vec![0u32; t_ptr[n]];
        let mut next = t_ptr.clone();
        for i in 0..n {
            row(i).for_each(|j| {
                t_idx[next[j]] = i as u32;
                next[j] += 1;
            });
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        let mut adjncy = Vec::with_capacity(t_idx.len());
        for i in 0..n {
            // Sorted-unique union of the row and its transpose, minus the
            // diagonal: the transpose's entries below each row entry go
            // first, an entry both hold goes once.
            let (b, mut q) = (&t_idx[t_ptr[i]..t_ptr[i + 1]], 0);
            let mut push = |j: u32| {
                if j as usize != i {
                    adjncy.push(j);
                }
            };
            row(i).for_each(|j| {
                let j = j as u32;
                while q < b.len() && b[q] < j {
                    push(b[q]);
                    q += 1;
                }
                q += usize::from(q < b.len() && b[q] == j);
                push(j);
            });
            b[q..].iter().for_each(|&j| push(j));
            xadj.push(adjncy.len());
        }
        Graph { xadj, adjncy }
    }

    /// Take CSR arrays as they are: `adjncy[xadj[v]..xadj[v + 1]]` is
    /// vertex `v`'s neighbour list, sorted, duplicate-free, without `v`
    /// itself, and symmetric across lists (validated in debug builds).
    pub fn from_csr(xadj: Vec<usize>, adjncy: Vec<u32>) -> Graph {
        assert!(!xadj.is_empty() && xadj[0] == 0, "xadj starts at 0");
        assert_eq!(
            *xadj.last().unwrap(),
            adjncy.len(),
            "xadj ends at the list length"
        );
        let g = Graph { xadj, adjncy };
        debug_assert!(
            (0..g.num_vertices()).all(|v| g.neighbors(v).windows(2).all(|w| w[0] < w[1])
                && !g.neighbors(v).contains(&(v as u32))),
            "neighbour lists not sorted, unique and loop-free"
        );
        debug_assert!(g.is_symmetric(), "adjacency lists not symmetric");
        g
    }

    /// Build from per-vertex neighbor lists (must already be symmetric; this
    /// is validated in debug builds).
    pub fn from_adjacency(lists: &[Vec<u32>]) -> Graph {
        let n = lists.len();
        let mut xadj = vec![0usize; n + 1];
        for (i, l) in lists.iter().enumerate() {
            xadj[i + 1] = xadj[i] + l.len();
        }
        let mut adjncy = Vec::with_capacity(xadj[n]);
        for (i, l) in lists.iter().enumerate() {
            let mut sorted = l.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), l.len(), "duplicate neighbor in list {i}");
            adjncy.extend_from_slice(&sorted);
        }
        let g = Graph { xadj, adjncy };
        debug_assert!(g.is_symmetric(), "adjacency lists not symmetric");
        g
    }

    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    pub fn is_symmetric(&self) -> bool {
        for v in 0..self.num_vertices() {
            for &w in self.neighbors(v) {
                if self
                    .neighbors(w as usize)
                    .binary_search(&(v as u32))
                    .is_err()
                {
                    return false;
                }
            }
        }
        true
    }

    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Connected component id per vertex, labeled 0.. in discovery order.
    pub fn connected_components(&self) -> (usize, Vec<u32>) {
        let n = self.num_vertices();
        let mut comp = vec![u32::MAX; n];
        let mut ncomp = 0u32;
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            comp[s] = ncomp;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = ncomp;
                        stack.push(w as usize);
                    }
                }
            }
            ncomp += 1;
        }
        (ncomp as usize, comp)
    }

    /// Breadth-first levels from `root` (unreachable vertices get
    /// `u32::MAX`). Returns `(levels, visit order)`.
    pub fn bfs_levels(&self, root: usize) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_vertices();
        let mut level = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        level[root] = 0;
        order.push(root as u32);
        let mut head = 0;
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &w in self.neighbors(v) {
                if level[w as usize] == u32::MAX {
                    level[w as usize] = level[v] + 1;
                    order.push(w);
                }
            }
        }
        (level, order)
    }

    /// A pseudo-peripheral vertex of the component containing `seed`
    /// (repeated BFS to the farthest vertex).
    pub fn pseudo_peripheral(&self, seed: usize) -> usize {
        let mut v = seed;
        let mut ecc = 0u32;
        for _ in 0..8 {
            let (levels, order) = self.bfs_levels(v);
            let &far = order.last().unwrap();
            let far_ecc = levels[far as usize];
            if far_ecc <= ecc {
                break;
            }
            ecc = far_ecc;
            v = far as usize;
        }
        v
    }

    /// Number of edges cut by a partition assignment.
    pub fn edge_cut(&self, part: &[u32]) -> usize {
        let mut cut = 0;
        for v in 0..self.num_vertices() {
            for &w in self.neighbors(v) {
                if part[v] != part[w as usize] {
                    cut += 1;
                }
            }
        }
        cut / 2
    }

    /// Induced subgraph on `verts`; returns the subgraph and the mapping
    /// from new local indices to original ids.
    pub fn induced(&self, verts: &[u32]) -> (Graph, Vec<u32>) {
        let mut local = std::collections::HashMap::with_capacity(verts.len());
        for (l, &g) in verts.iter().enumerate() {
            local.insert(g, l as u32);
        }
        let mut edges = Vec::new();
        for (l, &g) in verts.iter().enumerate() {
            for &w in self.neighbors(g as usize) {
                if let Some(&lw) = local.get(&w) {
                    if (l as u32) < lw {
                        edges.push((l as u32, lw));
                    }
                }
            }
        }
        (Graph::from_edges(verts.len(), edges), verts.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn from_edges_dedup() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 0), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.is_symmetric());
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let (n, comp) = g.connected_components();
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn bfs_and_peripheral() {
        let g = path(10);
        let (levels, order) = g.bfs_levels(0);
        assert_eq!(levels[9], 9);
        assert_eq!(order.len(), 10);
        let p = g.pseudo_peripheral(5);
        assert!(p == 0 || p == 9);
    }

    #[test]
    fn edge_cut_counts() {
        let g = path(4);
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 1);
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 3);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn induced_subgraph() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (s, map) = g.induced(&[0, 1, 2]);
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_edges(), 2); // 0-1, 1-2 survive; 2-3 and 4-0 cut
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn from_pattern_is_from_edges() {
        // A structurally nonsymmetric pattern with a diagonal, an empty row
        // and an isolated vertex: (0,0) (0,2) | (1,0) (1,1) | - | (3,3).
        let row_ptr = [0, 2, 4, 4, 5];
        let col_idx = [0, 2, 0, 1, 3];
        let g = Graph::from_pattern(&row_ptr, &col_idx);
        assert_eq!(g, Graph::from_edges(4, [(0, 2), (1, 0)]));
        assert!(g.is_symmetric());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(3), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_from_pattern_is_from_edges(
            n in 1usize..30,
            entries in proptest::collection::vec((0usize..1000, 0usize..1000), 0..200),
        ) {
            let mut stored: Vec<(usize, usize)> =
                entries.iter().map(|&(i, j)| (i % n, j % n)).collect();
            stored.sort_unstable();
            stored.dedup();
            let mut row_ptr = vec![0usize; n + 1];
            for &(i, _) in &stored {
                row_ptr[i + 1] += 1;
            }
            for i in 0..n {
                row_ptr[i + 1] += row_ptr[i];
            }
            let col_idx: Vec<usize> = stored.iter().map(|&(_, j)| j).collect();
            let edges = stored.iter().map(|&(i, j)| (i as u32, j as u32));
            proptest::prop_assert_eq!(
                Graph::from_pattern(&row_ptr, &col_idx),
                Graph::from_edges(n, edges)
            );
        }
    }

    #[test]
    fn from_adjacency_symmetric() {
        let lists = vec![vec![1u32], vec![0u32, 2], vec![1u32]];
        let g = Graph::from_adjacency(&lists);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
    }
}

//! The twin quotient: the graph the smoother's block partitioner runs on.
//!
//! A finite element operator repeats its pattern inside a mesh vertex: the
//! vertex's unconstrained dofs are *closed twins*, vertices with equal
//! closed neighbourhoods `adj(v) ∪ {v}`. The quotient collapses runs of
//! consecutive closed twins into classes — METIS's compression of vertices
//! with identical adjacency — and the partitioner grows and refines its
//! regions class by class ([`TwinQuotient::partition`]), returning the
//! per-vertex `part` the vertex-level algorithm returns on the graph the
//! quotient stands for, bit for bit.
//!
//! The argument needs the classes to be runs of closed twins, not maximal
//! ones: every vertex adjacent to one member of a class is adjacent to all
//! of them, a class's members are consecutive and mutually adjacent, so a
//! class takes part in a breadth-first search or a neighbour count as one
//! unit whose members come in ascending order. A quotient read from a
//! graph takes the maximal runs ([`TwinQuotient::of_graph`]); one read
//! from a stored block ([`TwinQuotient::of_block_rows`]) cuts them at block
//! boundaries (a mesh vertex's dofs), which its tiles' masks decide
//! without a vertex-level graph.

use crate::graph::Graph;

/// A square sparsity pattern read one block row at a time, in `B × B`
/// blocks: the form a smoother's local operator block is stored in (3x3
/// tiles with scalar-pattern masks, or scalar rows as `1 × 1` blocks).
/// The graph it stands for is the symmetrised pattern without the
/// diagonal, as [`Graph::from_pattern`] builds it.
pub trait BlockPattern {
    /// Scalar rows (and columns), a multiple of [`block_size`](Self::block_size).
    fn nrows(&self) -> usize;
    /// `B`, rows per block row: 1 to 3.
    fn block_size(&self) -> usize;
    /// `f(block column, mask)` for each stored block of block row `br`,
    /// block columns strictly ascending; bit `B·c + r` of the mask is set
    /// when the block's entry `(r, c)` is stored.
    fn for_each_block(&self, br: usize, f: impl FnMut(usize, u16));
}

/// The quotient of a graph by runs of consecutive closed twins, with the
/// class adjacency as a [`Graph`] of its own.
pub struct TwinQuotient {
    /// Class `c` is the vertex run `start[c]..start[c + 1]`.
    pub(crate) start: Vec<u32>,
    /// The class of each vertex.
    class_of: Vec<u32>,
    /// Classes `c != d` are adjacent when some member of one is adjacent
    /// to some member of the other.
    pub(crate) classes: Graph,
}

/// A class whose members are not all in one part.
const MIXED: u32 = u32::MAX;

/// Of a `b × b` block's mask, the columns its row `r` stores.
fn row_bits(mask: u16, b: usize, r: usize) -> u8 {
    (0..b).fold(0, |bits, c| bits | ((mask >> (b * c + r) & 1) as u8) << c)
}

/// Of a `b × b` block's mask, the rows its column `c` stores.
fn col_bits(mask: u16, b: usize, c: usize) -> u8 {
    (mask >> (b * c) & ((1 << b) - 1)) as u8
}

/// What one block's mask says, per pair of neighbouring rows `(r, r + 1)`
/// (bit `r`), about their twin test: whether the rows differ inside the
/// block (`rows`), whether the columns do (`cols`), and, of a diagonal
/// block, whether the pair is adjacent (`linked`); and each row's columns
/// (`row`). Inside a diagonal block the pair's own two slots count for
/// both rows and both columns.
#[derive(Clone, Copy, Default)]
struct MaskBits {
    rows: u8,
    cols: u8,
    linked: u8,
    row: [u8; 3],
}

impl MaskBits {
    fn new(mask: u16, b: usize, diag: bool) -> MaskBits {
        let mut bits = MaskBits::default();
        for r in 0..b {
            bits.row[r] = row_bits(mask, b, r);
        }
        for r in 0..b.saturating_sub(1) {
            let pair = if diag { 3 << r } else { 0 };
            if bits.row[r] | pair != bits.row[r + 1] | pair {
                bits.rows |= 1 << r;
            }
            if col_bits(mask, b, r) | pair != col_bits(mask, b, r + 1) | pair {
                bits.cols |= 1 << r;
            }
            let (upper, lower) = (b * (r + 1) + r, b * r + r + 1);
            if diag && (mask >> upper | mask >> lower) & 1 != 0 {
                bits.linked |= 1 << r;
            }
        }
        bits
    }

    /// Every mask of a `b × b` block, off and on the diagonal.
    fn table(b: usize) -> Vec<[MaskBits; 2]> {
        (0..1u16 << (b * b))
            .map(|m| [MaskBits::new(m, b, false), MaskBits::new(m, b, true)])
            .collect()
    }
}

impl TwinQuotient {
    /// The quotient of `g` by its maximal runs of consecutive closed
    /// twins. O(n + E): each list is compared with the next one.
    pub fn of_graph(g: &Graph) -> TwinQuotient {
        let n = g.num_vertices();
        let firsts = (0..n).filter(|&v| v == 0 || !closed_twins(g, v - 1));
        TwinQuotient::from_runs(firsts.chain([n]), |v, to| {
            g.neighbors(v).iter().for_each(|&w| to.push(w as usize));
        })
    }

    /// The quotient of the graph `p` stands for, by runs of closed twins
    /// inside its block rows, read off the blocks' masks: rows `i` and
    /// `i + 1` of one block row join a class when they are adjacent and
    /// both their rows and their columns agree outside the pair, which
    /// makes their closed neighbourhoods in the symmetrised pattern equal
    /// (for a symmetric pattern it is the whole condition). One pass over
    /// the blocks decides the classes; each class's adjacency is read off
    /// its first row and symmetrised as the vertex graph is. No
    /// vertex-level graph is built.
    pub fn of_block_rows(p: &impl BlockPattern) -> TwinQuotient {
        let (n, b) = (p.nrows(), p.block_size());
        assert!((1..=3).contains(&b), "block size {b} is not 1 to 3");
        assert_eq!(n % b, 0, "rows do not fill whole block rows");
        let nbr = n / b;
        let table = MaskBits::table(b);
        // Per block row, bit `r` for the pair of rows `(r, r + 1)`: they
        // differ outside the pair (`cut`), they are adjacent (`linked`).
        let (mut cut, mut linked) = (vec![0u8; nbr], vec![0u8; nbr]);
        for br in (0..nbr).filter(|_| b > 1) {
            p.for_each_block(br, |bc, mask| {
                let bits = &table[mask as usize][usize::from(bc == br)];
                cut[br] |= bits.rows;
                cut[bc] |= bits.cols;
                linked[br] |= bits.linked;
            });
        }
        let joined = |i: usize| {
            let (br, r) = (i / b, i % b);
            r > 0 && (cut[br] >> (r - 1) & 1 == 0) && (linked[br] >> (r - 1) & 1 != 0)
        };
        let firsts = (0..n).filter(|&i| !joined(i));
        TwinQuotient::from_runs(firsts.chain([n]), |v, to| {
            let (br, r) = (v / b, v % b);
            p.for_each_block(br, |bc, mask| {
                let mut bits = table[mask as usize][0].row[r];
                while bits != 0 {
                    to.push(b * bc + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            });
        })
    }

    /// The one builder: the classes starting at `firsts` (then the vertex
    /// count), each one's adjacency read off its first member `v`'s row
    /// (`row(v, to)` hands `to.push` its columns, ascending), symmetrised.
    fn from_runs(
        firsts: impl Iterator<Item = usize>,
        mut row: impl FnMut(usize, &mut ClassRows),
    ) -> TwinQuotient {
        let start: Vec<u32> = firsts.map(|v| v as u32).collect();
        let classes = start.len() - 1;
        let mut rows = ClassRows {
            class_of: Vec::with_capacity(start[classes] as usize),
            ptr: Vec::with_capacity(classes + 1),
            idx: Vec::new(),
        };
        for (c, run) in start.windows(2).enumerate() {
            (rows.class_of).extend(std::iter::repeat_n(c as u32, (run[1] - run[0]) as usize));
        }
        rows.ptr.push(0);
        for &first in &start[..classes] {
            row(first as usize, &mut rows);
            rows.ptr.push(rows.idx.len());
        }
        TwinQuotient {
            classes: Graph::from_pattern(&rows.ptr, &rows.idx),
            class_of: rows.class_of,
            start,
        }
    }

    /// Vertices of the graph the quotient stands for.
    pub fn num_vertices(&self) -> usize {
        self.class_of.len()
    }

    /// Twin classes.
    pub fn num_classes(&self) -> usize {
        self.start.len() - 1
    }

    fn members(&self, c: usize) -> std::ops::Range<usize> {
        self.start[c] as usize..self.start[c + 1] as usize
    }

    /// Partition into `nparts` parts of near-equal size by repeated greedy
    /// region growing, then improve the edge cut with
    /// [`refine_kl`](Self::refine_kl) — the smoother's blocks.
    ///
    /// Each region is a plain FIFO breadth-first search from a
    /// pseudo-peripheral seed of the unassigned remainder, enqueuing
    /// neighbours in ascending order, until it holds `⌈n / nparts⌉`
    /// vertices. On the quotient a vertex-level queue is a queue of
    /// classes: the first scan that reaches a class appends all its
    /// unassigned members together, ascending, and their twins' scans
    /// find nothing new; the seed's own class is the exception, its other
    /// members entering at the class's sorted place among the seed's
    /// neighbours. A region may close inside a class. Linear in the
    /// vertices plus the class edges, apart from the seed search, which
    /// is one search over the classes per region.
    pub fn partition(&self, nparts: usize) -> Vec<u32> {
        assert!(nparts >= 1);
        let n = self.num_vertices();
        if nparts == 1 || n == 0 {
            return vec![0; n];
        }
        let mut part = vec![u32::MAX; n];
        Regions::new(self).grow(&mut part, nparts);
        self.refine_kl(&mut part, nparts, 4);
        part
    }

    /// Greedy boundary refinement: repeatedly move boundary vertices to
    /// the neighbouring part where they have more neighbours, when balance
    /// permits (parts may not shrink below `ideal - slack`). A lightweight
    /// Kernighan–Lin / Fiduccia–Mattheyses variant; `passes` bounds the
    /// sweeps. Vertices are visited in ascending order and move at once;
    /// a vertex's winner is the first part, in the order its neighbours
    /// first show it, whose gain is strictly greater than every earlier
    /// one's.
    ///
    /// Per class, the neighbour counts of the adjacent classes are taken
    /// once — one count per class whose members share a part — with the
    /// parts first seen below and above the class in order; each member
    /// then adds its class-mates, the one place the counts and the order
    /// differ from member to member. O(class edges + Σ class size²) per
    /// pass.
    pub fn refine_kl(&self, part: &mut [u32], nparts: usize, passes: usize) {
        let n = self.num_vertices();
        assert_eq!(part.len(), n, "one part per vertex");
        if n == 0 || nparts <= 1 {
            return;
        }
        let mut sizes = crate::greedy::part_counts(part, nparts);
        let ideal = n / nparts;
        let min_size = ideal.saturating_sub(ideal / 4 + 1).max(1);
        // Of each class, its size and the part all its members are in, or
        // `MIXED`.
        let class = |part: &[u32], c: usize| {
            let p = part[self.start[c] as usize];
            let same = part[self.members(c)].iter().all(|&q| q == p);
            (self.members(c).len() as u32, if same { p } else { MIXED })
        };
        let mut classes: Vec<(u32, u32)> =
            (0..self.num_classes()).map(|c| class(part, c)).collect();
        // Neighbours per part in the adjacent classes, and the parts they
        // show first below and above the class (all zero between classes).
        let (mut ext, mut below, mut above) = (vec![0u32; nparts], Vec::new(), Vec::new());
        // The class's members per part.
        let mut own = vec![0u32; nparts];

        for _ in 0..passes {
            let mut moved = 0usize;
            for c in 0..self.num_classes() {
                let members = self.members(c);
                let adjacent = self.classes.neighbors(c);
                // No member can move: every one is at the size floor, or
                // the class and all its neighbours are in one part.
                let pc = classes[c].1;
                if members.clone().all(|v| sizes[part[v] as usize] <= min_size)
                    || (pc != MIXED && adjacent.iter().all(|&d| classes[d as usize].1 == pc))
                {
                    continue;
                }
                let split = adjacent.partition_point(|&d| (d as usize) < c);
                for (list, adjacent) in [
                    (&mut below, &adjacent[..split]),
                    (&mut above, &adjacent[split..]),
                ] {
                    for &d in adjacent {
                        let mut add = |p: u32, k: u32| {
                            if ext[p as usize] == 0 {
                                list.push(p);
                            }
                            ext[p as usize] += k;
                        };
                        match classes[d as usize] {
                            (_, MIXED) => self.members(d as usize).for_each(|u| add(part[u], 1)),
                            (size, p) => add(p, size),
                        }
                    }
                }
                members.clone().for_each(|u| own[part[u] as usize] += 1);

                for v in members.clone() {
                    let pv = part[v] as usize;
                    if sizes[pv] <= min_size {
                        continue;
                    }
                    let count = |p: usize| ext[p] + own[p] - u32::from(p == pv);
                    let internal = count(pv);
                    let (mut best, mut best_count) = (pv, internal);
                    let mut consider = |p: usize| {
                        if p != pv && count(p) > best_count {
                            best_count = count(p);
                            best = p;
                        }
                    };
                    // The parts in the order `v`'s neighbours show them: a
                    // part seen again cannot win again (its gain is no
                    // longer greater), so no list needs deduplicating.
                    below.iter().for_each(|&p| consider(p as usize));
                    (members.clone().filter(|&u| u != v)).for_each(|u| consider(part[u] as usize));
                    above.iter().for_each(|&p| consider(p as usize));
                    if best != pv {
                        part[v] = best as u32;
                        sizes[pv] -= 1;
                        sizes[best] += 1;
                        own[pv] -= 1;
                        own[best] += 1;
                        moved += 1;
                    }
                }

                for p in below.drain(..).chain(above.drain(..)) {
                    ext[p as usize] = 0;
                }
                members.for_each(|u| own[part[u] as usize] = 0);
                classes[c] = class(part, c);
            }
            if moved == 0 {
                break;
            }
        }
    }
}

/// The class rows [`TwinQuotient::from_runs`] builds, as CSR.
struct ClassRows {
    class_of: Vec<u32>,
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl ClassRows {
    /// Add column `j`'s class to the open row. Columns ascend and classes
    /// are runs, so the class ids come non-decreasing: a repeat is the
    /// last one pushed.
    #[inline]
    fn push(&mut self, j: usize) {
        let d = self.class_of[j] as usize;
        let open = self.ptr[self.ptr.len() - 1];
        if self.idx.len() == open || self.idx[self.idx.len() - 1] != d {
            self.idx.push(d);
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

/// Region growing's state over a quotient: the unassigned members per
/// class, and one stamp per class shared by the seed searches and the
/// regions (`stamp[c] == epoch` marks class `c` reached by the current
/// one, so starting one is a counter bump, not a clear).
struct Regions<'q> {
    q: &'q TwinQuotient,
    unassigned: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// The current search's or region's classes, in the order reached.
    order: Vec<u32>,
}

impl<'q> Regions<'q> {
    fn new(q: &'q TwinQuotient) -> Regions<'q> {
        Regions {
            q,
            unassigned: q.start.windows(2).map(|r| r[1] - r[0]).collect(),
            stamp: vec![0; q.num_classes()],
            // At most one search and one region per vertex, so the epoch
            // cannot wrap.
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// Mark class `d` reached and queue it, if it has an unassigned
    /// member and the current search or region has not reached it.
    fn reach(&mut self, d: u32) {
        let d = d as usize;
        if self.stamp[d] != self.epoch && self.unassigned[d] > 0 {
            self.stamp[d] = self.epoch;
            self.order.push(d as u32);
        }
    }

    /// Assign every vertex of `part` (all `u32::MAX`) to one of `nparts`
    /// regions of `⌈n / nparts⌉` vertices (the last one takes the rest).
    fn grow(&mut self, part: &mut [u32], nparts: usize) {
        let q = self.q;
        let n = part.len();
        let target = n.div_ceil(nparts);
        let last = nparts as u32 - 1;
        let (mut current, mut count, mut assigned) = (0u32, 0usize, 0usize);
        // Assignments are never undone, so the first unassigned vertex
        // only moves forward.
        let mut first_unassigned = 0usize;
        'region: while assigned < n {
            while part[first_unassigned] != u32::MAX {
                first_unassigned += 1;
            }
            let seed = self.peripheral_unassigned(part, first_unassigned);
            let seed_class = q.class_of[seed];
            self.epoch += 1;
            self.order.clear();
            // A region ends when it is full, or when it ran out of frontier
            // (a disconnected remainder): the loop then finds a new seed
            // and keeps filling the same part until it is full.
            let mut head = 0;
            let mut next = Some(seed);
            loop {
                let (c, members) = match next.take() {
                    Some(v) => (seed_class as usize, v..v + 1),
                    None if head < self.order.len() => {
                        head += 1;
                        let c = self.order[head - 1] as usize;
                        (c, q.members(c))
                    }
                    None => continue 'region,
                };
                for v in members {
                    if part[v] != u32::MAX {
                        continue;
                    }
                    part[v] = current;
                    self.unassigned[c] -= 1;
                    assigned += 1;
                    count += 1;
                    if count >= target && current < last {
                        current += 1;
                        count = 0;
                        continue 'region;
                    }
                }
                if head == 0 {
                    // The seed's scan: its class-mates enter at their
                    // class's sorted place among its neighbours.
                    self.stamp[c] = self.epoch;
                    let mut own = self.unassigned[c] > 0;
                    for &d in q.classes.neighbors(c) {
                        if own && d as usize > c {
                            self.order.push(c as u32);
                            own = false;
                        }
                        self.reach(d);
                    }
                    if own {
                        self.order.push(c as u32);
                    }
                } else {
                    q.classes.neighbors(c).iter().for_each(|&d| self.reach(d));
                }
            }
        }
    }

    /// BFS-farthest vertex from `root`, the lowest unassigned vertex,
    /// restricted to unassigned vertices (a cheap pseudo-peripheral
    /// heuristic): the highest unassigned member of the last class the
    /// search appends, the root's own class if it appends no other. The
    /// first scan that reaches a class appends all of its unassigned
    /// members together, in ascending order, and the root's scan appends
    /// its class-mates right after it (no class below the root's has an
    /// unassigned member), so the class order is the vertex order with
    /// each class's run collapsed.
    fn peripheral_unassigned(&mut self, part: &[u32], root: usize) -> usize {
        let q = self.q;
        self.epoch += 1;
        let root_class = q.class_of[root];
        self.order.clear();
        self.order.push(root_class);
        self.stamp[root_class as usize] = self.epoch;
        let mut head = 0;
        while head < self.order.len() {
            let c = self.order[head] as usize;
            q.classes.neighbors(c).iter().for_each(|&d| self.reach(d));
            head += 1;
        }
        let last = self.order[self.order.len() - 1] as usize;
        let mut v = q.start[last + 1] as usize - 1;
        while part[v] != u32::MAX {
            v -= 1;
        }
        v
    }
}

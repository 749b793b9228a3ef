//! Ownership layout of global indices over virtual ranks.

use std::sync::Arc;

/// A distribution of `n` global indices over `nranks` ranks. Each global
/// index has a unique owner; each rank stores its owned indices in
/// ascending global order, which defines the rank-local numbering.
#[derive(Clone, Debug)]
pub struct Layout {
    nranks: usize,
    owner: Vec<u32>,
    locals: Vec<Vec<u32>>,
    global_to_local: Vec<u32>,
}

impl Layout {
    /// Build from a per-index owner assignment.
    pub fn from_part(owner: Vec<u32>, nranks: usize) -> Arc<Layout> {
        assert!(nranks >= 1);
        let mut locals = vec![Vec::new(); nranks];
        for (g, &r) in owner.iter().enumerate() {
            assert!((r as usize) < nranks, "owner out of range");
            locals[r as usize].push(g as u32);
        }
        let mut global_to_local = vec![0u32; owner.len()];
        for list in &locals {
            for (l, &g) in list.iter().enumerate() {
                global_to_local[g as usize] = l as u32;
            }
        }
        Arc::new(Layout {
            nranks,
            owner,
            locals,
            global_to_local,
        })
    }

    /// Contiguous block distribution of `n` indices.
    pub fn block(n: usize, nranks: usize) -> Arc<Layout> {
        let owner = (0..n)
            .map(|g| ((g as u64 * nranks as u64) / n.max(1) as u64) as u32)
            .collect();
        Self::from_part(owner, nranks)
    }

    /// Everything on one rank.
    pub fn serial(n: usize) -> Arc<Layout> {
        Self::from_part(vec![0; n], 1)
    }

    /// Expand a per-entity layout to `dofs` degrees of freedom per entity
    /// (dof `e*dofs + c` is owned by the owner of entity `e`).
    pub fn expand_dofs(entity: &Layout, dofs: usize) -> Arc<Layout> {
        let owner = entity
            .owner
            .iter()
            .flat_map(|&r| std::iter::repeat_n(r, dofs))
            .collect();
        Self::from_part(owner, entity.nranks)
    }

    pub fn num_ranks(&self) -> usize {
        self.nranks
    }

    pub fn num_global(&self) -> usize {
        self.owner.len()
    }

    #[inline]
    pub fn owner(&self, g: usize) -> u32 {
        self.owner[g]
    }

    /// Global indices owned by `rank`, ascending.
    #[inline]
    pub fn owned(&self, rank: usize) -> &[u32] {
        &self.locals[rank]
    }

    pub fn local_len(&self, rank: usize) -> usize {
        self.locals[rank].len()
    }

    /// Rank-local index of global index `g` (within its owner's numbering).
    #[inline]
    pub fn local_index(&self, g: usize) -> u32 {
        self.global_to_local[g]
    }

    /// Largest / average owned count (load balance of the layout itself).
    pub fn max_local(&self) -> usize {
        self.locals.iter().map(|l| l.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_partitions() {
        let l = Layout::block(10, 3);
        assert_eq!(l.num_ranks(), 3);
        assert_eq!(l.num_global(), 10);
        let total: usize = (0..3).map(|r| l.local_len(r)).sum();
        assert_eq!(total, 10);
        // Block layout is contiguous and ordered.
        for r in 0..3 {
            let owned = l.owned(r);
            for w in owned.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn local_index_roundtrip() {
        let l = Layout::from_part(vec![1, 0, 1, 0, 2], 3);
        for g in 0..5 {
            let r = l.owner(g) as usize;
            let li = l.local_index(g) as usize;
            assert_eq!(l.owned(r)[li] as usize, g);
        }
        assert_eq!(l.owned(0), &[1, 3]);
        assert_eq!(l.owned(1), &[0, 2]);
        assert_eq!(l.owned(2), &[4]);
    }

    #[test]
    fn expand_dofs_triples() {
        let v = Layout::from_part(vec![0, 1], 2);
        let d = Layout::expand_dofs(&v, 3);
        assert_eq!(d.num_global(), 6);
        for c in 0..3 {
            assert_eq!(d.owner(c), 0);
            assert_eq!(d.owner(3 + c), 1);
        }
        assert_eq!(d.owned(1), &[3, 4, 5]);
    }

    #[test]
    fn serial_layout() {
        let l = Layout::serial(4);
        assert_eq!(l.num_ranks(), 1);
        assert_eq!(l.owned(0), &[0, 1, 2, 3]);
        assert_eq!(l.max_local(), 4);
    }
}

//! Coalesced persistent halo-exchange plans.
//!
//! A [`HaloPlan`] is built once per operator, from its column [`Layout`]
//! and every rank's ghost set, and replayed for every subsequent exchange
//! (MPI's persistent-request idiom: the paper's PETSc `VecScatter`s are
//! created at setup and replayed each product). For each rank the plan coalesces all ghost values needed from
//! one peer into a single message:
//!
//! * `recv` — one [`HaloMsg`] per owning peer; `idx` are slots into the
//!   rank's ghost buffer,
//! * `send` — one [`HaloMsg`] per requesting peer; `idx` are indices into
//!   the rank's owned-value array.
//!
//! Wire order is canonical — peers ascending, values within a message in
//! ascending global id — so the BSP `Sim` (which *counts* the plan's
//! messages) and the real transports (which *send* them) describe the same
//! exchange, byte for byte.

use crate::layout::Layout;
use std::collections::BTreeMap;

/// One coalesced message of a halo exchange: all values one peer exchanges
/// with this rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloMsg {
    /// The peer rank.
    pub peer: u32,
    /// For a receive: ghost-buffer slots to fill, in wire order.
    /// For a send: owned-local indices to pack, in wire order.
    pub idx: Vec<u32>,
}

/// One rank's half of a [`HaloPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankHalo {
    /// Messages this rank receives, peers ascending.
    pub recv: Vec<HaloMsg>,
    /// Messages this rank sends, peers ascending.
    pub send: Vec<HaloMsg>,
}

impl RankHalo {
    /// The send message addressed to `peer` (panics if the plan has none —
    /// callers pair recv/send lists the builder produced together).
    pub fn send_to(&self, peer: usize) -> &HaloMsg {
        let i = self
            .send
            .binary_search_by_key(&(peer as u32), |m| m.peer)
            .expect("no send message for peer");
        &self.send[i]
    }

    /// Number of values this rank receives (its ghost count).
    pub fn recv_len(&self) -> usize {
        self.recv.iter().map(|m| m.idx.len()).sum()
    }
}

/// A persistent, coalesced exchange plan for every rank of a layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HaloPlan {
    /// Indexed by rank.
    pub ranks: Vec<RankHalo>,
}

impl HaloPlan {
    /// Build a plan from each rank's (ascending, deduplicated) ghost
    /// global ids under `layout`'s ownership.
    pub fn build(layout: &Layout, ghosts: &[Vec<u32>]) -> HaloPlan {
        assert_eq!(ghosts.len(), layout.num_ranks());
        let nranks = layout.num_ranks();
        let mut ranks: Vec<RankHalo> = vec![RankHalo::default(); nranks];
        // send[owner] collects, per requesting rank, the owned-local
        // indices to pack — BTreeMap keeps peers ascending; ghost lists
        // are ascending so wire order is ascending global id.
        let mut sends: Vec<BTreeMap<u32, Vec<u32>>> = vec![BTreeMap::new(); nranks];
        for (r, glist) in ghosts.iter().enumerate() {
            let mut recv: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for (slot, &g) in glist.iter().enumerate() {
                let owner = layout.owner(g as usize);
                assert_ne!(owner as usize, r, "ghost {g} owned by its own rank {r}");
                recv.entry(owner).or_default().push(slot as u32);
                sends[owner as usize]
                    .entry(r as u32)
                    .or_default()
                    .push(layout.local_index(g as usize));
            }
            ranks[r].recv = recv
                .into_iter()
                .map(|(peer, idx)| HaloMsg { peer, idx })
                .collect();
        }
        for (r, send) in sends.into_iter().enumerate() {
            ranks[r].send = send
                .into_iter()
                .map(|(peer, idx)| HaloMsg { peer, idx })
                .collect();
        }
        HaloPlan { ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_send_lists_pair_up() {
        // 8 indices over 3 ranks, block layout: [0..3]=r0, [3..6]=r1, [6..8]=r2.
        let l = Layout::block(8, 3);
        // r0 needs {3,6}, r1 needs {2,6}, r2 needs {5}.
        let ghosts = vec![vec![3, 6], vec![2, 6], vec![5]];
        let plan = HaloPlan::build(&l, &ghosts);

        // r0 receives one value from r1 (g=3 -> slot 0) and one from r2
        // (g=6 -> slot 1).
        assert_eq!(plan.ranks[0].recv.len(), 2);
        assert_eq!(plan.ranks[0].recv[0].peer, 1);
        assert_eq!(plan.ranks[0].recv[0].idx, vec![0]);
        assert_eq!(plan.ranks[0].recv[1].peer, 2);
        assert_eq!(plan.ranks[0].recv[1].idx, vec![1]);
        assert_eq!(plan.ranks[0].recv_len(), 2);

        // r1 sends g=3 (local 0) to r0 and g=5 (local 2) to r2.
        assert_eq!(plan.ranks[1].send.len(), 2);
        assert_eq!(plan.ranks[1].send_to(0).idx, vec![0]);
        assert_eq!(plan.ranks[1].send_to(2).idx, vec![2]);

        // r2 sends g=6 (local 0) to both r0 and r1, peers ascending.
        let peers: Vec<u32> = plan.ranks[2].send.iter().map(|m| m.peer).collect();
        assert_eq!(peers, vec![0, 1]);

        // Every recv message has a matching send of equal length.
        for (r, rh) in plan.ranks.iter().enumerate() {
            for m in &rh.recv {
                let s = plan.ranks[m.peer as usize].send_to(r);
                assert_eq!(s.idx.len(), m.idx.len());
            }
        }
    }
}

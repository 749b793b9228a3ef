//! The warm-hierarchy cache: built multigrid hierarchies keyed by
//! fingerprint, LRU-evicted under a byte budget.
//!
//! Multigrid setup (classify → MIS → Delaunay remesh → `R A Rᵀ` →
//! smoother factorization) dominates a single solve by a wide margin, so
//! a persistent daemon lives or dies on reuse: a request whose
//! fingerprint is already cached skips setup entirely (`setup_s = 0` in
//! its reply). The key is [`solver_cache_key`]: the mesh/options
//! fingerprint from [`prometheus::solver_fingerprint`] with the virtual
//! rank count mixed in — rank decomposition changes solve bits, so two
//! rank counts must never share a hierarchy.

use crate::protocol::ProblemSpec;
use pmg_comm::{LocalTransport, Transport};
use pmg_solver::{PcgOptions, PcgResult};
use prometheus::{spmd_pcg, DistributedSetup, Prometheus};
use std::collections::BTreeMap;

/// Mix `nranks` into a mesh/options fingerprint with the same FNV-1a
/// step the fingerprint itself uses. Rank count lives outside
/// [`prometheus::MgOptions`] but changes the answer bitwise (different
/// halo exchange and reduction orders), so it must widen every cache key.
fn mix_nranks(mut h: u64, nranks: usize) -> u64 {
    for b in (nranks as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The daemon's cache key for a spec-built (replicated) hierarchy: the
/// mesh/options fingerprint widened by the virtual rank count.
pub fn solver_cache_key(
    sys: &pmg_bench::FirstSolveSystem,
    opts: &prometheus::PrometheusOptions,
) -> u64 {
    mix_nranks(
        prometheus::solver_fingerprint(&sys.mesh, &opts.mg),
        opts.nranks,
    )
}

/// The cache key for an ingested mesh: same fingerprint family as
/// [`solver_cache_key`], so an ingested hierarchy is addressable by
/// fingerprint exactly like a spec-built one.
pub fn ingest_cache_key(mesh: &pmg_mesh::Mesh, opts: &prometheus::MgOptions, nranks: usize) -> u64 {
    mix_nranks(prometheus::solver_fingerprint(mesh, opts), nranks)
}

/// The solver options every `ingest` build uses. Ingested meshes solve
/// the mesh's scalar graph Laplacian `L + I` (the repo's canonical
/// mesh-only operator — one dof per vertex, no material data on the
/// wire) under the same coarsening knobs as the parity problems. Tests
/// reconstruct the offline oracle from these exact options.
pub fn ingest_options(nranks: usize) -> prometheus::PrometheusOptions {
    prometheus::PrometheusOptions {
        nranks,
        mg: prometheus::MgOptions {
            dofs_per_vertex: 1,
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A hierarchy built by partition-at-ingest: one [`DistributedSetup`]
/// per rank, each holding only that rank's owned level shares (the
/// coarsest-grid direct factor lives on rank 0 alone). Solves run the
/// real SPMD program over a [`LocalTransport`] machine, so the answer
/// bits are the sharded-path bits — which the setup-parity suite pins
/// bitwise to the replicated/simulated paths for RCB partitions.
pub struct ShardedWarm {
    /// Rank-indexed setups from `RankHierarchy::build_from_shards`.
    pub setups: Vec<DistributedSetup>,
}

impl ShardedWarm {
    /// Solve `A x = b` as the real SPMD program, one thread per rank.
    pub fn solve(&self, b: &[f64], rtol: f64) -> (Vec<f64>, PcgResult) {
        // Mirror `Prometheus::solve`: rtol from the request, the
        // standard iteration cap, default atol.
        let opts = PcgOptions {
            rtol,
            max_iters: 200,
            ..Default::default()
        };
        let parts = LocalTransport::run_ranks(self.setups.len(), |mut t| {
            let setup = &self.setups[t.rank()];
            let h = setup.rank_hierarchy();
            let bl: Vec<f64> = setup
                .fine_layout()
                .owned(t.rank())
                .iter()
                .map(|&g| b[g as usize])
                .collect();
            let mut xl = vec![0.0; bl.len()];
            let (res, _waits) =
                spmd_pcg(&mut t, &h, &bl, &mut xl, opts).expect("in-process transport solve");
            (xl, res)
        });
        let layout = self.setups[0].fine_layout();
        let mut x = vec![0.0; layout.num_global()];
        let mut result = None;
        for (rank, (xl, res)) in parts.into_iter().enumerate() {
            for (&g, &v) in layout.owned(rank).iter().zip(&xl) {
                x[g as usize] = v;
            }
            if rank == 0 {
                result = Some(res);
            }
        }
        (x, result.expect("rank 0 always reports"))
    }
}

/// The two warm-hierarchy shapes the daemon serves: spec-built
/// replicated solvers (simulated machine) and ingested sharded setups
/// (owned level shares per rank).
pub enum WarmSolver {
    /// A spec-built hierarchy over the simulated machine (boxed: a
    /// `Prometheus` is hundreds of bytes and entries live in a map).
    Replicated(Box<Prometheus>),
    /// A partitioned-at-ingest hierarchy of per-rank owned shares.
    Sharded(ShardedWarm),
}

impl WarmSolver {
    /// Solve `A x = b` from a zero guess to `rtol`, whichever shape
    /// serves it: bitwise the offline solve of the same system.
    pub fn solve(&mut self, b: &[f64], rtol: f64) -> (Vec<f64>, PcgResult) {
        match self {
            WarmSolver::Replicated(s) => s.solve(b, None, rtol),
            WarmSolver::Sharded(s) => s.solve(b, rtol),
        }
    }
}

/// One warm hierarchy and everything needed to solve on it.
pub struct CacheEntry {
    /// The built solver (replicated hierarchy or sharded setups).
    pub solver: WarmSolver,
    /// The spec it was built from (ingested entries carry a synthetic
    /// spec whose name embeds their fingerprint, keeping aliases unique).
    pub spec: ProblemSpec,
    /// The problem's canonical first-solve RHS (used when a request
    /// omits `rhs`; it is the vector the offline parity artifacts solve).
    pub default_rhs: Vec<f64>,
    /// Hierarchy construction seconds.
    pub setup_s: f64,
    /// Estimated resident bytes (operator nonzeros across all levels).
    pub bytes: usize,
    /// Element imbalance of the ingest partition (0 when not measured —
    /// spec-built entries never shard a mesh).
    pub element_imbalance: f64,
}

/// Estimate the resident bytes of a built hierarchy: every level's
/// operator nonzeros at CSR cost (8-byte value + 4-byte column index)
/// plus per-row overhead. An estimate is enough — the budget bounds
/// growth, it is not an allocator.
pub fn hierarchy_bytes(solver: &Prometheus) -> usize {
    solver
        .mg
        .levels
        .iter()
        .map(|l| l.a.nnz() * 12 + l.a.row_layout().num_global() * 32)
        .sum()
}

/// [`hierarchy_bytes`] for a sharded entry: every rank's owned nonzeros
/// and rows at the same estimated CSR cost. The sum across ranks is the
/// daemon's resident cost — the shares partition the levels, so this is
/// roughly one replicated hierarchy, not `nranks` of them.
pub fn sharded_bytes(setups: &[DistributedSetup]) -> usize {
    setups
        .iter()
        .map(|s| {
            (0..s.num_levels())
                .map(|l| s.level_nnz_local(l) * 12 + s.level_rows_local(l) * 32)
                .sum::<usize>()
        })
        .sum()
}

/// Cumulative cache activity, for `stats` replies and telemetry gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a warm hierarchy.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
}

/// LRU cache of warm hierarchies under a byte budget.
pub struct WarmCache {
    map: BTreeMap<u64, CacheEntry>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
    /// Canonical spec string → key, so spec-addressed requests find
    /// their hierarchy without rebuilding the mesh to fingerprint it.
    alias: BTreeMap<String, u64>,
    budget: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl WarmCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> WarmCache {
        WarmCache {
            map: BTreeMap::new(),
            order: Vec::new(),
            alias: BTreeMap::new(),
            budget,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Resolve a canonical spec string to its cache key, if that spec has
    /// been built before (the entry itself may since have been evicted).
    pub fn key_for_spec(&self, canon: &str) -> Option<u64> {
        self.alias.get(canon).copied()
    }

    /// Look up a warm hierarchy, counting a hit or miss and marking the
    /// entry most-recently used.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut CacheEntry> {
        if self.map.contains_key(&key) {
            self.hits += 1;
            self.touch(key);
            self.map.get_mut(&key)
        } else {
            self.misses += 1;
            None
        }
    }

    /// [`get_mut`](Self::get_mut) without touching the hit/miss counters
    /// or the LRU order — for re-borrowing an entry a lookup already
    /// resolved in the same operation.
    pub fn peek_mut(&mut self, key: u64) -> Option<&mut CacheEntry> {
        self.map.get_mut(&key)
    }

    /// Insert a freshly built hierarchy, evicting least-recently-used
    /// entries while the budget is exceeded. The newest entry itself is
    /// never evicted (a single hierarchy larger than the budget still
    /// caches — the budget bounds *additional* residency). Returns the
    /// evicted keys.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) -> Vec<u64> {
        self.alias.insert(entry.spec.canon(), key);
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
            self.order.retain(|&k| k != key);
        }
        self.bytes += entry.bytes;
        self.map.insert(key, entry);
        self.order.push(key);
        let mut evicted = Vec::new();
        while self.bytes > self.budget && self.order.len() > 1 {
            let victim = self.order.remove(0);
            let gone = self.map.remove(&victim).expect("order tracks map");
            self.bytes -= gone.bytes;
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Activity counters and current residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }

    fn touch(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bytes: usize, k: usize) -> CacheEntry {
        let sys = pmg_bench::spheres_first_solve(0);
        let opts = pmg_bench::parity_options(1);
        CacheEntry {
            solver: WarmSolver::Replicated(Box::new(pmg_bench::parity_solver(&sys, opts))),
            spec: ProblemSpec {
                name: "spheres".into(),
                k,
                nranks: 1,
            },
            default_rhs: sys.rhs,
            setup_s: 0.0,
            bytes,
            element_imbalance: 0.0,
        }
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let mut c = WarmCache::new(250);
        assert!(c.insert(1, entry(100, 1)).is_empty());
        assert!(c.insert(2, entry(100, 2)).is_empty());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get_mut(1).is_some());
        let evicted = c.insert(3, entry(100, 3));
        assert_eq!(evicted, vec![2]);
        assert!(c.get_mut(1).is_some());
        assert!(c.get_mut(2).is_none());
        assert!(c.get_mut(3).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 200);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn oversized_entry_still_caches() {
        let mut c = WarmCache::new(50);
        assert!(c.insert(1, entry(100, 1)).is_empty());
        assert!(c.get_mut(1).is_some(), "newest entry never self-evicts");
        // The next insert evicts it.
        assert_eq!(c.insert(2, entry(100, 2)), vec![1]);
    }

    #[test]
    fn spec_alias_survives_eviction() {
        let mut c = WarmCache::new(100);
        let e = entry(100, 1);
        let canon = e.spec.canon();
        c.insert(9, e);
        assert_eq!(c.key_for_spec(&canon), Some(9));
        c.insert(10, entry(100, 2));
        // Entry 9 evicted, but the spec→key mapping remains: a rebuilt
        // hierarchy for the same spec lands under the same key.
        assert!(c.get_mut(9).is_none());
        assert_eq!(c.key_for_spec(&canon), Some(9));
    }

    #[test]
    fn rank_count_widens_the_key() {
        let sys = pmg_bench::spheres_first_solve(0);
        let k2 = solver_cache_key(&sys, &pmg_bench::parity_options(2));
        let k4 = solver_cache_key(&sys, &pmg_bench::parity_options(4));
        assert_ne!(k2, k4, "different rank counts must never share a hierarchy");
        assert_eq!(k2, solver_cache_key(&sys, &pmg_bench::parity_options(2)));
    }
}

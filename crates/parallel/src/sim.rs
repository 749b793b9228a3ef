//! Superstep accounting and the BSP machine model.

use std::collections::BTreeMap;
use std::time::Instant;

/// Machine model used to convert counted work and communication into
/// modeled time. Defaults approximate the paper's platform: 332 MHz
/// PowerPC 604e sustaining ~36 Mflop/s in sparse matrix-vector products,
/// with classical MPI latency/bandwidth of the era.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Per-message latency α (seconds).
    pub latency: f64,
    /// Per-byte transfer time β (seconds/byte).
    pub inv_bandwidth: f64,
    /// Sustained per-rank flop rate in the sparse kernels (flops/second).
    pub flop_rate: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel {
            latency: 30e-6,             // 30 µs MPI latency
            inv_bandwidth: 1.0 / 100e6, // 100 MB/s per link
            flop_rate: 36e6,            // paper: 36 Mflop/s SpMV per CPU
        }
    }
}

/// Per-rank counters for one phase (or the whole run).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankCounters {
    pub flops: u64,
    pub msgs: u64,
    pub bytes: u64,
}

impl RankCounters {
    pub fn accumulate(&mut self, o: &RankCounters) {
        self.flops += o.flops;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
    }
}

/// Aggregated statistics for a named phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Modeled time under the machine model (seconds).
    pub modeled_time: f64,
    /// Modeled time spent in communication terms only.
    pub modeled_comm_time: f64,
    /// Wall-clock seconds actually spent (real execution on this machine).
    pub wall_time: f64,
    /// Per-rank counters.
    pub ranks: Vec<RankCounters>,
    /// Number of supersteps charged.
    pub supersteps: u64,
}

impl PhaseStats {
    fn new(nranks: usize) -> Self {
        PhaseStats {
            ranks: vec![RankCounters::default(); nranks],
            ..Default::default()
        }
    }

    pub fn total_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).sum()
    }

    pub fn max_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).max().unwrap_or(0)
    }

    /// Load balance `e_l = average / maximum` flops per rank (§6).
    pub fn load_balance(&self) -> f64 {
        let max = self.max_flops();
        if max == 0 {
            return 1.0;
        }
        self.total_flops() as f64 / self.ranks.len() as f64 / max as f64
    }

    /// Modeled aggregate flop rate (flops/second over all ranks).
    pub fn modeled_flop_rate(&self) -> f64 {
        if self.modeled_time <= 0.0 {
            return 0.0;
        }
        self.total_flops() as f64 / self.modeled_time
    }
}

/// The virtual machine: charges supersteps against the machine model and
/// accumulates per-phase, per-rank statistics.
#[derive(Debug)]
pub struct Sim {
    nranks: usize,
    model: MachineModel,
    phases: BTreeMap<String, PhaseStats>,
    current: String,
    phase_started: Instant,
}

impl Sim {
    pub fn new(nranks: usize, model: MachineModel) -> Sim {
        assert!(nranks >= 1);
        let mut phases = BTreeMap::new();
        phases.insert("default".to_string(), PhaseStats::new(nranks));
        Sim {
            nranks,
            model,
            phases,
            current: "default".to_string(),
            phase_started: Instant::now(),
        }
    }

    pub fn num_ranks(&self) -> usize {
        self.nranks
    }

    pub fn model(&self) -> MachineModel {
        self.model
    }

    /// Switch to (or create) a named phase; wall time of the previous phase
    /// is closed out.
    pub fn phase(&mut self, name: &str) {
        let elapsed = self.phase_started.elapsed().as_secs_f64();
        if let Some(p) = self.phases.get_mut(&self.current) {
            p.wall_time += elapsed;
        }
        let nranks = self.nranks;
        self.phases
            .entry(name.to_string())
            .or_insert_with(|| PhaseStats::new(nranks));
        self.current = name.to_string();
        self.phase_started = Instant::now();
    }

    /// Statistics of phase `name` (closing out wall time of the current
    /// phase first is the caller's responsibility via [`Sim::phase`]).
    pub fn stats(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.get(name)
    }

    pub fn phase_names(&self) -> impl Iterator<Item = &str> {
        self.phases.keys().map(|s| s.as_str())
    }

    fn cur(&mut self) -> &mut PhaseStats {
        self.phases
            .get_mut(&self.current)
            .expect("current phase exists")
    }

    /// Charge a compute superstep: `flops[r]` per rank, modeled time is the
    /// slowest rank.
    pub fn compute(&mut self, flops: &[u64]) {
        assert_eq!(flops.len(), self.nranks);
        self.compute_each(|r| flops[r]);
    }

    /// [`compute`](Self::compute) with rank `r`'s flops given by
    /// `flops(r)`, for callers that would build the charge vector only to
    /// pass it here.
    pub fn compute_each(&mut self, flops: impl Fn(usize) -> u64) {
        let rate = self.model.flop_rate;
        let mut max = 0;
        let p = self.cur();
        for (r, c) in p.ranks.iter_mut().enumerate() {
            let f = flops(r);
            c.flops += f;
            max = max.max(f);
        }
        p.modeled_time += max as f64 / rate;
        p.supersteps += 1;
    }

    /// Charge a neighbor-exchange superstep: per rank, `(messages, bytes)`
    /// sent. Modeled time is `α·max_msgs + β·max_bytes`.
    pub fn exchange(&mut self, traffic: &[(u64, u64)]) {
        assert_eq!(traffic.len(), self.nranks);
        let max_msgs = traffic.iter().map(|t| t.0).max().unwrap_or(0);
        let max_bytes = traffic.iter().map(|t| t.1).max().unwrap_or(0);
        let dt = self.model.latency * max_msgs as f64 + self.model.inv_bandwidth * max_bytes as f64;
        let p = self.cur();
        for (c, &(m, b)) in p.ranks.iter_mut().zip(traffic) {
            c.msgs += m;
            c.bytes += b;
        }
        p.modeled_time += dt;
        p.modeled_comm_time += dt;
        p.supersteps += 1;
    }

    /// Charge an allreduce of `words` f64 values: `log2(P)` rounds of one
    /// message each (plus the flops of the reduction are negligible).
    pub fn allreduce(&mut self, words: usize) {
        if self.nranks == 1 {
            return;
        }
        let rounds = (self.nranks as f64).log2().ceil();
        let dt = rounds * (self.model.latency + self.model.inv_bandwidth * (8 * words) as f64);
        let p = self.cur();
        for c in p.ranks.iter_mut() {
            c.msgs += rounds as u64;
            c.bytes += (rounds as u64) * 8 * words as u64;
        }
        p.modeled_time += dt;
        p.modeled_comm_time += dt;
        p.supersteps += 1;
    }

    /// Close out wall time and return all phase statistics.
    pub fn finish(mut self) -> BTreeMap<String, PhaseStats> {
        let elapsed = self.phase_started.elapsed().as_secs_f64();
        if let Some(p) = self.phases.get_mut(&self.current) {
            p.wall_time += elapsed;
        }
        self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MachineModel {
        MachineModel {
            latency: 1e-3,
            inv_bandwidth: 1e-6,
            flop_rate: 1e6,
        }
    }

    #[test]
    fn compute_charges_slowest_rank() {
        let mut sim = Sim::new(3, model());
        sim.compute(&[100, 300, 200]);
        let phases = sim.finish();
        let p = &phases["default"];
        assert_eq!(p.total_flops(), 600);
        assert_eq!(p.max_flops(), 300);
        assert!((p.modeled_time - 300.0 / 1e6).abs() < 1e-12);
        assert!((p.load_balance() - 200.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn exchange_and_allreduce() {
        let mut sim = Sim::new(4, model());
        sim.exchange(&[(2, 1000), (1, 500), (0, 0), (3, 100)]);
        // max 3 msgs, 1000 bytes.
        sim.allreduce(1); // log2(4)=2 rounds
        let phases = sim.finish();
        let p = &phases["default"];
        let expect = 3.0 * 1e-3 + 1000.0 * 1e-6 + 2.0 * (1e-3 + 8.0 * 1e-6);
        assert!((p.modeled_time - expect).abs() < 1e-12);
        assert_eq!(p.modeled_comm_time, p.modeled_time);
        assert_eq!(p.ranks[0].msgs, 2 + 2);
    }

    #[test]
    fn phases_are_separate() {
        let mut sim = Sim::new(2, model());
        sim.phase("setup");
        sim.compute(&[10, 10]);
        sim.phase("solve");
        sim.compute(&[20, 20]);
        sim.compute(&[5, 0]);
        let phases = sim.finish();
        assert_eq!(phases["setup"].total_flops(), 20);
        assert_eq!(phases["solve"].total_flops(), 45);
        assert_eq!(phases["solve"].supersteps, 2);
        assert!(phases["solve"].wall_time >= 0.0);
    }

    #[test]
    fn serial_allreduce_free() {
        let mut sim = Sim::new(1, model());
        sim.allreduce(100);
        let phases = sim.finish();
        assert_eq!(phases["default"].modeled_time, 0.0);
    }

    #[test]
    fn flop_rate_metric() {
        let mut sim = Sim::new(2, model());
        sim.compute(&[1000, 1000]);
        let phases = sim.finish();
        let p = &phases["default"];
        // 2000 flops in 1000/1e6 s = 2 Mflop/s aggregate (perfect).
        assert!((p.modeled_flop_rate() - 2e6).abs() < 1.0);
    }
}

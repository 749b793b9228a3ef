//! The four workloads. Each prepares its inputs from the seed (untimed),
//! then runs identical work units in a closed loop; every unit checks its
//! own answers.

pub mod cold;
pub mod newton;
pub mod serve;
pub mod spmd;

use crate::check::Verdict;

pub const WORKLOADS: [&str; 4] = ["cold10k", "newton10k", "spmd2_17k", "serve2"];

/// Identical-work samples of the three timed end-to-end metrics, in
/// seconds of this run's wall clock (normalised when reduced).
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub solve: Vec<f64>,
    pub tts: Vec<f64>,
}

pub trait Workload {
    /// Run one work unit, push its samples, and check its answers.
    fn unit(&mut self, out: &mut Samples) -> Verdict;

    /// Facts about the problem for the human-readable report.
    fn describe(&self) -> String;

    /// Stop anything the workload started (the daemon); called once.
    fn finish(&mut self) {}
}

/// Threads the workload computes on, 1 or 2: the reference kernel that
/// normalises its timings runs on as many. (`serve2` solves on the daemon's
/// one dispatcher thread; its other threads move bytes.)
pub fn threads(name: &str) -> usize {
    if name == "spmd2_17k" {
        spmd::RANKS
    } else {
        1
    }
}

/// `oracle`: also solve the systems with a second, independent solver to
/// check against. The one-shot child behind `peak_rss_mb` passes `false`:
/// that solver's memory is not the workload's.
pub fn prepare(name: &str, seed: u64, oracle: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold10k" => Box::new(cold::Cold::prepare(seed)),
        "newton10k" => Box::new(newton::Newton::prepare(seed)),
        "spmd2_17k" => Box::new(spmd::Spmd::prepare(seed, oracle)),
        "serve2" => Box::new(serve::Serve::prepare(seed)),
        _ => return None,
    })
}

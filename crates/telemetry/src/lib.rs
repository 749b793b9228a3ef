//! Solver telemetry: hierarchical phase timers, typed counters/gauges/
//! series, and pluggable report sinks.
//!
//! The paper's entire evaluation (Figs. 10–13, Table 2) is per-phase
//! timing breakdowns — coarsening, remeshing, `R A Rᵀ`, smoother setup,
//! solve. This crate is the one place those breakdowns are recorded and
//! reported from, across every layer of the workspace.
//!
//! # Model
//!
//! Telemetry is a process-global registry (like `tracing`'s global
//! subscriber) so that instrumentation points deep inside the stack —
//! the MIS inside `coarsen_level`, the per-level smoother inside a
//! V-cycle — need no plumbed-through handle:
//!
//! - **Phases** are RAII scopes ([`scope`]) that nest via a thread-local
//!   path stack: opening `"mis"` inside `"coarsen"` inside `"setup"`
//!   records under `setup/coarsen/mis`. A parent's time is inclusive of
//!   its children.
//! - **Counters** ([`counter_add`]) are summed `u64`s (iterations, lost
//!   vertices); increments from any thread merge into one value.
//! - **Gauges** ([`gauge_set`]) are last-write-wins `f64`s (per-level
//!   rows/nnz, operator complexity).
//! - **Series** ([`series_set`] / [`series_push`]) are `f64` vectors
//!   (residual histories).
//! - The BSP machine model's per-phase statistics (`pmg-parallel`'s
//!   `PhaseStats`) bridge into the same [`Report`] as
//!   [`SimPhaseRecord`]s, so modeled time and wall time land in one
//!   artifact.
//!
//! Collection is **off by default**: every recording call first checks
//! one relaxed atomic and returns immediately when disabled — the no-op
//! path performs no allocation and takes no lock (asserted by the
//! `noop_alloc` test with a counting allocator). Enable with
//! [`set_enabled`], snapshot with [`snapshot`], and emit through a
//! [`Sink`]: human-readable table, JSON-lines (`BENCH_*.jsonl`-style
//! trajectories, round-trippable via [`Report::from_json_lines`]), or
//! no-op.
//!
//! The phase-name schema used by the solver stack is documented in
//! `docs/telemetry.md` (stable slash-hierarchical phase names, counter
//! families like `rap/plan_*` and `assembly/pattern_*`, and the JSON-lines format)
//! and summarized in the repository README.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod json;
mod report;
mod sink;
pub mod stats;

pub use report::{PhaseRecord, Report, SimPhaseRecord};
pub use sink::{sink_from_env, JsonLinesSink, NoopSink, Sink, TableSink};

static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct State {
    /// Full slash-joined path → accumulated seconds and enter count.
    phases: BTreeMap<String, PhaseAccum>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<f64>>,
    labels: BTreeMap<String, String>,
}

#[derive(Clone, Copy, Default)]
struct PhaseAccum {
    total_s: f64,
    count: u64,
}

/// `map[key]`, inserted as the default first if absent. Only that first
/// insertion copies the key: recording under a name seen before — every
/// scope of every cycle after the first — allocates nothing.
fn entry_mut<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

thread_local! {
    /// This thread's open-scope path, slash-joined ("setup/coarsen/mis").
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Turn collection on or off (off by default). Disabling does not clear
/// already-recorded data; use [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled. Call sites that must build a
/// scope name dynamically (e.g. `format!("level{n}")`) should check this
/// first — or use the [`scoped!`] macro, which does — so the no-op path
/// stays allocation-free.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded phases, counters, gauges, series, and labels.
pub fn reset() {
    let mut s = state().lock().unwrap();
    *s = State::default();
}

/// RAII phase timer returned by [`scope`]; records on drop.
pub struct Scope {
    /// Length of the thread-local path before this scope pushed its name
    /// (`usize::MAX` when the scope is inactive).
    prev_len: usize,
    start: Instant,
}

impl Scope {
    const INACTIVE: usize = usize::MAX;
}

/// Open a nested timing scope. The name lands under the path of the
/// scopes currently open on this thread; drop the guard to record.
#[inline]
pub fn scope(name: &str) -> Scope {
    scope_fmt(format_args!("{name}"))
}

/// [`scope`] for a formatted name, written straight onto this thread's
/// path — no intermediate `String`. Prefer [`scoped!`], which skips even
/// building the arguments when telemetry is disabled.
pub fn scope_fmt(name: std::fmt::Arguments<'_>) -> Scope {
    if !enabled() {
        // Instant::now() is unavoidable for the struct, but cheap (vDSO)
        // and allocation-free; the path stack is untouched.
        return Scope {
            prev_len: Scope::INACTIVE,
            start: Instant::now(),
        };
    }
    let prev_len = PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        std::fmt::Write::write_fmt(&mut *p, name).expect("writing to a String cannot fail");
        prev
    });
    Scope {
        prev_len,
        start: Instant::now(),
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.prev_len == Scope::INACTIVE {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        PATH.with(|p| {
            let mut p = p.borrow_mut();
            {
                let path: &str = &p;
                let mut s = state().lock().unwrap();
                let acc = entry_mut(&mut s.phases, path);
                acc.total_s += elapsed;
                acc.count += 1;
            }
            p.truncate(self.prev_len);
        });
    }
}

/// Open a scope with a formatted name, formatting only when telemetry is
/// enabled: `let _g = pmg_telemetry::scoped!("level{lvl}");`. The guard
/// is an `Option<Scope>`; keep it bound for the scope's extent.
#[macro_export]
macro_rules! scoped {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            ::std::option::Option::Some($crate::scope_fmt(format_args!($($arg)*)))
        } else {
            ::std::option::Option::None
        }
    };
}

/// Add `delta` to the named counter (merged across threads).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut s = state().lock().unwrap();
    *entry_mut(&mut s.counters, name) += delta;
}

/// Set the named gauge (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = state().lock().unwrap();
    s.gauges.insert(name.to_string(), value);
}

/// Replace the named series.
#[inline]
pub fn series_set(name: &str, values: Vec<f64>) {
    if !enabled() {
        return;
    }
    let mut s = state().lock().unwrap();
    s.series.insert(name.to_string(), values);
}

/// Append one value to the named series.
#[inline]
pub fn series_push(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = state().lock().unwrap();
    entry_mut(&mut s.series, name).push(value);
}

/// Attach a free-form label to the report (run id, problem name, ...).
#[inline]
pub fn label(name: &str, value: &str) {
    if !enabled() {
        return;
    }
    let mut s = state().lock().unwrap();
    s.labels.insert(name.to_string(), value.to_string());
}

/// Snapshot everything recorded so far into a [`Report`]. Recording may
/// continue afterwards; the snapshot is a copy.
pub fn snapshot() -> Report {
    let s = state().lock().unwrap();
    Report {
        labels: s.labels.clone(),
        phases: s
            .phases
            .iter()
            .map(|(path, acc)| PhaseRecord {
                path: path.clone(),
                total_s: acc.total_s,
                count: acc.count,
            })
            .collect(),
        counters: s.counters.clone(),
        gauges: s.gauges.clone(),
        series: s.series.clone(),
        sim_phases: Vec::new(),
    }
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Telemetry state is process-global; tests that enable/reset it must
    // not interleave.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = test_guard();
        reset();
        set_enabled(false);
        {
            let _a = scope("setup");
            counter_add("c", 5);
            gauge_set("g", 1.0);
            series_push("s", 2.0);
        }
        let r = snapshot();
        assert!(r.phases.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.series.is_empty());
    }

    #[test]
    fn scopes_nest_into_paths() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        {
            let _a = scope("setup");
            {
                let _b = scope("coarsen");
                let _c = scope("mis");
            }
            let _d = scope("rap");
        }
        {
            let _a = scope("setup");
            let _b = scope("coarsen");
        }
        set_enabled(false);
        let r = snapshot();
        let paths: Vec<&str> = r.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["setup", "setup/coarsen", "setup/coarsen/mis", "setup/rap"]
        );
        assert_eq!(r.phase("setup").unwrap().count, 2);
        assert_eq!(r.phase("setup/coarsen").unwrap().count, 2);
        assert_eq!(r.phase("setup/coarsen/mis").unwrap().count, 1);
        // Parent time is inclusive of child time.
        assert!(r.phase("setup").unwrap().total_s >= r.phase("setup/coarsen").unwrap().total_s);
    }

    #[test]
    fn scoped_macro_formats_lazily() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        for lvl in 0..3 {
            let _s = scope("solve");
            let _l = crate::scoped!("level{lvl}");
        }
        set_enabled(false);
        let r = snapshot();
        assert!(r.phase("solve/level0").is_some());
        assert!(r.phase("solve/level2").is_some());
    }

    #[test]
    fn counters_gauges_series() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        counter_add("iters", 3);
        counter_add("iters", 4);
        gauge_set("rows", 10.0);
        gauge_set("rows", 20.0);
        series_push("res", 1.0);
        series_push("res", 0.5);
        series_set("res2", vec![9.0]);
        label("problem", "spheres");
        set_enabled(false);
        let r = snapshot();
        assert_eq!(r.counters["iters"], 7);
        assert_eq!(r.gauges["rows"], 20.0);
        assert_eq!(r.series["res"], vec![1.0, 0.5]);
        assert_eq!(r.series["res2"], vec![9.0]);
        assert_eq!(r.labels["problem"], "spheres");
    }

    #[test]
    fn counters_merge_across_threads() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for _ in 0..250 {
                        counter_add("thread_total", 1);
                    }
                    let _sc = scope_fmt(format_args!("worker{t}"));
                    counter_add(&format!("per_thread/{t}"), 1);
                });
            }
        });
        set_enabled(false);
        let r = snapshot();
        assert_eq!(r.counters["thread_total"], 1000);
        for t in 0..4 {
            assert_eq!(r.counters[&format!("per_thread/{t}")], 1);
            // Each worker's scope path is rooted at its own thread.
            assert_eq!(r.phase(&format!("worker{t}")).unwrap().count, 1);
        }
    }

    #[test]
    fn reset_clears_everything() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        counter_add("x", 1);
        let _ = scope("p");
        reset();
        set_enabled(false);
        let r = snapshot();
        assert!(r.phases.is_empty() && r.counters.is_empty());
    }
}

//! The run modes: a plain (untraced) run that produces the end-to-end
//! metrics, a traced run that produces the per-layer metrics, the one-shot
//! child behind `peak_rss_mb`, `--repeat`, and the all-workloads default.

use crate::host::{self, Reference};
use crate::report::{self, Metric, RunResult};
use crate::spec::{Layers, BOUNDS, CRITERION, END_TO_END, PER_LAYER};
use crate::stats::{self, Timing};
use crate::trace::Tracer;
use crate::workloads::{self, Samples, WORKLOADS};
use crate::Args;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// A run never reports fewer identical-work units than this.
const MIN_UNITS: usize = 8;
/// One-shot children behind `peak_rss_mb`; the run reports their median. A
/// fixed count: nothing about the reading follows the clock.
const RSS_CHILDREN: usize = 3;
/// Work units of a traced pass.
const TRACED_UNITS: usize = 3;
/// A traced pass whose named parts explain less than this share of the
/// opaque set-up or solve call is out of step with the real pipeline.
const MIN_COVERAGE: f64 = 0.9;
/// The traced unit may cost this much more than the opaque one.
const MAX_TRACE_OVERHEAD: f64 = 0.05;

/// Start `benchmark --one-shot <workload>`. A workload that computes on one
/// thread gets one malloc arena: glibc's per-thread arenas put 6-9 MB on
/// `serve2`'s 21 MB according to which connection or client thread
/// allocates first, i.e. to scheduling, not to the program. (Two ranks
/// keep an arena each: sharing one, their peak wanders by 6 %.)
fn spawn_rss_child(workload: &str, seed: u64) -> std::io::Result<Child> {
    let mut child = Command::new(std::env::current_exe()?);
    child
        .args(["--one-shot", workload, "--seed", &seed.to_string()])
        .arg("--out")
        .arg(crate::out_dir())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if workloads::threads(workload) == 1 {
        child.env("MALLOC_ARENA_MAX", "1");
    }
    child.spawn()
}

/// Wait for a one-shot child and read the peak RSS it printed.
fn reap_rss_child(child: std::io::Result<Child>) -> Result<f64, String> {
    let out = child
        .and_then(Child::wait_with_output)
        .map_err(|e| format!("one-shot child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "one-shot child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_mb "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "one-shot child printed no peak_rss_mb".to_string())
}

/// The child: generate the inputs, run exactly one work unit, print VmHWM.
/// Its peak cannot depend on how long the parent's loop runs.
pub fn one_shot(workload: &str, seed: u64) -> bool {
    let mut w = workloads::prepare(workload, seed, false).expect("workload name was checked");
    let v = w.unit(&mut Samples::default());
    w.finish();
    for p in &v.problems {
        eprintln!("one-shot {workload}: {p}");
    }
    println!("peak_rss_mb {}", host::peak_rss_mb());
    v.ok()
}

const RAW_LH_LABEL: &str = "raw lower-half ";
const RAW_MEDIAN_LABEL: &str = "raw median ";

fn print_timing(name: &str, t: &Timing) {
    let tail = t
        .tail
        .map_or("-".to_string(), |(p, v)| format!("p{p:.0} {v:.6} s"));
    println!(
        "  {name:<20} {:>12.6} s   ({RAW_LH_LABEL}{:.6} s, {RAW_MEDIAN_LABEL}{:.6} s, {tail}, n={})",
        t.value, t.raw_lh, t.raw_median, t.n
    );
}

/// The number after `label` on the line [`print_timing`] printed for
/// metric `name` in a run's output.
fn parse_timing(output: &str, name: &str, label: &str) -> Option<f64> {
    let line = output.lines().find(|l| l.trim_start().starts_with(name))?;
    line.split(label)
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A plain run: the one-shot children for memory (side by side, while this
/// process prepares its inputs; nothing is timed yet), then identical work
/// units in a closed loop until `--seconds` since the start is used (never
/// fewer than eight), the reference kernel between units. End-to-end
/// values come only from here.
pub fn plain(name: &str, args: &Args) -> RunResult {
    let start = Instant::now();
    let min_units = if args.quick { 1 } else { MIN_UNITS };
    let children: Vec<_> = (0..if args.quick { 0 } else { RSS_CHILDREN })
        .map(|_| spawn_rss_child(name, args.seed))
        .collect();
    let mut w = workloads::prepare(name, args.seed, true).expect("workload name was checked");
    let mut refk = Reference::new(workloads::threads(name));

    let mut failed = 0;
    let mut rss = Vec::new();
    for child in children {
        match reap_rss_child(child) {
            Ok(mb) => rss.push(mb),
            Err(e) => {
                eprintln!("{name}: {e}");
                failed += 1;
            }
        }
    }

    let mut samples = Samples::default();
    let mut attempted = 0;
    while attempted < min_units || start.elapsed().as_secs_f64() < args.seconds {
        refk.sample();
        attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.unit(&mut samples))) {
            Ok(v) if v.ok() => {}
            Ok(v) => {
                eprintln!("{name} unit {attempted}: {}", v.problems.join("; "));
                failed += 1;
            }
            Err(_) => {
                eprintln!("{name} unit {attempted}: panicked");
                failed += 1;
            }
        }
        if args.quick {
            break;
        }
    }
    refk.sample();
    w.finish();

    let factor = refk.host_factor();
    println!("{name}: {}", w.describe());
    println!(
        "  {attempted} units, {failed} failed; host factor {factor:.4} \
         ({}-thread reference {:.6} s over {} samples, nominal {:.6} s)",
        workloads::threads(name),
        stats::lower_half_mean(&refk.samples),
        refk.samples.len(),
        refk.nominal_s()
    );
    let mut metrics = Vec::new();
    let mut raw = Vec::new();
    let mut complete = true;
    for (def, s) in END_TO_END
        .iter()
        .zip([&samples.setup, &samples.solve, &samples.tts])
    {
        if s.is_empty() {
            eprintln!("{name}: no {} sample survived", def.name);
            complete = false;
            continue;
        }
        let t = stats::timing(s, factor);
        print_timing(def.name, &t);
        raw.push((format!("raw_median.{}", def.name), t.raw_median));
        raw.push((format!("raw_lh.{}", def.name), t.raw_lh));
        metrics.push(Metric {
            name: def.name.into(),
            unit: def.unit.into(),
            value: t.value,
        });
    }
    // `--quick` starts no children: this process's own peak stands in.
    let peak = if rss.is_empty() {
        host::peak_rss_mb()
    } else {
        stats::median(&rss)
    };
    println!(
        "  {:<20} {peak:>12.3} MB  (one-shot children: {rss:?})",
        "peak_rss_mb"
    );
    metrics.push(Metric {
        name: "peak_rss_mb".into(),
        unit: "MB".into(),
        value: peak,
    });
    RunResult {
        workload: name.into(),
        seed: args.seed,
        correct: failed == 0 && complete,
        attempted,
        failed,
        metrics,
        raw,
    }
}

/// A traced run: a fixed number of units replayed stage by stage with a
/// span per layer call, plus the kernel probes. Per-layer values come only
/// from here; the spans go to `trace_<workload>.json`.
pub fn traced(name: &str, args: &Args) -> RunResult {
    let units = if args.quick { 1 } else { TRACED_UNITS };
    let mut layers = Layers::new();
    let mut refk = Reference::new(1);
    for _ in 0..8 {
        refk.sample();
    }
    let (l2, llc) = host::cache_sizes();
    let (triad_gbs, triad_bytes) = host::triad(if args.quick { 0 } else { llc });
    layers.set("host.nproc", host::nproc() as f64);
    layers.set("host.l2_bytes", l2 as f64);
    layers.set("host.llc_bytes", llc as f64);
    layers.set("host.triad_gbs", triad_gbs);
    layers.set("host.triad_array_bytes", triad_bytes as f64);

    let mut tracer = Tracer::new();
    let seed = args.seed;
    let (attempted, failed) = match name {
        "cold10k" => workloads::cold::traced(seed, units, &mut tracer, &mut layers),
        "newton10k" => workloads::newton::traced(seed, units, &mut tracer, &mut layers),
        "spmd2_17k" => workloads::spmd::traced(seed, units, &mut tracer, &mut layers),
        "serve2" => workloads::serve::traced(seed, units, &mut tracer, &mut layers),
        other => unreachable!("workload {other} was checked"),
    };
    for _ in 0..8 {
        refk.sample();
    }
    layers.set("host.ref_spmv_s", stats::lower_half_mean(&refk.samples));
    layers.set("host.factor", refk.host_factor());
    layers.set("host.ref_spread", refk.spread());

    let dir = crate::out_dir();
    let path = dir.join(format!("trace_{name}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, crate::trace::write_json(name, &tracer.spans)));
    if let Err(e) = written {
        eprintln!("{name}: writing {}: {e}", path.display());
    }

    println!(
        "{name} traced: {units} units, {} spans -> {}",
        tracer.spans.len(),
        path.display()
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let value = layers.get(m.name);
        let better = if m.higher { "higher" } else { "lower" };
        println!(
            "  {:<32} {value:>16.6} {:<8} ({better} is better)",
            m.name, m.unit
        );
        metrics.push(Metric {
            name: m.name.into(),
            unit: m.unit.into(),
            value,
        });
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    // The three solver workloads replay their pipeline; the replay has to
    // account for the opaque call it stands for. (Not under `--quick`: its
    // one opaque unit is the process's first and pays every page fault.)
    let mut in_step = true;
    if name != "serve2" && !args.quick {
        for stage in ["setup", "solve"] {
            let coverage = layers.get(&format!("trace.{stage}_coverage"));
            if coverage < MIN_COVERAGE {
                eprintln!(
                    "{name}: the traced {stage} parts cover {coverage:.3} of the opaque call, \
                     under {MIN_COVERAGE}: the replay is out of step with the pipeline"
                );
                in_step = false;
            }
        }
    }
    let overhead = layers.get("trace.overhead_frac");
    if !args.quick && overhead > MAX_TRACE_OVERHEAD {
        println!(
            "  FLAG trace.overhead_frac {overhead:.4} is over {MAX_TRACE_OVERHEAD} \
             (three units a side: the host's noise reaches this)"
        );
    }
    RunResult {
        workload: name.into(),
        seed,
        correct: failed == 0 && finite && in_step,
        attempted,
        failed,
        metrics,
        raw: Vec::new(),
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

/// `--repeat N`: N plain runs per workload in fresh processes with seeds
/// `1..=N`, then the spread of every end-to-end metric against the issue's
/// criterion (`(max - min) / median`, every metric) and the driver's
/// (`IQR / median` against `bound`). Writes `repeat.json` (for `--compare`)
/// and `repeat.md` to the output directory. False when a cell misses the
/// criterion or a run was wrong.
pub fn repeat(args: &Args, n: usize) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut records = Vec::new();
    let mut table = String::from(
        "| workload | metric | min | median | max | (max-min)/median | criterion | halves differ | half criterion \
         | IQR/median | bound | CV | raw median: (max-min)/median | raw lower-half: (max-min)/median |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut ok = true;
    let mut missed = Vec::new();
    let mut cells = 0;
    for w in selected(args) {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        // Per metric: raw medians, raw lower-half means.
        let mut raws: Vec<[Vec<f64>; 2]> = vec![Default::default(); END_TO_END.len()];
        for seed in 1..=n as u64 {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .arg("--out")
                .arg(crate::out_dir())
                .output()
                .expect("spawn a run");
            let text = String::from_utf8_lossy(&out.stdout);
            let parsed = text
                .lines()
                .last()
                .ok_or("no output".to_string())
                .and_then(report::parse_result_line);
            let (correct, metrics) = match parsed {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{w} seed {seed}: {e}");
                    ok = false;
                    continue;
                }
            };
            ok &= correct && out.status.success();
            let mut record = RunResult {
                workload: w.into(),
                seed,
                correct,
                attempted: 1,
                failed: 0,
                metrics: Vec::new(),
                raw: Vec::new(),
            };
            for (i, def) in END_TO_END.iter().enumerate() {
                let Some(&(_, v)) = metrics.iter().find(|(k, _)| k == def.name) else {
                    continue;
                };
                values[i].push(v);
                record.metrics.push(Metric {
                    name: def.name.into(),
                    unit: def.unit.into(),
                    value: v,
                });
                for (slot, (key, label)) in
                    [("raw_median", RAW_MEDIAN_LABEL), ("raw_lh", RAW_LH_LABEL)]
                        .into_iter()
                        .enumerate()
                {
                    if let Some(raw) = parse_timing(&text, def.name, label) {
                        raws[i][slot].push(raw);
                        record.raw.push((format!("{key}.{}", def.name), raw));
                    }
                }
            }
            eprintln!("{w} seed {seed}: {}", text.lines().last().unwrap_or(""));
            records.push(record.to_record());
        }
        for (i, def) in END_TO_END.iter().enumerate() {
            if values[i].len() < 2 {
                ok = false;
                continue;
            }
            let s = stats::spread(&values[i]);
            let (first, second) = values[i].split_at(values[i].len() / 2);
            let halves = (stats::median(first) - stats::median(second)).abs() / s.median;
            let raw = |slot: usize| {
                let r = &raws[i][slot];
                (r.len() >= 2)
                    .then(|| stats::spread(r))
                    .map_or("-".to_string(), |r| {
                        format!("{:.2} %", 100.0 * r.range_frac)
                    })
            };
            let flag = |over: bool, word: &'static str| if over { word } else { "" };
            let not_met = s.range_frac > CRITERION[i] || halves > CRITERION[i] / 2.0;
            cells += 1;
            if not_met {
                missed.push(format!("{w} {}", def.name));
            }
            table.push_str(&format!(
                "| {w} | {} | {:.4} | {:.4} | {:.4} | {:.2} %{} | {:.0} % | {:.2} %{} | {:.1} % \
                 | {:.2} %{} | {:.0} % | {:.2} % | {} | {} |\n",
                def.name,
                s.min,
                s.median,
                s.max,
                100.0 * s.range_frac,
                flag(s.range_frac > CRITERION[i], " NOT MET"),
                100.0 * CRITERION[i],
                100.0 * halves,
                flag(halves > CRITERION[i] / 2.0, " NOT MET"),
                50.0 * CRITERION[i],
                100.0 * s.iqr_frac,
                flag(s.iqr_frac > BOUNDS[i], " OVER"),
                100.0 * BOUNDS[i],
                100.0 * s.cv,
                raw(0),
                raw(1),
            ));
        }
    }
    let verdict = if missed.is_empty() {
        format!("\nThe repeatability criterion is met on all {cells} cells.\n")
    } else {
        format!(
            "\nThe repeatability criterion is NOT MET on {} of {cells} cells: {}.\n",
            missed.len(),
            missed.join(", ")
        )
    };
    table.push_str(&verdict);
    print!("{table}");
    let dir = crate::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    for (file, text) in [
        ("repeat.json", report::runs_file(&records)),
        ("repeat.md", table),
    ] {
        if let Err(e) = std::fs::write(dir.join(file), text) {
            eprintln!("writing {file}: {e}");
        }
    }
    ok && missed.is_empty()
}

/// No `--workload`: every workload, plain then traced, one result line
/// each, and a summary that ends with `"claim": null` — defining the
/// benchmark claims no gain.
pub fn all(args: &Args) -> bool {
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        for traced_pass in [false, true] {
            let r = if traced_pass {
                traced(w, args)
            } else {
                plain(w, args)
            };
            ok &= r.correct;
            let line = r.to_json();
            println!("{line}");
            lines.push(format!(
                "{{\"workload\": \"{w}\", \"trace\": {}, \"result\": {line}}}",
                u8::from(traced_pass)
            ));
        }
    }
    let summary = format!(
        "{{\"results\": [\n  {}\n], \"claim\": null}}",
        lines.join(",\n  ")
    );
    let dir = crate::out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("summary.json"), format!("{summary}\n")));
    if let Err(e) = written {
        eprintln!("writing summary.json: {e}");
    }
    println!("{summary}");
    ok
}

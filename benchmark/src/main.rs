//! The repository's benchmark: four workloads from mesh bytes to solution
//! bits. See `README.md` beside this crate for every definition.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out DIR]
//! benchmark [--seconds T] [--seed S]          all workloads, plain then traced
//! benchmark --repeat N [--workload W]         repeatability table
//! benchmark --compare A.json B.json           verdict per workload x metric
//! benchmark --one-shot W [--seed S]           one work unit, print peak RSS
//! ```

mod alloc;
mod check;
mod compare;
mod host;
mod inputs;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Where trace files, run records and the daemon's socket go.
pub fn out_dir() -> PathBuf {
    OUT_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub one_shot: Option<String>,
    pub repeat: Option<usize>,
    pub compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
        one_shot: None,
        repeat: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--quick" => a.quick = true,
            "--out" => {
                let _ = OUT_DIR.set(PathBuf::from(value("a directory")?));
            }
            "--one-shot" => a.one_shot = Some(value("a workload name")?),
            "--repeat" => {
                a.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in a.workload.iter().chain(&a.one_shot) {
        if !workloads::WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; one of {:?}",
                workloads::WORKLOADS
            ));
        }
    }
    // The contract's limit is 180 s per run; a unit may overrun the loop.
    if !(a.seconds > 0.0 && a.seconds <= 150.0) {
        return Err("--seconds must be in (0, 150]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare(a, b)
    } else if let Some(w) = &args.one_shot {
        run::one_shot(w, args.seed)
    } else if let Some(n) = args.repeat {
        run::repeat(&args, n)
    } else if let Some(w) = &args.workload {
        let result = if args.trace {
            run::traced(w, &args)
        } else {
            run::plain(w, &args)
        };
        println!("{}", result.to_json());
        result.correct
    } else {
        run::all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `--quick` smoke: one work unit of every workload through the real
//! binary, with all correctness checks on, and a result line that keeps the
//! contract's shape.

use std::process::Command;

#[test]
fn one_unit_of_every_workload_is_correct() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let started = std::time::Instant::now();
    for workload in ["cold10k", "newton10k", "spmd2_17k", "serve2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args([
                "--workload",
                workload,
                "--quick",
                "--seed",
                "7",
                "--trace",
                "0",
            ])
            .arg("--out")
            .arg(&out_dir)
            .env("PMG_THREADS", "1")
            .output()
            .expect("run the benchmark binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout.lines().last().expect("a result line");
        let doc = pmg_telemetry::json::parse(line).expect("the last line is JSON");
        assert_eq!(
            doc.get("correct"),
            Some(&pmg_telemetry::json::Value::Bool(true)),
            "{workload}: {line}"
        );
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let metrics = doc.get("metrics").expect("metrics");
        for name in ["setup_s", "solve_s", "time_to_solution_s", "peak_rss_mb"] {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("{workload}: no {name} in {line}"));
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
    assert!(
        started.elapsed().as_secs() < 30,
        "the smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result line on a usage error");
    }
}

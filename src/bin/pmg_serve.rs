//! `pmg-serve` — the persistent solver daemon.
//!
//! Listens on a Unix-domain socket and/or TCP, keeps built multigrid
//! hierarchies warm in an LRU byte-budgeted cache, and answers solve
//! requests one at a time in arrival order.
//! Protocol and semantics: `docs/server.md`.
//!
//! ```text
//! pmg_serve --unix /tmp/pmg.sock [--tcp 127.0.0.1:7070]
//!           [--queue-cap 64] [--cache-mb 256] [--hold-ms 0]
//! ```
//!
//! Telemetry rides the usual env switches: `PMG_TELEMETRY=table|json`
//! (+ `PMG_TELEMETRY_FILE`) emits a report — including the `serve/*`
//! counters and latency-percentile gauges — when the daemon drains and
//! exits.

use pmg_serve::{serve, ServeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: pmg_serve [--unix PATH] [--tcp ADDR] [--queue-cap N] \
         [--cache-mb N] [--hold-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--unix" => config.unix_path = Some(value().into()),
            "--tcp" => config.tcp_addr = Some(value()),
            "--queue-cap" => config.queue_cap = parse(&value()),
            "--cache-mb" => config.cache_bytes = parse::<usize>(&value()) << 20,
            "--hold-ms" => config.hold_ms = parse(&value()),
            _ => usage(),
        }
    }
    if config.unix_path.is_none() && config.tcp_addr.is_none() {
        usage();
    }

    let mut sink = pmg_bench::telemetry_from_env();

    let handle = match serve(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pmg_serve: {e}");
            std::process::exit(1);
        }
    };
    if let Some(p) = &config.unix_path {
        println!("listening unix {}", p.display());
    }
    if let Some(a) = handle.tcp_addr() {
        println!("listening tcp {a}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Blocks until a shutdown request drains the daemon.
    handle.wait();

    let report = pmg_telemetry::snapshot();
    sink.emit(&report).expect("emit telemetry report");
    println!("drained");
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

//! `reproduce <artifact> [k]`: regenerate a table or figure of the paper's
//! evaluation (§7), print it, and write it between its
//! `<!-- reproduce:NAME -->` and `<!-- /reproduce -->` markers in
//! EXPERIMENTS.md. `PMG_TELEMETRY=table|json` also emits each ladder
//! point's and each crush's telemetry report.

use pmg_bench::paper;
use pmg_bench::table::{splice, Table};
use pmg_telemetry::Sink;

const USAGE: &str = "usage: reproduce <artifact> [k]
  table1 | thin-body                   (no k)
  fig9 | ladder | crush | all [k]      ladder points 1..=k (default 2)
  fig7 | ordering | coarse-size [k]    ladder point k (default 1; 0 = tiny)
  smoother [k | 10k]                   ladder point k (default 1), or the cold10k mesh
  face-tol [k]                         ladder point k (default 0)";

/// Every artifact with the default and the least `k` it takes (`None`:
/// it takes no `k`).
const ARTIFACTS: [(&str, Option<(usize, usize)>); 11] = [
    ("table1", None),
    ("thin-body", None),
    ("fig9", Some((2, 1))),
    ("ladder", Some((2, 1))),
    ("crush", Some((2, 1))),
    ("all", Some((2, 1))),
    ("fig7", Some((1, 0))),
    ("ordering", Some((1, 0))),
    ("coarse-size", Some((1, 0))),
    ("smoother", Some((1, 0))),
    ("face-tol", Some((0, 0))),
];

/// The artifact and its `k`; `smoother 10k` is `smoother-10k`.
fn parse(args: &[String]) -> Result<(&'static str, usize), String> {
    let (name, rest) = args.split_first().ok_or("missing artifact")?;
    let found = ARTIFACTS.iter().find(|(a, _)| a == name);
    let &(name, k) = found.ok_or_else(|| format!("unknown artifact `{name}`"))?;
    match (rest, k) {
        ([], k) => Ok((name, k.map_or(0, |(default, _)| default))),
        ([arg], _) if name == "smoother" && arg == "10k" => Ok(("smoother-10k", 0)),
        ([arg], Some((_, least))) => match arg.parse() {
            Ok(k) if k >= least => Ok((name, k)),
            _ => Err(format!(
                "`{name}` takes an integer k >= {least}, not `{arg}`"
            )),
        },
        _ => Err(format!("unexpected arguments after `{name}`: {rest:?}")),
    }
}

/// Print `tables` and write each between its markers in EXPERIMENTS.md.
fn publish(tables: &[Table]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    for table in tables {
        let body = table.markdown();
        println!("<!-- reproduce:{} -->\n{body}", table.name);
        match splice(&doc, &table.name, &body) {
            Some(new) => doc = new,
            None => eprintln!("EXPERIMENTS.md has no `reproduce:{}` marker", table.name),
        }
    }
    std::fs::write(path, doc).expect("write EXPERIMENTS.md");
}

fn run(name: &str, k: usize, sink: &mut dyn Sink) {
    let tables = match name {
        "table1" => vec![paper::table1()],
        "thin-body" => paper::thin_body(),
        "fig9" => vec![paper::fig9(k)],
        "ladder" => paper::ladder(k, false, sink).0,
        "crush" => paper::ladder(k, true, sink).1,
        "fig7" => {
            let (tables, objs) = paper::fig7(k);
            for (i, obj) in objs.iter().enumerate() {
                let path = format!("target/fig7_level{}.obj", i + 1);
                std::fs::write(&path, obj).unwrap_or_else(|e| eprintln!("{path}: {e}"));
            }
            tables
        }
        "ordering" => paper::ordering(k),
        "coarse-size" => paper::coarse_size(k),
        "smoother" => vec![paper::smoother(k)],
        "smoother-10k" => vec![paper::smoother_10k()],
        "face-tol" => vec![paper::face_tol(k)],
        "all" => {
            let (mut tables, crush) = paper::ladder(k, true, sink);
            tables.extend(crush);
            for (name, k) in [
                ("table1", 0),
                ("fig9", k),
                ("fig7", 1),
                ("ordering", 1),
                ("thin-body", 0),
                ("smoother", 1),
                ("smoother-10k", 0),
                ("face-tol", 0),
                ("coarse-size", 1),
            ] {
                run(name, k, sink);
            }
            tables
        }
        _ => unreachable!("`parse` admits only listed artifacts"),
    };
    publish(&tables);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, k) = parse(&args).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}\n{USAGE}");
        std::process::exit(2)
    });
    // Wall-time cells read telemetry scopes, so collection is always on;
    // PMG_TELEMETRY only chooses where the reports also go.
    pmg_telemetry::set_enabled(true);
    let mut sink = pmg_telemetry::sink_from_env().expect("telemetry sink from PMG_TELEMETRY");
    run(name, k, &mut *sink);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<(&'static str, usize), String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn typos_are_rejected_not_run_as_the_default() {
        assert_eq!(parsed(&["fig9"]), Ok(("fig9", 2)));
        assert_eq!(parsed(&["fig7", "0"]), Ok(("fig7", 0)));
        assert_eq!(parsed(&["crush", "1"]), Ok(("crush", 1)));
        assert_eq!(parsed(&["smoother", "10k"]), Ok(("smoother-10k", 0)));
        assert_eq!(parsed(&["table1"]), Ok(("table1", 0)));
        for bad in [
            &[][..],
            &["fig10"],
            &["smoother-10k"],
            &["fig9", "x"],
            &["crush", "one"],
            &["ladder", "-1"],
            &["ladder", "0"],
            &["fig7", "10k"],
            &["table1", "1"],
            &["fig9", "2", "3"],
        ] {
            assert!(parsed(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}

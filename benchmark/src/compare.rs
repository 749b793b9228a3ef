//! `--compare A.json B.json`: one row per workload x end-to-end metric with
//! both medians and quartiles and a verdict, by the rule of the metrics
//! guide: a gain needs nine tenths of the pairs and a median shift beyond
//! the parent's own inter-quartile spread; a spread wider than the bound
//! leaves the row unresolved; a worsening beyond the bound is a regression.

use crate::report::{parse_runs_file, Record};
use crate::spec::{BOUNDS, END_TO_END};
use crate::stats;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Worse,
}

/// Verdict for one lower-is-better metric: `a` the base runs, `b` the
/// changed runs (paired by position when the counts match).
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let sa = stats::spread(a);
    let sb = stats::spread(b);
    if sa.iqr_frac > bound || sb.iqr_frac > bound {
        return Verdict::Unresolved;
    }
    if sb.median > sa.median * (1.0 + bound) {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let ties = a.iter().zip(b).filter(|(x, y)| y == x).count();
    let enough_wins = 10 * wins >= 9 * (pairs - ties) && pairs > ties;
    if enough_wins && sa.median - sb.median > sa.q3 - sa.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(runs: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|&(_, v)| v))
        .collect()
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs_file(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the table; false when a file is unreadable or a row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> bool {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark --compare: {e}");
            return false;
        }
    };
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | B/A (base: A median) | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut ok = true;
    for w in crate::workloads::WORKLOADS {
        for (def, bound) in END_TO_END.iter().zip(BOUNDS) {
            let (va, vb) = (values(&a, w, def.name), values(&b, w, def.name));
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let (sa, sb) = (stats::spread(&va), stats::spread(&vb));
            let v = verdict(&va, &vb, bound);
            ok &= v != Verdict::Worse;
            println!(
                "| {w} | {} | {:.5} [{:.5}, {:.5}] ({}) | {:.5} [{:.5}, {:.5}] ({}) | {:.4} of {:.5} {} | {:.0} % | {} |",
                def.name,
                sa.median,
                sa.q1,
                sa.q3,
                va.len(),
                sb.median,
                sb.q1,
                sb.q3,
                vb.len(),
                sb.median / sa.median,
                sa.median,
                def.unit,
                100.0 * bound,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base = around(1.0, 0.01);
        assert_eq!(verdict(&base, &around(1.0, 0.01), 0.08), Verdict::Unchanged);
        assert_eq!(verdict(&base, &around(0.9, 0.01), 0.08), Verdict::Improved);
        assert_eq!(verdict(&base, &around(1.2, 0.01), 0.08), Verdict::Worse);
        // Within the bound but slower: not a regression, not a gain.
        assert_eq!(
            verdict(&base, &around(1.05, 0.01), 0.08),
            Verdict::Unchanged
        );
        // A spread wider than the bound resolves nothing, even with a shift.
        assert_eq!(
            verdict(&around(1.0, 0.2), &around(0.8, 0.2), 0.08),
            Verdict::Unresolved
        );
        // A shift inside the parent's own quartile spread is not a gain.
        assert_eq!(
            verdict(&around(1.0, 0.05), &around(0.99, 0.05), 0.08),
            Verdict::Unchanged
        );
    }
}

//! The paper's tables at k = 1, gated on their exact columns: every cell of
//! `reproduce fig9 1`, `fig7 1`, `ladder 1` and `ordering 1` that does not
//! depend on the host (levels, vertices, nnz, reductions, operator
//! complexity, I/S/E/C counts, first-solve iterations, the modelled
//! seconds, flops, messages and bytes of the machine-model phases, the
//! efficiencies derived from them, MIS sizes) against
//! `expected_k1.json`. A change that moves a cell replaces the file with
//! the JSON the failure prints, and says why.

use pmg_telemetry::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};

fn render(exact: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in exact.iter().enumerate() {
        out += if i == 0 { "  " } else { ",\n  " };
        json::write_str(&mut out, key);
        out += ": ";
        json::write_num(&mut out, *value);
    }
    out + "\n}\n"
}

// One test for all four artifacts: the machine model's flop ledger is
// process-global, so no other solve may run beside them.
#[test]
fn k1_exact_columns_match_the_committed_values() {
    let mut tables = vec![pmg_bench::paper::fig9(1)];
    tables.extend(pmg_bench::paper::fig7(1).0);
    tables.extend(pmg_bench::paper::ladder(1, false, &mut pmg_telemetry::NoopSink).0);
    tables.extend(pmg_bench::paper::ordering(1));
    let mut fresh = BTreeMap::new();
    tables.iter().for_each(|table| table.exact(&mut fresh));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_k1.json");
    let text = std::fs::read_to_string(path).expect("read expected_k1.json");
    let Ok(Value::Obj(pairs)) = json::parse(&text) else {
        panic!("expected_k1.json is not a JSON object");
    };
    let expected: BTreeMap<String, f64> = pairs
        .into_iter()
        .map(|(key, v)| (key, v.as_f64().expect("expected_k1.json holds numbers")))
        .collect();
    let keys: BTreeSet<&String> = fresh.keys().chain(expected.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|key| fresh.get(*key) != expected.get(*key))
        .map(|key| format!("  {key}: {:?} -> {:?}", expected.get(key), fresh.get(key)))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} exact cells moved (expected -> fresh):\n{}\nfresh expected_k1.json:\n{}",
        diffs.len(),
        diffs.join("\n"),
        render(&fresh)
    );
}

#[test]
fn a_mistyped_k_exits_2_with_the_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig9", "x"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: reproduce"));
}

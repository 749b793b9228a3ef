//! The metric catalogue: every name the benchmark may emit, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a test compares
//! the two), and [`Layers::set`] refuses a name that is not here.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
    }
}

/// `bound` of the end-to-end metrics in `BENCHMARK.json`, by position: the
/// worsening of a ten-run median that counts as a regression. The driver
/// refuses a benchmark whose inter-quartile spread over ten runs exceeds it
/// and asks for three times the spread seen; on the timed metrics this
/// host's spread leaves nothing under the contract's cap.
pub const BOUNDS: [f64; 4] = [0.25, 0.25, 0.25, 0.05];

/// The issue's repeatability criterion, by position: `(max - min) / median`
/// over ten runs stays within this, and two halves of the runs agree within
/// half of it. `--repeat` gates on it and reports every cell that misses.
pub const CRITERION: [f64; 4] = [0.08, 0.08, 0.08, 0.05];

pub const END_TO_END: [MetricDef; 4] = [
    lo("setup_s", "s"),
    lo("solve_s", "s"),
    lo("time_to_solution_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Per-layer metrics, layer = crate. A traced run of one workload reports
/// all of them; a layer the workload does not enter reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // mesh
    lo("mesh.read_flat_s", "s"),
    lo("mesh.bytes", "B"),
    lo("mesh.vertex_graph_s", "s"),
    lo("mesh.shard_s", "s"),
    lo("mesh.shard_bytes", "B"),
    // partition
    lo("partition.rcb_s", "s"),
    lo("partition.imbalance", "ratio"),
    lo("partition.blocks_s", "s"),
    // geometry
    lo("geometry.delaunay_lvl0_s", "s"),
    lo("geometry.delaunay_tets", "count"),
    // fem
    lo("fem.problem_build_s", "s"),
    lo("fem.assemble_cold_s", "s"),
    lo("fem.assemble_warm_s", "s"),
    lo("fem.constrain_s", "s"),
    lo("fem.rank_assemble_max_s", "s"),
    lo("fem.matfree_setup_s", "s"),
    lo("fem.matfree_apply_s", "s"),
    lo("fem.newton_iters", "count"),
    lo("fem.newton_linear_iters", "count"),
    // sparse
    lo("sparse.rap_symbolic_s", "s"),
    lo("sparse.rap_numeric_s", "s"),
    hi("sparse.rap_numeric_gflops", "Gflop/s"),
    lo("sparse.rap_plan_bytes", "B"),
    lo("sparse.spmv_csr_s", "s"),
    hi("sparse.spmv_csr_gbs", "GB/s"),
    lo("sparse.spmv_bsr3_s", "s"),
    hi("sparse.spmv_bsr3_gbs", "GB/s"),
    hi("sparse.spmv_bsr3_bw_frac", "ratio"),
    lo("sparse.spmm4_bsr3_s", "s"),
    hi("sparse.cholesky166_gflops", "Gflop/s"),
    // solver
    lo("solver.smoother_setup_lvl0_s", "s"),
    lo("solver.smoother_setup_all_s", "s"),
    lo("solver.smoother_apply_lvl0_s", "s"),
    lo("solver.blocks_lvl0", "count"),
    lo("solver.coarse_factor_s", "s"),
    lo("solver.coarse_solve_s", "s"),
    lo("solver.iterations", "count"),
    lo("solver.pcg_other_s", "s"),
    // core
    lo("core.classify_s", "s"),
    lo("core.mis_lvl0_s", "s"),
    lo("core.coarsen_lvl0_s", "s"),
    lo("core.coarsen_coarse_s", "s"),
    hi("core.reduction_lvl0", "ratio"),
    lo("core.levels", "count"),
    lo("core.operator_complexity", "ratio"),
    lo("core.update_matrix_s", "s"),
    lo("core.fingerprint_s", "s"),
    lo("core.mg.fmg_s", "s"),
    lo("core.mg.smooth_lvl0_s", "s"),
    lo("core.mg.smooth_coarse_s", "s"),
    lo("core.mg.restrict_s", "s"),
    lo("core.mg.prolong_s", "s"),
    lo("core.mg.coarse_solve_s", "s"),
    lo("core.ingest.plan_s", "s"),
    lo("core.spmd.build_max_s", "s"),
    lo("core.spmd.build_mean_s", "s"),
    lo("core.spmd.build_imbalance", "ratio"),
    lo("core.spmd.solve_max_s", "s"),
    // parallel
    lo("parallel.distribute_s", "s"),
    lo("parallel.sim_overhead_frac", "ratio"),
    // comm
    lo("comm.setup_msgs", "count"),
    lo("comm.setup_bytes", "B"),
    lo("comm.setup_wait_max_s", "s"),
    lo("comm.solve_msgs", "count"),
    lo("comm.solve_bytes", "B"),
    lo("comm.allreduces", "count"),
    lo("comm.wait_halo_max_s", "s"),
    lo("comm.wait_halo_mean_s", "s"),
    lo("comm.wait_allreduce_max_s", "s"),
    lo("comm.wait_coarse_max_s", "s"),
    hi("comm.halo_hidden_s", "s"),
    hi("comm.overlap_gain_frac", "ratio"),
    lo("comm.allreduce_latency_s", "s"),
    // serve
    hi("serve.rps", "1/s"),
    lo("serve.p50_s", "s"),
    lo("serve.p90_s", "s"),
    lo("serve.queue_p50_s", "s"),
    lo("serve.solve_p50_s", "s"),
    lo("serve.wire_p50_s", "s"),
    hi("serve.batch_mean", "count"),
    hi("serve.cache_hit_ratio", "ratio"),
    lo("serve.rejected", "count"),
    lo("serve.render_reply_s", "s"),
    lo("serve.parse_reply_s", "s"),
    lo("serve.reply_bytes", "B"),
    lo("serve.ingest_p50_s", "s"),
    // telemetry
    lo("telemetry.overhead_frac", "ratio"),
    // mem (cross-layer)
    lo("mem.hierarchy_bytes", "B"),
    lo("mem.fine_operator_bytes", "B"),
    lo("mem.alloc_bytes_setup", "B"),
    lo("mem.alloc_calls_setup", "count"),
    lo("mem.alloc_bytes_solve", "B"),
    lo("mem.alloc_calls_solve", "count"),
    lo("mem.rss_after_setup_mb", "MB"),
    // pool (rayon shim)
    hi("pool.setup_speedup_2t", "ratio"),
    hi("pool.solve_speedup_2t", "ratio"),
    // host, trace (harness)
    hi("host.nproc", "count"),
    hi("host.l2_bytes", "B"),
    hi("host.llc_bytes", "B"),
    hi("host.triad_gbs", "GB/s"),
    hi("host.triad_array_bytes", "B"),
    lo("host.ref_spmv_s", "s"),
    lo("host.factor", "ratio"),
    lo("host.ref_spread", "ratio"),
    lo("trace.overhead_frac", "ratio"),
    hi("trace.ingest_coverage", "ratio"),
    hi("trace.setup_coverage", "ratio"),
    hi("trace.solve_coverage", "ratio"),
];

/// The per-layer values of one traced run; starts at 0 for every name.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Set a metric. Panics on a name that is not in [`PER_LAYER`]: an
    /// emitted name the specification does not list is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the specification"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string fields `fields` of every object in the array at `key`.
    fn json_fields(
        spec: &pmg_telemetry::json::Value,
        key: &str,
        fields: &[&str],
    ) -> Vec<Vec<String>> {
        let pmg_telemetry::json::Value::Arr(items) = spec.get(key).expect(key) else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| m.get(f).and_then(|v| v.as_str()).expect(f).to_string())
                    .collect()
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every name in `BENCHMARK.json` is emitted, every emitted name is
    /// listed, units and directions agree, and the counts fit the contract.
    #[test]
    fn benchmark_json_and_code_agree() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = pmg_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let listed = json_fields(&spec, key, &["name", "unit", "better"]);
            let coded: Vec<Vec<String>> = defs
                .iter()
                .map(|m| {
                    let better = if m.higher { "higher" } else { "lower" };
                    vec![m.name.to_string(), m.unit.to_string(), better.to_string()]
                })
                .collect();
            assert_eq!(
                listed, coded,
                "{key} differs between BENCHMARK.json and spec.rs"
            );
            for m in &listed {
                assert!(valid_name(&m[0]), "bad metric name {:?}", m[0]);
                assert!(!m[1].is_empty() && m[1].len() <= 16, "bad unit {:?}", m[1]);
            }
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );

        let workloads = json_fields(&spec, "workloads", &["name"]).concat();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
        assert!((2..=8).contains(&workloads.len()));

        let pmg_telemetry::json::Value::Arr(e2e) = spec.get("end_to_end").unwrap() else {
            unreachable!()
        };
        for (m, bound) in e2e.iter().zip(BOUNDS) {
            assert_eq!(m.get("bound").and_then(|b| b.as_f64()), Some(bound));
        }
    }

    #[test]
    #[should_panic(expected = "not in the specification")]
    fn unknown_metric_names_are_refused() {
        Layers::new().set("sparse.made_up", 1.0);
    }
}

//! Self-test of the benchmark in its tiny configuration: every workload
//! emits every named metric, and a deliberately corrupted output fails the
//! correctness gate.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use maimon_perfbench::library::MIN_TRACE_COVERAGE_PCT;
use maimon_perfbench::{host, run, Params, Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::sync::Once;

fn work_dir(tag: &str) -> PathBuf {
    static TMPDIR: Once = Once::new();
    TMPDIR.call_once(|| host::use_work_root_as_tmpdir().expect("scratch root"));
    host::work_root().join(format!("selftest-{tag}-{}", std::process::id()))
}

fn tiny(workload: &str, trace: bool) -> Report {
    let params = Params::tiny(7, trace, work_dir(&format!("{workload}-{trace}")));
    run(workload, &params).unwrap_or_else(|e| panic!("{workload} could not run: {e}"))
}

/// The workload metrics each workload prints besides the bounded ones.
fn workload_metrics(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve_mixed" => &[
            "mine_ms_p50",
            "mine_ms_tail",
            "append_ms_p50",
            "append_ms_tail",
            "decompose_ms_p50",
            "stats_ms_p50",
            "requests_per_s",
            "error_rate",
        ],
        _ => &["sweep_s_p50", "error_rate"],
    }
}

/// A per-layer metric that must be non-zero on each workload's traced run:
/// evidence the layer the workload exists for was measured.
fn exercised_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "nursery_sweep" => &[
            "entropy.calls",
            "entropy.busy_s",
            "core.mine_mvds_s",
            "core.quality_s",
            "core.lattice_nodes",
            "core.par_speedup",
        ],
        "tall_paged" => {
            &["storage.ingest_s", "storage.page_misses", "entropy.build_s", "core.mine_schemas_s"]
        }
        _ => &[
            "serve.dispatch_ms_p50.mine",
            "serve.response_kib_p50.mine",
            "storage.wal_append_ms_p50",
            "relation.append_ms_p50",
            "entropy.extend_ms_p50",
        ],
    }
}

#[test]
fn every_workload_emits_every_named_metric() {
    for workload in WORKLOADS {
        let report = tiny(workload, false);
        assert!(report.attempted > 0, "{workload}: nothing attempted");
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.notes);
        let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{workload}");
        for m in &report.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }
        for name in workload_metrics(workload) {
            assert!(report.workload.iter().any(|m| m.name == *name), "{workload}: no {name}");
        }

        let traced = tiny(workload, true);
        assert_eq!(traced.failed, 0, "{workload} traced: {:?}", traced.notes);
        let layers = traced.layers.metrics();
        let names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{workload}");
        for name in exercised_layers(workload) {
            let m = layers.iter().find(|m| m.name == *name).expect("listed above");
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }
        for m in &layers {
            assert!(m.value.is_finite(), "{workload}: {m:?}");
        }
        if workload != "serve_mixed" {
            let coverage = layers.iter().find(|m| m.name == "obs.trace_coverage_pct");
            let coverage = coverage.expect("listed in PER_LAYER").value;
            assert!(coverage >= MIN_TRACE_COVERAGE_PCT, "{workload}: coverage {coverage} %");
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_correctness_gate() {
    for workload in WORKLOADS {
        let mut params = Params::tiny(7, false, work_dir(&format!("{workload}-corrupt")));
        params.corrupt_one_output = true;
        let report = run(workload, &params).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(report.failed >= 1, "{workload}: corrupted output passed the gate");
        assert!(report.error_rate() > 0.0, "{workload}");
    }
}

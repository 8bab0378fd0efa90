//! **Figure 13** — row scalability: time to mine all minimal separators as a
//! function of the number of rows (10 % … 100 % of the dataset), for
//! ε ∈ {0, 0.01, 0.1}, on the Image, Four Square (Spots) and Ditag Feature
//! shapes. The paper finds the runtime grows mostly linearly in the row count
//! while the number of minimal separators stays roughly constant.
//!
//! Run with: `cargo run -p maimon-bench --release --bin fig13_row_scalability`

use bench_support::{emit_json, harness_options, mining_config, secs, sweep_min_seps};
use maimon::entropy::PliEntropyOracle;
use maimon::json::Json;
use maimon::storage::{ingest_csv_file, IngestOptions, PagedOptions, RelationBackend};
use maimon::wire::ToJson;
use maimon_datasets::{write_planted_csv, SyntheticSpec};
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let options = harness_options();
    let mut json_rows = Vec::new();
    println!("# Figure 13 — minimal-separator mining time vs #rows");
    println!(
        "# scale = {} of the original row counts, budget = {:?}, column cap = {}, threads = {}",
        options.scale,
        options.budget,
        options.max_columns,
        maimon::MaimonConfig::default().effective_threads()
    );
    let epsilons = [0.0, 0.01, 0.1];
    let fractions = [0.1, 0.25, 0.5, 0.75, 1.0];

    for name in ["Image", "Four Square (Spots)", "Ditag Feature"] {
        let spec = maimon_datasets::dataset_by_name(name).expect("dataset in catalog");
        let full = spec.generate(options.scale);
        let full = if full.arity() > options.max_columns {
            full.column_prefix(options.max_columns).expect("cap >= 2")
        } else {
            full
        };
        println!("\n## {} ({} rows at this scale, {} cols)", name, full.n_rows(), full.arity());
        println!("{:>8} {:>8} {:>10} {:>10} {:>12}", "rows", "eps", "seps", "time[s]", "truncated");
        for &fraction in &fractions {
            let rel = full.head(((full.n_rows() as f64) * fraction).round() as usize);
            for &epsilon in &epsilons {
                let config = mining_config(epsilon, &options);
                let oracle = PliEntropyOracle::new(&rel, config.entropy);
                let started = Instant::now();
                let sweep = sweep_min_seps(&oracle, epsilon, &config, options.budget);
                println!(
                    "{:>8} {:>8} {:>10} {:>10} {:>12}",
                    rel.n_rows(),
                    epsilon,
                    sweep.distinct().len(),
                    secs(started.elapsed()),
                    sweep.truncated
                );
                json_rows.push(Json::object([
                    ("dataset", Json::from(name)),
                    ("rows", Json::from(rel.n_rows())),
                    ("epsilon", Json::from(epsilon)),
                    ("seps", Json::from(sweep.distinct().len())),
                    ("secs", Json::from(started.elapsed().as_secs_f64())),
                    ("truncated", Json::from(sweep.truncated)),
                    ("stages", sweep.stages.to_json()),
                ]));
            }
        }
    }
    // Out-of-core legs: planted synthetics at 1M/10M-row targets (scaled by
    // the harness scale factor) are streamed to a temp CSV and mined through
    // the paged columnar backend, so the raw strings are never fully resident.
    println!("\n## Paged out-of-core synthetics");
    println!("{:>10} {:>8} {:>10} {:>10} {:>12}", "rows", "eps", "seps", "time[s]", "ingest[s]");
    for &target in &[1_000_000usize, 10_000_000] {
        let rows = ((target as f64) * options.scale).round().max(64.0) as usize;
        let spec = SyntheticSpec { rows, seed: target as u64, ..SyntheticSpec::default() };
        let path = std::env::temp_dir()
            .join(format!("maimon_fig13_paged_{}_{target}.csv", std::process::id()));
        {
            let file = std::fs::File::create(&path).expect("create synthetic CSV");
            let mut out = BufWriter::new(file);
            write_planted_csv(&spec, &mut out).expect("stream synthetic CSV");
        }
        let ingest = IngestOptions {
            paged: PagedOptions {
                page_rows: 65_536,
                cache_pages: 8,
                dataset: format!("fig13-paged-{target}"),
            },
            ..IngestOptions::default()
        };
        let ingest_started = Instant::now();
        let store = ingest_csv_file(&path, &ingest).expect("paged ingest");
        let ingest_secs = ingest_started.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
        let backend: Arc<dyn RelationBackend> = Arc::new(store);
        for &epsilon in &epsilons {
            let config = mining_config(epsilon, &options);
            let oracle = PliEntropyOracle::from_backend(Arc::clone(&backend), config.entropy);
            let started = Instant::now();
            let sweep = sweep_min_seps(&oracle, epsilon, &config, options.budget);
            println!(
                "{:>10} {:>8} {:>10} {:>10} {:>12.3}",
                backend.n_rows(),
                epsilon,
                sweep.distinct().len(),
                secs(started.elapsed()),
                ingest_secs
            );
            json_rows.push(Json::object([
                ("dataset", Json::from(format!("Planted synthetic {target}"))),
                ("storage", Json::from("paged")),
                ("rows", Json::from(backend.n_rows())),
                ("epsilon", Json::from(epsilon)),
                ("seps", Json::from(sweep.distinct().len())),
                ("secs", Json::from(started.elapsed().as_secs_f64())),
                ("ingest_secs", Json::from(ingest_secs)),
                ("truncated", Json::from(sweep.truncated)),
                ("stages", sweep.stages.to_json()),
            ]));
        }
    }
    println!(
        "# Expected shape: time grows roughly linearly with rows; separator counts stay flat."
    );
    emit_json("fig13_row_scalability", Json::array(json_rows));
}

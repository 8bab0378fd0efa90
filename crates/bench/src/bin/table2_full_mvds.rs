//! **Table 2** — datasets used in the experiments: columns, rows, runtime of
//! mining full MVDs at threshold 0.0 (with a time limit), and the number of
//! full MVDs found.
//!
//! The paper reports a 5-hour time limit per dataset on the original
//! Metanome files; this harness runs against the synthetic stand-ins at the
//! scale given by `MAIMON_SCALE` / `MAIMON_BUDGET_SECS` / `MAIMON_MAX_COLS`
//! (see `bench_support`). Datasets that exhaust the budget are marked `TL`
//! exactly as in the paper.
//!
//! Run with: `cargo run -p maimon-bench --release --bin table2_full_mvds`

use bench_support::{harness_options, mining_config, secs};
use maimon::MaimonSession;
use maimon_datasets::metanome_catalog;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let options = harness_options();
    println!("# Table 2 — full MVD mining at threshold 0.0");
    println!(
        "# scale = {}, per-dataset budget = {:?}, column cap = {}",
        options.scale, options.budget, options.max_columns
    );
    println!(
        "{:<22} {:>6} {:>9} {:>12} {:>10}",
        "Dataset", "Cols", "Rows", "Runtime[s]", "Full MVDs"
    );
    for spec in metanome_catalog() {
        let full = spec.generate(options.scale);
        let rel = Arc::new(if full.arity() > options.max_columns {
            full.column_prefix(options.max_columns).expect("cap is at least 2")
        } else {
            full
        });
        let config = mining_config(0.0, &options);
        // The runtime covers the oracle build as well as the mining.
        let started = Instant::now();
        let session = match MaimonSession::new(Arc::clone(&rel), config) {
            Ok(session) => session,
            Err(error) => {
                println!(
                    "{:<22} {:>6} {:>9} {:>12} {:>10}",
                    spec.name,
                    rel.arity(),
                    rel.n_rows(),
                    "-",
                    format!("error: {error}")
                );
                continue;
            }
        };
        let result = session.mvds(config.epsilon).expect("threshold 0.0 is valid");
        let elapsed = started.elapsed();
        let runtime = if result.stats.truncated { "TL".to_string() } else { secs(elapsed) };
        let mvds = if result.stats.truncated && result.mvds.is_empty() {
            "NA".to_string()
        } else {
            result.mvds.len().to_string()
        };
        println!(
            "{:<22} {:>6} {:>9} {:>12} {:>10}",
            spec.name,
            rel.arity(),
            rel.n_rows(),
            runtime,
            mvds
        );
    }
    println!("# (TL = time limit reached before the pair sweep completed, as in the paper)");
}

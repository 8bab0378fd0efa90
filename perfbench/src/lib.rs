//! The repository benchmark: three workloads that together exercise every
//! layer of the Maimon reproduction, measured end to end from an untraced
//! run and per layer from a separate traced run. See `README.md` beside this
//! package for why each workload exists and which end-to-end metric each
//! per-layer metric should move.

pub mod check;
pub mod host;
pub mod library;
pub mod serve_mixed;
pub mod stats;
pub mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["nursery_sweep", "tall_paged", "serve_mixed"];

/// The end-to-end metrics every workload reports from an untraced run, with
/// their units. These are the ones `BENCHMARK.json` bounds.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("op_ms_p50", "ms")];

/// The per-layer metrics every workload reports from a traced run, with
/// their units. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("storage.ingest_s", "s"),
    ("storage.page_misses", "count"),
    ("storage.page_hits", "count"),
    ("storage.resident_mib", "MiB"),
    ("storage.wal_append_ms_p50", "ms"),
    ("entropy.build_s", "s"),
    ("entropy.calls", "count"),
    ("entropy.hit_rate", "ratio"),
    ("entropy.intersections", "count"),
    ("entropy.count_only_share", "ratio"),
    ("entropy.busy_s", "s"),
    ("entropy.extend_ms_p50", "ms"),
    ("entropy.delta_refreshes", "count"),
    ("relation.append_ms_p50", "ms"),
    ("hypergraph.transversal_s", "s"),
    ("core.mine_mvds_s", "s"),
    ("core.mine_schemas_s", "s"),
    ("core.quality_s", "s"),
    ("core.stage.mine_min_seps_s", "s"),
    ("core.stage.full_mvds_s", "s"),
    ("core.stage.reduce_s", "s"),
    ("core.stage.measure_s", "s"),
    ("core.pairs", "count"),
    ("core.separators", "count"),
    ("core.transversals_tested", "count"),
    ("core.lattice_nodes", "count"),
    ("core.mvds", "count"),
    ("core.schemas", "count"),
    ("core.fanout_utilization", "ratio"),
    ("core.par_speedup", "x"),
    ("decompose.semijoins", "count"),
    ("serve.dispatch_ms_p50.mine", "ms"),
    ("serve.dispatch_ms_p50.append", "ms"),
    ("serve.dispatch_ms_p50.stats", "ms"),
    ("serve.dispatch_ms_p50.decompose", "ms"),
    ("serve.outside_dispatch_ms_p50.mine", "ms"),
    ("serve.outside_dispatch_ms_p50.append", "ms"),
    ("serve.outside_dispatch_ms_p50.stats", "ms"),
    ("serve.outside_dispatch_ms_p50.decompose", "ms"),
    ("serve.response_kib_p50.mine", "KiB"),
    ("serve.overloaded", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_coverage_pct", "%"),
];

/// Everything a workload run is parameterised by. [`Params::full`] is what
/// the command line runs; [`Params::tiny`] is the self-test's configuration.
#[derive(Clone, Debug)]
pub struct Params {
    /// Seeds every generated input and the serve request schedule.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Mining threads, server workers and client connections.
    pub threads: usize,
    /// Least number of set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Set-ups repeat until they took at least this many seconds in total.
    pub setup_seconds: f64,
    /// Nursery rows mined by `nursery_sweep` (12960 = the whole relation).
    pub nursery_rows: usize,
    /// Rows of the planted relation `tall_paged` streams through the pages.
    pub tall_rows: usize,
    /// Rows per page of the paged store.
    pub tall_page_rows: usize,
    /// Rows of the served Nursery prefix; appends come from the rest.
    pub serve_base_rows: usize,
    /// Scratch directory for generated CSV, durable state and spill files.
    pub work_dir: PathBuf,
    /// Self-test hook: corrupt one output before it reaches the
    /// correctness gate, which must then fail the run.
    pub corrupt_one_output: bool,
}

impl Params {
    /// The configuration the benchmark command runs.
    pub fn full(seed: u64, seconds: f64, trace: bool, work_dir: PathBuf) -> Self {
        Params {
            seed,
            seconds,
            trace,
            threads: host::nproc(),
            setup_repeats: 15,
            setup_seconds: 2.0,
            nursery_rows: maimon_datasets::NURSERY_ROWS,
            tall_rows: 250_000,
            tall_page_rows: 65_536,
            serve_base_rows: 6_000,
            work_dir,
            corrupt_one_output: false,
        }
    }

    /// A configuration small enough for the self-test: the same code paths,
    /// with the paged store's data still many times its page cache.
    pub fn tiny(seed: u64, trace: bool, work_dir: PathBuf) -> Self {
        Params {
            setup_repeats: 2,
            setup_seconds: 0.0,
            nursery_rows: 1_500,
            tall_rows: 6_000,
            tall_page_rows: 512,
            serve_base_rows: 600,
            ..Params::full(seed, 0.3, trace, work_dir)
        }
    }

    /// The parameters that shape the inputs, for the fingerprint.
    pub fn describe(&self) -> String {
        format!(
            "threads={} setup_repeats={} setup_seconds={} nursery_rows={} tall_rows={} tall_page_rows={} \
             tall_cache_pages={} serve_base_rows={} serve_batch_rows={}",
            self.threads,
            self.setup_repeats,
            self.setup_seconds,
            self.nursery_rows,
            self.tall_rows,
            self.tall_page_rows,
            library::TALL_CACHE_PAGES,
            self.serve_base_rows,
            serve_mixed::BATCH_ROWS,
        )
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric { name: name.into(), value, unit: unit.into() }
    }
}

/// The per-layer metrics of one run, all of [`PER_LAYER`], zero until set.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`]: a typo in this package.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0.insert(key, value);
    }

    /// Every per-layer metric in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a correctness check.
    pub failed: u64,
    /// The bounded end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end metrics (`sweep_s_p50`,
    /// `mine_ms_tail`, `error_rate`, …), printed but not bounded.
    pub workload: Vec<Metric>,
    /// Per-layer metrics; filled by traced runs only.
    pub layers: Layers,
    /// Free-form facts about the run (sample counts, tail percentiles, the
    /// flush policy), printed as comments.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Sets the bounded end-to-end metrics, in [`END_TO_END`] order.
    pub fn set_end_to_end(&mut self, setup_s: f64, op_ms: f64, rss_mib: f64) {
        self.end_to_end = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", rss_mib, "MiB"),
            Metric::new("op_ms_p50", op_ms, "ms"),
        ];
    }
}

/// Upper limit on set-ups per run.
const MAX_SETUPS: usize = 200;

/// Whether the set-ups timed so far fall short of `share` of the run's
/// quota: `params.setup_repeats` set-ups that took `params.setup_seconds` in
/// total, at most [`MAX_SETUPS`].
fn short_of(params: &Params, times: &[f64], share: f64) -> bool {
    let part = |n: usize| ((n as f64 * share).ceil() as usize).max(1);
    times.len() < part(params.setup_repeats)
        || (times.iter().sum::<f64>() < params.setup_seconds * share
            && times.len() < part(MAX_SETUPS))
}

/// Runs the first half of the run's set-ups, before the timed window: at
/// least half of `params.setup_repeats` and until they took half of
/// `params.setup_seconds`, so that a set-up of a few milliseconds, or one
/// bound by `fsync`, still yields a steady median. [`more_setups`] runs the
/// other half after the window. Each result but the last goes to `discard`
/// outside the timed part. Returns the last result and every set-up's time.
///
/// # Errors
/// Returns the first set-up error.
pub fn repeated_setup<T>(
    params: &Params,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    while short_of(params, &times, 0.5) {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let started = Instant::now();
        last = Some(setup(times.len())?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Runs the second half of the run's set-ups, after the timed window, and
/// adds their times to `times`. A set-up bound by `fsync` or by the host's
/// load reads differently from one minute to the next; set-ups at both ends
/// of the window make `setup_s` the median over the whole run rather than
/// over its first seconds. Every result goes to `discard`.
///
/// # Errors
/// Returns the first set-up error.
pub fn more_setups<T>(
    params: &Params,
    times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(), String> {
    while short_of(params, times, 1.0) {
        let started = Instant::now();
        let result = setup(times.len())?;
        times.push(started.elapsed().as_secs_f64());
        discard(result);
    }
    Ok(())
}

/// A note on the set-up times behind `setup_s`.
pub fn setup_note(times: &[f64]) -> String {
    format!(
        "setup_s is the median of {} set-ups, half before and half after the window \
         (min {:.4} s, max {:.4} s)",
        times.len(),
        stats::percentile(times, 0.0),
        stats::percentile(times, 100.0)
    )
}

/// Runs one workload by name.
///
/// # Errors
/// Returns a message when the name is unknown or the workload could not run
/// at all (as opposed to running and failing its checks, which the report
/// counts).
pub fn run(workload: &str, params: &Params) -> Result<Report, String> {
    std::fs::create_dir_all(&params.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.work_dir.display()))?;
    let report = match workload {
        "nursery_sweep" => library::nursery_sweep(params),
        "tall_paged" => library::tall_paged(params),
        "serve_mixed" => serve_mixed::run(params),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    let _ = std::fs::remove_dir_all(&params.work_dir);
    report
}

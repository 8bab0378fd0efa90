//! The two library workloads: `nursery_sweep` (in-memory, quality depth)
//! and `tall_paged` (out-of-core, schema depth).
//!
//! Both time one cold ε-sweep per iteration: a fresh session (and therefore
//! a fresh entropy oracle) mining every threshold of the grid. The untraced
//! run drives the sweep through `MaimonSession`, as a user would. The traced
//! run builds the oracle itself, wraps it in a [`TracedOracle`] and drives
//! the same sweep through the public stage functions, timing each call from
//! here; it alternates with untraced sweeps so the tracing overhead is a
//! same-run ratio.

use crate::check::{digest, sweep_digest};
use crate::traced::TracedOracle;
use crate::{host, more_setups, repeated_setup, setup_note, stats, Metric, Params, Report};
use maimon::entropy::{EntropyOracle, PliEntropyOracle};
use maimon::relation::{AttrSet, Relation};
use maimon::storage::{
    ingest_csv, IngestOptions, PagedColumnarRelation, PagedOptions, RelationBackend,
};
use maimon::{
    evaluate_schema, mine_mvds_with, mine_schemas_with, pareto_front, MaimonConfig, MaimonSession,
    Mvd, RunControl, Span, Stage, StageCollector,
};
use maimon_datasets::SyntheticSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// `nursery_sweep`'s thresholds.
pub const NURSERY_GRID: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];
/// `tall_paged`'s thresholds.
pub const TALL_GRID: [f64; 2] = [0.0, 0.001];
/// Columns of `tall_paged`'s planted relation.
pub const TALL_COLUMNS: usize = 10;
/// Page cache of `tall_paged`'s store: the storage crate's default, 8 pages.
pub const TALL_CACHE_PAGES: usize = 8;
/// Least share of a traced sweep's wall time the timed calls must cover;
/// a traced run below it fails a check.
pub const MIN_TRACE_COVERAGE_PCT: f64 = 90.0;

/// What the sweeps run over.
enum Input {
    /// An in-memory relation, mined to quality depth.
    Memory(Arc<Relation>),
    /// A paged store, mined to schema depth (quality needs random access).
    Paged(Arc<PagedColumnarRelation>),
}

impl Input {
    fn universe(&self) -> AttrSet {
        match self {
            Input::Memory(rel) => rel.schema().all_attrs(),
            Input::Paged(store) => store.schema().all_attrs(),
        }
    }
}

/// One sweep's wall time and per-threshold digests.
struct Sweep {
    wall_s: f64,
    digests: Vec<u64>,
}

/// Per-layer measurements of one traced sweep.
#[derive(Default)]
struct TracedSweep {
    wall_s: f64,
    build_s: f64,
    mine_mvds_s: f64,
    mine_schemas_s: f64,
    quality_s: f64,
    worker_busy_s: f64,
    mine_mvds_thread_s: f64,
    stages: maimon::StageBreakdown,
    counts: [f64; 6],
    calls: f64,
    busy_s: f64,
    hit_rate: f64,
    intersections: f64,
    count_only_share: f64,
    page_misses: f64,
    page_hits: f64,
    digests: Vec<u64>,
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `rel` with its rows in an order drawn from the seed.
pub fn shuffled(rel: &Relation, seed: u64) -> Relation {
    let mut order: Vec<usize> = (0..rel.n_rows()).collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(seed));
    rel.select_rows(&order)
}

fn config(threads: usize) -> MaimonConfig {
    MaimonConfig::with_epsilon_and_threads(0.0, threads)
}

/// `base` at threshold `epsilon`.
pub fn at_epsilon(base: MaimonConfig, epsilon: f64) -> MaimonConfig {
    let mut config = base;
    config.epsilon = epsilon;
    config
}

/// Drops one MVD: the self-test's deliberately corrupted output.
fn corrupt(mvds: &[Mvd]) -> &[Mvd] {
    &mvds[..mvds.len().saturating_sub(1)]
}

/// One cold sweep through a fresh `MaimonSession`.
fn session_sweep(
    input: &Input,
    grid: &[f64],
    threads: usize,
    corrupt_last: bool,
) -> Result<Sweep, String> {
    let started = Instant::now();
    let session = match input {
        Input::Memory(rel) => MaimonSession::new(Arc::clone(rel), config(threads)),
        Input::Paged(store) => MaimonSession::from_backend(Arc::clone(store) as _, config(threads)),
    }
    .map_err(|e| e.to_string())?;
    let mut digests = Vec::with_capacity(grid.len());
    for (i, &epsilon) in grid.iter().enumerate() {
        let corrupt_here = corrupt_last && i + 1 == grid.len();
        let d = match input {
            Input::Memory(_) => {
                let result = session.quality(epsilon).map_err(|e| e.to_string())?;
                let mvds = &result.mvds.mvds;
                let mvds = if corrupt_here { corrupt(mvds) } else { mvds };
                digest(mvds, result.schemas.iter().map(|r| &r.discovered.schema))
            }
            Input::Paged(_) => {
                let schemas = session.schemas(epsilon).map_err(|e| e.to_string())?;
                let mvds = session.mvds(epsilon).map_err(|e| e.to_string())?;
                let mvds = if corrupt_here { corrupt(&mvds.mvds) } else { &mvds.mvds };
                digest(mvds, schemas.schemas.iter().map(|d| &d.schema))
            }
        };
        digests.push(d);
    }
    Ok(Sweep { wall_s: started.elapsed().as_secs_f64(), digests })
}

/// One cold sweep with the oracle built here and every public stage call
/// timed from here.
fn traced_sweep(input: &Input, grid: &[f64], threads: usize) -> Result<TracedSweep, String> {
    let mut out = TracedSweep::default();
    let before_pages = match input {
        Input::Paged(store) => Some(store.cache_stats()),
        Input::Memory(_) => None,
    };
    let base = config(threads);
    let started = Instant::now();
    let oracle = match input {
        Input::Memory(rel) => PliEntropyOracle::new(Arc::clone(rel), base.entropy),
        Input::Paged(store) => PliEntropyOracle::from_backend(Arc::clone(store) as _, base.entropy),
    };
    out.build_s = started.elapsed().as_secs_f64();
    if let Some(fault) = oracle.storage_fault() {
        return Err(fault.to_string());
    }
    let construction = oracle.stats();
    let traced = TracedOracle::new(&oracle);
    let collector = StageCollector::new();
    let ctl = RunControl::new().with_stages(&collector);
    for &epsilon in grid {
        let cfg = at_epsilon(base, epsilon);
        let t = Instant::now();
        let mvds = mine_mvds_with(&traced, &cfg, &ctl);
        let wall = t.elapsed().as_secs_f64();
        out.mine_mvds_s += wall;
        out.mine_mvds_thread_s += wall * mvds.stats.threads as f64;
        out.worker_busy_s += mvds.stats.stages.total().as_secs_f64();
        let t = Instant::now();
        let schemas = mine_schemas_with(&traced, input.universe(), &mvds.mvds, &cfg, &ctl);
        out.mine_schemas_s += t.elapsed().as_secs_f64();
        if let Input::Memory(rel) = input {
            let t = Instant::now();
            let span = Span::enter(Stage::Measure, Some(&collector));
            let mut points = Vec::with_capacity(schemas.schemas.len());
            for discovered in &schemas.schemas {
                let q = evaluate_schema(rel, &discovered.schema).map_err(|e| e.to_string())?;
                points.push((q.storage_savings_pct, q.spurious_tuples_pct));
            }
            std::hint::black_box(pareto_front(&points));
            drop(span);
            out.quality_s += t.elapsed().as_secs_f64();
        }
        let s = &mvds.stats;
        for (slot, value) in out.counts.iter_mut().zip([
            s.pairs_processed,
            s.separators_found,
            s.transversals_tested,
            s.lattice_nodes_explored,
            mvds.mvds.len(),
            schemas.schemas.len(),
        ]) {
            *slot += value as f64;
        }
        out.digests.push(digest(&mvds.mvds, schemas.schemas.iter().map(|d| &d.schema)));
    }
    out.wall_s = started.elapsed().as_secs_f64();
    if let Some(fault) = oracle.storage_fault() {
        return Err(fault.to_string());
    }
    out.stages = collector.breakdown();
    let calls = traced.call_stats();
    out.calls = calls.calls as f64;
    out.busy_s = calls.busy_s;
    let o = oracle.stats();
    let queries = o.calls - construction.calls;
    out.hit_rate = if queries == 0 {
        0.0
    } else {
        (o.cache_hits - construction.cache_hits) as f64 / queries as f64
    };
    out.intersections = o.intersections as f64;
    out.count_only_share = if o.intersections == 0 {
        0.0
    } else {
        o.count_only_intersections as f64 / o.intersections as f64
    };
    if let (Some(before), Input::Paged(store)) = (before_pages, input) {
        let after = store.cache_stats();
        out.page_misses = (after.misses - before.misses) as f64;
        out.page_hits = (after.hits - before.hits) as f64;
    }
    Ok(out)
}

/// Median of one field over the traced sweeps.
fn med(sweeps: &[TracedSweep], f: impl Fn(&TracedSweep) -> f64) -> f64 {
    stats::median(&sweeps.iter().map(f).collect::<Vec<_>>())
}

/// The timed window shared by both library workloads. `setup_times` runs
/// the second half of the set-ups and returns every set-up's time.
/// `reference` computes the untimed sequential in-memory digests every sweep
/// must match, and the wall time of that 1-thread sweep when it is
/// comparable to the timed one.
fn run_sweeps(
    params: &Params,
    input: &Input,
    grid: &[f64],
    mut report: Report,
    setup_times: impl FnOnce() -> Result<Vec<f64>, String>,
    reference: impl FnOnce() -> Result<(Vec<u64>, Option<f64>), String>,
) -> Result<Report, String> {
    let mut untraced: Vec<Sweep> = Vec::new();
    let mut traced: Vec<TracedSweep> = Vec::new();
    let window = Instant::now();
    loop {
        let corrupt = params.corrupt_one_output && untraced.is_empty();
        untraced.push(session_sweep(input, grid, params.threads, corrupt)?);
        if params.trace {
            traced.push(traced_sweep(input, grid, params.threads)?);
        }
        if window.elapsed().as_secs_f64() >= params.seconds {
            break;
        }
    }
    let rss = host::peak_rss_mib();
    if let Input::Paged(store) = input {
        let resident = store.cache_stats().resident_bytes as f64 / (1024.0 * 1024.0);
        report.layers.set("storage.resident_mib", resident);
    }
    let setup_times = setup_times()?;
    let setup_s = stats::median(&setup_times);
    report.notes.push(setup_note(&setup_times));
    if let Input::Paged(_) = input {
        report.layers.set("storage.ingest_s", setup_s);
    }

    let (expected, sequential_s) = reference()?;
    let expected = sweep_digest(&expected);
    for d in untraced.iter().map(|s| &s.digests).chain(traced.iter().map(|s| &s.digests)) {
        report.record(sweep_digest(d) == expected);
    }

    let sweep_s: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let sweep_p50 = stats::median(&sweep_s);
    report.set_end_to_end(setup_s, sweep_p50 * 1e3, rss);
    report.workload.push(Metric::new("sweep_s_p50", sweep_p50, "s"));
    report.notes.push(format!(
        "{} untraced sweeps of {} thresholds at {} threads",
        sweep_s.len(),
        grid.len(),
        params.threads
    ));

    if params.trace {
        let l = &mut report.layers;
        let wall = med(&traced, |t| t.wall_s);
        l.set("entropy.build_s", med(&traced, |t| t.build_s));
        l.set("entropy.calls", med(&traced, |t| t.calls));
        l.set("entropy.hit_rate", med(&traced, |t| t.hit_rate));
        l.set("entropy.intersections", med(&traced, |t| t.intersections));
        l.set("entropy.count_only_share", med(&traced, |t| t.count_only_share));
        l.set("entropy.busy_s", med(&traced, |t| t.busy_s));
        l.set("storage.page_misses", med(&traced, |t| t.page_misses));
        l.set("storage.page_hits", med(&traced, |t| t.page_hits));
        l.set("core.mine_mvds_s", med(&traced, |t| t.mine_mvds_s));
        l.set("core.mine_schemas_s", med(&traced, |t| t.mine_schemas_s));
        l.set("core.quality_s", med(&traced, |t| t.quality_s));
        l.set("hypergraph.transversal_s", med(&traced, |t| t.stages.transversal.as_secs_f64()));
        l.set("core.stage.mine_min_seps_s", med(&traced, |t| t.stages.mine_min_seps.as_secs_f64()));
        l.set("core.stage.full_mvds_s", med(&traced, |t| t.stages.full_mvds.as_secs_f64()));
        l.set("core.stage.reduce_s", med(&traced, |t| t.stages.reduce.as_secs_f64()));
        l.set("core.stage.measure_s", med(&traced, |t| t.stages.measure.as_secs_f64()));
        for (i, name) in [
            "core.pairs",
            "core.separators",
            "core.transversals_tested",
            "core.lattice_nodes",
            "core.mvds",
            "core.schemas",
        ]
        .into_iter()
        .enumerate()
        {
            l.set(name, med(&traced, |t| t.counts[i]));
        }
        l.set(
            "core.fanout_utilization",
            med(&traced, |t| t.worker_busy_s / t.mine_mvds_thread_s.max(1e-12)),
        );
        if let Some(sequential_s) = sequential_s {
            l.set("core.par_speedup", sequential_s / sweep_p50);
        }
        l.set("obs.trace_overhead_pct", 100.0 * (wall / sweep_p50 - 1.0));
        let coverage = 100.0
            * med(&traced, |t| {
                (t.build_s + t.mine_mvds_s + t.mine_schemas_s + t.quality_s) / t.wall_s
            });
        l.set("obs.trace_coverage_pct", coverage);
        // The timed public calls must explain the traced sweep; a gap means
        // the per-layer numbers miss where the time went.
        let covered = coverage >= MIN_TRACE_COVERAGE_PCT;
        if !covered {
            report.notes.push(format!(
                "trace coverage {coverage:.1} % is below {MIN_TRACE_COVERAGE_PCT} %"
            ));
        }
        report.record(covered);
        report.notes.push(format!(
            "{} traced sweeps; entropy calls timed 1 in {}",
            traced.len(),
            crate::traced::SAMPLE_EVERY
        ));
    }
    report.workload.push(Metric::new("error_rate", report.error_rate(), "ratio"));
    Ok(report)
}

/// `nursery_sweep`: cold quality sweeps over the seeded Nursery relation.
///
/// # Errors
/// Returns a message if a session cannot be built or a stage fails outright.
pub fn nursery_sweep(params: &Params) -> Result<Report, String> {
    let build = |_: usize| -> Result<Arc<Relation>, String> {
        Ok(Arc::new(shuffled(
            &maimon_datasets::nursery_with_rows(params.nursery_rows),
            params.seed,
        )))
    };
    let (rel, mut setup_times) = repeated_setup(params, build, drop)?;
    let input = Input::Memory(Arc::clone(&rel));
    let setup_times = move || {
        more_setups(params, &mut setup_times, build, drop)?;
        Ok(setup_times)
    };
    let reference = || {
        let sweep = session_sweep(&Input::Memory(rel), &NURSERY_GRID, 1, false)?;
        Ok((sweep.digests, Some(sweep.wall_s)))
    };
    run_sweeps(params, &input, &NURSERY_GRID, Report::default(), setup_times, reference)
}

/// `tall_paged`'s input: a planted relation whose contents are fixed, in
/// rows ordered by the seed. Generating the contents from the seed would
/// change the mined structure, and with it the cost of a sweep, from seed to
/// seed; shuffling changes neither, as on `nursery_sweep`.
fn tall_relation(params: &Params) -> Result<Relation, String> {
    let spec =
        SyntheticSpec { rows: params.tall_rows, columns: TALL_COLUMNS, ..SyntheticSpec::default() };
    let rel = maimon_datasets::planted_acyclic_relation(&spec).map_err(|e| e.to_string())?;
    Ok(shuffled(&rel, params.seed))
}

/// `tall_paged`: cold schema sweeps over a planted relation streamed from
/// CSV into a paged store whose cache is far smaller than its data.
///
/// # Errors
/// Returns a message if the CSV cannot be written or ingested, or a session
/// cannot be mounted.
pub fn tall_paged(params: &Params) -> Result<Report, String> {
    let csv = params.work_dir.join("tall.csv");
    let text = maimon::relation::relation_to_csv(&tall_relation(params)?, ',');
    std::fs::write(&csv, text).map_err(|e| format!("{}: {e}", csv.display()))?;
    let options = IngestOptions {
        paged: PagedOptions {
            page_rows: params.tall_page_rows,
            cache_pages: TALL_CACHE_PAGES,
            dataset: "tall_paged".into(),
        },
        ..IngestOptions::default()
    };
    let ingest = |_| {
        let file = std::fs::File::open(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        ingest_csv(std::io::BufReader::new(file), &options).map(Arc::new).map_err(|e| e.to_string())
    };
    let (store, mut setup_times) = repeated_setup(params, ingest, drop)?;
    let input = Input::Paged(Arc::clone(&store));
    let setup_times = move || {
        more_setups(params, &mut setup_times, ingest, drop)?;
        Ok(setup_times)
    };
    let reference = || {
        let session =
            MaimonSession::new(tall_relation(params)?, config(1)).map_err(|e| e.to_string())?;
        let mut digests = Vec::new();
        for &epsilon in &TALL_GRID {
            let schemas = session.schemas(epsilon).map_err(|e| e.to_string())?;
            let mvds = session.mvds(epsilon).map_err(|e| e.to_string())?;
            digests.push(digest(&mvds.mvds, schemas.schemas.iter().map(|d| &d.schema)));
        }
        // The reference reads memory, not pages: its time is no
        // sequential twin of the timed sweep.
        Ok((digests, None))
    };
    let mut report = Report::default();
    let cells = (params.tall_rows * TALL_COLUMNS * 4) as f64 / (1024.0 * 1024.0);
    report.notes.push(format!(
        "{} rows x {} columns: {:.1} MiB of codes behind a {}-page cache of {} rows per page",
        params.tall_rows, TALL_COLUMNS, cells, TALL_CACHE_PAGES, params.tall_page_rows
    ));
    let outcome = run_sweeps(params, &input, &TALL_GRID, report, setup_times, reference);
    let _ = std::fs::remove_file(&csv);
    outcome
}

//! `serve_mixed`: a closed loop of `nproc` persistent client connections
//! against an in-process `serve()` with `nproc` workers.
//!
//! Both datasets are registered durable in a scratch data dir, so every
//! acknowledged append has had its WAL record written and fsync'd first
//! (the server's only flush policy: one fsync per append, before the ack).
//! Each client is one tenant, sends its next request only after the
//! previous response line arrived, writes each request line with a single
//! write on a socket with `TCP_NODELAY`, and times from that write to the
//! last byte of the response line.

use crate::check::digest;
use crate::library::{at_epsilon, shuffle, shuffled};
use crate::{host, more_setups, repeated_setup, setup_note, stats, Metric, Params, Report};
use maimon::entropy::PliEntropyOracle;
use maimon::json::Json;
use maimon::relation::Relation;
use maimon::wire::FromJson;
use maimon::{mine_mvds_with, MaimonConfig, MaimonResult, MaimonSession, RunControl};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{serve, DatasetRegistry, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per append batch.
pub const BATCH_ROWS: usize = 10;
/// Thresholds mined and decomposed; on the two datasets the `mine`
/// responses range from ~1 KB (Nursery, ε = 0) to ~0.6 MB (bridges8, ε = 0.2).
/// At ε = 0.3 the best Nursery schema has two bags, so `decompose` runs the
/// semijoin reducer; every other (dataset, ε) decomposes into a single bag.
pub const GRID: [f64; 3] = [0.0, 0.2, 0.3];
/// The served datasets. Appends go to `nursery` only, so its mines turn
/// cold after each append while `bridges8` keeps serving cached artifacts.
const DATASETS: [&str; 2] = ["nursery", "bridges8"];
/// One request of the schedule: operation, dataset and threshold.
type Step = (&'static str, &'static str, f64);

/// One cycle of the schedule: 60 % `mine`, 20 % `append`, 10 % `stats` and
/// 10 % `decompose`, every (dataset, ε) equally often. Each client replays
/// it in a fresh seeded order per cycle, so the seed moves the order of the
/// work but not its mix, and runs with different seeds stay comparable.
fn deck() -> Vec<Step> {
    let mut deck = Vec::with_capacity(60);
    for dataset in DATASETS {
        for epsilon in GRID {
            deck.extend(std::iter::repeat_n(("mine", dataset, epsilon), 6));
            deck.push(("decompose", dataset, epsilon));
        }
    }
    deck.extend(std::iter::repeat_n(("append", "nursery", 0.0), 12));
    deck.extend(std::iter::repeat_n(("stats", "", 0.0), 6));
    deck
}

/// `serve_mixed`'s operation: one cycle of the [`deck`], timed as the sum
/// over its requests of the median latency of the request's kind. Every
/// kind moves it in proportion to its share of the cycle, so a slower
/// append or `stats` shows even though `mine` makes up most requests. The
/// per-kind medians keep it steady where a measured cycle is not: whether a
/// `nursery` mine is cold depends on how appends interleave with it, and a
/// 30 s window holds only a handful of whole cycles.
fn deck_cycle_ms(p50: impl Fn(&str) -> f64) -> f64 {
    deck().iter().map(|(op, _, _)| p50(op)).sum()
}

/// One persistent connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader, line: Vec::new() })
    }

    /// Sends one request line (a single write) and reads the response line;
    /// returns the latency in milliseconds.
    fn call(&mut self, request: &str) -> Result<f64, String> {
        let started = Instant::now();
        self.stream.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
        self.line.clear();
        let n = self.reader.read_until(b'\n', &mut self.line).map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err("connection closed mid-response".into());
        }
        Ok(ms)
    }

    /// The last response, parsed.
    fn response(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.line).map_err(|e| e.to_string())?;
        Json::parse(text.trim_end()).map_err(|e| e.to_string())
    }

    /// The top-level fields [`CHECKED_FIELDS`] of the last response, as an
    /// object; every other field is skipped unparsed.
    fn checked_fields(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.line).map_err(|e| e.to_string())?;
        top_level_fields(text.trim_end(), &CHECKED_FIELDS)
    }

    /// Sends a request and returns its parsed response, failing on `ok: false`.
    fn request(&mut self, request: &str) -> Result<Json, String> {
        self.call(request)?;
        let response = self.response()?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request {} failed: {response}", request.trim_end()));
        }
        Ok(response)
    }
}

/// The response fields the closed loop checks.
const CHECKED_FIELDS: [&str; 6] = ["ok", "kind", "dataset", "data_version", "datasets", "reducer"];

/// The fields `keys` of the JSON object `text`, parsed; the others are
/// skipped without allocating. A `mine` response carries a result of up to
/// ~0.6 MB the loop does not read, and a parsed tree of it, built on two
/// client threads at once, would add several MiB of the benchmark's own
/// memory to the server's `peak_rss_mib`, by how the two happened to overlap.
fn top_level_fields(text: &str, keys: &[&str]) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let bad = |at: usize| format!("malformed response at byte {at}");
    let skip_ws = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    };
    // The end of the string that opens at `i`.
    let string_end = |mut i: usize| {
        i += 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Ok(i + 1),
                _ => i += 1,
            }
        }
        Err(bad(i))
    };
    // The end of the value that starts at `i`.
    let value_end = |mut i: usize| {
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    i = string_end(i)?;
                    if depth == 0 {
                        return Ok(i);
                    }
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth == 0 => return Ok(i),
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(i + 1);
                    }
                }
                b',' if depth == 0 => return Ok(i),
                _ => {}
            }
            i += 1;
        }
        Err(bad(i))
    };
    let mut fields = Vec::new();
    let mut i = skip_ws(0);
    if bytes.get(i) != Some(&b'{') {
        return Err(bad(i));
    }
    i = skip_ws(i + 1);
    while bytes.get(i) == Some(&b'"') {
        let key_end = string_end(i)?;
        let key = Json::parse(&text[i..key_end]).map_err(|e| e.to_string())?;
        i = skip_ws(key_end);
        if bytes.get(i) != Some(&b':') {
            return Err(bad(i));
        }
        let start = skip_ws(i + 1);
        let end = value_end(start)?;
        if let Some(key) = key.as_str().filter(|k| keys.contains(k)) {
            let value = Json::parse(&text[start..end]).map_err(|e| e.to_string())?;
            fields.push((key.to_string(), value));
        }
        i = skip_ws(end);
        if bytes.get(i) == Some(&b',') {
            i = skip_ws(i + 1);
        }
    }
    if bytes.get(i) != Some(&b'}') {
        return Err(bad(i));
    }
    Ok(Json::object(fields))
}

fn line(fields: Vec<(&str, Json)>) -> String {
    let mut text = Json::object(fields).to_string();
    text.push('\n');
    text
}

fn mine_line(op: &str, dataset: &str, epsilon: f64, tenant: &str) -> String {
    line(vec![
        ("op", Json::from(op)),
        ("dataset", Json::from(dataset)),
        ("epsilon", Json::Float(epsilon)),
        ("tenant", Json::from(tenant)),
    ])
}

/// The served inputs: the Nursery prefix, the append batches drawn from the
/// rest of Nursery, and bridges8.
struct Inputs {
    nursery: Relation,
    batches: Vec<Vec<Vec<String>>>,
    bridges: Relation,
}

/// The row order of Nursery that the served prefix and the append batches
/// are cut from. It is fixed rather than drawn from the seed, so every seed
/// serves the same rows: seeded 6000-row prefixes are different samples of
/// Nursery, which mined between 28 and 38 MVDs over the grid. The seed
/// orders each client's schedule.
const NURSERY_ORDER: u64 = 1;

fn inputs(params: &Params) -> Result<Inputs, String> {
    let all = shuffled(&maimon_datasets::nursery(), NURSERY_ORDER);
    let base_rows = params.serve_base_rows.min(all.n_rows() - BATCH_ROWS);
    let nursery = all.head(base_rows);
    let batches = (base_rows..all.n_rows())
        .collect::<Vec<_>>()
        .chunks_exact(BATCH_ROWS)
        .map(|rows| {
            rows.iter().map(|&r| all.row(r).into_iter().map(str::to_string).collect()).collect()
        })
        .collect();
    let bridges = maimon_datasets::dataset_by_name("Bridges")
        .ok_or("Bridges is missing from the catalog")?
        .generate(1.0)
        .column_prefix(8)
        .map_err(|e| e.to_string())?;
    Ok(Inputs { nursery, batches, bridges })
}

/// Served sessions mine on one thread each, so `nproc` workers run at most
/// `nproc` mining threads.
fn served_config() -> MaimonConfig {
    MaimonConfig::with_epsilon_and_threads(0.0, 1)
}

/// The timed set-up: registers both datasets durable under a fresh data
/// dir and binds the server.
fn start(params: &Params, inputs: &Inputs, attempt: usize) -> Result<ServerHandle, String> {
    let dir = params.work_dir.join(format!("data-{attempt}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let registry = Arc::new(DatasetRegistry::new());
    for (name, rel) in [("nursery", &inputs.nursery), ("bridges8", &inputs.bridges)] {
        registry
            .register_durable(name, rel.clone(), served_config(), &dir)
            .map_err(|e| e.to_string())?;
    }
    let config = ServerConfig { workers: params.threads, ..ServerConfig::default() };
    serve(registry, config).map_err(|e| format!("bind: {e}"))
}

/// The untimed pass that mines every (dataset, ε) once before the window.
fn warm(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    for dataset in DATASETS {
        for epsilon in GRID {
            client.call(&mine_line("mine", dataset, epsilon, "warm"))?;
            let response = client.checked_fields()?;
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("warm-up mine of {dataset} at {epsilon} failed: {response}"));
            }
        }
    }
    Ok(())
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies: BTreeMap<&'static str, Vec<f64>>,
    mine_bytes: Vec<f64>,
    acked: Vec<(u64, usize)>,
    semijoins: Vec<f64>,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    errors: Vec<String>,
}

/// Checks one response; records what the final checks and metrics need.
fn check_response(
    op: &'static str,
    response: &Json,
    batch: Option<usize>,
    versions: &mut BTreeMap<String, u64>,
    log: &mut ClientLog,
) -> Result<(), String> {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        if response.get("kind").and_then(Json::as_str) == Some("overloaded") {
            log.overloaded += 1;
        }
        return Err(format!("{op} failed: {response}"));
    }
    let mut seen: Vec<(String, u64)> = Vec::new();
    let stamp = |json: &Json, name: &str| -> Result<(String, u64), String> {
        let dataset = json.get(name).and_then(Json::as_str).ok_or("response without a dataset")?;
        let version = json
            .get("data_version")
            .and_then(Json::as_i128)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or("response without a data_version")?;
        Ok((dataset.to_string(), version))
    };
    if op == "stats" {
        for dataset in
            response.get("datasets").and_then(Json::as_array).ok_or("stats without datasets")?
        {
            seen.push(stamp(dataset, "name")?);
        }
    } else {
        seen.push(stamp(response, "dataset")?);
    }
    for (dataset, version) in seen {
        let last = versions.entry(dataset.clone()).or_insert(0);
        if version < *last {
            return Err(format!("{dataset}: data_version went back from {last} to {version}"));
        }
        *last = version;
        if let Some(batch) = batch {
            log.acked.push((version, batch));
        }
    }
    if op == "decompose" {
        let semijoins =
            response.get("reducer").and_then(|r| r.get("semijoins")).and_then(Json::as_f64);
        log.semijoins.push(semijoins.ok_or("decompose without reducer stats")?);
    }
    Ok(())
}

/// One client's closed loop over its seeded schedule.
fn client_loop(
    addr: SocketAddr,
    index: usize,
    params: &Params,
    inputs: &Inputs,
    next_batch: &AtomicUsize,
    window: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.attempted += 1;
            log.failed += 1;
            log.errors.push(e);
            return log;
        }
    };
    let tenant = format!("client{index}");
    let mut rng = StdRng::seed_from_u64(
        params.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)),
    );
    let mut versions = BTreeMap::new();
    let mut deck = deck();
    let mut next = deck.len();
    while window.elapsed().as_secs_f64() < params.seconds {
        if next == deck.len() {
            shuffle(&mut deck, &mut rng);
            next = 0;
        }
        let (op, dataset, epsilon) = deck[next];
        next += 1;
        let mut batch = None;
        let request = match op {
            "mine" | "decompose" => mine_line(op, dataset, epsilon, &tenant),
            "append" => {
                let b = next_batch.fetch_add(1, Ordering::Relaxed) % inputs.batches.len();
                batch = Some(b);
                let rows = Json::array(
                    inputs.batches[b]
                        .iter()
                        .map(|row| Json::array(row.iter().map(|v| Json::from(v.as_str())))),
                );
                line(vec![
                    ("op", Json::from("append")),
                    ("dataset", Json::from("nursery")),
                    ("rows", rows),
                    ("tenant", Json::from(tenant.as_str())),
                ])
            }
            _ => line(vec![("op", Json::from("stats"))]),
        };
        log.attempted += 1;
        let outcome = client.call(&request).and_then(|ms| {
            let response = client.checked_fields()?;
            check_response(op, &response, batch, &mut versions, &mut log)?;
            Ok(ms)
        });
        match outcome {
            Ok(ms) => {
                log.latencies.entry(op).or_default().push(ms);
                if op == "mine" {
                    log.mine_bytes.push(client.line.len() as f64);
                }
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 3 {
                    log.errors.push(e);
                }
            }
        }
    }
    log
}

/// Histogram buckets and sums, keyed by metric name and one label value,
/// from a `metrics` response.
#[derive(Default)]
struct Histograms(BTreeMap<(String, String), (Vec<u64>, u64)>);

impl Histograms {
    fn read(client: &mut Client) -> Result<Self, String> {
        let response = client.request(&line(vec![("op", Json::from("metrics"))]))?;
        let mut out = Histograms::default();
        for metric in
            response.get("metrics").and_then(Json::as_array).ok_or("metrics without metrics")?
        {
            let (Some(name), Some(value)) =
                (metric.get("name").and_then(Json::as_str), metric.get("value"))
            else {
                continue;
            };
            let Some(buckets) = value.get("buckets").and_then(Json::as_array) else { continue };
            let label = ["op", "stage", "dataset"]
                .iter()
                .find_map(|key| {
                    metric.get("labels").and_then(|l| l.get(key)).and_then(Json::as_str)
                })
                .unwrap_or("")
                .to_string();
            let entry = out
                .0
                .entry((name.to_string(), label))
                .or_insert_with(|| (vec![0; buckets.len()], 0));
            for (slot, b) in entry.0.iter_mut().zip(buckets) {
                *slot += b.as_i128().and_then(|v| u64::try_from(v).ok()).unwrap_or(0);
            }
            entry.1 += value
                .get("sum")
                .and_then(Json::as_i128)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(0);
        }
        Ok(out)
    }

    /// `self − before` for one histogram: (buckets, sum).
    fn since(&self, before: &Histograms, name: &str, label: &str) -> (Vec<u64>, u64) {
        let key = (name.to_string(), label.to_string());
        let (now, now_sum) = self.0.get(&key).cloned().unwrap_or_default();
        let (then, then_sum) = before.0.get(&key).cloned().unwrap_or_default();
        let buckets =
            now.iter().enumerate().map(|(i, n)| n - then.get(i).copied().unwrap_or(0)).collect();
        (buckets, now_sum - then_sum)
    }
}

/// Server counters read through the `metrics` and `stats` ops.
struct Snapshot {
    histograms: Histograms,
    /// Oracle counters summed over datasets.
    oracle: BTreeMap<String, f64>,
    /// Requests the admission controller shed.
    shed: f64,
    resident_bytes: f64,
}

impl Snapshot {
    /// Reads both ops on a connection of its own, closed on return: every
    /// connection pins a server worker until it closes.
    fn read(addr: SocketAddr) -> Result<Self, String> {
        let mut client = Client::connect(addr)?;
        let histograms = Histograms::read(&mut client)?;
        let response = client.request(&line(vec![("op", Json::from("stats"))]))?;
        let mut oracle = BTreeMap::new();
        let mut resident_bytes = 0.0;
        for dataset in
            response.get("datasets").and_then(Json::as_array).ok_or("stats without datasets")?
        {
            if let Some(fields) = dataset.get("oracle").and_then(Json::as_object) {
                for (key, value) in fields {
                    *oracle.entry(key.clone()).or_insert(0.0) += value.as_f64().unwrap_or(0.0);
                }
            }
            resident_bytes += dataset.get("resident_bytes").and_then(Json::as_f64).unwrap_or(0.0);
        }
        let admission = response.get("admission");
        let shed = ["shed_tenant_cap", "shed_queue_full"]
            .iter()
            .filter_map(|k| admission.and_then(|a| a.get(k)).and_then(Json::as_f64))
            .sum();
        Ok(Snapshot { histograms, oracle, shed, resident_bytes })
    }
}

/// Times the acknowledged append batches, in version order, through
/// `Relation::append_rows` (behind the clone `MaimonSession::append_rows`
/// makes) and `PliEntropyOracle::extend_to`, over an oracle warmed by
/// mining the grid once. Returns (append ms, extend ms) samples.
fn replay_appends(
    base: &Relation,
    batches: &[&Vec<Vec<String>>],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let config = served_config();
    let mut rel = Arc::new(base.clone());
    let mut oracle = PliEntropyOracle::new(Arc::clone(&rel), config.entropy);
    for epsilon in GRID {
        mine_mvds_with(&oracle, &at_epsilon(config, epsilon), &RunControl::new());
    }
    let (mut append_ms, mut extend_ms) = (Vec::new(), Vec::new());
    for batch in batches {
        let t = Instant::now();
        let mut next = (*rel).clone();
        next.append_rows(batch).map_err(|e| e.to_string())?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rel = Arc::new(next);
        let t = Instant::now();
        oracle = oracle.extend_to(Arc::clone(&rel));
        extend_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((append_ms, extend_ms))
}

/// Runs the workload.
///
/// # Errors
/// Returns a message if the server cannot be set up at all.
pub fn run(params: &Params) -> Result<Report, String> {
    let inputs = inputs(params)?;
    let (server, setup_times) =
        repeated_setup(params, |attempt| start(params, &inputs, attempt), ServerHandle::shutdown)?;
    let addr = server.local_addr();
    let outcome = warm(addr).and_then(|()| measure(params, &inputs, addr, setup_times));
    server.shutdown();
    outcome
}

fn measure(
    params: &Params,
    inputs: &Inputs,
    addr: SocketAddr,
    mut setup_times: Vec<f64>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let trace_started = Instant::now();
    let before = if params.trace { Some(Snapshot::read(addr)?) } else { None };
    let mut trace_s = trace_started.elapsed().as_secs_f64();

    let next_batch = AtomicUsize::new(0);
    let window = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..params.threads)
            .map(|i| {
                let next_batch = &next_batch;
                scope.spawn(move || client_loop(addr, i, params, inputs, next_batch, window))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let window_s = window.elapsed().as_secs_f64();
    let rss = host::peak_rss_mib();

    let mut latencies: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut mine_bytes = Vec::new();
    let mut acked = Vec::new();
    let mut semijoins = Vec::new();
    let mut overloaded = 0;
    for log in logs {
        for (op, samples) in log.latencies {
            latencies.entry(op).or_default().extend(samples);
        }
        mine_bytes.extend(log.mine_bytes);
        acked.extend(log.acked);
        semijoins.extend(log.semijoins);
        report.attempted += log.attempted;
        report.failed += log.failed;
        overloaded += log.overloaded;
        for e in log.errors {
            report.notes.push(format!("failed request: {e}"));
        }
    }
    acked.sort_unstable();

    let trace_started = Instant::now();
    let after = if params.trace { Some(Snapshot::read(addr)?) } else { None };
    trace_s += trace_started.elapsed().as_secs_f64();
    // The second half of the set-ups, each a server of its own beside the
    // idle measured one, after the counters were read.
    more_setups(
        params,
        &mut setup_times,
        |attempt| start(params, inputs, attempt),
        ServerHandle::shutdown,
    )?;
    report.notes.push(setup_note(&setup_times));

    // Final gate: what the server serves now must equal a fresh library
    // session over the base rows plus every acknowledged append, in the
    // order the server versioned them.
    let mut probe = Client::connect(addr)?;
    let applied: Vec<&Vec<Vec<String>>> = acked.iter().map(|&(_, b)| &inputs.batches[b]).collect();
    let mut nursery = inputs.nursery.clone();
    for batch in &applied {
        nursery.append_rows(batch).map_err(|e| e.to_string())?;
    }
    for (name, rel) in [("nursery", nursery), ("bridges8", inputs.bridges.clone())] {
        let expected_version = rel.data_version();
        let session = MaimonSession::new(rel, served_config()).map_err(|e| e.to_string())?;
        for (i, &epsilon) in GRID.iter().enumerate() {
            let library = session.quality(epsilon).map_err(|e| e.to_string())?;
            let expected =
                digest(&library.mvds.mvds, library.schemas.iter().map(|r| &r.discovered.schema));
            let served =
                probe.request(&mine_line("mine", name, epsilon, "check")).and_then(|response| {
                    let version = response.get("data_version").and_then(Json::as_i128);
                    if version != Some(i128::from(expected_version)) {
                        return Err(format!(
                            "{name}: served data_version {version:?}, expected {expected_version}"
                        ));
                    }
                    let result = response.get("result").ok_or("mine without a result")?;
                    MaimonResult::from_json(result).map_err(|e| e.to_string())
                });
            let ok = match served {
                Ok(mut served) => {
                    if params.corrupt_one_output && name == "bridges8" && i + 1 == GRID.len() {
                        served.mvds.mvds.pop();
                    }
                    digest(&served.mvds.mvds, served.schemas.iter().map(|r| &r.discovered.schema))
                        == expected
                }
                Err(e) => {
                    report.notes.push(format!("final check: {e}"));
                    false
                }
            };
            if !ok {
                report.notes.push(format!("final check failed: {name} at epsilon {epsilon}"));
            }
            report.record(ok);
        }
    }

    let all: Vec<f64> = latencies.values().flatten().copied().collect();
    let p50 = |op: &str| stats::median(latencies.get(op).map_or(&[][..], Vec::as_slice));
    report.set_end_to_end(stats::median(&setup_times), deck_cycle_ms(p50), rss);
    let w = &mut report.workload;
    for op in ["mine", "append", "decompose", "stats"] {
        let samples = latencies.get(op).map_or(&[][..], Vec::as_slice);
        w.push(Metric::new(format!("{op}_ms_p50"), p50(op), "ms"));
        if op == "mine" || op == "append" {
            let (pct, value) = stats::tail(samples);
            w.push(Metric::new(format!("{op}_ms_tail"), value, "ms"));
            report.notes.push(format!("{op}_ms_tail is p{pct} of {} samples", samples.len()));
        } else {
            report.notes.push(format!("{op}: {} samples", samples.len()));
        }
    }
    report.workload.push(Metric::new("requests_per_s", all.len() as f64 / window_s, "1/s"));
    report.workload.push(Metric::new("error_rate", report.error_rate(), "ratio"));
    report.notes.push(format!(
        "closed loop: {} clients, one tenant and one persistent connection each, {} server workers; \
         appends are durable (WAL record fsync'd before each ack); {} appends acked",
        params.threads,
        params.threads,
        acked.len()
    ));

    if let (Some(s0), Some(s1)) = (before, after) {
        let (h0, h1) = (&s0.histograms, &s1.histograms);
        let l = &mut report.layers;
        let mut dispatch_ns = 0u64;
        for op in ["mine", "append", "stats", "decompose"] {
            let (buckets, sum) = h1.since(h0, "maimon_request_duration_ns", op);
            dispatch_ns += sum;
            let dispatch_ms = stats::histogram_median(&buckets) / 1e6;
            let client_ms = stats::median(latencies.get(op).map_or(&[][..], Vec::as_slice));
            l.set(&format!("serve.dispatch_ms_p50.{op}"), dispatch_ms);
            l.set(&format!("serve.outside_dispatch_ms_p50.{op}"), client_ms - dispatch_ms);
        }
        l.set("serve.response_kib_p50.mine", stats::median(&mine_bytes) / 1024.0);
        l.set("serve.overloaded", overloaded as f64 + (s1.shed - s0.shed));
        let wal = h1.since(h0, "maimon_wal_append_duration_ns", "nursery").0;
        l.set("storage.wal_append_ms_p50", stats::histogram_median(&wal) / 1e6);
        l.set("storage.resident_mib", s1.resident_bytes / (1024.0 * 1024.0));
        let stage_s = |stage: &str| h1.since(h0, "maimon_stage_duration_ns", stage).1 as f64 * 1e-9;
        l.set("core.stage.mine_min_seps_s", stage_s("mine_min_seps"));
        l.set("core.stage.full_mvds_s", stage_s("full_mvds"));
        l.set("core.stage.reduce_s", stage_s("reduce"));
        l.set("core.stage.measure_s", stage_s("measure"));
        l.set("hypergraph.transversal_s", stage_s("transversal"));
        l.set(
            "core.mine_mvds_s",
            stage_s("mine_min_seps") + stage_s("full_mvds") + stage_s("reduce"),
        );
        l.set("core.mine_schemas_s", stage_s("transversal"));
        l.set("core.quality_s", stage_s("measure"));
        let d = |key: &str| {
            s1.oracle.get(key).copied().unwrap_or(0.0) - s0.oracle.get(key).copied().unwrap_or(0.0)
        };
        l.set("entropy.calls", d("calls"));
        l.set(
            "entropy.hit_rate",
            if d("calls") > 0.0 { d("cache_hits") / d("calls") } else { 0.0 },
        );
        l.set("entropy.intersections", d("intersections"));
        l.set(
            "entropy.count_only_share",
            if d("intersections") > 0.0 {
                d("count_only_intersections") / d("intersections")
            } else {
                0.0
            },
        );
        l.set("entropy.delta_refreshes", d("delta_refreshes"));
        // A mean, not a median: most (dataset, ε) decompose into a single
        // bag, which needs no semijoin, so the median is 0.
        let mean_semijoins = semijoins.iter().sum::<f64>() / semijoins.len().max(1) as f64;
        l.set("decompose.semijoins", mean_semijoins);
        let client_ms: f64 = all.iter().sum();
        l.set("obs.trace_coverage_pct", 100.0 * dispatch_ns as f64 / 1e6 / client_ms.max(1e-9));
        l.set("obs.trace_overhead_pct", 100.0 * trace_s / window_s);
        let (append_ms, extend_ms) = replay_appends(&inputs.nursery, &applied)?;
        l.set("relation.append_ms_p50", stats::median(&append_ms));
        l.set("entropy.extend_ms_p50", stats::median(&extend_ms));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::top_level_fields;
    use maimon::json::Json;

    #[test]
    fn top_level_fields_skips_what_it_does_not_read() {
        let line = r#"{"ok": true, "result": {"a": [1, {"b": "}],\"{"}], "c": "x,y"}, "data_version": 7, "reducer": {"semijoins": 2}}"#;
        let fields = top_level_fields(line, &["ok", "data_version", "reducer", "kind"]).unwrap();
        assert_eq!(fields.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(fields.get("data_version").and_then(Json::as_i128), Some(7));
        let semijoins = fields.get("reducer").and_then(|r| r.get("semijoins"));
        assert_eq!(semijoins.and_then(Json::as_f64), Some(2.0));
        assert!(fields.get("result").is_none() && fields.get("kind").is_none());
        assert_eq!(Json::parse(line).unwrap().get("data_version"), fields.get("data_version"));
    }

    #[test]
    fn top_level_fields_rejects_a_cut_line() {
        assert!(top_level_fields(r#"{"ok": true, "result": {"a": [1, 2"#, &["ok"]).is_err());
        assert!(top_level_fields(r#"[1, 2]"#, &["ok"]).is_err());
    }
}

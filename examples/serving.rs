//! Serving walkthrough: stand up the Maimon TCP service in-process, register
//! two datasets, and talk to it as a client would — line-delimited JSON
//! requests (`ping`, `list`, `mine` with a deadline, `stats`) over a loopback
//! socket.
//!
//! The server shares one owned [`maimon::MaimonSession`] per dataset, so the
//! second `mine` at the same threshold is a pure cache hit; the `stats`
//! response at the end makes that visible (oracle counters, cached epsilons,
//! registry hits). A `timeout_ms` deadline yields a well-formed partial
//! flagged `truncated`, never an error.
//!
//! Run with: `cargo run --release --example serving`

use maimon::json::Json;
use maimon::MaimonConfig;
use maimon_datasets::{dataset_by_name, running_example};
use serve::{serve, AdmissionConfig, DatasetRegistry, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One request/response exchange, the way any client in any language would
/// do it: connect, write one JSON line, read one JSON line back. The line
/// goes out in a single write, newline included — a request split across
/// writes can sit behind Nagle's algorithm on a persistent connection.
fn roundtrip(addr: SocketAddr, line: &str) -> Result<Json, Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response)?;
    Ok(Json::parse(response.trim())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Maimon-as-a-service: the serving walkthrough ===\n");

    // 1. A registry of long-lived datasets. `register` builds the shared
    //    session (and validates the relation/config pair) up front, so the
    //    first request never pays a cold-start surprise.
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("running", running_example(), MaimonConfig::default())?;
    let bridges = dataset_by_name("Bridges").unwrap().generate(1.0).column_prefix(8)?;
    registry.register("bridges", bridges, MaimonConfig::default())?;

    // 2. Boot on an ephemeral loopback port with modest admission limits.
    let config = ServerConfig {
        workers: 2,
        admission: AdmissionConfig { max_in_flight_per_tenant: 2, max_queue_depth: 16 },
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&registry), config)?;
    let addr = handle.local_addr();
    println!("server listening on {addr}\n");

    // 3. Liveness and discovery.
    println!("> ping\n{}\n", roundtrip(addr, r#"{"op":"ping"}"#)?);
    println!("> list\n{}\n", roundtrip(addr, r#"{"op":"list"}"#)?);

    // 4. Mine the running example exactly (ε = 0). The response embeds the
    //    full `MaimonResult` wire document under "result".
    let mined = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#)?;
    let schemas = mined
        .get("result")
        .and_then(|r| r.get("schemas"))
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    println!(
        "> mine running ε=0: ok={:?} truncated={:?} schemas={schemas}",
        mined.get("ok").and_then(Json::as_bool),
        mined.get("truncated").and_then(Json::as_bool),
    );

    // 5. The same request again is answered from the shared session's
    //    artifact cache — no oracle work at all.
    let again = roundtrip(addr, r#"{"op":"mine","dataset":"running","epsilon":0.0}"#)?;
    println!(
        "> mine running ε=0 (again): ok={:?} (cache hit — see stats below)",
        again.get("ok").and_then(Json::as_bool),
    );

    // 6. A deadline of 0 ms expires immediately: the service still answers
    //    with a well-formed partial flagged `truncated`, never an error.
    let rushed =
        roundtrip(addr, r#"{"op":"mine","dataset":"bridges","epsilon":0.1,"timeout_ms":0}"#)?;
    println!(
        "> mine bridges ε=0.1 timeout_ms=0: ok={:?} truncated={:?}",
        rushed.get("ok").and_then(Json::as_bool),
        rushed.get("truncated").and_then(Json::as_bool),
    );

    // 7. Observability: request counters, admission decisions, registry
    //    session hits, and per-dataset oracle/cache statistics.
    let stats = roundtrip(addr, r#"{"op":"stats"}"#)?;
    println!("\n> stats");
    println!("requests  = {}", stats.get("requests").unwrap());
    println!("admission = {}", stats.get("admission").unwrap());
    println!("registry  = {}", stats.get("registry").unwrap());
    for dataset in stats.get("datasets").and_then(Json::as_array).unwrap_or(&[]) {
        println!(
            "dataset {:?}: cached_epsilons={} oracle={}",
            dataset.get("name").and_then(Json::as_str).unwrap_or("?"),
            dataset.get("cached_epsilons").unwrap(),
            dataset.get("oracle").unwrap(),
        );
    }

    // 8. Clean shutdown: in-flight requests are cancelled into truncated
    //    partials, workers drain, the port is released.
    handle.shutdown();
    println!("\nserver stopped");
    Ok(())
}

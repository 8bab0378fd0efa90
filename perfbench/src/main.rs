//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nursery_sweep|tall_paged|serve_mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint and run notes as `#` lines, every metric as a
//! `metric <workload> <name> <value> <unit>` line, and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of an untraced run or the per-layer metrics of a traced one.
//! `--workload all` runs every workload untraced and then traced, with the
//! metrics keyed `<workload>.<name>`. Exits 1 if a correctness check failed
//! and 2 if a workload could not run.

use maimon_perfbench::{host, run, Metric, Params, Report, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A JSON number: JSON has no NaN or infinity.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {workload} {} {} {}", m.name, number(m.value), m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        [false, true].iter().flat_map(|&t| WORKLOADS.iter().map(move |&w| (w, t))).collect()
    } else {
        match WORKLOADS.iter().find(|&&w| w == args.workload) {
            Some(&w) => vec![(w, args.trace)],
            None => {
                eprintln!("perfbench: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };

    if let Err(e) = host::use_work_root_as_tmpdir() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let mut total = Report::default();
    let mut json_metrics = Vec::new();
    for (workload, trace) in &runs {
        let work_dir = host::work_root().join(format!(
            "{workload}-{}-{}",
            std::process::id(),
            u8::from(*trace)
        ));
        let params = Params::full(args.seed, args.seconds, *trace, work_dir);
        println!(
            "# fingerprint {}",
            host::fingerprint(workload, args.seed, args.seconds, &params.describe())
        );
        eprintln!("perfbench: {workload} (trace {})", u8::from(*trace));
        let report = match run(workload, &params) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {workload} could not run: {e}");
                return ExitCode::from(2);
            }
        };
        for note in &report.notes {
            println!("# {workload}: {note}");
        }
        println!("# {workload}: attempted {} failed {}", report.attempted, report.failed);
        print_metrics(workload, &report.end_to_end);
        print_metrics(workload, &report.workload);
        let reported = if *trace { report.layers.metrics() } else { report.end_to_end.clone() };
        if *trace {
            print_metrics(workload, &reported);
        }
        for m in reported {
            let key = if runs.len() == 1 { m.name } else { format!("{workload}.{}", m.name) };
            json_metrics.push(format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                key,
                number(m.value),
                m.unit
            ));
        }
        total.attempted += report.attempted;
        total.failed += report.failed;
    }
    // Removes the scratch root unless something else still uses it.
    let _ = std::fs::remove_dir(host::work_root());
    let correct = total.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted.max(1),
        total.failed,
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

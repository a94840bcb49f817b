//! Host-side benchmark of the LoCaLUT stack.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or all four, one after another) and prints its
//! figures, then — as the last line of standard output — one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1`
//! the per-layer ones, read off spans recorded around the benchmark's
//! calls into each layer. Every output is checked; a wrong one is a failed
//! operation and makes the exit code 1. See `perfbench/README.md`.

mod churn;
mod common;
mod gemm;
mod layers;
mod openloop;
mod rng;
mod serve;
mod stats;
mod trace;

use common::{Opts, Outcome};
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics and their units; a layer a workload does not use
/// reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("localut.canonical_build_ms", "ms"),
    ("localut.reorder_build_ms", "ms"),
    ("localut.lut_resident_mb", "MiB"),
    ("localut.pack_ms", "ms"),
    ("localut.panel_resolve_ms", "ms"),
    ("localut.kernel_busy_ms", "ms"),
    ("localut.kernel_us_per_shard", "us"),
    ("runtime.execute_ms", "ms"),
    ("runtime.map_ms", "ms"),
    ("runtime.map_efficiency", "ratio"),
    ("runtime.self_ms", "ms"),
    ("runtime.shards", "count"),
    ("engine.prepare_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_resident_mb", "MiB"),
    ("serve.ticket_ms_p50", "ms"),
    ("serve.ticket_ms_p99", "ms"),
    ("serve.service_ms.gemm", "ms"),
    ("serve.service_ms.infer", "ms"),
    ("serve.service_ms.session", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.dispatches_per_req", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.largest_batch", "count"),
    ("netserve.encode_us", "us"),
    ("netserve.decode_us", "us"),
    ("netserve.bytes_per_req", "bytes"),
    ("netserve.overhead_ms_p50", "ms"),
    ("netserve.overhead_ms_p99", "ms"),
    ("dnn.infer_ms", "ms"),
    ("dnn.session_ms", "ms"),
    ("sim.instructions_per_req", "count"),
    ("sim.femtos_per_req", "fs"),
    ("gen.lag_ms_p99", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

const WORKLOADS: [&str; 4] = ["gemm_flat16", "gemm_full2048", "lut_churn", "serve_open"];

fn run(workload: &str, opts: &Opts) -> Outcome {
    match workload {
        "gemm_flat16" => gemm::run(gemm::Machine::Flat16, opts),
        "gemm_full2048" => gemm::run(gemm::Machine::Full2048, opts),
        "lut_churn" => churn::run(opts),
        "serve_open" => serve::run(opts),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Writes the traced run's spans next to the benchmark's other outputs.
pub fn write_spans(spans: &[trace::Span], opts: &Opts) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        opts.workload, opts.seed
    ));
    if let Err(e) = trace::write_jsonl(spans, &path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

struct Args {
    names: Vec<&'static str>,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let names: Vec<&'static str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        let name = WORKLOADS.iter().find(|w| **w == workload).ok_or_else(|| {
            format!(
                "unknown workload {workload} (one of {} or all)",
                WORKLOADS.join(", ")
            )
        })?;
        vec![*name]
    };
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        names,
        opts: Opts {
            workload: "",
            seed: seed.unwrap_or(1),
            window: Duration::from_secs_f64(seconds),
            trace: trace.unwrap_or(false),
        },
    })
}

/// The metrics object of the result line, and whether every value is a
/// finite number.
fn metrics_json(prefix: &str, out: &Outcome, trace: bool) -> (String, bool) {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let source = if trace { &out.layers } else { &out.e2e };
    let mut json = String::new();
    let mut finite = true;
    for (name, unit) in list {
        let value = source.get(name).copied().unwrap_or(0.0);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            r#""{prefix}{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        );
        println!("{prefix}{name} = {value} {unit}");
    }
    (json, finite)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: host has {} CPUs",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let names = &args.names;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for &name in names {
        let opts = Opts {
            workload: name,
            ..args.opts
        };
        println!(
            "== {name} (seed {}, {:?}, trace {})",
            opts.seed, opts.window, opts.trace
        );
        let out = run(name, &opts);
        for note in &out.notes {
            println!("{name}: {note}");
        }
        let prefix = if names.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        let (json, finite) = metrics_json(&prefix, &out, args.opts.trace);
        println!("{name}: {} attempted, {} failed", out.attempted, out.failed);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.failed == 0 && finite;
        metrics.push(json);
    }
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        attempted.max(1),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

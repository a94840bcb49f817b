//! `gemm_flat16` and `gemm_full2048`: one closed-loop client sending the
//! paper-shape 768×768×128 W1A3 GEMM through `Engine::submit` on a warm
//! engine. The two differ only in topology — 16 flat banks against the
//! full 32 × 64 machine — so their difference isolates per-shard fixed
//! cost (sharding, per-shard kernel set-up, merge) from inner-loop speed.

use crate::common::{
    latency, peak_rss_mb, reference_checksum, timed_setups, Opts, Outcome, RATE_WINDOWS,
};
use crate::layers::{cache_layers, coverage, gemm_metrics, ms, Reissue, MIB};
use crate::stats::{median, window_rates};
use crate::trace::{span, Tracer};
use engine::{Engine, GemmRequest};
use quant::{NumericFormat, QMatrix};
use std::time::Instant;

/// Operand pairs in the pool the client cycles through.
const POOL: usize = 3;
/// Engine worker threads (the host has two CPUs).
const THREADS: usize = 2;

/// Which machine the engine models.
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    /// 16 flat banks.
    Flat16,
    /// The paper's full machine: 32 ranks × 64 banks = 2048 shards.
    Full2048,
}

impl Machine {
    fn engine(self) -> Engine {
        let builder = Engine::builder().threads(THREADS);
        match self {
            Machine::Flat16 => builder.banks(16),
            Machine::Full2048 => builder.ranks(32, 64),
        }
        .build()
    }

    /// Tail percentile reported: the full machine completes too few
    /// requests per run for ten samples beyond p90.
    fn tail(self) -> f64 {
        match self {
            Machine::Flat16 => 90.0,
            Machine::Full2048 => 80.0,
        }
    }
}

/// Runs the workload.
pub fn run(machine: Machine, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let pool: Vec<(GemmRequest, u64)> = (0..POOL as u64)
        .map(|i| {
            let w = QMatrix::pseudo_random(768, 768, NumericFormat::Bipolar, opts.seed_for(2 * i));
            let a =
                QMatrix::pseudo_random(768, 128, NumericFormat::Int(3), opts.seed_for(2 * i + 1));
            let expect = reference_checksum(&w, &a);
            (GemmRequest::new(w, a), expect)
        })
        .collect();

    let mut warm_failed = 0;
    let (engine, setup_s) = timed_setups(|| {
        let engine = machine.engine();
        let ok = engine
            .submit(&pool[0].0)
            .is_ok_and(|r| r.checksum == pool[0].1);
        warm_failed += usize::from(!ok);
        engine
    });
    out.count(crate::common::SETUP_REPEATS, warm_failed);

    // The traced run first measures the same loop untraced for half its
    // window, so the difference is the tracing overhead.
    let untraced = closed_loop(
        &engine,
        &pool,
        None,
        opts.window / if opts.trace { 2 } else { 1 },
    );
    out.count(untraced.latency_ms.len(), untraced.failed);
    if !opts.trace {
        let lat = &untraced.latency_ms;
        out.e2e.insert("setup_s", setup_s);
        out.e2e.insert("peak_rss_mb", peak_rss_mb());
        let rates = window_rates(&untraced.done_s, RATE_WINDOWS);
        out.note(format!("req_per_s per tenth of the requests {rates:.3?}"));
        let rate = median(&rates);
        out.e2e.insert("req_per_s", rate);
        out.note(format!(
            "gemm_per_s = {rate:.4} 1/s ({} requests in {:.3} s)",
            lat.len(),
            untraced.wall_s
        ));
        let p50 = latency(&mut out, "latency", lat, 50.0);
        let tail = latency(&mut out, "latency", lat, machine.tail());
        out.e2e.insert("latency_p50_ms", p50);
        out.e2e.insert("latency_tail_ms", tail);
        return out;
    }

    let tracer = Tracer::default();
    let traced = closed_loop(&engine, &pool, Some(&tracer), opts.window / 2);
    out.count(traced.latency_ms.len(), traced.failed);
    let spans = tracer.spans();
    out.layers = gemm_metrics(&spans, THREADS);
    let base = median(&untraced.latency_ms);
    out.layers
        .insert("trace.overhead_ms", median(&traced.latency_ms) - base);
    out.layers
        .insert("trace.coverage", coverage(&spans, traced.wall_s * 1e3, 1));
    cache_layers(&mut out, &engine);
    out.layers
        .insert("localut.lut_resident_mb", traced.lut_bytes as f64 / MIB);
    canary(&mut out, machine, &pool[0]);
    crate::write_spans(&spans, opts);
    out
}

/// The determinism canary: one request of the pool served on two fresh
/// engines must charge identical simulated counts and cache misses.
fn canary(out: &mut Outcome, machine: Machine, (request, _): &(GemmRequest, u64)) {
    let probe = || {
        let engine = machine.engine();
        let r = engine.submit(request).expect("pool request is feasible");
        let snap = r.stats.snapshot();
        (
            snap.instructions,
            snap.total_femtos,
            engine.lut_cache_stats().misses,
        )
    };
    let (first, second) = (probe(), probe());
    out.count(1, usize::from(first != second));
    out.layers
        .insert("sim.instructions_per_req", first.0 as f64);
    out.layers.insert("sim.femtos_per_req", first.1 as f64);
    out.layers.insert("engine.cache_misses", first.2 as f64);
}

struct Loop {
    latency_ms: Vec<f64>,
    /// Completion times, seconds since the loop started.
    done_s: Vec<f64>,
    failed: usize,
    wall_s: f64,
    lut_bytes: u64,
}

fn closed_loop(
    engine: &Engine,
    pool: &[(GemmRequest, u64)],
    tracer: Option<&Tracer>,
    window: std::time::Duration,
) -> Loop {
    let mut reissue = Reissue::default();
    let mut run = Loop {
        latency_ms: Vec::new(),
        done_s: Vec::new(),
        failed: 0,
        wall_s: 0.0,
        lut_bytes: 0,
    };
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < window {
        let (request, expect) = &pool[i as usize % pool.len()];
        let t0 = Instant::now();
        let served = span(tracer, "engine.submit", None, i, |_| engine.submit(request));
        let took = t0.elapsed();
        let ok = match &served {
            Ok(r) => {
                r.checksum == *expect
                    && tracer.is_none_or(|t| reissue.run(t, engine, request, r.checksum, i))
            }
            Err(_) => false,
        };
        run.latency_ms.push(ms(took.as_nanos() as u64));
        run.done_s.push(start.elapsed().as_secs_f64());
        run.failed += usize::from(!ok);
        i += 1;
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.lut_bytes = reissue.lut_bytes;
    run
}

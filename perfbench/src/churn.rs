//! `lut_churn`: two closed-loop clients share one engine whose LUT byte
//! budget holds the hot image plus about one churn image. The churn
//! client cycles W1A3 → W1A2 → W2A2 (two share the 1-bit weight width),
//! so every churn request evicts an image and rebuilds its own under the
//! cache lock; the hot client keeps sending one resident W2A3 shape and
//! waits behind those builds. LUT builds and the cache lock do the work
//! here; the kernels do almost none.

use crate::common::{
    latency, peak_rss_mb, reference_checksum, timed_setups, Opts, Outcome, RATE_WINDOWS,
};
use crate::layers::{cache_layers, coverage, gemm_metrics, ms, Reissue, MIB};
use crate::stats::{median, window_rates};
use crate::trace::{span, Tracer};
use engine::serve::{replay_serial, ServeRecorder};
use engine::{Engine, GemmRequest, ServeSummary, TrafficRequest};
use quant::{NumericFormat, QMatrix};
use std::time::{Duration, Instant};

const CHURN_FORMATS: [(NumericFormat, NumericFormat); 3] = [
    (NumericFormat::Bipolar, NumericFormat::Int(3)),
    (NumericFormat::Bipolar, NumericFormat::Int(2)),
    (NumericFormat::Int(2), NumericFormat::Int(2)),
];
const HOT_FORMAT: (NumericFormat, NumericFormat) = (NumericFormat::Int(2), NumericFormat::Int(3));
/// Shape of every request: serving-sized, so the kernel time is small
/// next to a LUT build.
const SHAPE: (usize, usize, usize) = (48, 40, 12);
/// The W1A3 p=8 image (89 164 800 B, the largest churn image) plus the
/// W2A3 hot image (387 072 B) plus 1 MiB: too small for the W1A2 image
/// (82 744 320 B) to stay beside the W1A3 one.
const BUDGET: u64 = 89_164_800 + 387_072 + (1 << 20);
const BANKS: u32 = 2;
/// Requests per format in each pool.
const PER_FORMAT: usize = 2;

type Pool = Vec<(GemmRequest, u64)>;

fn pool(opts: &Opts, stream: u64, formats: &[(NumericFormat, NumericFormat)]) -> Pool {
    let (m, k, n) = SHAPE;
    (0..PER_FORMAT)
        .flat_map(|round| formats.iter().map(move |f| (round, *f)))
        .enumerate()
        .map(|(i, (_, (wf, af)))| {
            let i = i as u64;
            let w = QMatrix::pseudo_random(m, k, wf, opts.seed_for(stream + 2 * i));
            let a = QMatrix::pseudo_random(k, n, af, opts.seed_for(stream + 2 * i + 1));
            let expect = reference_checksum(&w, &a);
            (GemmRequest::new(w, a).with_banks(BANKS), expect)
        })
        .collect()
}

fn budgeted_engine() -> Engine {
    Engine::builder()
        .threads(1)
        .banks(BANKS)
        .cache_budget(BUDGET)
        .build()
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let churn = pool(opts, 1000, &CHURN_FORMATS);
    let hot = pool(opts, 2000, &[HOT_FORMAT]);

    // Set-up serves every pool request once: the cold builds, and the
    // first pass whose summary is checked against serial replay.
    let mut first = Vec::new();
    let (engine, setup_s) = timed_setups(|| {
        let engine = budgeted_engine();
        first = hot
            .iter()
            .chain(&churn)
            .map(|(r, _)| engine.submit(r))
            .collect();
        engine
    });
    let log: Vec<TrafficRequest> = hot
        .iter()
        .chain(&churn)
        .map(|(r, _)| TrafficRequest::Gemm(r.clone()))
        .collect();
    let mut recorder = ServeRecorder::new();
    let mut bad = 0;
    for (result, (_, expect)) in first.iter().zip(hot.iter().chain(&churn)) {
        recorder.record_gemm(result);
        bad += usize::from(result.as_ref().map_or(true, |r| r.checksum != *expect));
    }
    out.count(first.len(), bad);

    // Untraced, the hot client first runs alone for a tenth of the window:
    // its latency there is the hit path (plan memo, cache lookup, execute)
    // with no build holding the cache lock. Under churn a hot request
    // either hits at once or waits out a build, and the lock lets one or
    // many hits through per build by turns, so the contended p50 flips
    // between the two modes from run to run; the contended p99 is steady.
    let alone = (!opts.trace).then(|| clients(&engine, None, &hot, None, opts.window / 10));
    let contended = if opts.trace {
        opts.window / 2
    } else {
        opts.window * 9 / 10
    };
    let untraced = clients(&engine, Some(&churn), &hot, None, contended);
    out.count(untraced.attempted(), untraced.failed);
    // Read before the unbudgeted replay engine below raises the mark.
    let peak_rss = peak_rss_mb();
    let reference = replay_serial(&Engine::builder().threads(1).banks(BANKS).build(), &log);
    out.count(1, usize::from(recorder.summary() != reference));
    if !opts.trace {
        let rates = window_rates(&untraced.churn_done_s, RATE_WINDOWS);
        out.note(format!("req_per_s per tenth of the requests {rates:.3?}"));
        let churn_rps = median(&rates);
        out.e2e.insert("setup_s", setup_s);
        out.e2e.insert("peak_rss_mb", peak_rss);
        out.e2e.insert("req_per_s", churn_rps);
        out.note(format!(
            "churn_req_per_s = {churn_rps:.4} 1/s ({} requests in {:.3} s)",
            untraced.churn_done_s.len(),
            untraced.wall_s
        ));
        let alone = alone.expect("untraced runs measure the hot client alone");
        out.count(alone.attempted(), alone.failed);
        let p50 = latency(&mut out, "hot_latency alone", &alone.hot_ms, 50.0);
        latency(&mut out, "hot_latency", &untraced.hot_ms, 50.0);
        let p99 = latency(&mut out, "hot_latency", &untraced.hot_ms, 99.0);
        out.e2e.insert("latency_p50_ms", p50);
        out.e2e.insert("latency_tail_ms", p99);
        return out;
    }

    let tracer = Tracer::default();
    let traced = clients(&engine, Some(&churn), &hot, Some(&tracer), opts.window / 2);
    out.count(traced.attempted(), traced.failed);
    let spans = tracer.spans();
    out.layers = gemm_metrics(&spans, 1);
    out.layers.insert(
        "trace.overhead_ms",
        median(&traced.hot_ms) - median(&untraced.hot_ms),
    );
    out.layers
        .insert("trace.coverage", coverage(&spans, traced.wall_s * 1e3, 2));
    cache_layers(&mut out, &engine);
    out.layers
        .insert("localut.lut_resident_mb", traced.lut_bytes as f64 / MIB);
    // Canary: the first pass replayed serially on two fresh budgeted
    // engines must evict and miss identically.
    let probe = || {
        let engine = budgeted_engine();
        let summary: ServeSummary = replay_serial(&engine, &log);
        let cache = engine.lut_cache_stats();
        (summary, cache.misses, cache.evictions)
    };
    let (a, b) = (probe(), probe());
    out.count(1, usize::from(a != b || a.0 != reference));
    let snap = a.0.stats.snapshot();
    let n = a.0.requests.max(1) as f64;
    out.layers
        .insert("sim.instructions_per_req", snap.instructions as f64 / n);
    out.layers
        .insert("sim.femtos_per_req", snap.total_femtos as f64 / n);
    out.layers.insert("engine.cache_misses", a.1 as f64);
    out.note(format!(
        "canary: {} misses, {} evictions over the first pass",
        a.1, a.2
    ));
    crate::write_spans(&spans, opts);
    out
}

#[derive(Default)]
struct Clients {
    hot_ms: Vec<f64>,
    /// Churn completion times, seconds since the clients started.
    churn_done_s: Vec<f64>,
    failed: usize,
    wall_s: f64,
    lut_bytes: u64,
}

impl Clients {
    fn attempted(&self) -> usize {
        self.hot_ms.len() + self.churn_done_s.len()
    }
}

/// The hot client, and the churn client if given, for `window`; request
/// ids carry the client in bit 32.
fn clients(
    engine: &Engine,
    churn: Option<&Pool>,
    hot: &Pool,
    tracer: Option<&Tracer>,
    window: Duration,
) -> Clients {
    let start = Instant::now();
    let client = |pool: &Pool, id: u64| {
        let mut reissue = Reissue::default();
        let (mut lat, mut done, mut failed, mut i) = (Vec::new(), Vec::new(), 0, 0usize);
        while start.elapsed() < window {
            let (request, expect) = &pool[i % pool.len()];
            let rid = id << 32 | i as u64;
            let t0 = Instant::now();
            let served = span(tracer, "engine.submit", None, rid, |_| {
                engine.submit(request)
            });
            lat.push(ms(t0.elapsed().as_nanos() as u64));
            done.push(start.elapsed().as_secs_f64());
            let ok = served.is_ok_and(|r| {
                r.checksum == *expect
                    && tracer.is_none_or(|t| reissue.run(t, engine, request, r.checksum, rid))
            });
            failed += usize::from(!ok);
            i += 1;
        }
        (lat, done, failed, reissue.lut_bytes)
    };
    let ((hot_ms, _, hot_failed, hot_bytes), (_, churn_done_s, churn_failed, churn_bytes)) =
        match churn {
            Some(churn) => std::thread::scope(|s| {
                let h = s.spawn(|| client(hot, 0));
                let c = client(churn, 1);
                (h.join().expect("hot client does not panic"), c)
            }),
            None => (client(hot, 0), (Vec::new(), Vec::new(), 0, 0)),
        };
    Clients {
        hot_ms,
        churn_done_s,
        failed: hot_failed + churn_failed,
        wall_s: start.elapsed().as_secs_f64(),
        lut_bytes: hot_bytes + churn_bytes,
    }
}

//! The traced run's view of one GEMM request, layer by layer.
//!
//! `Engine::submit` is one opaque call. After timing it, the traced run
//! re-issues the same request through the public calls the engine makes
//! underneath — the §V-A plan, the LUT builds, operand packing, panel
//! resolve and the bank-kernel map — each inside its own span, and reads
//! the per-layer figures off those spans. The re-issued execution must
//! reproduce the served checksum, which checks that it did the same work.

use crate::common::Outcome;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use engine::{Engine, GemmRequest, Topology};
use localut::canonical::CanonicalLut;
use localut::codes::PackedCodes;
use localut::kernels::{BankKernel, SharedLuts};
use localut::reorder::ReorderLut;
use localut::GemmDims;
use quant::{NumericFormat, QMatrix};
use runtime::ShardPlan;
use std::collections::{BTreeMap, HashMap};

/// The materialisation guard `SharedLuts::build` applies (entries).
const MAX_LUT_ENTRIES: u64 = 1 << 26;

type KernelKey = (NumericFormat, NumericFormat, GemmDims, Option<u32>);

/// Re-issues traced GEMM requests; keeps one bank kernel per request
/// signature and one LUT image per LUT key, so each distinct key is
/// rebuilt (and timed) once.
#[derive(Default)]
pub struct Reissue {
    kernels: HashMap<KernelKey, (BankKernel, ShardPlan)>,
    luts: HashMap<(NumericFormat, NumericFormat, u32), SharedLuts>,
    /// Host bytes of the distinct LUT images this client's requests use.
    pub lut_bytes: u64,
}

impl Reissue {
    /// Re-issues `request` (already served with checksum `served`) under
    /// request id `rid`; returns whether the re-issued execution
    /// reproduced the checksum.
    pub fn run(
        &mut self,
        tracer: &Tracer,
        engine: &Engine,
        request: &GemmRequest,
        served: u64,
        rid: u64,
    ) -> bool {
        let (w, a) = (&request.w, &request.a);
        let (wf, af) = (w.format(), a.format());
        let dims = GemmDims::of(w, a).expect("served request has consistent shapes");
        let bits = quant::BitConfig::new(wf.bits(), af.bits()).expect("served formats are valid");
        tracer.span("engine.plan", None, rid, |_| {
            engine.plan(dims, bits).expect("served request plans")
        });
        let key = (wf, af, dims, request.banks);
        if !self.kernels.contains_key(&key) {
            let (cache, lut_bytes) = (&mut self.luts, &mut self.lut_bytes);
            let bank = BankKernel::build_with(
                engine.gemm_config(),
                request.method.unwrap_or(engine.default_method()),
                wf,
                af,
                dims,
                |wf, af, p, _| {
                    if let Some(luts) = cache.get(&(wf, af, p)) {
                        return Ok(luts.clone());
                    }
                    let canonical = tracer.span("localut.canonical_build", None, rid, |_| {
                        CanonicalLut::<i32>::build(wf, af, p, MAX_LUT_ENTRIES)
                    })?;
                    let reorder = tracer.span("localut.reorder_build", None, rid, |_| {
                        ReorderLut::build(wf.bits(), p, MAX_LUT_ENTRIES)
                    })?;
                    let luts = SharedLuts::from_parts(canonical, reorder)?;
                    *lut_bytes += luts.resident_bytes();
                    cache.insert((wf, af, p), luts.clone());
                    Ok(luts)
                },
            )
            .expect("served request builds");
            let plan = match (request.banks, engine.topology()) {
                (Some(banks), _) | (None, Topology::Flat(banks)) => {
                    ShardPlan::for_banks(dims, banks)
                }
                (
                    None,
                    Topology::Ranked {
                        ranks,
                        banks_per_rank,
                    },
                ) => ShardPlan::for_ranks(dims, ranks, banks_per_rank),
            };
            self.kernels.insert(key, (bank, plan));
        }
        let (bank, plan) = &self.kernels[&key];
        let pool = engine.pool();
        let executed = tracer.span("runtime.execute", None, rid, |_| {
            pool.execute_plan_with(plan, bank, w, a)
                .expect("served request executes")
        });
        // The same band hoist, panel resolve and shard map the runtime
        // performs inside `execute_plan_with`, one call at a time.
        let (rows, cols) = tracer.span("runtime.hoist", None, rid, |_| bands(plan, w, a));
        let p = bank.p() as usize;
        tracer.span("localut.pack", None, rid, |_| {
            for (_, tile) in &rows {
                std::hint::black_box(PackedCodes::pack_weight_rows(tile, p));
            }
            for (_, tile) in &cols {
                // The pad code only fills a ragged last group; packing
                // time does not depend on it.
                std::hint::black_box(PackedCodes::pack_activation_columns(tile, p, 0));
            }
        });
        let panels: Vec<_> = cols
            .iter()
            .map(|(_, tile)| {
                tracer.span("localut.resolve_panel", None, rid, |_| {
                    bank.resolve_panel(tile).expect("served panel resolves")
                })
            })
            .collect();
        let shards: Vec<(usize, usize)> = plan
            .shards()
            .iter()
            .map(|s| {
                let row = rows
                    .iter()
                    .position(|(r, _)| *r == s.rows)
                    .expect("hoisted");
                let col = cols
                    .iter()
                    .position(|(c, _)| *c == s.cols)
                    .expect("hoisted");
                (row, col)
            })
            .collect();
        tracer.span("runtime.map", None, rid, |map| {
            pool.map(&shards, |&(row, col)| {
                tracer.span("localut.run_panel", Some(map), rid, |_| {
                    bank.run_panel(&rows[row].1, &cols[col].1, panels[col].as_ref())
                        .map(|r| r.values.len())
                        .expect("served shard runs")
                })
            })
        });
        executed.checksum() == served
    }
}

type Bands = Vec<(std::ops::Range<usize>, QMatrix)>;

fn bands(plan: &ShardPlan, w: &QMatrix, a: &QMatrix) -> (Bands, Bands) {
    let k = plan.dims().k;
    let (mut rows, mut cols): (Bands, Bands) = (Vec::new(), Vec::new());
    for s in plan.shards() {
        if !rows.iter().any(|(r, _)| *r == s.rows) {
            rows.push((s.rows.clone(), w.submatrix(s.rows.clone(), 0..k)));
        }
        if !cols.iter().any(|(c, _)| *c == s.cols) {
            cols.push((s.cols.clone(), a.submatrix(0..k, s.cols.clone())));
        }
    }
    (rows, cols)
}

/// Per-layer GEMM figures read off the spans of re-issued requests.
#[must_use]
pub fn gemm_metrics(spans: &[Span], threads: usize) -> BTreeMap<&'static str, f64> {
    // Per request: total ms of the spans named `name`, and their count.
    let per_req = |name: &str| -> BTreeMap<u64, (f64, f64)> {
        let mut out = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let e = out.entry(s.request).or_insert((0.0, 0.0));
            *e = (e.0 + ms(s.duration()), e.1 + 1.0);
        }
        out
    };
    let (submit, execute, map) = (
        per_req("engine.submit"),
        per_req("runtime.execute"),
        per_req("runtime.map"),
    );
    let (resolve, busy) = (
        per_req("localut.resolve_panel"),
        per_req("localut.run_panel"),
    );
    let pack = per_req("localut.pack");
    let reissued: Vec<u64> = execute.keys().copied().collect();
    let mut m = BTreeMap::new();
    if reissued.is_empty() {
        return m;
    }
    let get = |map: &BTreeMap<u64, (f64, f64)>, r: &u64| map.get(r).map_or(0.0, |e| e.0);
    let over = |f: &dyn Fn(&u64) -> f64| median(&reissued.iter().map(f).collect::<Vec<_>>());
    let shards_of = |r: &u64| busy.get(r).map_or(0.0, |e| e.1);
    m.insert(
        "engine.prepare_ms",
        over(&|r| get(&submit, r) - get(&execute, r)),
    );
    m.insert("runtime.execute_ms", over(&|r| get(&execute, r)));
    m.insert("runtime.map_ms", over(&|r| get(&map, r)));
    m.insert(
        "runtime.self_ms",
        over(&|r| get(&execute, r) - get(&resolve, r) - get(&map, r)),
    );
    m.insert("runtime.shards", over(&shards_of));
    m.insert("localut.panel_resolve_ms", over(&|r| get(&resolve, r)));
    m.insert("localut.kernel_busy_ms", over(&|r| get(&busy, r)));
    m.insert(
        "localut.kernel_us_per_shard",
        over(&|r| get(&busy, r) * 1e3 / shards_of(r).max(1.0)),
    );
    m.insert(
        "runtime.map_efficiency",
        over(&|r| {
            let workers = threads.min(shards_of(r) as usize).max(1) as f64;
            get(&busy, r) / (get(&map, r) * workers).max(f64::MIN_POSITIVE)
        }),
    );
    m.insert("localut.pack_ms", over(&|r| get(&pack, r)));
    m.insert("engine.plan_ms", median_of(spans, "engine.plan"));
    // Each distinct LUT key is built once: the sum is the cost of
    // building every key the workload requests.
    let total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration()))
            .sum()
    };
    m.insert(
        "localut.canonical_build_ms",
        total("localut.canonical_build"),
    );
    m.insert("localut.reorder_build_ms", total("localut.reorder_build"));
    m
}

/// Median duration (ms) of the spans named `name`, 0 when there are none.
#[must_use]
pub fn median_of(spans: &[Span], name: &str) -> f64 {
    let xs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| ms(s.duration()))
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        median(&xs)
    }
}

/// Share of the loop threads' wall that their top-level spans cover;
/// `loops` is the number of threads that issue top-level spans. Spans
/// on one loop thread never overlap, so their durations add up.
#[must_use]
pub fn coverage(spans: &[Span], wall_ms: f64, loops: usize) -> f64 {
    let top: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| ms(s.duration()))
        .sum();
    top / (wall_ms * loops as f64)
}

/// Cache and memo counters of a finished run.
pub fn cache_layers(out: &mut Outcome, engine: &Engine) {
    let cache = engine.lut_cache_stats();
    let memo = engine.plan_memo_stats();
    out.layers.insert(
        "engine.cache_hit_ratio",
        cache.hits as f64 / cache.lookups().max(1) as f64,
    );
    out.layers
        .insert("engine.cache_evictions", cache.evictions as f64);
    out.layers.insert(
        "engine.cache_resident_mb",
        cache.resident_bytes as f64 / MIB,
    );
    out.layers.insert(
        "engine.memo_hit_ratio",
        memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
    );
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

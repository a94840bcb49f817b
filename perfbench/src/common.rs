//! What every workload shares: run options, the reference GEMM, set-up
//! timing, process memory and the result a workload hands back.

use crate::stats::{supported, windowed};
use quant::QMatrix;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Windows of consecutive requests whose median rate is reported.
pub const RATE_WINDOWS: usize = 10;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload being run.
    pub workload: &'static str,
    /// Root of every generated input.
    pub seed: u64,
    /// Measured time of the run.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Opts {
    /// A seed for the input stream `stream`, derived from the run seed.
    #[must_use]
    pub fn seed_for(&self, stream: u64) -> u64 {
        crate::rng::SplitMix64::new(self.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
            .next_u64()
    }
}

/// A workload's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, checks made).
    pub attempted: u64,
    /// Operations that failed: wrong output, typed rejection or error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run) by name; absent layers read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `n` operations of which `bad` failed.
    pub fn count(&mut self, n: usize, bad: usize) {
        self.attempted += n as u64;
        self.failed += bad as u64;
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The GEMM's checksum computed independently of the program: a plain
/// integer matmul over the decoded operand values.
#[must_use]
pub fn reference_checksum(w: &QMatrix, a: &QMatrix) -> u64 {
    let (m, k, n) = (w.rows(), w.cols(), a.cols());
    assert_eq!(a.rows(), k, "operand shapes must chain");
    let value = |q: &QMatrix, r, c| q.value_at(r, c).expect("integer operand format");
    let wv: Vec<i32> = (0..m * k).map(|i| value(w, i / k, i % k)).collect();
    let av: Vec<i32> = (0..k * n).map(|i| value(a, i / n, i % n)).collect();
    let mut out = vec![0i32; m * n];
    for (row, acc) in out.chunks_exact_mut(n).enumerate() {
        for (x, b) in wv[row * k..(row + 1) * k].iter().zip(av.chunks_exact(n)) {
            for (o, y) in acc.iter_mut().zip(b) {
                *o += x * y;
            }
        }
    }
    runtime::values_checksum(&out)
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each product before the
/// next set-up starts, and returns the last product with the median set-up
/// time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&secs),
    )
}

/// The process's resident-set high-water mark, MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A latency figure: percentile `q` of `samples` taken per window and
/// reduced to the median ([`windowed`]), with a note saying how many
/// samples it rests on and whether they support `q`.
pub fn latency(out: &mut Outcome, label: &str, samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        out.note(format!("{label}: no samples"));
        return f64::NAN;
    }
    let v = windowed(samples, q);
    let support = if supported(samples.len(), q) {
        ""
    } else {
        " (fewer than 10 samples beyond)"
    };
    out.note(format!(
        "{label} p{q} = {v:.4} ms over {} samples{support}",
        samples.len()
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant::NumericFormat;

    #[test]
    fn reference_matches_a_hand_product() {
        // [[1, -1]] x [[2], [3]] = [[-1]]
        let w = QMatrix::from_codes(vec![1, 0], 1, 2, NumericFormat::Bipolar, 1.0).unwrap();
        let vals: Vec<i32> = (0..2).map(|c| w.value_at(0, c).unwrap()).collect();
        let a = QMatrix::pseudo_random(2, 1, NumericFormat::Int(3), 5);
        let expect = vals[0] * a.value_at(0, 0).unwrap() + vals[1] * a.value_at(1, 0).unwrap();
        assert_eq!(
            reference_checksum(&w, &a),
            runtime::values_checksum(&[expect])
        );
    }
}

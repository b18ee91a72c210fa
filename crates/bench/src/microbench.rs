//! A minimal timing harness for the repo's own hot paths, plus the shared
//! JSON value type for machine-readable results (`BENCH_engine.json`).
//!
//! The build environment has no access to crates.io, so this stands in for
//! `criterion`: warm up, then split the timed budget into [`SLICES`] slices,
//! each running until it reaches its share of both the minimum duration and
//! the minimum iteration count, and report the median slice's per-iteration
//! time. It deliberately avoids criterion's statistical machinery — the
//! consumers are regression *trend* files committed by the bench harness,
//! not microsecond-exact claims — but a trend gate on one reading fails
//! whenever another process steals the CPU for part of it, and a median of
//! slices shrugs off a disturbed slice or two.

use std::time::{Duration, Instant};

/// Timed slices per subject; a subject's reading is the median slice's.
pub const SLICES: usize = 5;

/// Result of timing one benchmark subject.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Subject name, e.g. `"engine/pod_c0"`.
    pub name: String,
    /// Iterations executed during the timed phase, over all slices.
    pub iters: u64,
    /// Total wall-clock time of the timed phase, over all slices.
    pub elapsed: Duration,
    /// Seconds per iteration of the median slice.
    pub median_secs_per_iter: f64,
}

impl BenchResult {
    /// Seconds per iteration: the median over the timed slices.
    pub fn secs_per_iter(&self) -> f64 {
        self.median_secs_per_iter
    }

    /// Iterations per second of the median slice.
    pub fn iters_per_sec(&self) -> f64 {
        let s = self.secs_per_iter();
        if s <= 0.0 {
            return 0.0;
        }
        1.0 / s
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        let per_iter = self.secs_per_iter();
        let (scaled, unit) = if per_iter >= 1.0 {
            (per_iter, "s")
        } else if per_iter >= 1e-3 {
            (per_iter * 1e3, "ms")
        } else if per_iter >= 1e-6 {
            (per_iter * 1e6, "us")
        } else {
            (per_iter * 1e9, "ns")
        };
        format!(
            "{:<44} {:>10.2} {}/iter  ({} iters, median of {SLICES} slices)",
            self.name, scaled, unit, self.iters
        )
    }
}

/// The median seconds per iteration of `(iterations, elapsed)` slices.
fn median_secs_per_iter(slices: &[(u64, Duration)]) -> f64 {
    let mut per_iter: Vec<f64> = slices
        .iter()
        .map(|(iters, elapsed)| elapsed.as_secs_f64() / (*iters).max(1) as f64)
        .collect();
    median(&mut per_iter)
}

/// Median of `xs` (sorted in place; the upper middle for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time `f`, discarding a warmup phase, in [`SLICES`] timed slices that each
/// run for at least `min_time / SLICES` and `min_iters / SLICES` (rounded
/// up) iterations, so the timed phase spans at least `min_time` and
/// `min_iters` in all; the reading is the median slice's. The closure's
/// return value is passed through [`std::hint::black_box`] so the work is not
/// optimized away.
pub fn bench<R, F: FnMut() -> R>(
    name: &str,
    min_time: Duration,
    min_iters: u64,
    mut f: F,
) -> BenchResult {
    // Warmup: at least one iteration and ~20% of the timed budget.
    let warm_budget = min_time / 5;
    let warm_start = Instant::now();
    loop {
        std::hint::black_box(f());
        if warm_start.elapsed() >= warm_budget {
            break;
        }
    }
    let slice_time = min_time / SLICES as u32;
    let slice_iters = min_iters.div_ceil(SLICES as u64).max(1);
    let slices: Vec<(u64, Duration)> = (0..SLICES)
        .map(|_| {
            let mut iters = 0u64;
            let start = Instant::now();
            loop {
                std::hint::black_box(f());
                iters += 1;
                if iters >= slice_iters && start.elapsed() >= slice_time {
                    break;
                }
            }
            (iters, start.elapsed())
        })
        .collect();
    BenchResult {
        name: name.to_string(),
        iters: slices.iter().map(|s| s.0).sum(),
        elapsed: slices.iter().map(|s| s.1).sum(),
        median_secs_per_iter: median_secs_per_iter(&slices),
    }
}

/// The JSON value type the trend files are written (and parsed back) with.
/// This is the serving crate's [`llm_serving::JsonValue`] — one wire format
/// shared by serving reports, bench trend files and the CI perf gate.
pub use llm_serving::JsonValue as Json;

/// Resolve a path relative to the repository root (two levels above this
/// crate's manifest), falling back to the current directory.
pub fn repo_root_path(file_name: &str) -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../..").join(file_name),
        Err(_) => std::path::PathBuf::from(file_name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_the_minimum() {
        let mut count = 0u64;
        let r = bench("t", Duration::from_millis(5), 10, || {
            count += 1;
            count
        });
        assert!(r.iters >= 10);
        assert!(count > r.iters, "warmup iterations must also run");
        assert!(r.secs_per_iter() > 0.0);
        assert!(r.iters_per_sec() > 0.0);
        assert!(r.summary().contains("t"));
    }

    /// One slice slowed by a neighbour does not move the reading.
    #[test]
    fn reading_is_the_median_slice() {
        let ms = Duration::from_millis;
        let slices = [
            (10, ms(10)),
            (10, ms(1000)),
            (20, ms(22)),
            (10, ms(12)),
            (5, ms(4)),
        ];
        assert!((median_secs_per_iter(&slices) - 0.0011).abs() < 1e-12);
    }

    #[test]
    fn json_alias_serializes_like_the_serving_writer() {
        let j = Json::obj(vec![
            ("a", Json::Num(1.5)),
            ("b", Json::Str("x\"y".to_string())),
            ("c", Json::obj(vec![("d", Json::Num(f64::NAN))])),
        ]);
        let s = j.to_string_pretty();
        assert!(s.contains("\"a\": 1.5"));
        assert!(s.contains("\\\""));
        assert!(s.contains("\"d\": null"));
        // The alias is the serving crate's parser-backed type, so the trend
        // files the benches write are parseable by the perf gate. The NaN
        // comes back as the null it was written as.
        let expected = Json::obj(vec![
            ("a", Json::Num(1.5)),
            ("b", Json::Str("x\"y".to_string())),
            ("c", Json::obj(vec![("d", Json::Null)])),
        ]);
        assert_eq!(Json::parse(&s).expect("round trip"), expected);
    }
}

//! # pod-bench: harnesses that regenerate the paper's tables and figures
//!
//! Every table and figure in the evaluation of *POD-Attention* (ASPLOS 2025)
//! has a corresponding bench target in this crate (the experiment index is
//! the "Bench → paper-figure index" section of `docs/ARCHITECTURE.md`). The
//! targets are registered with `harness = false`, so
//! `cargo bench --workspace` runs them all and prints the same rows/series
//! the paper reports; each can also be run individually, e.g.
//!
//! ```text
//! cargo bench -p pod-bench --bench fig11_speedup_dist
//! ```
//!
//! By default the serving experiments use scaled-down request counts so the
//! full suite finishes in minutes; set `POD_FULL_EVAL=1` to run them at the
//! paper's scale.

#![warn(missing_docs)]

pub mod microbench;
pub mod online;
pub mod par;

pub use par::par_map;

/// Whether the full (paper-scale) evaluation was requested via the
/// `POD_FULL_EVAL` environment variable.
pub fn full_eval() -> bool {
    std::env::var("POD_FULL_EVAL")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// Pick `quick` or `full` depending on [`full_eval`].
pub fn scaled(quick: usize, full: usize) -> usize {
    if full_eval() {
        full
    } else {
        quick
    }
}

/// Print a section header for a figure/table harness.
pub fn heading(title: &str, note: &str) {
    println!();
    println!("==== {title} ====");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
}

/// Print an aligned table: a header row followed by data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Format seconds with two decimals.
pub fn secs(seconds: f64) -> String {
    format!("{seconds:.2}")
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Summary of a sample distribution used by the Figure 11 style outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Distribution {
    /// Compute the distribution summary of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "distribution of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let q = |f: f64| llm_serving::percentile(&sorted, f);
        Distribution {
            min: sorted[0],
            p25: q(0.25),
            median: q(0.5),
            p75: q(0.75),
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_of_known_samples() {
        let d = Distribution::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.median, 3.0);
        assert_eq!(d.max, 5.0);
        assert!((d.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_respects_env() {
        // The env var is not set in tests, so the quick value is used.
        if !full_eval() {
            assert_eq!(scaled(10, 100), 10);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.00123), "1.23");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(secs(1.234), "1.23");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_distribution_panics() {
        let _ = Distribution::of(&[]);
    }
}

//! One benchmark for both clocks of the POD-Attention serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path podbench/Cargo.toml -- \
//!     --workload <fleet_chat|replica_internal|kernel_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up and runs its
//! timed unit repeatedly for about `--seconds`, checks the outputs and
//! prints a table of every metric with its unit and sample count. The last
//! line of standard output is one JSON object: the end-to-end metrics of
//! `BENCHMARK.json` with `--trace 0`, or its per-layer metrics with
//! `--trace 1`. Virtual-clock (`virt_*`) metrics are simulated time and
//! repeat exactly for a seed; host-clock metrics are medians over repeats.
//! The exit code is 0 only when every correctness check passed.

mod fleet;
mod host;
mod kernel;
mod probe;
mod replica;
mod stats;
mod trace;

use llm_serving::{JsonValue, RequestSpec, ServingEngine, ServingReport};
use std::fmt::Write as _;
use std::time::Instant;

/// A metric list of `BENCHMARK.json` (`end_to_end` or `per_layer`), as
/// `(name, unit)` pairs in file order.
fn listed(key: &str) -> Vec<(String, String)> {
    let json = JsonValue::parse(include_str!("../../BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("BENCHMARK.json does not parse: {e:?}"));
    let Some(JsonValue::Arr(items)) = json.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(JsonValue::Str(v)) => v.clone(),
                other => panic!("BENCHMARK.json {key}: {k} is not a string: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload.
type Workload = fn(&Args) -> Outcome;

/// Workloads by name.
const WORKLOADS: [(&str, Workload); 3] = [
    ("fleet_chat", fleet::run),
    ("replica_internal", replica::run),
    ("kernel_sweep", kernel::run),
];

/// Repeats of a timed unit: at least this many, however long they take.
pub const MIN_REPS: usize = 3;
/// Repeats of a timed unit: at most this many, however short they are.
pub const MAX_REPS: usize = 200;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (repeats, requests, batches or calls).
    pub samples: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests or batches attempted in one repeat.
    pub attempted: usize,
    /// Of those, not completed (blocked, simulation error or panic).
    pub failed: usize,
    /// Correctness checks: description and whether it held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics, the shared ones and this workload's own.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Host measurements of one workload: set-up and run cost per repeat.
#[derive(Debug, Default)]
pub struct HostSamples {
    pub setup: Vec<f64>,
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// Peak resident memory after the first repeat: what one set-up and
    /// run needs. Later repeats, kept only for timing, would add allocator
    /// noise that depends on how many of them fit in the run.
    pub peak_rss_mib: f64,
}

impl HostSamples {
    pub fn push(&mut self, run: host::Cost) {
        if self.wall.is_empty() {
            self.peak_rss_mib = host::peak_rss_mib();
        }
        self.wall.push(run.wall);
        self.cpu.push(run.cpu);
    }

    /// The shared host end-to-end metrics, with `completed_frac` for
    /// `attempted` and `failed`.
    pub fn e2e(&self, attempted: usize, failed: usize) -> Vec<Metric> {
        let n = self.wall.len();
        vec![
            metric("setup_s", stats::median(&self.setup), "s", self.setup.len()),
            metric("wall_s", stats::median(&self.wall), "s", n),
            metric("cpu_s", stats::median(&self.cpu), "s", n),
            metric("peak_rss_mb", self.peak_rss_mib, "MiB", 1),
            metric(
                "completed_frac",
                attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64,
                "ratio",
                attempted,
            ),
        ]
    }
}

/// A set-up sample repeats the set-up for at least this long and reports
/// the mean, so that sub-millisecond set-ups still read steadily.
const SETUP_SAMPLE_SECS: f64 = 0.05;
/// Samples behind `workload.gen_s`.
const GEN_SAMPLES: usize = 5;

/// Seconds per call of `setup`, averaged over [`SETUP_SAMPLE_SECS`].
pub fn setup_cost<R>(mut setup: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_SECS {
        std::hint::black_box(setup());
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// `workload.gen_s`: median seconds per call of the input generator.
pub fn gen_seconds<R>(mut generate: impl FnMut() -> R) -> Metric {
    let samples: Vec<f64> = (0..GEN_SAMPLES)
        .map(|_| setup_cost(&mut generate))
        .collect();
    metric("workload.gen_s", stats::median(&samples), "s", GEN_SAMPLES)
}

/// Checks and virtual-clock metrics shared by the serving workloads:
/// request and token conservation, the tail-percentile rule, TTFT, TBT and
/// SLO attainment over `specs`.
pub fn serving_outcome(report: &ServingReport, specs: &[RequestSpec], out: &mut Outcome) {
    let attempted = specs.len();
    // `out.failed` is counted from the request records, not from the
    // report, so a lost or duplicated request breaks the balance.
    out.check(
        format!(
            "requests conserved: {} completed + {} failed = {attempted} attempted",
            report.completed, out.failed
        ),
        attempted.checked_sub(report.completed) == Some(out.failed),
    );
    // Every finished request minted one first token plus one token per
    // inter-token gap.
    let output_tokens: usize = specs.iter().map(|s| s.output_tokens).sum();
    out.check(
        format!("output tokens equal the specs' total ({output_tokens})"),
        report.tbt.count + report.completed == output_tokens,
    );
    for (what, count) in [("TTFT", report.ttft.count), ("TBT", report.tbt.count)] {
        out.check(
            format!("{what} p99 has >= 10 of {count} samples beyond it"),
            stats::tail_percentile(count).map(|(_, label)| label) == Some("p99"),
        );
    }
    out.e2e.extend([
        metric("virt_ttft_p50_s", report.ttft.p50, "s", report.ttft.count),
        metric("virt_ttft_p99_s", report.ttft.p99, "s", report.ttft.count),
        metric("virt_tbt_p50_s", report.tbt.p50, "s", report.tbt.count),
        metric("virt_tbt_p99_s", report.tbt.p99, "s", report.tbt.count),
        metric(
            "virt_slo_attain",
            stats::slo_attainment(report.slo_met, attempted),
            "ratio",
            attempted,
        ),
    ]);
}

/// Results of a repeated timed unit: the first repeat's result, how many
/// repeats ran and whether every one returned the same result. Later
/// results are dropped as they come, so memory does not grow with the
/// number of repeats.
#[derive(Debug)]
pub struct Repeats<T> {
    pub first: T,
    pub count: usize,
    pub identical: bool,
}

/// Call `rep(i)` for `i = 0, 1, ...` until `seconds` have passed since
/// `start` (at least [`MIN_REPS`], at most [`MAX_REPS`] times).
pub fn repeat_for<T: PartialEq>(
    start: Instant,
    seconds: f64,
    mut rep: impl FnMut(usize) -> T,
) -> Repeats<T> {
    let mut r = Repeats {
        first: rep(0),
        count: 1,
        identical: true,
    };
    while r.count < MIN_REPS || (r.count < MAX_REPS && start.elapsed().as_secs_f64() < seconds) {
        r.identical &= rep(r.count) == r.first;
        r.count += 1;
    }
    r
}

/// Requests `engine` holds that did not finish: shed, or still queued
/// when it blocked. Counted from the request records, not the report.
pub fn unfinished(engine: &ServingEngine) -> usize {
    engine
        .requests()
        .iter()
        .filter(|r| r.finish_time.is_none())
        .count()
}

/// Run `f`, turning a panic into `None` (counted as a failure by callers).
pub fn catch<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

fn print_header() {
    println!(
        "{:<34} {:>16} {:<7} {:>8}",
        "metric", "value", "unit", "samples"
    );
}

fn print_metric(m: &Metric, note: &str) {
    println!(
        "{:<34} {:>16.6} {:<7} {:>8}{note}",
        m.name, m.value, m.unit, m.samples
    );
}

/// The result line: `{"correct","attempted","failed","metrics"}` with the
/// metrics named in `names`, in that order.
fn result_json(out: &Outcome, source: &[Metric], names: &[(String, String)]) -> String {
    let mut json = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = find(source, name).map_or(0.0, |m| m.value);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    json
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("podbench: {e}");
            std::process::exit(2);
        }
    };
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("workload validated by Args::parse")
        .1;
    // Panics inside the program are caught and counted as failures; keep
    // their messages off the result line.
    std::panic::set_hook(Box::new(|info| eprintln!("podbench: caught panic: {info}")));

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = run(&args);
    if args.trace {
        out.layers
            .push(metric("trace.spans", out.spans.len() as f64, "count", 1));
    }
    let end_to_end = listed("end_to_end");
    println!("\ncorrectness checks");
    for (what, ok) in &out.checks {
        println!("  [{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!("\nend-to-end metrics");
    print_header();
    for m in &out.e2e {
        let gated = end_to_end.iter().any(|(n, _)| *n == m.name);
        print_metric(
            m,
            if gated {
                ""
            } else {
                "  (not in BENCHMARK.json)"
            },
        );
    }
    let line = if args.trace {
        println!("\nper-layer metrics (traced run)");
        print_header();
        let per_layer = listed("per_layer");
        for (name, unit) in &per_layer {
            match find(&out.layers, name) {
                Some(m) => print_metric(m, ""),
                None => println!(
                    "{name:<34} {:>16} {unit:<7} {:>8}  (layer not loaded)",
                    0, 0
                ),
            }
        }
        println!("\nself time by layer (traced run)");
        println!(
            "{:<12} {:>9} {:>12} {:>12}",
            "layer", "calls", "total_s", "self_s"
        );
        for row in trace::self_times(&out.spans) {
            println!(
                "{:<12} {:>9} {:>12.6} {:>12.6}",
                row.layer, row.calls, row.total_s, row.self_s
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::to_jsonl(&out.spans)))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {} spans to {}", out.spans.len(), path.display());
        result_json(&out, &out.layers, &per_layer)
    } else {
        result_json(&out, &out.e2e, &end_to_end)
    };
    println!("{line}");
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_are_read_and_its_workloads_run() {
        assert!(listed("end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!listed("per_layer").is_empty());
        let json = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let Some(JsonValue::Arr(workloads)) = json.get("workloads") else {
            panic!("workloads is not an array");
        };
        for w in workloads {
            let Some(JsonValue::Str(name)) = w.get("name") else {
                panic!("workload name is not a string");
            };
            assert!(
                WORKLOADS.iter().any(|(n, _)| n == name),
                "{name} has no runner"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv(
            "--workload kernel_sweep --seed 7 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--workload fleet_chat --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload fleet_chat --seconds -1")).is_err());
        assert!(Args::parse(&argv("--seed 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        out.check("holds", true);
        let m = vec![metric("wall_s", 1.25, "s", 3)];
        let names = [("wall_s", "s"), ("cpu_s", "s")].map(|(n, u)| (n.to_string(), u.to_string()));
        let line = result_json(&out, &m, &names);
        let v = JsonValue::parse(&line).expect("result line is JSON");
        let JsonValue::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.matches("\"value\"").count(), 2);
        assert!(line.contains(r#""wall_s": {"value": 1.25, "unit": "s"}"#));
    }
}

//! CI perf-regression gate: compare freshly generated trend files against
//! the committed baselines and fail (exit 1) when a gated metric regressed
//! by more than the allowed fraction.
//!
//! ```text
//! cargo run -p pod-bench --bin perf_gate -- <baseline.json> <fresh.json> \
//!     [--cluster <cluster_baseline.json> <cluster_fresh.json>] \
//!     [--slo <slo_baseline.json> <slo_fresh.json>] \
//!     [--disagg <disagg_baseline.json> <disagg_fresh.json>] \
//!     [--fairness <fairness_baseline.json> <fairness_fresh.json>] \
//!     [--fleet <fleet_baseline.json> <fleet_fresh.json>] \
//!     [--trace <trace_baseline.json> <trace_fresh.json>] \
//!     [--decode <decode_baseline.json> <decode_fresh.json>] \
//!     [--spec <spec_baseline.json> <spec_fresh.json>] [--max-drop 0.30]
//! ```
//!
//! The positional pair is the engine trend (`BENCH_engine.json`): the two
//! headline throughputs of the PR 1 optimization work, the contention
//! engine's `engine.intervals_per_sec` and the serving loop's
//! `pricing.batches_priced_per_sec_memoized`. The optional `--cluster` pair
//! gates the fleet-level serving metric from `BENCH_cluster.json` — mean
//! completed requests per minute across every sweep cell — so a modeling or
//! scheduling regression that silently slows the simulated fleet fails CI
//! the same way a slow hot loop does. Benchmarks on shared CI runners are
//! noisy, so the default threshold is a deliberately loose 30% — the gate
//! catches "someone accidentally serialized the hot loop" (or "halved fleet
//! throughput"), not single-digit drift (the uploaded trend artifacts are
//! for that).

use llm_serving::JsonValue;
use std::process::ExitCode;

/// Dotted paths into the trend file that the gate enforces, with the
/// direction "bigger is better".
const GATED_METRICS: &[&str] = &[
    "engine.intervals_per_sec",
    "pricing.batches_priced_per_sec_memoized",
];

/// Default maximum allowed fractional drop (0.30 = 30%).
const DEFAULT_MAX_DROP: f64 = 0.30;

/// Hard ceiling on `trace.overhead_ratio` (traced / untraced wall-clock on
/// the fleet replay): tracing must cost under ten percent. Unlike the
/// cross-run throughput gates, this is an intra-run ratio — both legs run
/// in the same process on the same machine — so it is far less noisy and
/// gets a tight absolute bound instead of `--max-drop` slack.
const MAX_TRACE_OVERHEAD: f64 = 1.10;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn metric(doc: &JsonValue, path: &str, file: &str) -> Result<f64, String> {
    let v = doc
        .get_path(path)
        .ok_or_else(|| format!("{file} has no '{path}'"))?
        .as_f64()
        .ok_or_else(|| format!("{file}: '{path}' is not a number"))?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("{file}: '{path}' = {v} is not a positive number"));
    }
    Ok(v)
}

/// Mean of a per-cell metric over every sweep cell of a trend document
/// (`BENCH_cluster.json` / `BENCH_slo.json` share the cells layout).
fn mean_cell_metric(doc: &JsonValue, path: &str, file: &str) -> Result<f64, String> {
    let JsonValue::Arr(cells) = doc
        .get_path("cells")
        .ok_or_else(|| format!("{file} has no 'cells'"))?
    else {
        return Err(format!("{file}: 'cells' is not an array"));
    };
    if cells.is_empty() {
        return Err(format!("{file}: 'cells' is empty"));
    }
    let mut total = 0.0;
    for (i, cell) in cells.iter().enumerate() {
        total += cell
            .get_path(path)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{file}: cell {i} has no {path}"))?;
    }
    let mean = total / cells.len() as f64;
    if !(mean.is_finite() && mean > 0.0) {
        return Err(format!(
            "{file}: mean of {path} ({mean}) is not a positive number"
        ));
    }
    Ok(mean)
}

/// The gated cluster metric: mean fleet requests/min over every sweep cell
/// of a `BENCH_cluster.json` document.
fn fleet_requests_per_minute(doc: &JsonValue, file: &str) -> Result<f64, String> {
    mean_cell_metric(doc, "report.aggregate.requests_per_minute", file)
}

/// The gated SLO metric: mean aggregate goodput (deadline-meeting
/// completions) per minute over every sweep cell of a `BENCH_slo.json`
/// document. `BENCH_disagg.json` and `BENCH_fairness.json` share the
/// layout, so the `--disagg` and `--fairness` gates read the same path.
fn fleet_goodput_per_minute(doc: &JsonValue, file: &str) -> Result<f64, String> {
    mean_cell_metric(doc, "report.aggregate.slo.goodput_per_minute", file)
}

/// The `fleet.scaling` points of a `BENCH_fleet.json` document: replay
/// events per second at each `advance_workers` value, in file order.
fn fleet_scaling(doc: &JsonValue, file: &str) -> Result<Vec<(usize, f64)>, String> {
    let JsonValue::Arr(points) = doc
        .get_path("fleet.scaling")
        .ok_or_else(|| format!("{file} has no 'fleet.scaling'"))?
    else {
        return Err(format!("{file}: 'fleet.scaling' is not an array"));
    };
    if points.is_empty() {
        return Err(format!("{file}: 'fleet.scaling' is empty"));
    }
    points
        .iter()
        .map(|point| {
            let workers = metric(point, "advance_workers", file)? as usize;
            Ok((workers, metric(point, "events_per_sec", file)?))
        })
        .collect()
}

/// The end-of-run recap line: every gated metric's delta, pass or fail —
/// printed in **every** mode (engine-only, `--cluster`, `--slo`,
/// `--disagg`), so green CI logs always show where the trend is heading.
fn recap_line(ok: bool, deltas: &[(String, f64)]) -> String {
    let recap: Vec<String> = deltas
        .iter()
        .map(|(label, pct)| format!("{label} {pct:+.1}%"))
        .collect();
    format!(
        "per-metric deltas ({}): {}",
        if ok {
            "all within threshold"
        } else {
            "REGRESSION"
        },
        recap.join(", ")
    )
}

/// Compare one metric pair, printing the verdict row and recording the
/// delta for the end-of-run recap. Returns whether it passed.
fn check(label: &str, base: f64, now: f64, max_drop: f64, deltas: &mut Vec<(String, f64)>) -> bool {
    let ratio = now / base;
    let ok = ratio >= 1.0 - max_drop;
    println!(
        "  {label:<44} baseline {base:>14.1}  fresh {now:>14.1}  ({:+.1}%)  {}",
        (ratio - 1.0) * 100.0,
        if ok { "ok" } else { "REGRESSED" }
    );
    deltas.push((label.to_string(), (ratio - 1.0) * 100.0));
    ok
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut cluster_paths: Vec<&String> = Vec::new();
    let mut slo_paths: Vec<&String> = Vec::new();
    let mut disagg_paths: Vec<&String> = Vec::new();
    let mut fairness_paths: Vec<&String> = Vec::new();
    let mut fleet_paths: Vec<&String> = Vec::new();
    let mut trace_paths: Vec<&String> = Vec::new();
    let mut decode_paths: Vec<&String> = Vec::new();
    let mut spec_paths: Vec<&String> = Vec::new();
    let mut max_drop = DEFAULT_MAX_DROP;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--max-drop" {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--max-drop needs a value".to_string())?;
            max_drop = v
                .parse::<f64>()
                .map_err(|e| format!("invalid --max-drop {v}: {e}"))?;
            if !(0.0..1.0).contains(&max_drop) {
                return Err(format!("--max-drop must be in [0, 1), got {max_drop}"));
            }
            i += 2;
        } else if args[i] == "--cluster" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--cluster needs <baseline.json> <fresh.json>".to_string());
            };
            cluster_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--slo" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--slo needs <baseline.json> <fresh.json>".to_string());
            };
            slo_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--disagg" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--disagg needs <baseline.json> <fresh.json>".to_string());
            };
            disagg_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--fairness" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--fairness needs <baseline.json> <fresh.json>".to_string());
            };
            fairness_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--fleet" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--fleet needs <baseline.json> <fresh.json>".to_string());
            };
            fleet_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--trace" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--trace needs <baseline.json> <fresh.json>".to_string());
            };
            trace_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--decode" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--decode needs <baseline.json> <fresh.json>".to_string());
            };
            decode_paths = vec![base, fresh];
            i += 3;
        } else if args[i] == "--spec" {
            let (Some(base), Some(fresh)) = (args.get(i + 1), args.get(i + 2)) else {
                return Err("--spec needs <baseline.json> <fresh.json>".to_string());
            };
            spec_paths = vec![base, fresh];
            i += 3;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    if paths.len() != 2 {
        return Err("usage: perf_gate <baseline.json> <fresh.json> \
             [--cluster <baseline.json> <fresh.json>] \
             [--slo <baseline.json> <fresh.json>] \
             [--disagg <baseline.json> <fresh.json>] \
             [--fairness <baseline.json> <fresh.json>] \
             [--fleet <baseline.json> <fresh.json>] \
             [--trace <baseline.json> <fresh.json>] \
             [--decode <baseline.json> <fresh.json>] \
             [--spec <baseline.json> <fresh.json>] [--max-drop 0.30]"
            .to_string());
    }
    let (baseline_path, fresh_path) = (paths[0], paths[1]);

    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;

    let mut ok = true;
    let mut deltas: Vec<(String, f64)> = Vec::new();
    println!(
        "perf gate: fresh {fresh_path} vs baseline {baseline_path} (max drop {:.0}%)",
        max_drop * 100.0
    );
    for path in GATED_METRICS {
        let base = metric(&baseline, path, baseline_path)?;
        let now = metric(&fresh, path, fresh_path)?;
        ok &= check(path, base, now, max_drop, &mut deltas);
    }
    if let [cluster_base_path, cluster_fresh_path] = cluster_paths.as_slice() {
        let base = fleet_requests_per_minute(&load(cluster_base_path)?, cluster_base_path)?;
        let now = fleet_requests_per_minute(&load(cluster_fresh_path)?, cluster_fresh_path)?;
        println!("cluster gate: fresh {cluster_fresh_path} vs baseline {cluster_base_path}");
        ok &= check(
            "cluster.fleet_requests_per_minute",
            base,
            now,
            max_drop,
            &mut deltas,
        );
    }
    if let [slo_base_path, slo_fresh_path] = slo_paths.as_slice() {
        let base = fleet_goodput_per_minute(&load(slo_base_path)?, slo_base_path)?;
        let now = fleet_goodput_per_minute(&load(slo_fresh_path)?, slo_fresh_path)?;
        println!("slo gate: fresh {slo_fresh_path} vs baseline {slo_base_path}");
        ok &= check(
            "slo.mean_goodput_per_minute",
            base,
            now,
            max_drop,
            &mut deltas,
        );
    }
    if let [disagg_base_path, disagg_fresh_path] = disagg_paths.as_slice() {
        let base = fleet_goodput_per_minute(&load(disagg_base_path)?, disagg_base_path)?;
        let now = fleet_goodput_per_minute(&load(disagg_fresh_path)?, disagg_fresh_path)?;
        println!("disagg gate: fresh {disagg_fresh_path} vs baseline {disagg_base_path}");
        ok &= check(
            "disagg.mean_goodput_per_minute",
            base,
            now,
            max_drop,
            &mut deltas,
        );
    }
    if let [fair_base_path, fair_fresh_path] = fairness_paths.as_slice() {
        let base = fleet_goodput_per_minute(&load(fair_base_path)?, fair_base_path)?;
        let now = fleet_goodput_per_minute(&load(fair_fresh_path)?, fair_fresh_path)?;
        println!("fairness gate: fresh {fair_fresh_path} vs baseline {fair_base_path}");
        ok &= check(
            "fairness.mean_goodput_per_minute",
            base,
            now,
            max_drop,
            &mut deltas,
        );
    }
    if let [fleet_base_path, fleet_fresh_path] = fleet_paths.as_slice() {
        // The trace-replay gate is host throughput, not simulated
        // throughput: simulator events processed per wall-clock second while
        // replaying the committed fleet trace (`BENCH_fleet.json`) at each
        // advance-worker count. Each point is gated against the baseline at
        // the same worker count, which catches "someone serialized the
        // event-driven core"; each multi-worker point is also gated against
        // the fresh 1-worker point, which catches "more workers got slower".
        let base = fleet_scaling(&load(fleet_base_path)?, fleet_base_path)?;
        let now = fleet_scaling(&load(fleet_fresh_path)?, fleet_fresh_path)?;
        println!("fleet gate: fresh {fleet_fresh_path} vs baseline {fleet_base_path}");
        for &(workers, events_per_sec) in &now {
            let (_, base_eps) = base
                .iter()
                .find(|(w, _)| *w == workers)
                .ok_or_else(|| format!("{fleet_base_path} has no {workers}-worker point"))?;
            ok &= check(
                &format!("fleet.events_per_sec@{workers}w"),
                *base_eps,
                events_per_sec,
                max_drop,
                &mut deltas,
            );
        }
        if let Some((workers, _)) = base.iter().find(|(w, _)| !now.iter().any(|(n, _)| n == w)) {
            return Err(format!("{fleet_fresh_path} has no {workers}-worker point"));
        }
        let (_, one) = now
            .iter()
            .find(|(w, _)| *w == 1)
            .ok_or_else(|| format!("{fleet_fresh_path} has no 1-worker point"))?;
        for &(workers, events_per_sec) in now.iter().filter(|(w, _)| *w > 1) {
            ok &= check(
                &format!("fleet.events_per_sec@{workers}w vs 1w"),
                *one,
                events_per_sec,
                max_drop,
                &mut deltas,
            );
        }
    }
    if let [trace_base_path, trace_fresh_path] = trace_paths.as_slice() {
        // The tracing gate is two-sided: traced-replay host throughput must
        // not regress past the threshold (cross-run, noisy, --max-drop
        // slack), and the fresh off→on overhead ratio must stay under the
        // hard ten-percent ceiling (intra-run, tight).
        let trace_base = load(trace_base_path)?;
        let trace_fresh = load(trace_fresh_path)?;
        let base = metric(&trace_base, "trace.events_per_sec_on", trace_base_path)?;
        let now = metric(&trace_fresh, "trace.events_per_sec_on", trace_fresh_path)?;
        println!("trace gate: fresh {trace_fresh_path} vs baseline {trace_base_path}");
        ok &= check("trace.events_per_sec_on", base, now, max_drop, &mut deltas);
        let overhead = metric(&trace_fresh, "trace.overhead_ratio", trace_fresh_path)?;
        let overhead_ok = overhead <= MAX_TRACE_OVERHEAD;
        println!(
            "  {:<44} ceiling {MAX_TRACE_OVERHEAD:>14.2}  fresh {overhead:>14.3}  {}",
            "trace.overhead_ratio",
            if overhead_ok { "ok" } else { "REGRESSED" }
        );
        deltas.push(("trace.overhead_ratio".to_string(), (overhead - 1.0) * 100.0));
        ok &= overhead_ok;
    }
    if let [decode_base_path, decode_fresh_path] = decode_paths.as_slice() {
        // The shared-decode gate is a simulated-model ratio, not host
        // throughput: mean TBT speedup from KV dedup at the highest share
        // ratio of the fig21 sweep (`BENCH_decode.json`). A modeling change
        // that erodes the dedup win fails CI here.
        let base = metric(
            &load(decode_base_path)?,
            "decode.mean_tbt_speedup",
            decode_base_path,
        )?;
        let now = metric(
            &load(decode_fresh_path)?,
            "decode.mean_tbt_speedup",
            decode_fresh_path,
        )?;
        println!("decode gate: fresh {decode_fresh_path} vs baseline {decode_base_path}");
        ok &= check("decode.mean_tbt_speedup", base, now, max_drop, &mut deltas);
    }
    if let [spec_base_path, spec_fresh_path] = spec_paths.as_slice() {
        // The speculative gate is a simulated-model ratio like the decode
        // gate: POD-at-saturation makespan speedup of draft-then-verify
        // decoding at the highest swept acceptance rate (`BENCH_spec.json`).
        // A modeling change that erodes the speculation win fails CI here.
        let base = metric(
            &load(spec_base_path)?,
            "spec.makespan_speedup",
            spec_base_path,
        )?;
        let now = metric(
            &load(spec_fresh_path)?,
            "spec.makespan_speedup",
            spec_fresh_path,
        )?;
        println!("spec gate: fresh {spec_fresh_path} vs baseline {spec_base_path}");
        ok &= check("spec.makespan_speedup", base, now, max_drop, &mut deltas);
    }
    // Recap every metric delta, pass or fail, in every mode — the line a
    // reviewer scans in green CI logs to see where the trend is heading.
    println!("{}", recap_line(ok, &deltas));
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {
            println!("perf gate passed");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("perf gate FAILED: a gated metric dropped beyond the threshold");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("perf gate error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trend(intervals: f64, priced: f64) -> String {
        JsonValue::obj(vec![
            (
                "engine",
                JsonValue::obj(vec![("intervals_per_sec", JsonValue::Num(intervals))]),
            ),
            (
                "pricing",
                JsonValue::obj(vec![(
                    "batches_priced_per_sec_memoized",
                    JsonValue::Num(priced),
                )]),
            ),
        ])
        .to_string_pretty()
    }

    fn write_tmp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).expect("write temp trend file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn passes_when_fresh_is_within_threshold() {
        let base = write_tmp("perf_gate_base_ok.json", &trend(1000.0, 500.0));
        let fresh = write_tmp("perf_gate_fresh_ok.json", &trend(800.0, 450.0));
        assert_eq!(run(&[base, fresh]), Ok(true));
    }

    #[test]
    fn fails_when_a_metric_drops_too_far() {
        let base = write_tmp("perf_gate_base_bad.json", &trend(1000.0, 500.0));
        let fresh = write_tmp("perf_gate_fresh_bad.json", &trend(600.0, 500.0));
        assert_eq!(run(&[base, fresh]), Ok(false));
    }

    #[test]
    fn threshold_is_configurable() {
        let base = write_tmp("perf_gate_base_thr.json", &trend(1000.0, 500.0));
        let fresh = write_tmp("perf_gate_fresh_thr.json", &trend(850.0, 500.0));
        assert_eq!(
            run(&[
                base.clone(),
                fresh.clone(),
                "--max-drop".to_string(),
                "0.10".to_string()
            ]),
            Ok(false)
        );
        assert_eq!(
            run(&[base, fresh, "--max-drop".to_string(), "0.20".to_string()]),
            Ok(true)
        );
    }

    fn cluster_trend(rpms: &[f64]) -> String {
        JsonValue::obj(vec![(
            "cells",
            JsonValue::Arr(
                rpms.iter()
                    .map(|&rpm| {
                        JsonValue::obj(vec![(
                            "report",
                            JsonValue::obj(vec![(
                                "aggregate",
                                JsonValue::obj(vec![("requests_per_minute", JsonValue::Num(rpm))]),
                            )]),
                        )])
                    })
                    .collect(),
            ),
        )])
        .to_string_pretty()
    }

    #[test]
    fn cluster_metric_gates_fleet_throughput() {
        let eng_base = write_tmp("perf_gate_c_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_c_eng_fresh.json", &trend(1000.0, 500.0));
        let cl_base = write_tmp("perf_gate_cl_base.json", &cluster_trend(&[10.0, 20.0]));
        // Mean 15 -> 12 is a 20% drop: passes at 30%.
        let cl_ok = write_tmp("perf_gate_cl_ok.json", &cluster_trend(&[8.0, 16.0]));
        // Mean 15 -> 9 is a 40% drop: fails.
        let cl_bad = write_tmp("perf_gate_cl_bad.json", &cluster_trend(&[6.0, 12.0]));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--cluster".to_string(),
                cl_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&cl_ok)), Ok(true));
        assert_eq!(run(&args(&cl_bad)), Ok(false));
        // A malformed cluster file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_cl_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    fn slo_trend(goodputs: &[f64]) -> String {
        JsonValue::obj(vec![(
            "cells",
            JsonValue::Arr(
                goodputs
                    .iter()
                    .map(|&g| {
                        JsonValue::obj(vec![(
                            "report",
                            JsonValue::obj(vec![(
                                "aggregate",
                                JsonValue::obj(vec![(
                                    "slo",
                                    JsonValue::obj(vec![("goodput_per_minute", JsonValue::Num(g))]),
                                )]),
                            )]),
                        )])
                    })
                    .collect(),
            ),
        )])
        .to_string_pretty()
    }

    #[test]
    fn slo_metric_gates_mean_goodput() {
        let eng_base = write_tmp("perf_gate_s_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_s_eng_fresh.json", &trend(1000.0, 500.0));
        let slo_base = write_tmp("perf_gate_slo_base.json", &slo_trend(&[60.0, 120.0]));
        // Mean 90 -> 72 is a 20% drop: passes at 30%.
        let slo_ok = write_tmp("perf_gate_slo_ok.json", &slo_trend(&[48.0, 96.0]));
        // Mean 90 -> 45 is a 50% drop: fails — the doctored baseline the CI
        // wiring was verified against.
        let slo_bad = write_tmp("perf_gate_slo_bad.json", &slo_trend(&[30.0, 60.0]));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--slo".to_string(),
                slo_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&slo_ok)), Ok(true));
        assert_eq!(run(&args(&slo_bad)), Ok(false));
        // A malformed SLO file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_slo_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
        // A cells file missing the slo block is an error too.
        let no_slo = write_tmp("perf_gate_slo_noslo.json", &cluster_trend(&[10.0]));
        assert!(run(&args(&no_slo)).is_err());
    }

    #[test]
    fn disagg_metric_gates_mean_goodput() {
        // BENCH_disagg.json shares the slo-cells layout, so the same
        // trend-builder exercises the --disagg flag.
        let eng_base = write_tmp("perf_gate_d_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_d_eng_fresh.json", &trend(1000.0, 500.0));
        let dis_base = write_tmp("perf_gate_dis_base.json", &slo_trend(&[80.0, 120.0]));
        // Mean 100 -> 80 is a 20% drop: passes at 30%.
        let dis_ok = write_tmp("perf_gate_dis_ok.json", &slo_trend(&[64.0, 96.0]));
        // Mean 100 -> 50 is a 50% drop: fails.
        let dis_bad = write_tmp("perf_gate_dis_bad.json", &slo_trend(&[40.0, 60.0]));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--disagg".to_string(),
                dis_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&dis_ok)), Ok(true));
        assert_eq!(run(&args(&dis_bad)), Ok(false));
        let empty = write_tmp("perf_gate_dis_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    #[test]
    fn fairness_metric_gates_mean_goodput() {
        // BENCH_fairness.json shares the slo-cells layout, so the same
        // trend-builder exercises the --fairness flag.
        let eng_base = write_tmp("perf_gate_fa_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_fa_eng_fresh.json", &trend(1000.0, 500.0));
        let fa_base = write_tmp("perf_gate_fa_base.json", &slo_trend(&[90.0, 150.0]));
        // Mean 120 -> 96 is a 20% drop: passes at 30%.
        let fa_ok = write_tmp("perf_gate_fa_ok.json", &slo_trend(&[72.0, 120.0]));
        // Mean 120 -> 60 is a 50% drop: fails — the doctored baseline the CI
        // wiring was verified against.
        let fa_bad = write_tmp("perf_gate_fa_bad.json", &slo_trend(&[45.0, 75.0]));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--fairness".to_string(),
                fa_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&fa_ok)), Ok(true));
        assert_eq!(run(&args(&fa_bad)), Ok(false));
        // A malformed fairness file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_fa_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    /// A fleet trend with one `(advance_workers, events_per_sec)` point
    /// per entry.
    fn fleet_trend(points: &[(usize, f64)]) -> String {
        let scaling = points
            .iter()
            .map(|&(workers, eps)| {
                JsonValue::obj(vec![
                    ("advance_workers", JsonValue::Num(workers as f64)),
                    ("events_per_sec", JsonValue::Num(eps)),
                ])
            })
            .collect();
        JsonValue::obj(vec![(
            "fleet",
            JsonValue::obj(vec![("scaling", JsonValue::Arr(scaling))]),
        )])
        .to_string_pretty()
    }

    #[test]
    fn fleet_metric_gates_replay_throughput() {
        let eng_base = write_tmp("perf_gate_f_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_f_eng_fresh.json", &trend(1000.0, 500.0));
        let fl_base = write_tmp(
            "perf_gate_fl_base.json",
            &fleet_trend(&[(1, 200_000.0), (2, 200_000.0), (4, 200_000.0)]),
        );
        // 20% drop at every worker count: passes at the default 30%.
        let fl_ok = write_tmp(
            "perf_gate_fl_ok.json",
            &fleet_trend(&[(1, 160_000.0), (2, 160_000.0), (4, 170_000.0)]),
        );
        // 50% drop at 2 workers: fails — the doctored baseline the CI
        // wiring was verified against.
        let fl_bad = write_tmp(
            "perf_gate_fl_bad.json",
            &fleet_trend(&[(1, 200_000.0), (2, 100_000.0), (4, 200_000.0)]),
        );
        let args = |base: &str, fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--fleet".to_string(),
                base.to_string(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&fl_base, &fl_ok)), Ok(true));
        assert_eq!(run(&args(&fl_base, &fl_bad)), Ok(false));
        // A doctored baseline already carrying the slow 2-worker point: the
        // per-count gate passes, but 2 workers fall more than --max-drop
        // below the fresh 1-worker point, so the scaling gate fails.
        assert_eq!(run(&args(&fl_bad, &fl_bad)), Ok(false));
        // A malformed fleet file, a fresh point the baseline lacks, or a
        // baseline point the fresh file lacks, is an error, not a silent
        // pass.
        let empty = write_tmp("perf_gate_fl_empty.json", "{}\n");
        assert!(run(&args(&fl_base, &empty)).is_err());
        let extra = write_tmp(
            "perf_gate_fl_extra.json",
            &fleet_trend(&[(1, 200_000.0), (8, 200_000.0)]),
        );
        assert!(run(&args(&fl_base, &extra)).is_err());
        let no_one = write_tmp("perf_gate_fl_no_one.json", &fleet_trend(&[(2, 200_000.0)]));
        assert!(run(&args(&fl_base, &no_one)).is_err());
        let no_four = write_tmp(
            "perf_gate_fl_no_four.json",
            &fleet_trend(&[(1, 200_000.0), (2, 200_000.0)]),
        );
        assert!(run(&args(&fl_base, &no_four)).is_err());
    }

    fn trace_trend(events_per_sec_on: f64, overhead_ratio: f64) -> String {
        JsonValue::obj(vec![(
            "trace",
            JsonValue::obj(vec![
                ("events_per_sec_on", JsonValue::Num(events_per_sec_on)),
                ("overhead_ratio", JsonValue::Num(overhead_ratio)),
            ]),
        )])
        .to_string_pretty()
    }

    #[test]
    fn trace_metric_gates_traced_throughput_and_overhead() {
        let eng_base = write_tmp("perf_gate_t_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_t_eng_fresh.json", &trend(1000.0, 500.0));
        let tr_base = write_tmp("perf_gate_tr_base.json", &trace_trend(180_000.0, 1.05));
        // 20% throughput drop, 4% overhead: passes.
        let tr_ok = write_tmp("perf_gate_tr_ok.json", &trace_trend(144_000.0, 1.04));
        // 50% throughput drop: fails — the doctored baseline the CI wiring
        // was verified against.
        let tr_slow = write_tmp("perf_gate_tr_slow.json", &trace_trend(90_000.0, 1.04));
        // Throughput fine, but tracing now costs 25%: the overhead ceiling
        // fails independently of the cross-run comparison.
        let tr_heavy = write_tmp("perf_gate_tr_heavy.json", &trace_trend(180_000.0, 1.25));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--trace".to_string(),
                tr_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&tr_ok)), Ok(true));
        assert_eq!(run(&args(&tr_slow)), Ok(false));
        assert_eq!(run(&args(&tr_heavy)), Ok(false));
        // A malformed trace file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_tr_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    fn decode_trend(mean_tbt_speedup: f64) -> String {
        JsonValue::obj(vec![(
            "decode",
            JsonValue::obj(vec![("mean_tbt_speedup", JsonValue::Num(mean_tbt_speedup))]),
        )])
        .to_string_pretty()
    }

    #[test]
    fn decode_metric_gates_dedup_tbt_speedup() {
        let eng_base = write_tmp("perf_gate_de_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_de_eng_fresh.json", &trend(1000.0, 500.0));
        let de_base = write_tmp("perf_gate_de_base.json", &decode_trend(1.20));
        // 1.20 -> 1.02 is a 15% drop: passes at the default 30%.
        let de_ok = write_tmp("perf_gate_de_ok.json", &decode_trend(1.02));
        // 1.20 -> 0.60 is a 50% drop: fails — the doctored baseline the CI
        // wiring was verified against.
        let de_bad = write_tmp("perf_gate_de_bad.json", &decode_trend(0.60));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--decode".to_string(),
                de_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&de_ok)), Ok(true));
        assert_eq!(run(&args(&de_bad)), Ok(false));
        // A malformed decode file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_de_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    fn spec_trend(makespan_speedup: f64) -> String {
        JsonValue::obj(vec![(
            "spec",
            JsonValue::obj(vec![("makespan_speedup", JsonValue::Num(makespan_speedup))]),
        )])
        .to_string_pretty()
    }

    #[test]
    fn spec_metric_gates_speculative_makespan_speedup() {
        let eng_base = write_tmp("perf_gate_sp_eng_base.json", &trend(1000.0, 500.0));
        let eng_fresh = write_tmp("perf_gate_sp_eng_fresh.json", &trend(1000.0, 500.0));
        let sp_base = write_tmp("perf_gate_sp_base.json", &spec_trend(1.25));
        // 1.25 -> 1.00 is a 20% drop: passes at the default 30%.
        let sp_ok = write_tmp("perf_gate_sp_ok.json", &spec_trend(1.00));
        // 1.25 -> 0.625 is a 50% drop: fails — the doctored baseline the CI
        // wiring was verified against.
        let sp_bad = write_tmp("perf_gate_sp_bad.json", &spec_trend(0.625));
        let args = |fresh: &str| {
            vec![
                eng_base.clone(),
                eng_fresh.clone(),
                "--spec".to_string(),
                sp_base.clone(),
                fresh.to_string(),
            ]
        };
        assert_eq!(run(&args(&sp_ok)), Ok(true));
        assert_eq!(run(&args(&sp_bad)), Ok(false));
        // A malformed spec file is an error, not a silent pass.
        let empty = write_tmp("perf_gate_sp_empty.json", "{}\n");
        assert!(run(&args(&empty)).is_err());
    }

    #[test]
    fn recap_covers_every_checked_metric_in_every_mode() {
        // The recap is built from whatever deltas accumulated — the
        // engine-only pair, or engine + any optional gates — so no mode can
        // silently drop it.
        let engine_only = recap_line(
            true,
            &[
                ("engine.intervals_per_sec".to_string(), 2.0),
                ("pricing.batches_priced_per_sec_memoized".to_string(), -1.0),
            ],
        );
        assert!(engine_only.contains("all within threshold"));
        assert!(engine_only.contains("engine.intervals_per_sec +2.0%"));
        assert!(engine_only.contains("-1.0%"));
        let failing = recap_line(
            false,
            &[("disagg.mean_goodput_per_minute".to_string(), -45.0)],
        );
        assert!(failing.contains("REGRESSION"));
        assert!(failing.contains("disagg.mean_goodput_per_minute -45.0%"));
    }

    #[test]
    fn missing_metrics_and_files_are_errors() {
        let empty = write_tmp("perf_gate_empty.json", "{}\n");
        let good = write_tmp("perf_gate_good.json", &trend(1.0, 1.0));
        assert!(run(&[empty, good.clone()]).is_err());
        assert!(run(&["/nonexistent/x.json".to_string(), good]).is_err());
        assert!(run(&[]).is_err());
    }
}

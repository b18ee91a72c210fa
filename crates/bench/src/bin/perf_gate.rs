//! CI perf gate: `perf_gate <baseline_dir> <fresh_dir>` compares each fresh
//! `BENCH_*.json` trend file with the baseline of the same name and exits 1
//! on any regression; a file on only one side is an error.
//!
//! * **Virtual values** (every leaf outside the top-level `host` object) come
//!   from the deterministic simulation and must equal the baseline: numbers
//!   within 1e-9 relative, everything else exactly, with the same keys and
//!   array lengths. An intended model change re-baselines in the same diff.
//! * **Host values** (wall-clock, under `host`) are noisy; only the rows of
//!   [`HOST_GATES`] are gated.

use llm_serving::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;
use Rule::*;

/// Largest fractional drop a [`Rule::Slack`] row allows: CI runners are noisy.
const MAX_DROP: f64 = 0.30;

/// Relative tolerance on virtual numbers (a baseline 0 must match exactly).
const VIRTUAL_RTOL: f64 = 1e-9;

/// How a host value is gated: fresh ≥ (1 − [`MAX_DROP`]) × baseline, or
/// against a fixed floor or ceiling.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Slack,
    AtLeast(f64),
    AtMost(f64),
}

/// Gated host metrics: (`BENCH_<file>.json`, path under `host`, rule). The
/// fleet speedups and trace overhead compare two legs of one run.
const HOST_GATES: &[(&str, &str, Rule)] = &[
    ("engine", "engine.intervals_per_sec", Slack),
    ("engine", "engine.pod_c0_calls_per_sec", Slack),
    (
        "engine",
        "engine.fa_serial_llama2_wide_decode_calls_per_sec",
        Slack,
    ),
    ("engine", "pricing.batches_priced_per_sec_memoized", Slack),
    ("engine", "kv_pool.blocks_per_sec", Slack),
    ("engine", "kv_pool.wide_blocks_per_sec", Slack),
    ("fleet", "scaling.1.events_per_sec", Slack),
    ("fleet", "scaling.2.events_per_sec", Slack),
    ("fleet", "scaling.4.events_per_sec", Slack),
    ("fleet", "scaling.2.speedup_vs_1_worker", AtLeast(0.70)),
    ("fleet", "scaling.4.speedup_vs_1_worker", AtLeast(0.70)),
    ("trace", "events_per_sec_on", Slack),
    ("trace", "overhead_ratio", AtMost(1.10)),
];

/// Trend files keyed by `<name>` of `BENCH_<name>.json`.
type Docs = BTreeMap<String, JsonValue>;

fn load_dir(dir: &str) -> Result<Docs, String> {
    let mut docs = Docs::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir}: {e}"))? {
        let path = entry.map_err(|e| format!("cannot list {dir}: {e}"))?.path();
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let name = file
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"));
        if let Some(name) = name {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{dir}/{file}: {e}"))?;
            let doc = JsonValue::parse(&text).map_err(|e| format!("{dir}/{file}: {e}"))?;
            docs.insert(name.to_string(), doc);
        }
    }
    if docs.is_empty() {
        return Err(format!("{dir} holds no BENCH_*.json files"));
    }
    Ok(docs)
}

/// Append to `out` each jq-style path (`.cells[0].n`) where `now` differs from `base`.
fn diff_virtual(base: &JsonValue, now: &JsonValue, path: &str, out: &mut Vec<String>) {
    match (base, now) {
        (JsonValue::Obj(b), JsonValue::Obj(n)) => {
            let added = n.iter().filter(|(k, _)| base.get(k).is_none());
            for (k, _) in b.iter().chain(added) {
                match (base.get(k), now.get(k)) {
                    _ if path.is_empty() && k == "host" => {}
                    (Some(b), Some(n)) => diff_virtual(b, n, &format!("{path}.{k}"), out),
                    (Some(_), None) => out.push(format!("{path}.{k}: key removed")),
                    _ => out.push(format!("{path}.{k}: key added")),
                }
            }
        }
        (JsonValue::Arr(b), JsonValue::Arr(n)) if b.len() == n.len() => {
            for (i, (b, n)) in b.iter().zip(n).enumerate() {
                diff_virtual(b, n, &format!("{path}[{i}]"), out);
            }
        }
        (JsonValue::Num(b), JsonValue::Num(n)) if (b - n).abs() <= VIRTUAL_RTOL * b.abs() => {}
        _ if base == now => {}
        _ => out.push(format!("{path}: baseline {base:?} fresh {now:?}")),
    }
}

/// One `(passed, line)` per trend file (listing up to eight differences, each
/// cut at 200 characters) and per host row.
fn gate(baseline: &Docs, fresh: &Docs) -> Vec<(bool, String)> {
    let mut checks = Vec::new();
    let fresh_only = fresh.keys().filter(|name| !baseline.contains_key(*name));
    for name in baseline.keys().chain(fresh_only) {
        let mut diffs = Vec::new();
        match (baseline.get(name), fresh.get(name)) {
            (Some(base), Some(now)) => diff_virtual(base, now, "", &mut diffs),
            (Some(_), None) => diffs.push("file missing from the fresh directory".into()),
            _ => diffs.push("file has no baseline".into()),
        }
        let (n, shown) = (diffs.len(), diffs.iter().take(8));
        let shown: String = shown.map(|d| format!("\n    {d:.200}")).collect();
        let line = format!("BENCH_{name}.json: {n} virtual differences{shown}");
        checks.push((n == 0, line));
    }
    for &(file, path, rule) in HOST_GATES {
        // A missing value reads as NaN, which fails every comparison.
        let value = |docs: &Docs| {
            let doc = docs.get(file).and_then(|d| d.get("host")?.get_path(path));
            doc.and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
        };
        let now = value(fresh);
        let (lo, hi) = match rule {
            Slack => ((1.0 - MAX_DROP) * value(baseline), f64::INFINITY),
            AtLeast(floor) => (floor, f64::INFINITY),
            AtMost(ceiling) => (f64::NEG_INFINITY, ceiling),
        };
        let line = format!("BENCH_{file}.json: host.{path} = {now:.3}, allowed [{lo:.3}, {hi}]");
        checks.push(((lo..=hi).contains(&now), line));
    }
    checks
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checks = match args.as_slice() {
        [base, fresh] => load_dir(base).and_then(|b| Ok(gate(&b, &load_dir(fresh)?))),
        _ => Err("usage: perf_gate <baseline_dir> <fresh_dir>".into()),
    };
    let checks = checks.unwrap_or_else(|e| vec![(false, e)]);
    for (ok, line) in &checks {
        println!("{:<6} {line}", if *ok { "ok" } else { "FAILED" });
    }
    let ok = checks.iter().all(|(ok, _)| *ok);
    println!("perf gate {}", if ok { "passed" } else { "FAILED" });
    ExitCode::from(u8::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Docs {
        load_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).expect("trend files")
    }

    /// Failing lines of the committed files, after `edit`, against themselves.
    fn failures(edit: impl FnOnce(&mut Docs)) -> Vec<String> {
        let (base, mut fresh) = (committed(), committed());
        edit(&mut fresh);
        let checks = gate(&base, &fresh).into_iter();
        checks.filter(|(ok, _)| !ok).map(|(_, line)| line).collect()
    }

    /// The value at a dotted `path` (array indices as numbers) in `file`.
    fn leaf<'a>(docs: &'a mut Docs, file: &str, path: &str) -> &'a mut JsonValue {
        let root = docs.get_mut(file).expect(file);
        path.split('.').fold(root, |v, key| match v {
            JsonValue::Obj(e) => &mut e.iter_mut().find(|(k, _)| k == key).expect(path).1,
            JsonValue::Arr(items) => &mut items[key.parse::<usize>().expect(path)],
            _ => panic!("{path} runs through a leaf"),
        })
    }

    /// Setting the number at `file`/`path` to `pass` passes; setting it to
    /// `fail` fails on that file or row alone.
    fn assert_gated(file: &str, path: &str, pass: impl Fn(f64) -> f64, fail: impl Fn(f64) -> f64) {
        let v = leaf(&mut committed(), file, path).as_f64().expect(path);
        let set = |x: f64| failures(|docs| *leaf(docs, file, path) = JsonValue::Num(x));
        assert_eq!(set(pass(v)), Vec::<String>::new(), "{path}");
        let failed = set(fail(v));
        assert_eq!(failed.len(), 1, "{path}: {failed:?}");
        let key = path.rsplit('.').next().unwrap();
        assert!(failed[0].contains(key), "{path}: {failed:?}");
    }

    /// Each of `file`'s host rows passes at −20% or on its bound, and fails
    /// at −35% or just past its bound.
    fn assert_host_rows_gated(file: &str) {
        for &(_, path, rule) in HOST_GATES.iter().filter(|row| row.0 == file) {
            let path = &format!("host.{path}");
            match rule {
                Slack => assert_gated(file, path, |v| 0.80 * v, |v| 0.65 * v),
                AtLeast(b) => assert_gated(file, path, |_| b, |_| b - 1e-9),
                AtMost(b) => assert_gated(file, path, |_| b, |_| b + 1e-9),
            }
        }
    }

    /// A 1e-6 relative change to a virtual number fails; a 1e-12 one passes.
    fn assert_exact(file: &str, path: &str) {
        assert_gated(file, path, |v| v * (1.0 + 1e-12), |v| v * (1.0 + 1e-6));
    }

    /// One `#[test]` per row: a test name and the assertion it makes.
    macro_rules! cases {
        ($($name:ident: $check:expr;)*) => { $(#[test] fn $name() { $check; })* };
    }

    cases! {
        passes_when_fresh_is_within_threshold: assert_eq!(failures(|_| {}), Vec::<String>::new());
        fails_when_a_metric_drops_too_far: assert_host_rows_gated("engine");
        fleet_metric_gates_replay_throughput: assert_host_rows_gated("fleet");
        trace_metric_gates_traced_throughput_and_overhead: assert_host_rows_gated("trace");
        engine_virtual_values_are_exact: assert_exact("engine", "engine.pod_c0_intervals");
        fleet_virtual_values_are_exact: assert_exact("fleet", "report.per_role.0.report.makespan");
        trace_virtual_values_are_exact: assert_exact("trace", "trace.timeline.kv_utilization.p99");
        prefix_virtual_values_are_exact: assert_exact("prefix", "cells.0.report.ttft.p99");
        cluster_metric_gates_fleet_throughput:
            assert_exact("cluster", "cells.0.report.aggregate.requests_per_minute");
        slo_metric_gates_mean_goodput:
            assert_exact("slo", "cells.0.report.aggregate.slo.goodput_per_minute");
        disagg_metric_gates_mean_goodput:
            assert_exact("disagg", "cells.0.report.aggregate.slo.goodput_per_minute");
        fairness_metric_gates_mean_goodput:
            assert_exact("fairness", "cells.0.report.aggregate.slo.goodput_per_minute");
        decode_metric_gates_dedup_tbt_speedup: assert_exact("decode", "decode.mean_tbt_speedup");
        spec_metric_gates_speculative_makespan_speedup:
            assert_exact("spec", "spec.makespan_speedup");
    }

    #[test]
    fn missing_metrics_and_files_are_errors() {
        let one = |edit: &dyn Fn(&mut Docs)| assert_eq!(failures(edit).len(), 1);
        one(&|d| drop(d.remove("prefix")));
        one(&|d| drop(d.insert("new".into(), JsonValue::Null)));
        one(&|d| *leaf(d, "trace", "host.events_per_sec_on") = JsonValue::Null);
        assert!(load_dir("/nonexistent").is_err());
        // Key sets and array lengths must match, and a zero baseline admits
        // no slack at all; the top-level `host` object is not virtual.
        let doc = |json: &str| Docs::from([("x".into(), JsonValue::parse(json).unwrap())]);
        for (base, fresh, passes) in [
            (r#"{"n": 0, "a": [1]}"#, r#"{"n": 0, "a": [1]}"#, true),
            (r#"{"host": {"n": 1}}"#, r#"{"host": {"m": 2}}"#, true),
            (r#"{"n": 0}"#, r#"{"n": 1e-300}"#, false),
            (r#"{"a": [1]}"#, r#"{"a": [1, 1]}"#, false),
            (r#"{"a": ["s"]}"#, r#"{"a": ["t"]}"#, false),
            (r#"{"n": 0}"#, r#"{"n": 0, "m": 0}"#, false),
            (r#"{"n": 0, "m": 0}"#, r#"{"n": 0}"#, false),
        ] {
            let ok = gate(&doc(base), &doc(fresh))[0].0;
            assert_eq!(ok, passes, "{base} vs {fresh}");
        }
    }
}

//! The shared harness of the serving benches: the online latency tables
//! (Tables 5–7) and the trend-writing sweeps. A sweep is a grid of cells
//! plus a function that simulates one cell ([`Sweep`]), usually on the two
//! [`backends`], and writes its cells with [`write_trend`]; `trace_replay`
//! and `trace_overhead` replay one [`FleetReplay`].

use crate::microbench::repo_root_path;
use crate::{par_map, pct, print_table, scaled, secs};
use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, ClusterReport, JsonValue, ModelConfig, RateSchedule, RateSegment,
    RequestSpec, RouterPolicy, ServingConfig, ServingEngine, ServingReport, SharedPrefixWorkload,
    SloMix, Workload,
};
use std::fmt::Debug;

/// Sarathi and Sarathi+POD at chunk 1024, in that order: the backend pair
/// every serving sweep compares (backend index 0 and 1).
pub fn backends(model: &ModelConfig, gpu: &GpuConfig) -> [ServingConfig; 2] {
    [
        ServingConfig::sarathi(model.clone(), gpu.clone(), 1024),
        ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 1024),
    ]
}

/// A grid of independent cells and each cell's result, in grid order.
#[derive(Debug)]
pub struct Sweep<C, R> {
    cells: Vec<C>,
    results: Vec<R>,
}

impl<C, R> Sweep<C, R>
where
    C: Copy + PartialEq + Debug + Send,
    R: Send,
{
    /// Simulate every cell of `cells` with `run`, fanned out through
    /// [`par_map`].
    pub fn run(cells: Vec<C>, run: impl Fn(C) -> R + Sync) -> Self {
        let results = par_map(cells.clone(), run);
        Sweep { cells, results }
    }

    /// The result of `cell`.
    ///
    /// # Panics
    ///
    /// Panics, naming the cell, if `cell` is not in the grid.
    pub fn get(&self, cell: C) -> &R {
        let i = self
            .cells
            .iter()
            .position(|&c| c == cell)
            .unwrap_or_else(|| panic!("sweep cell {cell:?} is not in the grid"));
        &self.results[i]
    }

    /// Every cell with its result, in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (C, &R)> {
        self.cells.iter().copied().zip(&self.results)
    }

    /// Print a table with one `row` per cell, in grid order.
    pub fn print_rows(&self, headers: &[&str], row: impl Fn(C, &R) -> Vec<String>) {
        let rows: Vec<Vec<String>> = self.iter().map(|(cell, r)| row(cell, r)).collect();
        print_table(headers, &rows);
    }
}

/// The share ratios of the prefix sweeps (Figures 17 and 21).
pub const SHARE_RATIOS: [f64; 4] = [0.0, 0.3, 0.6, 0.9];
const PREFIX_GROUPS: usize = 4;
// Deliberately not a multiple of BLOCK_TOKENS: real system prompts are not
// block-aligned, and the misalignment exercises the copy-on-write path and
// the partial-block boundary of the decode-dedup grouping key.
const PREFIX_TOKENS: usize = 2043;
const FOLLOWUP_RATIO: f64 = 0.35;
const PREFIX_SEED: u64 = 7;

/// The shared-system-prompt trace of the prefix sweeps (Figures 17 and 21):
/// internal-mix requests, a share ratio of them opening with one of 4
/// ~2K-token system prompts, 35% of those multi-turn follow-ups.
#[derive(Debug, Clone, Copy)]
pub struct SharedPrefixTrace {
    /// Requests per trace.
    pub num_requests: usize,
    /// Poisson arrival rate.
    pub qps: f64,
}

impl SharedPrefixTrace {
    /// The prefix sweeps' grid: every (share ratio index, backend index,
    /// feature on/off), the feature on first.
    pub fn cells() -> Vec<(usize, usize, bool)> {
        let on_off = |si| (0..2).flat_map(move |bi| [true, false].map(move |on| (si, bi, on)));
        (0..SHARE_RATIOS.len()).flat_map(on_off).collect()
    }

    /// The trace at `share_ratio`; every call at one ratio is the same trace.
    pub fn generate(&self, share_ratio: f64) -> Vec<RequestSpec> {
        SharedPrefixWorkload::new(
            Workload::internal(),
            PREFIX_GROUPS,
            PREFIX_TOKENS,
            share_ratio,
            FOLLOWUP_RATIO,
        )
        .generate(self.num_requests, self.qps, PREFIX_SEED)
    }

    /// The `workload` fields of the sweep's trend file.
    pub fn fields(&self) -> Fields<'static> {
        vec![
            ("trace", JsonValue::str("internal/shared-prefix")),
            ("groups", JsonValue::Num(PREFIX_GROUPS as f64)),
            ("prefix_tokens", JsonValue::Num(PREFIX_TOKENS as f64)),
            ("followup_ratio", JsonValue::Num(FOLLOWUP_RATIO)),
            ("qps", JsonValue::Num(self.qps)),
            ("num_requests", JsonValue::Num(self.num_requests as f64)),
            ("seed", JsonValue::Num(PREFIX_SEED as f64)),
        ]
    }
}

/// The SLO-tagged trace of the goodput sweeps (Figures 18 and 19): the
/// internal mix at `qps`, 70% interactive and 30% batch requests.
pub fn slo_trace(num_requests: usize, qps: f64, seed: u64) -> Vec<RequestSpec> {
    let specs = Workload::internal().generate(num_requests, qps, seed);
    SloMix::interactive_batch().apply(specs, seed)
}

/// The fields of one JSON object, in the order they are written.
pub type Fields<'a> = Vec<(&'a str, JsonValue)>;

/// The trend file [`write_trend`] writes.
fn trend_json(workload: Fields, sections: Fields, cells: Vec<Fields>) -> JsonValue {
    let mut top = vec![("workload", JsonValue::obj(workload))];
    top.extend(sections);
    top.push((
        "cells",
        JsonValue::Arr(cells.into_iter().map(JsonValue::obj).collect()),
    ));
    JsonValue::obj(top)
}

/// Write a sweep's trend file at the repository root: `workload` first,
/// then `sections` (the sweep's gated summary, if it has one), then `cells`,
/// one object per sweep cell; every object keeps its fields in the order
/// given.
pub fn write_trend(file: &str, workload: Fields, sections: Fields, cells: Vec<Fields>) {
    write_json(file, &trend_json(workload, sections, cells));
}

/// Write `json`, pretty-printed, to `file` at the repository root and print
/// where it went.
pub fn write_json(file: &str, json: &JsonValue) {
    let path = repo_root_path(file);
    std::fs::write(&path, json.to_string_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// The fleet replay that `trace_replay` times and `trace_overhead` traces:
/// interactive chat traffic (short prompts and answers, so host cost follows
/// request counts) on a diurnal curve with flash bursts, replayed on
/// Sarathi+POD replicas (chunk 1024) with streaming metrics.
#[derive(Debug)]
pub struct FleetReplay {
    /// Requests in the trace: 2M, or 4M under `POD_FULL_EVAL`.
    pub num_requests: usize,
    /// The arrival trace.
    pub trace: Vec<RequestSpec>,
    /// The replica configuration.
    pub base: ServingConfig,
}

/// The replay's diurnal curve: trough 60 qps, peak 200 qps over a one-hour
/// cycle of 12 steps, each ending in a 10 s burst at +80 qps. Its mean is
/// ~133 qps, so 2M requests span ~4.2 virtual hours; peak-with-burst is ~280
/// qps across 16 replicas, below fleet capacity, so the backlog drains every
/// cycle instead of compounding.
const DIURNAL: [(&str, f64); 6] = [
    ("trough_qps", 60.0),
    ("peak_qps", 200.0),
    ("period_secs", 3600.0),
    ("steps", 12.0),
    ("burst_qps", 80.0),
    ("burst_secs", 10.0),
];

impl FleetReplay {
    /// Replicas in the timed fleet.
    pub const REPLICAS: usize = 16;
    /// Trace seed.
    pub const SEED: u64 = 42;

    /// Generate the trace and the replica configuration.
    pub fn generate() -> Self {
        let num_requests = scaled(2_000_000, 4_000_000);
        println!("generating {num_requests}-request trace ...");
        let chat = Workload {
            name: "chat-small".to_string(),
            mean_context: 320.0,
            context_range: (64, 2048),
            mean_decode: 8.0,
            min_decode: 2,
        };
        let model = ModelConfig::llama3_8b();
        FleetReplay {
            num_requests,
            trace: chat.generate_trace(num_requests, &diurnal_with_bursts(), Self::SEED),
            base: ServingConfig::sarathi_pod(model, GpuConfig::a100_80gb(), 1024)
                .with_streaming_metrics(true),
        }
    }

    /// The `workload` section of a replay's trend file.
    pub fn workload_json(num_requests: usize) -> JsonValue {
        let mut fields = vec![("trace", JsonValue::str("chat-small/diurnal+bursts"))];
        fields.extend(DIURNAL.map(|(key, value)| (key, JsonValue::Num(value))));
        fields.push(("num_requests", JsonValue::Num(num_requests as f64)));
        fields.push(("seed", JsonValue::Num(Self::SEED as f64)));
        JsonValue::obj(fields)
    }

    /// The first 20K requests of `trace` (50K under `POD_FULL_EVAL`), for the
    /// spot checks run on a small fleet before the timed replays.
    pub fn spot_check_prefix(trace: &[RequestSpec]) -> Vec<RequestSpec> {
        trace.iter().take(scaled(20_000, 50_000)).cloned().collect()
    }

    /// A fleet of `replicas` replicas of `base` behind the
    /// least-outstanding-tokens router.
    pub fn cluster(base: ServingConfig, replicas: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(
            base,
            replicas,
            RouterPolicy::LeastOutstandingTokens,
        ))
    }
}

/// [`DIURNAL`] as a rate schedule: cosine-shaped steps, each ending in its
/// burst above the step's base rate.
fn diurnal_with_bursts() -> RateSchedule {
    let [trough, peak, period, steps, burst_qps, burst_secs] = DIURNAL.map(|(_, value)| value);
    let step_secs = period / steps;
    let segments = (0..steps as usize).flat_map(|i| {
        let phase = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / steps;
        let qps = trough + (peak - trough) * 0.5 * (1.0 - phase.cos());
        [
            RateSegment {
                duration: step_secs - burst_secs,
                qps,
            },
            RateSegment {
                duration: burst_secs,
                qps: qps + burst_qps,
            },
        ]
    });
    RateSchedule::new(segments.collect())
}

/// Run the three systems (vLLM, Sarathi, Sarathi+POD) on `workload` at one
/// load level and return their reports in that order.
pub fn run_three_systems(
    workload: &Workload,
    qps: f64,
    num_requests: usize,
    chunk_size: usize,
    seed: u64,
) -> [ServingReport; 3] {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let requests = workload.generate(num_requests, qps, seed);
    [
        ServingConfig::vllm(model.clone(), gpu.clone()),
        ServingConfig::sarathi(model.clone(), gpu.clone(), chunk_size),
        ServingConfig::sarathi_pod(model, gpu, chunk_size),
    ]
    .map(|config| ServingEngine::new(config).run(requests.clone()))
}

/// Run one fleet configuration over a shared trace and return its report —
/// the unit of work the Figure 16 sweep fans out through `par_map`.
pub fn run_cluster(
    base: ServingConfig,
    replicas: usize,
    router: RouterPolicy,
    trace: &[RequestSpec],
) -> ClusterReport {
    Cluster::new(ClusterConfig::new(base, replicas, router)).run(trace.to_vec())
}

/// Print a Figure 16-style table of cluster reports: fleet shape, latency
/// percentiles, throughput and replica imbalance.
pub fn print_cluster_table(reports: &[&ClusterReport]) {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.num_replicas()),
                r.router.clone(),
                r.aggregate.system.clone(),
                secs(r.aggregate.makespan),
                secs(r.aggregate.request_latency.mean),
                secs(r.aggregate.request_latency.p99),
                secs(r.aggregate.ttft.p50),
                secs(r.aggregate.ttft.p99),
                format!("{:.1}", r.requests_per_minute()),
                pct(r.aggregate.stall_fraction_200ms),
                format!("{:.2}", r.busy_imbalance),
            ]
        })
        .collect();
    print_table(
        &[
            "Replicas",
            "Router",
            "System",
            "Makespan",
            "Lat mean",
            "Lat P99",
            "TTFT P50",
            "TTFT P99",
            "Req/min",
            "Stalls>200ms",
            "Imbalance",
        ],
        &rows,
    );
}

/// Print one QPS block of a Table 5/6-style latency comparison.
pub fn print_latency_block(qps: f64, reports: &[ServingReport]) {
    println!("QPS {qps}:");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                secs(r.ttft.p50),
                secs(r.ttft.p99),
                format!("{:.3}", r.tbt.p50),
                format!("{:.3}", r.tbt.p99),
                secs(r.request_latency.p50),
                secs(r.request_latency.p99),
                pct(r.stall_fraction_200ms),
                pct(r.stall_fraction_500ms),
            ]
        })
        .collect();
    print_table(
        &[
            "System",
            "TTFT P50",
            "TTFT P99",
            "TBT P50",
            "TBT P99",
            "Latency P50",
            "Latency P99",
            "Stalls>200ms",
            "Stalls>500ms",
        ],
        &rows,
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<(usize, bool)> {
        (0..7).flat_map(|i| [true, false].map(|b| (i, b))).collect()
    }

    #[test]
    fn sweep_keeps_grid_order_and_finds_every_cell() {
        let sweep = Sweep::run(grid(), |(i, b)| 10 * i + usize::from(b));
        let cells: Vec<(usize, bool)> = sweep.iter().map(|(cell, _)| cell).collect();
        assert_eq!(cells, grid());
        for (i, b) in grid() {
            assert_eq!(*sweep.get((i, b)), 10 * i + usize::from(b));
        }
    }

    #[test]
    #[should_panic(expected = "sweep cell (7, true) is not in the grid")]
    fn get_outside_the_grid_names_the_cell() {
        Sweep::run(grid(), |(i, _)| i).get((7, true));
    }

    #[test]
    fn trend_json_writes_workload_then_cells_in_field_order() {
        let num = JsonValue::Num;
        let cells = || {
            vec![
                vec![("z", num(1.0)), ("a", num(2.0))],
                vec![("z", num(3.0))],
            ]
        };
        let plain = trend_json(vec![("seed", num(5.0)), ("qps", num(1.0))], vec![], cells());
        assert_eq!(
            plain.to_string_compact(),
            r#"{"workload":{"seed":5,"qps":1},"cells":[{"z":1,"a":2},{"z":3}]}"#
        );
        let summarized = trend_json(vec![], vec![("spec", num(4.0))], cells());
        assert_eq!(
            summarized.to_string_compact(),
            r#"{"workload":{},"spec":4,"cells":[{"z":1,"a":2},{"z":3}]}"#
        );
    }
}

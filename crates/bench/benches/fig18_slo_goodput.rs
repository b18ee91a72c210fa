//! Figure 18 (repro-original): SLO-aware serving — goodput under load, with
//! and without cluster autoscaling. Sweeps arrival rate × attention backend
//! × autoscaling over an SLO-tagged trace (70% interactive requests with
//! tight TTFT/TBT targets, 30% batch with loose ones) on a two-replica
//! fleet.
//!
//! What this answers, in the goodput framing the paper's latency targets
//! exist to serve:
//!
//! 1. Do POD-Attention's latency wins convert into *goodput* — requests
//!    served within their TTFT deadline and TBT target — at every load
//!    level, or only into raw-latency deltas nobody promised anyone?
//! 2. Does deadline-shedding admission ([`AdmissionPolicy::DeadlineShed`])
//!    recover goodput under saturation by refusing work that can no longer
//!    meet its deadline?
//! 3. Does the backlog-driven autoscaler hold the SLO through overload at a
//!    lower replica-seconds cost than pinning the fleet at its maximum?
//!
//! Writes `BENCH_slo.json` at the repository root (every value gated
//! exactly by `perf_gate` in CI) and asserts the orderings: POD goodput >=
//! Sarathi at every load point, shedding never loses goodput on the POD
//! backend, autoscaling improves SLO attainment at the highest load, and a
//! pinned (min == max) autoscaler is **bit-for-bit** identical to no
//! autoscaler at all — the inertness contract the fixed-fleet goldens rely
//! on.
//!
//! Run with `cargo bench -p pod-bench --bench fig18_slo_goodput`.

use gpu_sim::GpuConfig;
use llm_serving::{
    AdmissionPolicy, AutoscalerConfig, Cluster, ClusterConfig, ClusterReport, JsonValue,
    ModelConfig, RouterPolicy, ServingConfig, SloMix, Workload,
};
use pod_bench::microbench::repo_root_path;
use pod_bench::{heading, par_map, pct, print_table, scaled, secs};

/// Arrival rates in queries/second: comfortably under, at, and well past the
/// two-replica fleet's saturation point (~1 req/s per simulated replica).
const LOADS: [f64; 4] = [1.0, 2.5, 4.0, 6.0];
const REPLICAS: usize = 2;
const MAX_REPLICAS: usize = 6;
const SEED: u64 = 18;

#[derive(Clone, Copy, PartialEq)]
struct Cell {
    load: usize,
    backend: usize, // 0 = Sarathi, 1 = Sarathi+POD
    autoscaled: bool,
    shedding: bool,
}

fn backends(model: &ModelConfig, gpu: &GpuConfig) -> [ServingConfig; 2] {
    [
        ServingConfig::sarathi(model.clone(), gpu.clone(), 1024),
        ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 1024),
    ]
}

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(96, 480);
    let mix = SloMix::interactive_batch();

    heading(
        "Figure 18: SLO goodput — load x backend x autoscaling",
        "70% interactive (TTFT <= 2 s, TBT <= 200 ms) / 30% batch (30 s, 1 s); \
         2-replica fleet (autoscaler up to 6), decode-aware router; Llama-3-8B, chunk 1024.",
    );

    // The full grid: every load × backend × {fixed, autoscaled} with
    // admit-all admission, plus a shedding variant per load on both
    // backends (fixed fleet) for the admission-control comparison.
    let mut cells: Vec<Cell> = Vec::new();
    for load in 0..LOADS.len() {
        for backend in 0..2 {
            for autoscaled in [false, true] {
                cells.push(Cell {
                    load,
                    backend,
                    autoscaled,
                    shedding: false,
                });
            }
            cells.push(Cell {
                load,
                backend,
                autoscaled: false,
                shedding: true,
            });
        }
    }

    let reports: Vec<ClusterReport> = par_map(cells.clone(), |cell| {
        let specs = mix.apply(
            Workload::internal().generate(num_requests, LOADS[cell.load], SEED),
            SEED,
        );
        let mut base = backends(&model, &gpu)[cell.backend].clone();
        if cell.shedding {
            base = base.with_admission(AdmissionPolicy::DeadlineShed);
        }
        let mut config = ClusterConfig::new(base, REPLICAS, RouterPolicy::decode_aware());
        if cell.autoscaled {
            config = config.with_autoscaler(AutoscalerConfig::new(REPLICAS, MAX_REPLICAS));
        }
        Cluster::new(config).run(specs)
    });
    let report_of = |load: usize, backend: usize, autoscaled: bool, shedding: bool| {
        let want = Cell {
            load,
            backend,
            autoscaled,
            shedding,
        };
        let idx = cells
            .iter()
            .position(|&c| c == want)
            .expect("every sweep cell was simulated");
        &reports[idx]
    };

    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, r)| {
            vec![
                format!("{:.1}", LOADS[cell.load]),
                r.aggregate.system.clone(),
                if cell.autoscaled { "auto" } else { "fixed" }.to_string(),
                format!("{}", r.aggregate.goodput_requests()),
                format!("{:.1}", r.aggregate.goodput_per_minute()),
                pct(r.aggregate.slo_attainment()),
                format!("{}", r.aggregate.shed_requests),
                format!("{}", r.peak_replicas),
                secs(r.replica_seconds),
                secs(r.aggregate.ttft.p99),
            ]
        })
        .collect();
    print_table(
        &[
            "QPS", "System", "Fleet", "Goodput", "Good/min", "Attain", "Shed", "Peak", "Repl-sec",
            "TTFT P99",
        ],
        &rows,
    );

    // Ordering 1: POD goodput >= Sarathi at every load point, in every fleet
    // mode — the paper's speedups must convert into deadline-meeting
    // completions, not just lower raw latency.
    for (li, &qps) in LOADS.iter().enumerate() {
        for (autoscaled, shedding) in [(false, false), (true, false), (false, true)] {
            let sarathi = report_of(li, 0, autoscaled, shedding);
            let pod = report_of(li, 1, autoscaled, shedding);
            assert!(
                pod.aggregate.goodput_requests() >= sarathi.aggregate.goodput_requests(),
                "qps {qps} (auto={autoscaled}, shed={shedding}): POD goodput {} < Sarathi {}",
                pod.aggregate.goodput_requests(),
                sarathi.aggregate.goodput_requests()
            );
        }
    }

    // Ordering 2: deadline shedding never loses goodput (it sacrifices
    // already-doomed requests for the sake of the rest), and at the highest
    // load it strictly gains on both backends.
    for (li, &qps) in LOADS.iter().enumerate() {
        for backend in 0..2 {
            let served = report_of(li, backend, false, false);
            let shed = report_of(li, backend, false, true);
            assert!(
                shed.aggregate.goodput_requests() >= served.aggregate.goodput_requests(),
                "qps {qps} backend {backend}: shedding lost goodput ({} vs {})",
                shed.aggregate.goodput_requests(),
                served.aggregate.goodput_requests()
            );
        }
    }
    let top = LOADS.len() - 1;
    assert!(
        report_of(top, 1, false, true).aggregate.goodput_requests()
            > report_of(top, 1, false, false).aggregate.goodput_requests(),
        "at saturation, shedding must strictly improve POD goodput"
    );

    // Ordering 3: at the highest load the autoscaler improves attainment on
    // the POD backend, and costs fewer replica-seconds than pinning the
    // fleet at its maximum the whole run.
    let fixed_top = report_of(top, 1, false, false);
    let auto_top = report_of(top, 1, true, false);
    assert!(
        auto_top.scale_out_events > 0,
        "saturation must trigger scale-out"
    );
    assert!(
        auto_top.aggregate.slo_attainment() > fixed_top.aggregate.slo_attainment(),
        "autoscaled attainment {} must beat the fixed fleet's {}",
        auto_top.aggregate.slo_attainment(),
        fixed_top.aggregate.slo_attainment()
    );
    let max_pinned = Cluster::new(ClusterConfig::new(
        backends(&model, &gpu)[1].clone(),
        MAX_REPLICAS,
        RouterPolicy::decode_aware(),
    ))
    .run(mix.apply(
        Workload::internal().generate(num_requests, LOADS[top], SEED),
        SEED,
    ));
    assert!(
        auto_top.replica_seconds < max_pinned.replica_seconds,
        "autoscaled fleet ({:.0} replica-seconds) must cost less than max-pinned ({:.0})",
        auto_top.replica_seconds,
        max_pinned.replica_seconds
    );

    // Ordering 4: a pinned autoscaler (min == max) is bit-for-bit identical
    // to running without one — the inertness contract behind every
    // fixed-fleet golden in the repo.
    for (li, backend) in [(0usize, 0usize), (top, 1)] {
        let specs = mix.apply(
            Workload::internal().generate(num_requests, LOADS[li], SEED),
            SEED,
        );
        let plain = Cluster::new(ClusterConfig::new(
            backends(&model, &gpu)[backend].clone(),
            REPLICAS,
            RouterPolicy::decode_aware(),
        ))
        .run(specs.clone());
        let pinned = Cluster::new(
            ClusterConfig::new(
                backends(&model, &gpu)[backend].clone(),
                REPLICAS,
                RouterPolicy::decode_aware(),
            )
            .with_autoscaler(AutoscalerConfig::new(REPLICAS, REPLICAS)),
        )
        .run(specs);
        assert_eq!(
            plain.to_json().to_string_pretty(),
            pinned.to_json().to_string_pretty(),
            "a pinned autoscaler must be bit-for-bit inert (qps {}, backend {backend})",
            LOADS[li]
        );
    }
    println!(
        "\nOrderings hold: POD goodput >= Sarathi at every load point; shedding never loses \
         goodput (strict gain at saturation); autoscaling lifts attainment at a lower \
         replica-seconds cost than max-pinning; a pinned autoscaler is bit-for-bit inert."
    );

    // Machine-readable sweep output in the shared report JSON format; the
    // CI perf gate consumes mean aggregate goodput across these cells.
    let cell_json: Vec<JsonValue> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, report)| {
            JsonValue::obj(vec![
                ("qps", JsonValue::Num(LOADS[cell.load])),
                ("autoscaled", JsonValue::Bool(cell.autoscaled)),
                ("shedding", JsonValue::Bool(cell.shedding)),
                ("report", report.to_json()),
            ])
        })
        .collect();
    let json = JsonValue::obj(vec![
        (
            "workload",
            JsonValue::obj(vec![
                ("trace", JsonValue::str("internal/slo-mix")),
                ("slo_mix", JsonValue::str("interactive(70%) + batch(30%)")),
                ("num_requests", JsonValue::Num(num_requests as f64)),
                ("replicas", JsonValue::Num(REPLICAS as f64)),
                ("max_replicas", JsonValue::Num(MAX_REPLICAS as f64)),
                ("seed", JsonValue::Num(SEED as f64)),
            ]),
        ),
        ("cells", JsonValue::Arr(cell_json)),
    ]);
    let path = repo_root_path("BENCH_slo.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write BENCH_slo.json");
    println!("wrote {}", path.display());
}

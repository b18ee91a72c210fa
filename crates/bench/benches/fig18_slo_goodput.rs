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
    AdmissionPolicy, AutoscalerConfig, Cluster, ClusterConfig, JsonValue, ModelConfig, RouterPolicy,
};
use pod_bench::online::{backends, slo_trace, write_trend, Sweep};
use pod_bench::{heading, pct, scaled, secs};

/// Arrival rates in queries/second: comfortably under, at, and well past the
/// two-replica fleet's saturation point (~1 req/s per simulated replica).
const LOADS: [f64; 4] = [1.0, 2.5, 4.0, 6.0];
const REPLICAS: usize = 2;
const MAX_REPLICAS: usize = 6;
const SEED: u64 = 18;
/// Fleet modes per (load, backend): `(autoscaled, shedding)`, admit-all
/// fixed and autoscaled fleets, then a fixed fleet with deadline shedding.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (false, true)];

/// One sweep cell: load index, backend index (0 = Sarathi, 1 =
/// Sarathi+POD), autoscaled, shedding.
type Cell = (usize, usize, bool, bool);

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(96, 480);

    heading(
        "Figure 18: SLO goodput — load x backend x autoscaling",
        "70% interactive (TTFT <= 2 s, TBT <= 200 ms) / 30% batch (30 s, 1 s); \
         2-replica fleet (autoscaler up to 6), decode-aware router; Llama-3-8B, chunk 1024.",
    );

    // The full grid: every load × backend × fleet mode; the shedding
    // variant is for the admission-control comparison.
    let cells: Vec<Cell> = (0..LOADS.len())
        .flat_map(|load| {
            (0..2).flat_map(move |backend| {
                MODES.map(|(autoscaled, shedding)| (load, backend, autoscaled, shedding))
            })
        })
        .collect();
    let fleet = |backend: usize, replicas| {
        let base = backends(&model, &gpu)[backend].clone();
        ClusterConfig::new(base, replicas, RouterPolicy::decode_aware())
    };
    let sweep = Sweep::run(cells, |(load, backend, autoscaled, shedding)| {
        let mut config = fleet(backend, REPLICAS);
        if shedding {
            config.base = config.base.with_admission(AdmissionPolicy::DeadlineShed);
        }
        if autoscaled {
            config = config.with_autoscaler(AutoscalerConfig::new(REPLICAS, MAX_REPLICAS));
        }
        Cluster::new(config).run(slo_trace(num_requests, LOADS[load], SEED))
    });

    sweep.print_rows(
        &[
            "QPS", "System", "Fleet", "Goodput", "Good/min", "Attain", "Shed", "Peak", "Repl-sec",
            "TTFT P99",
        ],
        |(load, _, autoscaled, _), r| {
            vec![
                format!("{:.1}", LOADS[load]),
                r.aggregate.system.clone(),
                if autoscaled { "auto" } else { "fixed" }.to_string(),
                format!("{}", r.aggregate.goodput_requests()),
                format!("{:.1}", r.aggregate.goodput_per_minute()),
                pct(r.aggregate.slo_attainment()),
                format!("{}", r.aggregate.shed_requests),
                format!("{}", r.peak_replicas),
                secs(r.replica_seconds),
                secs(r.aggregate.ttft.p99),
            ]
        },
    );

    // Ordering 1: POD goodput >= Sarathi at every load point, in every fleet
    // mode — the paper's speedups must convert into deadline-meeting
    // completions, not just lower raw latency.
    for (li, &qps) in LOADS.iter().enumerate() {
        for (autoscaled, shedding) in MODES {
            let sarathi = sweep.get((li, 0, autoscaled, shedding));
            let pod = sweep.get((li, 1, autoscaled, shedding));
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
            let served = sweep.get((li, backend, false, false));
            let shed = sweep.get((li, backend, false, true));
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
        sweep
            .get((top, 1, false, true))
            .aggregate
            .goodput_requests()
            > sweep
                .get((top, 1, false, false))
                .aggregate
                .goodput_requests(),
        "at saturation, shedding must strictly improve POD goodput"
    );

    // Ordering 3: at the highest load the autoscaler improves attainment on
    // the POD backend, and costs fewer replica-seconds than pinning the
    // fleet at its maximum the whole run.
    let fixed_top = sweep.get((top, 1, false, false));
    let auto_top = sweep.get((top, 1, true, false));
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
    let max_pinned =
        Cluster::new(fleet(1, MAX_REPLICAS)).run(slo_trace(num_requests, LOADS[top], SEED));
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
        let plain = sweep.get((li, backend, false, false));
        let pinned = Cluster::new(
            fleet(backend, REPLICAS).with_autoscaler(AutoscalerConfig::new(REPLICAS, REPLICAS)),
        )
        .run(slo_trace(num_requests, LOADS[li], SEED));
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

    // The CI perf gate consumes mean aggregate goodput across these cells.
    write_trend(
        "BENCH_slo.json",
        vec![
            ("trace", JsonValue::str("internal/slo-mix")),
            ("slo_mix", JsonValue::str("interactive(70%) + batch(30%)")),
            ("num_requests", JsonValue::Num(num_requests as f64)),
            ("replicas", JsonValue::Num(REPLICAS as f64)),
            ("max_replicas", JsonValue::Num(MAX_REPLICAS as f64)),
            ("seed", JsonValue::Num(SEED as f64)),
        ],
        vec![],
        sweep
            .iter()
            .map(|((load, _, autoscaled, shedding), report)| {
                vec![
                    ("qps", JsonValue::Num(LOADS[load])),
                    ("autoscaled", JsonValue::Bool(autoscaled)),
                    ("shedding", JsonValue::Bool(shedding)),
                    ("report", report.to_json()),
                ]
            })
            .collect(),
    );
}

//! Figure 16 (repro-original): cluster-scale serving. Sweeps fleet size ×
//! router policy × attention backend over a shared bursty trace, each fleet
//! on its own global virtual clock.
//!
//! The questions this answers, none of which the single-GPU figures can:
//!
//! 1. Does Sarathi+POD keep its win over Sarathi when the workload is spread
//!    across a fleet (it could vanish if routing, not the kernel, dominated)?
//! 2. Does routing policy matter under bursty load — specifically, does the
//!    prefill/decode-aware router beat round-robin on tail TTFT?
//!
//! Writes `BENCH_cluster.json` at the repository root (uploaded as a CI
//! artifact alongside `BENCH_engine.json`) and asserts both orderings, so a
//! regression in either fails the bench run.
//!
//! Run with `cargo bench -p pod-bench --bench fig16_cluster_scaling`.

use gpu_sim::GpuConfig;
use llm_serving::{ClusterReport, JsonValue, ModelConfig, RateSchedule, RouterPolicy, Workload};
use pod_bench::online::{backends, print_cluster_table, run_cluster, write_trend, Sweep};
use pod_bench::{heading, scaled};

const REPLICA_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ROUTERS: [RouterPolicy; 3] = [
    RouterPolicy::RoundRobin,
    RouterPolicy::LeastOutstandingTokens,
    RouterPolicy::DecodeAware {
        long_prefill_tokens: 8 * 1024,
    },
];

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    // Flash-crowd load: a low trickle punctuated by 20-second bursts at ~27x
    // the base rate, from the paper's internal workload mix (so it carries
    // both 30K-token prompts and decode-heavy requests — the heterogeneity
    // routing policies exist for).
    let schedule = RateSchedule::bursty(0.3, 8.0, 40.0, 20.0);
    let num_requests = scaled(120, 600);
    let trace = Workload::internal().generate_trace(num_requests, &schedule, 5);

    heading(
        "Figure 16: cluster scaling — replicas x router x attention backend",
        "Bursty trace (0.3 qps base, 20 s bursts at 8 qps); Llama-3-8B, chunk 1024.",
    );

    // One cell per (replicas, router, backend): every fleet simulation is
    // independent.
    let cells: Vec<(usize, usize, usize)> = (0..REPLICA_COUNTS.len())
        .flat_map(|ri| (0..ROUTERS.len()).flat_map(move |pi| (0..2).map(move |bi| (ri, pi, bi))))
        .collect();
    let sweep = Sweep::run(cells, |(ri, pi, bi)| {
        let base = backends(&model, &gpu)[bi].clone();
        run_cluster(base, REPLICA_COUNTS[ri], ROUTERS[pi], &trace)
    });

    for (ri, &replicas) in REPLICA_COUNTS.iter().enumerate() {
        println!("-- {replicas} replica(s), {num_requests} requests --");
        let block: Vec<&ClusterReport> = (0..ROUTERS.len())
            .flat_map(|pi| (0..2).map(move |bi| (ri, pi, bi)))
            .map(|cell| sweep.get(cell))
            .collect();
        print_cluster_table(&block);
        println!();
    }

    // Ordering 1: Sarathi+POD no worse than Sarathi in every cell, on both
    // mean request latency and fleet makespan.
    for (ri, &replicas) in REPLICA_COUNTS.iter().enumerate() {
        for (pi, router) in ROUTERS.iter().enumerate() {
            let sarathi = sweep.get((ri, pi, 0));
            let pod = sweep.get((ri, pi, 1));
            assert_eq!(pod.aggregate.completed, num_requests);
            assert!(
                pod.aggregate.request_latency.mean <= sarathi.aggregate.request_latency.mean,
                "{replicas} replicas / {}: POD mean latency {} vs Sarathi {}",
                router.label(),
                pod.aggregate.request_latency.mean,
                sarathi.aggregate.request_latency.mean
            );
            assert!(
                pod.aggregate.makespan <= sarathi.aggregate.makespan * 1.01,
                "{replicas} replicas / {}: POD makespan {} vs Sarathi {}",
                router.label(),
                pod.aggregate.makespan,
                sarathi.aggregate.makespan
            );
        }
    }

    // Ordering 2: under bursty load the decode-aware router beats
    // round-robin on tail TTFT (equal on one replica, where routing is
    // moot), with the POD backend.
    for (ri, &replicas) in REPLICA_COUNTS.iter().enumerate() {
        let rr = sweep.get((ri, 0, 1));
        let da = sweep.get((ri, 2, 1));
        assert!(
            da.aggregate.ttft.p99 <= rr.aggregate.ttft.p99,
            "{replicas} replicas: decode-aware TTFT P99 {} vs round-robin {}",
            da.aggregate.ttft.p99,
            rr.aggregate.ttft.p99
        );
    }
    println!(
        "Orderings hold: Sarathi+POD <= Sarathi (mean latency, every cell); \
         decode-aware <= round-robin (TTFT P99, every replica count)."
    );

    write_trend(
        "BENCH_cluster.json",
        vec![
            ("trace", JsonValue::str("internal/bursty")),
            ("base_qps", JsonValue::Num(0.3)),
            ("burst_qps", JsonValue::Num(8.0)),
            ("calm_secs", JsonValue::Num(40.0)),
            ("burst_secs", JsonValue::Num(20.0)),
            ("num_requests", JsonValue::Num(num_requests as f64)),
            ("seed", JsonValue::Num(5.0)),
        ],
        vec![],
        sweep
            .iter()
            .map(|((ri, _, _), report)| {
                vec![
                    ("replicas", JsonValue::Num(REPLICA_COUNTS[ri] as f64)),
                    ("report", report.to_json()),
                ]
            })
            .collect(),
    );
}

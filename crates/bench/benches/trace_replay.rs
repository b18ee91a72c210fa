//! Fleet-scale trace replay: drives a multi-hour diurnal trace with flash
//! bursts through a 16-replica cluster on the event-driven core, with
//! streaming (constant-memory) metrics, and measures *host* throughput —
//! wall-clock seconds and simulated iterations (events) per second.
//!
//! This is the benchmark behind `perf_gate`'s fleet rows: unlike the figure
//! benches, which assert orderings in *virtual* time, this one gates how fast
//! the simulator itself chews through a fleet trace. Someone serializing the
//! event-driven core, reintroducing the lockstep sweep, or buffering
//! per-request samples again shows up here as an events/sec drop or a
//! `peak_sample_bytes` jump long before any virtual-time metric moves.
//!
//! The replay runs at 1, 2 and 4 advance workers and prints each run's
//! host-side barrier profile (`Cluster::advance_profile`): barriers run,
//! with host seconds at barriers and in the final parallel drain.
//!
//! Four checks ride along:
//!
//! 1. A lockstep-oracle spot check on a trace prefix: `Cluster::run` must
//!    produce the bit-identical report to `Cluster::run_lockstep`.
//! 2. Every worker count produces the 1-worker report bit for bit.
//! 3. Every request completes — the schedule is tuned below fleet capacity,
//!    so a capacity regression (or a router sending everything to one
//!    replica) fails the bench instead of silently inflating the backlog.
//! 4. Streaming mode's peak resident sample count stays bounded by the
//!    *concurrent* request population, not the trace length.
//!
//! Writes `BENCH_fleet.json` at the repository root. The wall-clock numbers
//! sit under `host.scaling.<workers>`: events/s, its ratio to the 1-worker
//! point (`speedup_vs_1_worker`), and the barrier profile. `perf_gate`
//! gates events/s at each worker count against the baseline and each ratio
//! against a fixed floor; every other value is virtual and must match the
//! baseline exactly.
//!
//! Run with `cargo bench -p pod-bench --bench trace_replay`.

use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, JsonValue, ModelConfig, RateSchedule, RateSegment, RouterPolicy,
    ServingConfig, Workload,
};
use pod_bench::microbench::repo_root_path;
use pod_bench::{heading, scaled};
use std::time::Instant;

const REPLICAS: usize = 16;
const CHUNK: usize = 1024;
const SEED: u64 = 42;
/// Worker counts the replay runs at. Every count must give the 1-worker
/// report bit for bit, and `perf_gate` gates each point.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Diurnal rate curve with a flash burst spliced into every step: `steps`
/// cosine-shaped segments per `period_secs` cycle, each ending in
/// `burst_secs` at `burst_qps` above the local base rate. The shape of a
/// day of production traffic with periodic flash crowds.
fn diurnal_with_bursts(
    trough_qps: f64,
    peak_qps: f64,
    period_secs: f64,
    steps: usize,
    burst_qps: f64,
    burst_secs: f64,
) -> RateSchedule {
    let step_secs = period_secs / steps as f64;
    assert!(burst_secs < step_secs, "burst must fit inside one step");
    let mut segments = Vec::with_capacity(2 * steps);
    for i in 0..steps {
        let phase = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / steps as f64;
        let qps = trough_qps + (peak_qps - trough_qps) * 0.5 * (1.0 - phase.cos());
        segments.push(RateSegment {
            duration: step_secs - burst_secs,
            qps,
        });
        segments.push(RateSegment {
            duration: burst_secs,
            qps: qps + burst_qps,
        });
    }
    RateSchedule::new(segments)
}

/// Interactive chat traffic: short prompts, short answers — the request
/// shape where fleet-scale *counts* (not per-request length) dominate host
/// cost, which is exactly what this bench stresses.
fn chat_workload() -> Workload {
    Workload {
        name: "chat-small".to_string(),
        mean_context: 320.0,
        context_range: (64, 2048),
        mean_decode: 8.0,
        min_decode: 2,
    }
}

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let workload = chat_workload();
    // Trough 60 qps, peak 200 qps over a one-hour cycle, plus 10-second
    // bursts at +80 qps — mean ~133 qps, so 2M requests span ~4.2 virtual
    // hours (several full diurnal cycles). Peak-with-burst is ~280 qps
    // across 16 replicas, comfortably below fleet capacity: the backlog
    // drains every cycle instead of compounding.
    let (trough, peak, period, steps, burst_qps, burst_secs) =
        (60.0, 200.0, 3600.0, 12, 80.0, 10.0);
    let schedule = diurnal_with_bursts(trough, peak, period, steps, burst_qps, burst_secs);
    let num_requests = scaled(2_000_000, 4_000_000);

    heading(
        "Fleet trace replay: event-driven core, streaming metrics",
        "16 replicas, diurnal 60-200 qps + 10 s bursts at +80 qps; Llama-3-8B, chunk 1024.",
    );

    println!("generating {num_requests}-request trace ...");
    let trace = workload.generate_trace(num_requests, &schedule, SEED);
    let virtual_span = trace.last().expect("non-empty trace").arrival;
    println!(
        "trace spans {:.2} virtual hours ({:.1} qps mean)",
        virtual_span / 3600.0,
        num_requests as f64 / virtual_span
    );

    let base = ServingConfig::sarathi_pod(model, gpu, CHUNK).with_streaming_metrics(true);
    let router = RouterPolicy::LeastOutstandingTokens;

    // Check 1: lockstep-oracle spot check on a prefix. The event-driven run
    // must be bit-for-bit the lockstep sweep's outcome — the heap changes
    // when host work happens, never what virtual time things happen at.
    let prefix: Vec<_> = trace.iter().take(scaled(20_000, 50_000)).cloned().collect();
    let mut spot = Cluster::new(ClusterConfig::new(base.clone(), 4, router));
    let event = spot.run(prefix.clone());
    let lockstep = spot.run_lockstep(prefix);
    assert_eq!(
        event, lockstep,
        "event-driven replay diverged from the lockstep oracle"
    );
    println!(
        "oracle spot check: {} requests bit-identical under event-driven and lockstep cores",
        event.aggregate.completed
    );

    // The replay itself, wall-clock timed at each worker count. Trace
    // generation and cloning are excluded — the gate measures the cluster
    // core, not the Poisson sampler.
    // Each cluster is dropped after its run: the replicas' request records
    // for a multi-million-request trace are the bench's largest allocation.
    let mut runs = Vec::with_capacity(WORKER_COUNTS.len());
    let mut peak_samples = 0;
    for workers in WORKER_COUNTS {
        let mut cluster = Cluster::new(ClusterConfig::new(base.clone(), REPLICAS, router));
        cluster.set_advance_workers(workers);
        let specs = trace.clone();
        let start = Instant::now();
        let report = cluster.run(specs);
        let wall_secs = start.elapsed().as_secs_f64();
        peak_samples = cluster
            .replicas()
            .iter()
            .map(|r| r.peak_token_samples())
            .sum();
        runs.push((workers, report, wall_secs, cluster.advance_profile()));
    }
    drop(trace);
    let report = &runs[0].1;

    // Check 2: the worker count changes host time only — every replay is
    // the 1-worker replay bit for bit.
    for (workers, other, _, _) in &runs[1..] {
        assert_eq!(
            other, report,
            "{workers}-worker replay diverged from the 1-worker replay"
        );
    }

    // Check 3: the fleet kept up — every request finished.
    assert_eq!(
        report.aggregate.completed, num_requests,
        "fleet fell behind the trace: {} of {num_requests} completed",
        report.aggregate.completed
    );

    // Check 4: constant-memory reporting. Peak resident samples track the
    // concurrent request population (tens of thousands at 280 qps), not the
    // multi-million-request trace.
    let peak_sample_bytes = peak_samples * std::mem::size_of::<f64>();
    // Every finished request holds one token time per output token; TBT has
    // one sample per inter-token gap, so this is the exact-mode buffer size.
    let total_token_samples = report.aggregate.tbt.count + report.aggregate.completed;
    let exact_sample_bytes = total_token_samples * std::mem::size_of::<f64>();
    assert!(
        peak_samples * 10 < total_token_samples,
        "streaming mode retained {peak_samples} samples — not constant-memory \
         against {total_token_samples} total output tokens"
    );

    let events = report.aggregate.iterations;
    println!(
        "replayed {num_requests} requests / {:.2} virtual hours ({events} events)",
        report.aggregate.makespan / 3600.0,
    );
    println!(
        "{:>7} {:>8} {:>12} {:>14} {:>10} {:>10} {:>9}",
        "workers", "wall_s", "events/s", "requests/s", "barriers", "barrier_s", "drain_s"
    );
    let one_worker_eps = events as f64 / runs[0].2;
    let mut scaling = Vec::with_capacity(runs.len());
    for (workers, _, wall_secs, profile) in &runs {
        let events_per_sec = events as f64 / wall_secs;
        let requests_per_sec = num_requests as f64 / wall_secs;
        println!(
            "{workers:>7} {wall_secs:>8.2} {events_per_sec:>12.0} {requests_per_sec:>14.0} \
             {:>10} {:>10.3} {:>9.3}",
            profile.barriers,
            profile.barrier_ns as f64 * 1e-9,
            profile.drain_ns as f64 * 1e-9,
        );
        let point = JsonValue::obj(vec![
            ("wall_secs", JsonValue::Num(*wall_secs)),
            ("events_per_sec", JsonValue::Num(events_per_sec)),
            (
                "speedup_vs_1_worker",
                JsonValue::Num(events_per_sec / one_worker_eps),
            ),
            ("requests_per_sec", JsonValue::Num(requests_per_sec)),
            ("advance_profile", profile.to_json()),
        ]);
        scaling.push((workers.to_string(), point));
    }
    println!(
        "peak resident samples: {peak_samples} ({:.1} MiB) vs {:.1} MiB buffered exactly",
        peak_sample_bytes as f64 / (1024.0 * 1024.0),
        exact_sample_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "latency mean {:.3} s, TTFT p99 {:.3} s (sketch, rel err <= 1%)",
        report.aggregate.request_latency.mean, report.aggregate.ttft.p99
    );

    let json = JsonValue::obj(vec![
        (
            "workload",
            JsonValue::obj(vec![
                ("trace", JsonValue::str("chat-small/diurnal+bursts")),
                ("trough_qps", JsonValue::Num(trough)),
                ("peak_qps", JsonValue::Num(peak)),
                ("period_secs", JsonValue::Num(period)),
                ("steps", JsonValue::Num(steps as f64)),
                ("burst_qps", JsonValue::Num(burst_qps)),
                ("burst_secs", JsonValue::Num(burst_secs)),
                ("num_requests", JsonValue::Num(num_requests as f64)),
                ("seed", JsonValue::Num(SEED as f64)),
            ]),
        ),
        (
            "fleet",
            JsonValue::obj(vec![
                ("replicas", JsonValue::Num(REPLICAS as f64)),
                ("requests", JsonValue::Num(num_requests as f64)),
                (
                    "virtual_span_secs",
                    JsonValue::Num(report.aggregate.makespan),
                ),
                ("events", JsonValue::Num(events as f64)),
                (
                    "peak_sample_bytes",
                    JsonValue::Num(peak_sample_bytes as f64),
                ),
                (
                    "exact_sample_bytes",
                    JsonValue::Num(exact_sample_bytes as f64),
                ),
            ]),
        ),
        ("report", report.to_json()),
        (
            "host",
            JsonValue::obj(vec![("scaling", JsonValue::Obj(scaling))]),
        ),
    ]);
    let path = repo_root_path("BENCH_fleet.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write BENCH_fleet.json");
    println!("\nwrote {}", path.display());
}

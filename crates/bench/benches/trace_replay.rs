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

use llm_serving::JsonValue;
use pod_bench::heading;
use pod_bench::online::{write_json, FleetReplay};
use std::time::Instant;

/// Worker counts the replay runs at. Every count must give the 1-worker
/// report bit for bit, and `perf_gate` gates each point.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    heading(
        "Fleet trace replay: event-driven core, streaming metrics",
        "16 replicas, diurnal 60-200 qps + 10 s bursts at +80 qps; Llama-3-8B, chunk 1024.",
    );

    let FleetReplay {
        num_requests,
        trace,
        base,
    } = FleetReplay::generate();
    let virtual_span = trace.last().expect("non-empty trace").arrival;
    println!(
        "trace spans {:.2} virtual hours ({:.1} qps mean)",
        virtual_span / 3600.0,
        num_requests as f64 / virtual_span
    );

    // Check 1: lockstep-oracle spot check on a prefix. The event-driven run
    // must be bit-for-bit the lockstep sweep's outcome — the heap changes
    // when host work happens, never what virtual time things happen at.
    let prefix = FleetReplay::spot_check_prefix(&trace);
    let mut spot = FleetReplay::cluster(base.clone(), 4);
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
        let mut cluster = FleetReplay::cluster(base.clone(), FleetReplay::REPLICAS);
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
        ("workload", FleetReplay::workload_json(num_requests)),
        (
            "fleet",
            JsonValue::obj(vec![
                ("replicas", JsonValue::Num(FleetReplay::REPLICAS as f64)),
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
    write_json("BENCH_fleet.json", &json);
}

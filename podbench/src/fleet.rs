//! `fleet_chat`: short chat requests with open-loop Poisson arrivals on the
//! repository's diurnal-with-bursts fleet trace, through a 16-replica
//! cluster at the program's default worker count.
//!
//! Fleet-scale request counts dominate host cost here: the cluster's
//! barrier loop, the cheap step path and price-cache hits. Prefix caching
//! and the CTA-level simulator do no work. The worker count is left at the
//! program's default (`available_parallelism`), so the cost of spawning
//! threads at every barrier shows in `wall_s` and `cpu_s`.

use crate::host::{timed, Cost};
use crate::{
    catch, gen_seconds, metric, probe, repeat_for, serving_outcome, setup_cost, stats, trace,
    unfinished, Args, HostSamples, Outcome,
};
use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, ClusterReport, ModelConfig, RateSchedule, RateSegment, RequestSpec,
    RouterPolicy, ServingConfig, ServingEngine, SloSpec, Workload,
};
use std::time::Instant;

const REPLICAS: usize = 16;
const CHUNK: usize = 1024;
/// The first 20,000 requests of the repository's fleet chat trace: the
/// prefix that `trace_replay` and `trace_overhead` (crates/bench/benches)
/// check against the lockstep oracle in quick mode. On that trace's
/// schedule they span the first diurnal step (about 62 qps for 290 s), its
/// 10 s flash burst (about 142 qps) and the start of the next step.
const REQUESTS: usize = 20_000;
/// That trace's schedule: diurnal 60-200 qps over a one-hour cycle in 12
/// steps, each ending in a 10 s burst at +80 qps.
const TROUGH_QPS: f64 = 60.0;
const PEAK_QPS: f64 = 200.0;
const PERIOD_SECS: f64 = 3600.0;
const STEPS: usize = 12;
const BURST_QPS: f64 = 80.0;
const BURST_SECS: f64 = 10.0;

/// The diurnal-with-bursts schedule of `trace_replay`: `STEPS`
/// cosine-shaped segments per cycle, each ending in `BURST_SECS` at
/// `BURST_QPS` above the local base rate.
fn schedule() -> RateSchedule {
    let step_secs = PERIOD_SECS / STEPS as f64;
    let mut segments = Vec::with_capacity(2 * STEPS);
    for i in 0..STEPS {
        let phase = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / STEPS as f64;
        let qps = TROUGH_QPS + (PEAK_QPS - TROUGH_QPS) * 0.5 * (1.0 - phase.cos());
        segments.push(RateSegment {
            duration: step_secs - BURST_SECS,
            qps,
        });
        segments.push(RateSegment {
            duration: BURST_SECS,
            qps: qps + BURST_QPS,
        });
    }
    RateSchedule::new(segments)
}

/// Chat-sized requests: mean context 320 tokens, 8 output tokens.
fn chat_small() -> Workload {
    Workload {
        name: "chat-small".to_string(),
        mean_context: 320.0,
        context_range: (64, 2048),
        mean_decode: 8.0,
        min_decode: 2,
    }
}

/// The repository's `interactive` SLO class: TTFT <= 2 s, TBT <= 0.2 s.
pub fn interactive() -> SloSpec {
    SloSpec::new("interactive", 2.0, 0.2)
}

fn config() -> ServingConfig {
    ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), CHUNK)
        .with_streaming_metrics(true)
}

fn generate(seed: u64) -> Vec<RequestSpec> {
    chat_small()
        .generate_trace(REQUESTS, &schedule(), seed)
        .into_iter()
        .map(|s| s.with_slo(interactive()))
        .collect()
}

/// The fleet's report and its unfinished requests, counted from the
/// replicas' request records. A panicked run is `None`.
type Served = Option<(ClusterReport, usize)>;

/// Run `specs` through `cluster`: what it served and the host cost.
fn serve(cluster: &mut Cluster, specs: Vec<RequestSpec>) -> (Served, Cost) {
    let (report, cost) = timed(|| catch(|| cluster.run(specs)));
    let served = report.map(|r| (r, cluster.replicas().iter().map(unfinished).sum()));
    (served, cost)
}

pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut host = HostSamples::default();
    let specs = generate(args.seed);
    let reports = repeat_for(start, args.seconds, |_| {
        host.setup
            .push(setup_cost(|| (generate(args.seed), new_cluster())));
        let (served, cost) = serve(&mut new_cluster(), specs.clone());
        host.push(cost);
        served
    });
    if args.trace {
        trace::enable(args.seed);
    }

    let attempted = specs.len();
    let first = reports.first;
    let mut out = Outcome {
        attempted,
        failed: first
            .as_ref()
            .map_or(attempted, |(_, unfinished)| *unfinished),
        ..Outcome::default()
    };
    out.check(
        format!("{} repeats give bit-identical fleet reports", reports.count),
        reports.identical,
    );
    out.e2e = host.e2e(attempted, out.failed);
    let Some((report, _)) = first else {
        out.check("cluster run completed without panicking", false);
        return out;
    };
    let agg = &report.aggregate;
    serving_outcome(agg, &specs, &mut out);

    // The same fleet at one worker must be bit-identical; its wall time is
    // the numerator of the worker-scaling ratio.
    let mut one = new_cluster();
    one.set_advance_workers(1);
    let (one_report, one_worker) =
        timed(|| trace::span("cluster.run_1worker", || catch(|| one.run(specs.clone()))));
    out.check(
        "report at 1 worker is bit-identical to the default worker count",
        one_report.as_ref() == Some(&report),
    );

    // Replay each replica's assigned requests through a standalone engine.
    let mut replay_s = 0.0;
    let mut replays_equal = true;
    for (i, replica) in one.replicas().iter().enumerate() {
        let assigned: Vec<RequestSpec> = replica.requests().iter().map(|r| r.spec).collect();
        let (standalone, cost) = timed(|| {
            trace::span("engine.replay", || {
                catch(|| ServingEngine::new(config()).run(assigned))
            })
        });
        replay_s += cost.wall;
        replays_equal &= standalone.as_ref() == report.per_replica.get(i);
    }
    out.check(
        format!("each of {REPLICAS} standalone replica replays equals its replica's report"),
        replays_equal,
    );
    if !args.trace {
        return out;
    }

    // Traced repeats of the default-worker run.
    let (spans, traced) = probe::traced_repeats(args.seed, || {
        let mut cluster = new_cluster();
        let (_, cost) =
            timed(|| trace::span("cluster.run", || catch(|| cluster.run(specs.clone()))));
        trace::span("metrics.report", || cluster.report());
        cost
    });
    out.spans = spans;
    let untraced_wall = stats::median(&host.wall);
    let peak: usize = one.replicas().iter().map(|r| r.peak_token_samples()).sum();
    let priced = agg.price_cache_hits + agg.price_cache_misses;
    out.layers = vec![
        metric(
            "cluster.run_s",
            stats::median(&trace::durations(&out.spans, "cluster.run")),
            "s",
            1,
        ),
        metric("cluster.events", agg.iterations as f64, "count", 1),
        metric(
            "cluster.worker_scaling",
            one_worker.wall / untraced_wall,
            "x",
            host.wall.len(),
        ),
        metric("cluster.engine_replay_s", replay_s, "s", REPLICAS),
        metric("cluster.self_s", one_worker.wall - replay_s, "s", 1),
        metric("cluster.busy_imbalance", report.busy_imbalance, "ratio", 1),
        metric(
            "pricing.hit_rate",
            agg.price_cache_hit_rate(),
            "ratio",
            priced,
        ),
        metric("pricing.misses", agg.price_cache_misses as f64, "count", 1),
        metric(
            "metrics.report_ns",
            stats::median(&trace::durations(&out.spans, "metrics.report")) * 1e9,
            "ns",
            1,
        ),
        metric(
            "metrics.peak_sample_bytes",
            (peak * 8) as f64,
            "bytes",
            REPLICAS,
        ),
        gen_seconds(|| generate(args.seed)),
    ];
    out.layers.extend(probe::overhead(&traced, &host.cpu));
    out.layers.extend(probe::pricing());
    out
}

fn new_cluster() -> Cluster {
    Cluster::new(ClusterConfig::new(
        config(),
        REPLICAS,
        RouterPolicy::LeastOutstandingTokens,
    ))
}

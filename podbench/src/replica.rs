//! `replica_internal`: the paper's internal enterprise workload (§5: mean
//! context 10.5K tokens, 331 output tokens) with half the requests in
//! shared system-prompt groups, driven through one engine by calling
//! `ServingEngine::step` from here.
//!
//! Sarathi+POD at Table 5's chunk of 1536 with paged KV and prefix caching,
//! open-loop Poisson arrivals at a nominal rate, plus a small rate ladder
//! around the knee for capacity. POD's hybrid batches move the virtual
//! latencies; host time goes to price-cache misses into the exact
//! estimator. Prefix-index reads and block writes both happen; no cluster.

use crate::fleet::interactive;
use crate::host::{timed, Cost};
use crate::{
    catch, gen_seconds, metric, probe, repeat_for, serving_outcome, setup_cost, stats, trace,
    unfinished, Args, HostSamples, Metric, Outcome,
};
use gpu_sim::GpuConfig;
use llm_serving::{
    IterationOutcome, ModelConfig, RequestSpec, ServingConfig, ServingEngine, ServingReport,
    SharedPrefixWorkload, Workload,
};
use std::time::Instant;

const CHUNK: usize = 1536;
const REQUESTS: usize = 2000;
/// The rate the latency metrics are reported at.
const NOMINAL_QPS: f64 = 1.0;
/// Rates tried for `virt_capacity_qps`, ascending; includes the nominal.
const LADDER_QPS: [f64; 6] = [0.4, 0.5, 0.6, 0.7, 0.8, 1.0];
/// SLO attainment a rate must reach to count as served.
const CAPACITY_ATTAINMENT: f64 = 0.99;
/// Shared system prompts: 4 groups of 2043 tokens, half the requests.
const GROUPS: usize = 4;
const PREFIX_TOKENS: usize = 2043;
const SHARE_RATIO: f64 = 0.5;

fn config() -> ServingConfig {
    ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), CHUNK)
        .with_paged_kv(true)
}

fn generate(qps: f64, seed: u64) -> Vec<RequestSpec> {
    SharedPrefixWorkload::new(
        Workload::internal(),
        GROUPS,
        PREFIX_TOKENS,
        SHARE_RATIO,
        0.0,
    )
    .generate(REQUESTS, qps, seed)
    .into_iter()
    .map(|s| s.with_slo(interactive()))
    .collect()
}

/// What a step-driven run observed besides the report.
#[derive(Debug, Clone, PartialEq)]
struct Stepped {
    report: ServingReport,
    steps: usize,
    idle_steps: usize,
    hybrid_steps: usize,
    tokens: usize,
    blocked: bool,
    /// Requests that did not finish, from the engine's request records.
    unfinished: usize,
    kv_util: Vec<f64>,
    peak_token_samples: usize,
}

/// Submit `specs` and step the engine until it drains or blocks.
fn drive(engine: &mut ServingEngine, specs: Vec<RequestSpec>) -> Stepped {
    for spec in specs {
        engine.submit(spec);
    }
    let (mut steps, mut idle_steps, mut hybrid_steps, mut tokens) = (0, 0, 0, 0);
    let mut kv_util = Vec::new();
    let mut blocked = false;
    let mut now = 0.0;
    loop {
        match trace::span("engine.step", || engine.step(now)) {
            IterationOutcome::Ran(it) => {
                now = it.completed_at;
                steps += 1;
                hybrid_steps += it.hybrid as usize;
                tokens += it.prefill_tokens + it.decode_tokens;
                kv_util.push(engine.kv_utilization());
            }
            IterationOutcome::IdleUntil(t) => {
                now = t;
                idle_steps += 1;
            }
            IterationOutcome::Drained => break,
            // The front request can never fit: stop and count what did not
            // finish as failed, instead of aborting the benchmark.
            IterationOutcome::Blocked { .. } => {
                blocked = true;
                break;
            }
        }
    }
    Stepped {
        report: trace::span("metrics.report", || engine.report()),
        steps,
        idle_steps,
        hybrid_steps,
        tokens,
        blocked,
        unfinished: unfinished(engine),
        kv_util,
        peak_token_samples: engine.peak_token_samples(),
    }
}

/// Build a fresh engine and run `specs` through it, timed.
fn repeat(specs: &[RequestSpec]) -> (Option<Stepped>, Cost) {
    let mut engine = trace::span("engine.new", || ServingEngine::new(config()));
    let specs = specs.to_vec();
    timed(|| catch(|| drive(&mut engine, specs)))
}

pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut host = HostSamples::default();
    let specs = generate(NOMINAL_QPS, args.seed);
    let runs = repeat_for(start, args.seconds, |_| {
        host.setup.push(setup_cost(|| {
            (
                generate(NOMINAL_QPS, args.seed),
                ServingEngine::new(config()),
            )
        }));
        let (stepped, cost) = repeat(&specs);
        host.push(cost);
        stepped
    });

    let attempted = specs.len();
    let first = runs.first;
    let mut out = Outcome {
        attempted,
        failed: first.as_ref().map_or(attempted, |s| s.unfinished),
        ..Outcome::default()
    };
    out.e2e = host.e2e(attempted, out.failed);
    out.check(
        format!(
            "{} repeats give bit-identical step-driven results",
            runs.count
        ),
        runs.identical,
    );
    let Some(stepped) = first else {
        out.check("step-driven run completed without panicking", false);
        return out;
    };
    let report = &stepped.report;
    out.check("no request blocked on KV capacity", !stepped.blocked);
    serving_outcome(report, &specs, &mut out);
    let closed = catch(|| ServingEngine::new(config()).run(specs.clone()));
    out.check(
        "step()-driven report equals ServingEngine::run on the same specs",
        closed.as_ref() == Some(report),
    );

    // Rate ladder: the highest rate whose SLO attainment reaches the bar.
    let mut capacity = 0.0;
    let mut rungs = Vec::new();
    for qps in LADDER_QPS {
        let met = if qps == NOMINAL_QPS {
            report.slo_met
        } else {
            catch(|| ServingEngine::new(config()).run(generate(qps, args.seed)))
                .map_or(0, |r| r.slo_met)
        };
        let attain = stats::slo_attainment(met, attempted);
        rungs.push(format!("{qps} qps: {attain:.4}"));
        if attain >= CAPACITY_ATTAINMENT {
            capacity = qps;
        }
    }
    println!("SLO attainment by rate: {}", rungs.join(", "));

    out.e2e.push(metric(
        "virt_capacity_qps",
        capacity,
        "qps",
        LADDER_QPS.len(),
    ));
    if args.trace {
        (out.layers, out.spans) = traced(args.seed, &specs, &stepped, &host);
    }
    out
}

/// Traced repeats: the per-layer metrics and the first repeat's spans.
fn traced(
    seed: u64,
    specs: &[RequestSpec],
    s: &Stepped,
    untraced: &HostSamples,
) -> (Vec<Metric>, Vec<trace::Span>) {
    trace::enable(seed);
    let (spans, costs) = probe::traced_repeats(seed, || repeat(specs).1);
    let steps = trace::durations(&spans, "engine.step");
    let per_step = |total: usize| total as f64 / s.steps.max(1) as f64;
    let r = &s.report;
    let mut m = vec![
        metric("engine.steps", s.steps as f64, "count", 1),
        metric("engine.idle_steps", s.idle_steps as f64, "count", 1),
        metric(
            "engine.step_ns_p50",
            stats::quantile(&steps, 0.5) * 1e9,
            "ns",
            steps.len(),
        ),
        metric(
            "engine.step_ns_p99",
            stats::quantile(&steps, 0.99) * 1e9,
            "ns",
            steps.len(),
        ),
        metric("engine.self_s", steps.iter().sum(), "s", 1),
        metric(
            "scheduler.hybrid_share",
            per_step(s.hybrid_steps),
            "ratio",
            s.steps,
        ),
        metric(
            "scheduler.tokens_per_step_mean",
            per_step(s.tokens),
            "tokens",
            s.steps,
        ),
        metric(
            "pricing.hit_rate",
            r.price_cache_hit_rate(),
            "ratio",
            r.price_cache_hits + r.price_cache_misses,
        ),
        metric("pricing.misses", r.price_cache_misses as f64, "count", 1),
        metric("kv.prefix_hit_rate", r.prefix_hit_rate(), "ratio", 1),
        metric("kv.blocks_reused", r.blocks_reused as f64, "count", 1),
        metric("kv.cow_copies", r.cow_copies as f64, "count", 1),
        metric("kv.preemptions", r.preemptions as f64, "count", 1),
        metric("kv.blocks_evicted", r.blocks_evicted as f64, "count", 1),
        metric(
            "kv.util_p99",
            stats::quantile(&s.kv_util, 0.99),
            "ratio",
            s.kv_util.len(),
        ),
        metric(
            "metrics.report_ns",
            stats::median(&trace::durations(&spans, "metrics.report")) * 1e9,
            "ns",
            1,
        ),
        metric(
            "metrics.peak_sample_bytes",
            (s.peak_token_samples * 8) as f64,
            "bytes",
            1,
        ),
        gen_seconds(|| generate(NOMINAL_QPS, seed)),
    ];
    m.extend(probe::overhead(&costs, &untraced.cpu));
    m.extend(probe::pricing());
    (m, spans)
}

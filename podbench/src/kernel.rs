//! `kernel_sweep`: the Figure 11 hybrid-batch grid (Yi-6B, Llama-2-7B,
//! Llama-3-8B x context 4K/12K/20K x chunk 512-2K x decode batch 16-224,
//! 135 batches), each run through the CTA-level simulator under FA_Serial
//! and POD and priced by the closed-form estimator.
//!
//! The only workload that loads the `gpu_sim`, `pod` and `fusion` layers;
//! no serving layer runs. The seed jitters each grid point's context
//! (+-1K tokens) and decode batch (+-10%) so a held-out seed gives fresh
//! shapes of the same family.

use crate::host::timed;
use crate::{
    catch, gen_seconds, metric, probe, repeat_for, setup_cost, stats, trace, Args, HostSamples,
    Outcome,
};
use attn_kernels::{
    AttentionConfig, AttentionEstimator, AttentionStrategy, HybridBatch, KERNEL_LAUNCH_OVERHEAD,
};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::{GpuConfig, SimError};
use llm_serving::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

const CONTEXTS_KIB: [usize; 3] = [4, 12, 20];
const CHUNKS: [usize; 3] = [512, 1024, 2048];
const DECODE_BATCHES: [usize; 5] = [16, 48, 96, 160, 224];

fn models() -> [AttentionConfig; 3] {
    [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ]
}

/// The seeded grid: `(model index, batch)`.
fn grid(seed: u64) -> Vec<(usize, HybridBatch)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::new();
    for model in 0..models().len() {
        for kib in CONTEXTS_KIB {
            for chunk in CHUNKS {
                for bs in DECODE_BATCHES {
                    let context = kib * 1024 + rng.next_usize(2048) - 1024;
                    let decodes = (bs as f64 * (0.9 + 0.2 * rng.next_f64())).round() as usize;
                    out.push((
                        model,
                        HybridBatch::uniform(chunk, context, decodes, context),
                    ));
                }
            }
        }
    }
    out
}

/// One model's simulator and estimator.
struct Model {
    runner: HybridAttentionRunner,
    estimator: AttentionEstimator,
}

fn build(gpu: &GpuConfig) -> Vec<Model> {
    models()
        .into_iter()
        .map(|cfg| Model {
            runner: HybridAttentionRunner::new(cfg, gpu.clone()),
            estimator: AttentionEstimator::exact(cfg, gpu.clone()),
        })
        .collect()
}

/// Simulated results of one batch.
#[derive(Debug, Clone, PartialEq)]
struct Batch {
    serial_s: f64,
    pod_s: f64,
    oracle_s: f64,
    est_serial_s: f64,
    est_pod_s: f64,
    intervals: usize,
    flops: f64,
    bytes: f64,
    compute_util: f64,
    bw_util: f64,
}

fn simulate(m: &Model, batch: &HybridBatch) -> Result<Batch, SimError> {
    let pod = m.runner.pod();
    black_box(trace::span("pod.plan", || pod.build_launch(batch)));
    let serial = trace::span("fusion.serial", || {
        m.runner.execute(batch, AttentionStrategy::FaSerial)
    })?;
    let fused = trace::span("pod.execute", || pod.execute(batch))?;
    let est = |s| {
        trace::span("estimator.estimate", || {
            m.estimator.estimate(batch, s).total_time
        })
    };
    Ok(Batch {
        // One launch overhead per kernel, as `HybridAttentionRunner::time`.
        serial_s: serial.makespan + serial.kernels.len() as f64 * KERNEL_LAUNCH_OVERHEAD,
        pod_s: fused.makespan + KERNEL_LAUNCH_OVERHEAD,
        oracle_s: trace::span("pod.oracle", || pod.oracle_time(batch)),
        est_serial_s: est(AttentionStrategy::FaSerial),
        est_pod_s: est(AttentionStrategy::Pod),
        intervals: serial.intervals + fused.intervals,
        flops: fused.total_flops,
        bytes: fused.total_bytes,
        compute_util: fused.compute_utilization(),
        bw_util: fused.memory_utilization(),
    })
}

/// Every batch of the grid: `None` where a launch returned a `SimError` or
/// panicked.
fn sweep(models: &[Model], grid: &[(usize, HybridBatch)]) -> Vec<Option<Batch>> {
    grid.iter()
        .map(|(i, b)| catch(|| simulate(&models[*i], b).ok()).flatten())
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let gpu = GpuConfig::a100_80gb();
    let mut host = HostSamples::default();
    let batches = grid(args.seed);
    let models = build(&gpu);
    let sweeps = repeat_for(start, args.seconds, |_| {
        host.setup
            .push(setup_cost(|| (grid(args.seed), build(&gpu))));
        let (results, cost) = timed(|| sweep(&models, &batches));
        host.push(cost);
        results
    });

    let attempted = batches.len();
    let first = &sweeps.first;
    let ok: Vec<&Batch> = first.iter().flatten().collect();
    let mut out = Outcome {
        attempted,
        failed: first.iter().filter(|r| r.is_none()).count(),
        ..Outcome::default()
    };
    out.e2e = host.e2e(attempted, out.failed);
    out.check(
        format!(
            "{} repeats give bit-identical simulated results",
            sweeps.count
        ),
        sweeps.identical,
    );
    out.check(
        format!(
            "batches conserved: {} completed + {} failed = {attempted} attempted",
            ok.len(),
            out.failed
        ),
        attempted.checked_sub(ok.len()) == Some(out.failed),
    );
    out.check(
        format!("every one of {attempted} launches returned Ok"),
        out.failed == 0,
    );
    out.check(
        "POD time >= its perfect-overlap oracle on every batch",
        ok.iter().all(|b| b.pod_s >= b.oracle_s),
    );
    out.check(
        "estimates are finite and positive",
        ok.iter().all(|b| {
            [b.est_pod_s, b.est_serial_s]
                .iter()
                .all(|t| t.is_finite() && *t > 0.0)
        }),
    );
    // The launch-overhead accounting in `simulate` matches the runner's own
    // timing, checked on each model's first batch.
    let agrees = models.iter().enumerate().all(|(i, m)| {
        let pos = batches
            .iter()
            .position(|(model, _)| *model == i)
            .expect("the grid covers every model");
        let time = |s| m.runner.time(&batches[pos].1, s).ok();
        first[pos].as_ref().is_none_or(|r| {
            time(AttentionStrategy::FaSerial) == Some(r.serial_s)
                && time(AttentionStrategy::Pod) == Some(r.pod_s)
        })
    });
    out.check(
        "FA_Serial and POD times equal HybridAttentionRunner::time",
        agrees,
    );

    let n = ok.len();
    let speedup: Vec<f64> = ok.iter().map(|b| b.serial_s / b.pod_s).collect();
    let rel_err = |est: fn(&Batch) -> f64, sim: fn(&Batch) -> f64| -> Vec<f64> {
        ok.iter().map(|b| (est(b) / sim(b) - 1.0).abs()).collect()
    };
    let err_pod = rel_err(|b| b.est_pod_s, |b| b.pod_s);
    out.e2e.extend([
        metric(
            "virt_attn_speedup_p50",
            stats::quantile(&speedup, 0.5),
            "x",
            n,
        ),
        metric(
            "virt_attn_speedup_p10",
            stats::quantile(&speedup, 0.1),
            "x",
            n,
        ),
        metric(
            "estimator_err_p50",
            stats::quantile(&err_pod, 0.5),
            "ratio",
            n,
        ),
        metric(
            "estimator_err_p90",
            stats::quantile(&err_pod, 0.9),
            "ratio",
            n,
        ),
    ]);
    if !args.trace {
        return out;
    }

    trace::enable(args.seed);
    let (spans, traced) = probe::traced_repeats(args.seed, || timed(|| sweep(&models, &batches)).1);
    out.spans = spans;
    let calls = |name| trace::durations(&out.spans, name);
    let (plan, execute, serial) = (
        calls("pod.plan"),
        calls("pod.execute"),
        calls("fusion.serial"),
    );
    let intervals: usize = ok.iter().map(|b| b.intervals).sum();
    let sim_s = execute.iter().sum::<f64>() + serial.iter().sum::<f64>();
    let gap: Vec<f64> = ok.iter().map(|b| b.pod_s / b.oracle_s).collect();
    let sum_of = |f: fn(&Batch) -> f64| ok.iter().map(|b| f(b)).sum::<f64>();
    let mean_of = |f| sum_of(f) / n as f64;
    out.layers = vec![
        gen_seconds(|| grid(args.seed)),
        metric("pod.plan_us", stats::median(&plan) * 1e6, "us", plan.len()),
        metric(
            "pod.execute_ms",
            stats::median(&execute) * 1e3,
            "ms",
            execute.len(),
        ),
        metric("pod.oracle_gap_p50", stats::quantile(&gap, 0.5), "x", n),
        metric("pod.oracle_gap_p90", stats::quantile(&gap, 0.9), "x", n),
        metric(
            "fusion.serial_ms",
            stats::median(&serial) * 1e3,
            "ms",
            serial.len(),
        ),
        metric("gpu_sim.intervals", intervals as f64, "count", n),
        metric(
            "gpu_sim.intervals_per_s",
            intervals as f64 / sim_s,
            "1/s",
            1,
        ),
        metric(
            "gpu_sim.compute_util",
            mean_of(|b| b.compute_util),
            "ratio",
            n,
        ),
        metric("gpu_sim.bw_util", mean_of(|b| b.bw_util), "ratio", n),
        metric("kernel.flops", sum_of(|b| b.flops), "flop", n),
        metric("kernel.bytes", sum_of(|b| b.bytes), "bytes", n),
        metric(
            "estimator.rel_err_p90.fa_serial",
            stats::quantile(&rel_err(|b| b.est_serial_s, |b| b.serial_s), 0.9),
            "ratio",
            n,
        ),
        metric(
            "estimator.rel_err_p90.pod",
            stats::quantile(&err_pod, 0.9),
            "ratio",
            n,
        ),
    ];
    out.layers.extend(probe::overhead(&traced, &host.cpu));
    out.layers.extend(probe::pricing());
    out
}

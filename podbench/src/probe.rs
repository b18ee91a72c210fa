//! Per-layer timings shared by every traced run: the pricing layer's cost
//! per call on a fixed shape set, the traced repeats and the tracing
//! overhead.

use crate::host::Cost;
use crate::trace::{self, Span};
use crate::{metric, stats, Metric};
use attn_kernels::{AttentionEstimator, AttentionStrategy, HybridBatch};
use gpu_sim::GpuConfig;
use llm_serving::{IterationCostModel, ModelConfig};
use std::hint::black_box;
use std::time::Instant;

/// Timed passes over the shape set; the median pass is reported.
const PASSES: usize = 7;

/// Serving-shaped batches: decode-only and hybrid, short to long contexts.
fn shapes() -> Vec<HybridBatch> {
    let mut out = Vec::new();
    for context in [2 * 1024, 8 * 1024, 24 * 1024] {
        for decodes in [8usize, 32, 96] {
            out.push(HybridBatch::decode_only(decodes, context));
            for chunk in [512usize, 1536] {
                out.push(HybridBatch::uniform(chunk, context, decodes, context));
            }
        }
    }
    out
}

/// Median nanoseconds per call of `f` over [`PASSES`] passes of `shapes`,
/// after one untimed pass that fills any memo.
fn ns_per_call(shapes: &[HybridBatch], mut f: impl FnMut(&HybridBatch) -> f64) -> f64 {
    for b in shapes {
        black_box(f(b));
    }
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for b in shapes {
                black_box(f(black_box(b)));
            }
            t0.elapsed().as_secs_f64() * 1e9 / shapes.len() as f64
        })
        .collect();
    stats::median(&per_pass)
}

/// `pricing.exact_ns`, `pricing.memo_ns` and `estimator.ns_per_call` for
/// Llama-3-8B on an A100 under POD.
pub fn pricing() -> Vec<Metric> {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let shapes = shapes();
    let calls = PASSES * shapes.len();
    let exact = IterationCostModel::exact(model.clone(), gpu.clone());
    let memo = IterationCostModel::new(model.clone(), gpu.clone());
    let estimator = AttentionEstimator::exact(model.attention, gpu);
    let pod = AttentionStrategy::Pod;
    vec![
        metric(
            "pricing.exact_ns",
            ns_per_call(&shapes, |b| exact.iteration_time(b, pod)),
            "ns",
            calls,
        ),
        metric(
            "pricing.memo_ns",
            ns_per_call(&shapes, |b| memo.iteration_time(b, pod)),
            "ns",
            calls,
        ),
        metric(
            "estimator.ns_per_call",
            ns_per_call(&shapes, |b| estimator.estimate(b, pod).total_time),
            "ns",
            calls,
        ),
    ]
}

/// Traced repeats behind `trace.overhead_s`.
const TRACED_REPS: usize = 3;

/// Run `rep` [`TRACED_REPS`] times with tracing on, each inside a
/// `bench.repeat` span; the caller has enabled tracing. `rep` returns the
/// host cost of its timed part, as an untraced repeat does. Returns the
/// spans recorded up to the end of the first repeat, and every repeat's
/// cost. Tracing is off afterwards.
pub fn traced_repeats(run: u64, mut rep: impl FnMut() -> Cost) -> (Vec<Span>, Vec<Cost>) {
    let mut first = None;
    let mut costs = Vec::with_capacity(TRACED_REPS);
    for i in 0..TRACED_REPS {
        if i > 0 {
            trace::enable(run);
        }
        costs.push(trace::span("bench.repeat", &mut rep));
        let spans = trace::take();
        first.get_or_insert(spans);
    }
    (first.unwrap_or_default(), costs)
}

/// Tracing overhead: the median traced repeat's CPU seconds minus the
/// median untraced repeat's. CPU time, because on `fleet_chat` one
/// repeat's wall time varies several-fold with the barrier thread spawns.
pub fn overhead(traced: &[Cost], untraced_cpu: &[f64]) -> Vec<Metric> {
    let traced_cpu: Vec<f64> = traced.iter().map(|c| c.cpu).collect();
    let untraced = stats::median(untraced_cpu);
    vec![
        metric(
            "trace.overhead_s",
            stats::median(&traced_cpu) - untraced,
            "s",
            traced.len(),
        ),
        metric("trace.untraced_cpu_s", untraced, "s", untraced_cpu.len()),
    ]
}

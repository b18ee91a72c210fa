//! Property-based tests of the core invariants, across randomly generated
//! hybrid batches, workloads and scheduler states.
//!
//! The build environment has no access to crates.io, so instead of the
//! `proptest` crate these properties run over cases drawn from the repo's own
//! deterministic [`SplitMix64`] generator: same shrink-free spirit, fixed
//! seeds, and every failure message carries the generated case.

use attn_kernels::{
    AttentionConfig, AttentionEstimator, AttentionStrategy, DecodeKernel, HybridBatch,
    PrefillChunk, PrefillKernel,
};
use gpu_sim::CtaDispatcher;
use gpu_sim::{CtaWork, Engine, Footprint, GpuConfig, KernelLaunch, OpClass, UnitRuns, WorkUnit};
use llm_serving::{
    blocks_for, offline_long_context, BlockPool, ModelConfig, ServingConfig, ServingEngine,
    SplitMix64, SummaryStats, Workload,
};
use pod_attention::{PodAttention, SchedulingPolicy, SmAwareScheduler};

/// Number of random cases per property (kept close to the old
/// `ProptestConfig::with_cases(24)` budget).
const CASES: usize = 24;

fn configs() -> [AttentionConfig; 3] {
    [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ]
}

fn arb_config(rng: &mut SplitMix64) -> AttentionConfig {
    configs()[rng.next_usize(3)]
}

fn arb_batch(rng: &mut SplitMix64) -> HybridBatch {
    let chunk = 1 + rng.next_usize(2048);
    let prior = rng.next_usize(16 * 1024 + 1);
    let decode_bs = rng.next_usize(97);
    let decode_ctx = 64 + rng.next_usize(16 * 1024 - 63);
    // Half the cases declare shared-prefix KV dedup; the descriptor contract
    // clamps over-declared sharing to the redundant share, so any value is
    // legal here — including declarations on empty decode sides.
    let kv_dedup_tokens = if rng.next_f64() < 0.5 {
        rng.next_usize(decode_bs.max(1) * decode_ctx)
    } else {
        0
    };
    // Half the cases carry speculative-verify query tokens (up to 7 extra
    // per decode, the k-1 of a k<=8 draft round).
    let spec_verify_tokens = if rng.next_f64() < 0.5 {
        rng.next_usize(decode_bs * 7 + 1)
    } else {
        0
    };
    HybridBatch {
        prefill: Some(PrefillChunk::new(chunk, prior)),
        decodes: vec![attn_kernels::DecodeRequest::new(decode_ctx); decode_bs],
        kv_dedup_tokens,
        spec_verify_tokens,
    }
}

/// The engine conserves work: the report's total FLOPs/bytes equal the sum
/// over the CTAs that were submitted, within `WORK_EPS`-scale tolerance.
#[test]
fn engine_conserves_work() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    let gpu = GpuConfig::a100_80gb();
    for case in 0..CASES {
        let n_ctas = 1 + rng.next_usize(299);
        let flops = 1.0e6 + rng.next_f64() * 5.0e9;
        let bytes = 1.0e3 + rng.next_f64() * 5.0e7;
        let ctas = vec![CtaWork::single(OpClass::Other, flops, bytes); n_ctas];
        let report = Engine::new(gpu.clone())
            .run_kernel(KernelLaunch::from_ctas(
                "k",
                Footprint::new(128, 48 * 1024),
                ctas,
            ))
            .expect("kernel runs");
        let expected_flops = flops * n_ctas as f64;
        let expected_bytes = bytes * n_ctas as f64;
        assert!(
            (report.total_flops - expected_flops).abs() / expected_flops < 1e-6,
            "case {case} (n={n_ctas}, flops={flops}): {} vs {expected_flops}",
            report.total_flops
        );
        assert!(
            (report.total_bytes - expected_bytes).abs() / expected_bytes < 1e-6,
            "case {case} (n={n_ctas}, bytes={bytes}): {} vs {expected_bytes}",
            report.total_bytes
        );
        assert!(report.makespan > 0.0, "case {case}: empty makespan");
        assert!(report.intervals > 0, "case {case}: no intervals");
        // Utilizations are physical fractions.
        assert!(report.compute_utilization() <= 1.0 + 1e-9, "case {case}");
        assert!(report.memory_utilization() <= 1.0 + 1e-9, "case {case}");
    }
}

/// The kernel work-models scale monotonically: more context or more decodes
/// never means less work.
#[test]
fn kernel_work_is_monotonic() {
    let mut rng = SplitMix64::seed_from_u64(42);
    let gpu = GpuConfig::a100_80gb();
    for case in 0..CASES {
        let cfg = arb_config(&mut rng);
        let context = 256 + rng.next_usize(8192 - 256);
        let extra = 1 + rng.next_usize(4095);
        let prefill = PrefillKernel::flash_attention();
        let small = prefill.total_flops(&PrefillChunk::new(256, context), &cfg, &gpu);
        let large = prefill.total_flops(&PrefillChunk::new(256, context + extra), &cfg, &gpu);
        assert!(
            large >= small,
            "case {case}: ctx {context} (+{extra}): {large} < {small}"
        );

        let decode = DecodeKernel::flash_attention();
        let few = vec![attn_kernels::DecodeRequest::new(context); 8];
        let many = vec![attn_kernels::DecodeRequest::new(context); 16];
        assert!(
            decode.total_bytes(&many, &cfg, &gpu) > decode.total_bytes(&few, &cfg, &gpu),
            "case {case}: decode bytes not monotonic at ctx {context}"
        );
    }
}

/// POD-Attention (almost) never loses to serial execution and never beats
/// the perfect-overlap oracle (§5.1), for arbitrary hybrid batches.
///
/// The bound is 0.75 rather than 1.0: in corner cases where the chunked
/// prefill itself is memory-bound (Llama-2-7B's MHA at long context, whose
/// per-GPU KV working set spills L2), there is no compute/memory
/// complementarity to exploit and the simulated fused kernel can trail
/// serial execution by up to ~15-20 %. On the paper's own sweep (Figure 11
/// harness) the worst case is ~-3 %.
#[test]
fn pod_bounded_by_serial_and_oracle() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let gpu = GpuConfig::a100_80gb();
    for case in 0..CASES {
        let cfg = arb_config(&mut rng);
        let batch = arb_batch(&mut rng);
        let pod = PodAttention::new(cfg, gpu.clone());
        let speedup = pod.speedup_over_serial(&batch).expect("POD runs");
        assert!(
            speedup >= 0.75,
            "case {case} ({batch:?}): POD slower than serial: {speedup}"
        );
        let t = pod.attention_time(&batch).expect("POD runs");
        let oracle = pod.oracle_time(&batch);
        assert!(
            t >= oracle * 0.98,
            "case {case}: POD {t} beat the oracle {oracle}"
        );
    }
}

/// The closed-form estimator keeps the same invariant, and FA_Serial is
/// always at least as slow as POD — with quantization on and off.
#[test]
fn estimator_orderings_hold() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for case in 0..CASES {
        let cfg = arb_config(&mut rng);
        let batch = arb_batch(&mut rng);
        for est in [
            AttentionEstimator::new(cfg, GpuConfig::a100_80gb()),
            AttentionEstimator::exact(cfg, GpuConfig::a100_80gb()),
        ] {
            let serial = est.estimate(&batch, AttentionStrategy::FaSerial);
            let pod = est.estimate(&batch, AttentionStrategy::Pod);
            let quantized = est.is_quantized();
            assert!(
                pod.total_time <= serial.total_time + 1e-12,
                "case {case} (quantized={quantized}): pod {} > serial {}",
                pod.total_time,
                serial.total_time
            );
            assert!(pod.total_time > 0.0, "case {case} (quantized={quantized})");
            assert!(serial.flops >= 0.0 && serial.bytes >= 0.0, "case {case}");
        }
    }
}

/// The SM-aware scheduler dispatches every CTA exactly once and never
/// invents work — regardless of the (arbitrary) SM placement sequence — and
/// its executed-op counts account for every dispatch.
#[test]
fn sm_aware_scheduler_dispatches_everything() {
    let mut rng = SplitMix64::seed_from_u64(23);
    for case in 0..CASES {
        let prefill = rng.next_usize(200);
        let decode = rng.next_usize(200);
        if prefill + decode == 0 {
            continue;
        }
        let policy = if rng.next_f64() < 0.5 {
            SchedulingPolicy::Proportional
        } else {
            SchedulingPolicy::FiftyFifty
        };
        let (pr, dr) = policy.ratios(prefill, decode);
        let num_sms = 16;
        let runs = |op, n| {
            let mut runs = UnitRuns::new();
            runs.push(WorkUnit::new(op, 1.0, 1.0), n);
            runs
        };
        let mut sched = SmAwareScheduler::new(
            runs(OpClass::Prefill, prefill),
            runs(OpClass::Decode, decode),
            num_sms,
            pr,
            dr,
        );
        let mut seen_prefill = 0usize;
        let mut seen_decode = 0usize;
        let mut units = Vec::new();
        for _ in 0..(prefill + decode) {
            let sm = rng.next_usize(num_sms);
            units.clear();
            sched.dispatch(sm, &mut units);
            assert_eq!(units.len(), 1, "case {case}: one unit per CTA");
            match units[0].op {
                OpClass::Prefill => seen_prefill += 1,
                OpClass::Decode => seen_decode += 1,
                other => panic!("case {case}: unexpected op class {other}"),
            }
        }
        assert_eq!(seen_prefill, prefill, "case {case} ({policy:?})");
        assert_eq!(seen_decode, decode, "case {case} ({policy:?})");
        assert_eq!(sched.remaining(), 0, "case {case}: work left over");
        let (count_p, count_d) = sched
            .bound_counts()
            .iter()
            .fold((0, 0), |(p, d), &(cp, cd)| (p + cp, d + cd));
        assert_eq!(
            (count_p, count_d),
            (prefill, decode),
            "case {case}: counts disagree"
        );
    }
}

/// Serving with the batch-price cache on agrees with exact pricing within
/// the quantization tolerance, for random workloads and all three system
/// configurations — and completes the same requests.
#[test]
fn cached_serving_tracks_exact_serving() {
    let mut rng = SplitMix64::seed_from_u64(31);
    let gpu = GpuConfig::a100_80gb();
    for case in 0..6 {
        let model = match rng.next_usize(3) {
            0 => ModelConfig::yi_6b(),
            1 => ModelConfig::llama2_7b(),
            _ => ModelConfig::llama3_8b(),
        };
        let requests = if rng.next_f64() < 0.5 {
            offline_long_context(
                8 + rng.next_usize(8),
                4 * 1024 + rng.next_usize(8 * 1024),
                64,
            )
        } else {
            Workload::internal().generate(16, 0.5 + rng.next_f64(), rng.next_u64())
        };
        let chunk = 512 << rng.next_usize(2);
        let mut config = match rng.next_usize(3) {
            0 => ServingConfig::vllm(model, gpu.clone()),
            1 => ServingConfig::sarathi(model, gpu.clone(), chunk),
            _ => ServingConfig::sarathi_pod(model, gpu.clone(), chunk),
        };
        config.price_cache = true;
        let mut exact_config = config.clone();
        exact_config.price_cache = false;
        let cached = ServingEngine::new(config).run(requests.clone());
        let exact = ServingEngine::new(exact_config).run(requests);
        assert_eq!(
            cached.completed, exact.completed,
            "case {case} ({})",
            cached.system
        );
        // Quantized prices shift the clock slightly, which can move an
        // arrival across an iteration boundary — allow a whisker of drift.
        assert!(
            (cached.iterations as i64 - exact.iterations as i64).unsigned_abs() as usize
                <= 1 + exact.iterations / 100,
            "case {case} ({}): {} vs {} iterations",
            cached.system,
            cached.iterations,
            exact.iterations
        );
        assert_eq!(
            cached.price_cache_hits + cached.price_cache_misses,
            cached.iterations,
            "case {case}: every iteration is a hit or a miss"
        );
        assert_eq!(
            exact.price_cache_hits + exact.price_cache_misses,
            0,
            "case {case}"
        );
        let rel = (cached.makespan - exact.makespan).abs() / exact.makespan.max(1e-12);
        assert!(
            rel < 0.02,
            "case {case} ({}): cached makespan {} vs exact {} ({:.3}% off)",
            cached.system,
            cached.makespan,
            exact.makespan,
            rel * 100.0
        );
    }
}

/// Counted grants in the KV block pool never over-commit and grant/release
/// round trips restore the free space exactly.
#[test]
fn kv_cache_never_overcommits() {
    let mut rng = SplitMix64::seed_from_u64(57);
    for case in 0..CASES {
        let capacity = 64 * 1024;
        let mut kv = BlockPool::new(capacity);
        let mut live: Vec<usize> = Vec::new();
        let ops = 1 + rng.next_usize(63);
        for _ in 0..ops {
            let tokens = 1 + rng.next_usize(4095);
            if rng.next_f64() < 0.5 && !live.is_empty() {
                let t = live.pop().expect("non-empty");
                kv.release_counted(blocks_for(t));
            }
            if kv.alloc_counted(blocks_for(tokens)) {
                live.push(tokens);
            }
            assert!(
                kv.referenced_blocks() <= kv.capacity_blocks(),
                "case {case}: overcommitted"
            );
        }
        for t in live.drain(..) {
            kv.release_counted(blocks_for(t));
        }
        assert_eq!(
            kv.referenced_blocks(),
            0,
            "case {case}: leaked reservations"
        );
    }
}

/// Percentile summaries are ordered and bounded by the sample range.
#[test]
fn summary_stats_are_ordered() {
    let mut rng = SplitMix64::seed_from_u64(99);
    for case in 0..CASES {
        let n = 1 + rng.next_usize(199);
        let samples: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e4).collect();
        let s = SummaryStats::from_samples(&samples);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(s.p50 <= s.p99 + 1e-9, "case {case}");
        assert!(s.p99 <= s.max + 1e-9, "case {case}");
        assert!(s.max <= max + 1e-9, "case {case}");
        assert!(
            s.mean >= min - 1e-9 && s.mean <= s.max + 1e-9,
            "case {case}"
        );
        assert_eq!(s.count, samples.len(), "case {case}");
    }
}

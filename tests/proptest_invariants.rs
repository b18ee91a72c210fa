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
use fusion_lab::HybridAttentionRunner;
use gpu_sim::CtaDispatcher;
use gpu_sim::{CtaWork, Engine, Footprint, GpuConfig, KernelLaunch, OpClass, UnitRuns, WorkUnit};
use llm_serving::{
    blocks_for, offline_long_context, AcceptanceModel, AdmissionPolicy, BlockPool,
    DraftModelConfig, ModelConfig, Phase, PromptContent, RequestSpec, ServingConfig, ServingEngine,
    SloSpec, SplitMix64, SummaryStats, Workload,
};
use pod_attention::{SchedulingPolicy, SmAwareScheduler};

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

/// The engine's interval totals agree with its drain-time attribution:
/// `total_flops` sums the busy SMs' total rate times each interval's length,
/// while each kernel is charged its units' FLOPs when they drain, so the two
/// must agree on random multi-stream launches (mixed units, fused CTAs,
/// per-SM caps, serial tails). The same holds for bytes.
#[test]
fn interval_totals_match_drain_attribution() {
    let mut rng = SplitMix64::seed_from_u64(0x1A2F);
    let gpu = GpuConfig::a100_80gb();
    let ops = [OpClass::Prefill, OpClass::Decode, OpClass::Other];
    for case in 0..CASES {
        let streams = (0..1 + rng.next_usize(3))
            .map(|s| {
                let ctas = (0..1 + rng.next_usize(400))
                    .map(|_| {
                        let units = (0..1 + rng.next_usize(3))
                            .map(|_| {
                                let flops = rng.next_f64() * 2.0e9;
                                let bytes = rng.next_f64() * 2.0e7;
                                WorkUnit::new(ops[rng.next_usize(3)], flops, bytes)
                                    .with_serial_fraction(rng.next_f64() * 0.5)
                            })
                            .collect();
                        CtaWork::fused(units)
                    })
                    .collect();
                let fp = Footprint::new(128, (8 + rng.next_usize(56)) * 1024);
                let mut launch = KernelLaunch::from_ctas(&format!("k{s}"), fp, ctas);
                if rng.next_f64() < 0.5 {
                    launch = launch.limit_ctas_per_sm(1 + rng.next_usize(4));
                }
                gpu_sim::Stream::with_kernel(&format!("s{s}"), launch)
            })
            .collect();
        let report = Engine::new(gpu.clone()).run(streams).expect("launch runs");
        let charged_flops: f64 = report.kernels.iter().map(|k| k.flops).sum();
        let charged_bytes: f64 = report.kernels.iter().map(|k| k.bytes).sum();
        for (what, total, charged) in [
            ("flops", report.total_flops, charged_flops),
            ("bytes", report.total_bytes, charged_bytes),
        ] {
            assert!(
                (total - charged).abs() <= 1e-9 * charged,
                "case {case}: interval {what} {total} vs drained {charged}"
            );
        }
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
        let runner = HybridAttentionRunner::new(cfg, gpu.clone());
        let speedup = runner
            .speedup_over_fa_serial(&batch, AttentionStrategy::Pod)
            .expect("POD runs");
        assert!(
            speedup >= 0.75,
            "case {case} ({batch:?}): POD slower than serial: {speedup}"
        );
        let t = runner
            .time(&batch, AttentionStrategy::Pod)
            .expect("POD runs");
        let oracle = runner.pod().oracle_time(&batch);
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

/// Outstanding tokens recomputed from the public request records: every
/// request not finished, shed, reassigned or migrated out (on an exporting
/// replica, not parked for pickup either), plus the imports not yet
/// adopted. `imports` lists each import's remaining tokens in delivery
/// order; the engine adopts them front first.
fn scanned_outstanding(engine: &ServingEngine, exporting: bool, imports: &[(f64, usize)]) -> usize {
    let live: usize = engine
        .requests()
        .iter()
        .filter(|r| {
            r.finish_time.is_none()
                && r.shed_time.is_none()
                && !r.reassigned
                && !r.migrated_out
                && !(exporting && r.phase() == Phase::Decoding)
        })
        .map(|r| r.remaining_tokens())
        .sum();
    let adopted = engine.requests().iter().filter(|r| r.migrated_in).count();
    live + imports[adopted..].iter().map(|&(_, t)| t).sum::<usize>()
}

/// `outstanding_tokens()` is a running count: after every submit, step,
/// reclaim and import — across preemption, speculative rollback, shedding,
/// cached-prefix admission and prefill export — it equals the sum over the
/// replica's queues.
#[test]
fn outstanding_tokens_tracks_the_queues() {
    let mut rng = SplitMix64::seed_from_u64(0x0070_7374);
    let gpu = GpuConfig::a100_80gb();
    // Requests that were preempted, rolled back, shed, admitted on a cached
    // prefix, reclaimed and migrated in, over all cases.
    let mut seen = [0usize; 6];
    for case in 0..8 {
        let base = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), gpu.clone(), 512)
            .with_paged_kv(true)
            .with_admission(AdmissionPolicy::DeadlineShed);
        // The prefill side exports every completed prompt.
        let mut source = ServingEngine::new(base.clone());
        source.set_export_prefills(true);
        // The decode side is small enough to preempt, and decodes
        // speculatively with dedup on.
        let mut sink_config = base.with_decode_dedup(true).with_speculative(
            1 + rng.next_usize(4),
            DraftModelConfig::scaled(0.1),
            AcceptanceModel::new(0.3 + 0.6 * rng.next_f64(), rng.next_u64()),
        );
        sink_config.kv_capacity_tokens = Some(6 * 1024);
        let mut sink = ServingEngine::new(sink_config);
        let mut imports: Vec<(f64, usize)> = Vec::new();
        let check = |source: &ServingEngine, sink: &ServingEngine, imports: &[(f64, usize)], op| {
            assert_eq!(
                source.outstanding_tokens(),
                scanned_outstanding(source, true, &[]),
                "case {case}: prefill side after {op}"
            );
            assert_eq!(
                sink.outstanding_tokens(),
                scanned_outstanding(sink, false, imports),
                "case {case}: decode side after {op}"
            );
        };
        for _ in 0..400 {
            let now = source.clock().max(sink.clock());
            let op = match rng.next_usize(25) {
                0..=6 => {
                    let prompt = 16 + rng.next_usize(2000);
                    let output = 1 + rng.next_usize(160);
                    let content = if rng.next_usize(2) == 0 {
                        PromptContent::shared(rng.next_usize(3) as u64, 256, rng.next_u64())
                    } else {
                        PromptContent::unique(rng.next_u64())
                    };
                    let mut spec = RequestSpec::new(now + 0.05 * rng.next_f64(), prompt, output)
                        .with_content(content);
                    if rng.next_usize(3) == 0 {
                        spec = spec.with_slo(SloSpec::new("tight", 0.02, 1.0));
                    }
                    if rng.next_usize(2) == 0 {
                        source.submit(spec);
                    } else {
                        sink.submit(spec);
                    }
                    "submit"
                }
                7..=19 => {
                    let engine = if rng.next_usize(2) == 0 {
                        &mut source
                    } else {
                        &mut sink
                    };
                    let at = engine.next_event_time().unwrap_or(engine.clock());
                    engine.step(at);
                    "step"
                }
                20 => {
                    if rng.next_usize(2) == 0 {
                        source.reclaim_unstarted();
                    } else {
                        sink.reclaim_unstarted();
                    }
                    "reclaim_unstarted"
                }
                _ => {
                    for handoff in source.take_ready_handoffs() {
                        let at = handoff.export_time + 0.01 * rng.next_f64();
                        let slot = imports.partition_point(|&(t, _)| t <= at);
                        imports.insert(slot, (at, handoff.request.remaining_tokens()));
                        sink.import_handoff(handoff, at);
                        check(&source, &sink, &imports, "import_handoff");
                    }
                    "take_ready_handoffs"
                }
            };
            check(&source, &sink, &imports, op);
        }
        // Tally the transitions this case drove, over both replicas.
        let all = || source.requests().iter().chain(sink.requests());
        seen[0] += all().filter(|r| r.restarts > 0).count();
        seen[1] += all().filter(|r| r.draft_rejected > 0).count();
        seen[2] += all().filter(|r| r.shed_time.is_some()).count();
        seen[3] += all().filter(|r| r.cached_prompt_tokens > 0).count();
        seen[4] += all().filter(|r| r.reassigned).count();
        seen[5] += all().filter(|r| r.migrated_in).count();
    }
    assert!(seen.iter().all(|&n| n > 0), "transitions driven: {seen:?}");
}

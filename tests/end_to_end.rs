//! Cross-crate integration tests: the paper's headline claims, checked from
//! the kernel level all the way up to the serving stack.

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::GpuConfig;
use llm_serving::{offline_long_context, ModelConfig, ServingConfig, ServingEngine, Workload};
use pod_attention::PodAttention;

/// §5.1: across a sweep of hybrid batches POD-Attention accelerates attention
/// substantially on average and never loses to serial execution.
#[test]
fn pod_speedup_distribution_matches_paper_shape() {
    let gpu = GpuConfig::a100_80gb();
    let mut speedups = Vec::new();
    for cfg in [AttentionConfig::yi_6b(), AttentionConfig::llama3_8b()] {
        let runner = HybridAttentionRunner::new(cfg, gpu.clone());
        for context_kib in [4usize, 8, 16] {
            let context = context_kib * 1024;
            for chunk in [512usize, 2048] {
                for decode_bs in [32usize, 128] {
                    let batch = HybridBatch::uniform(chunk, context, decode_bs, context);
                    let s = runner
                        .speedup_over_fa_serial(&batch, AttentionStrategy::Pod)
                        .expect("POD runs");
                    speedups.push(s);
                }
            }
        }
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0_f64, f64::max);
    assert!(
        min >= 0.97,
        "POD should never lose to serial (min speedup {min:.3})"
    );
    assert!(mean > 1.15, "mean speedup {mean:.3} should be a clear win");
    assert!(
        max < 2.5,
        "max speedup {max:.3} should stay physically plausible"
    );
}

/// Figure 11's ordering: POD is the best strategy, HFuse is the strongest
/// baseline, FI_Batched can be the worst at long context.
#[test]
fn strategy_ranking_on_a_balanced_long_context_batch() {
    let runner = HybridAttentionRunner::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb());
    let batch = HybridBatch::uniform(2048, 16 * 1024, 128, 16 * 1024);
    let time_of = |s: AttentionStrategy| runner.time(&batch, s).expect("all strategies run");
    let pod = time_of(AttentionStrategy::Pod);
    assert!(pod <= time_of(AttentionStrategy::FaSerial));
    assert!(pod <= time_of(AttentionStrategy::FaStreams));
    assert!(pod <= time_of(AttentionStrategy::FaHFuse));
    assert!(pod <= time_of(AttentionStrategy::FiBatched));
    assert!(time_of(AttentionStrategy::FiBatched) > time_of(AttentionStrategy::FiSerial));
}

/// The analytic estimator used by the serving simulator agrees with the
/// CTA-level simulation on the POD-vs-serial speedup (within a loose band) —
/// this ties the end-to-end results back to the kernel-level model.
#[test]
fn analytic_estimator_tracks_the_cta_level_simulation() {
    let cfg = AttentionConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let pod = PodAttention::new(cfg, gpu.clone());
    let est = attn_kernels::AttentionEstimator::new(cfg, gpu);
    for batch in [
        HybridBatch::config_c0(),
        HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024),
        HybridBatch::uniform(512, 16 * 1024, 128, 16 * 1024),
    ] {
        let sim_speedup = pod.speedup_over_serial(&batch).expect("sim runs");
        let serial = est.estimate(&batch, AttentionStrategy::FaSerial).total_time;
        let fused = est.estimate(&batch, AttentionStrategy::Pod).total_time;
        let analytic_speedup = serial / fused;
        let ratio = analytic_speedup / sim_speedup;
        assert!(
            (0.7..1.4).contains(&ratio),
            "analytic speedup {analytic_speedup:.2} vs simulated {sim_speedup:.2}"
        );
    }
}

/// §5.2: in offline serving, Sarathi+POD beats both Sarathi and vLLM in
/// throughput while staying stall-free.
#[test]
fn offline_serving_ordering() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let requests = offline_long_context(24, 16 * 1024, 512);
    let vllm =
        ServingEngine::new(ServingConfig::vllm(model.clone(), gpu.clone())).run(requests.clone());
    let sarathi = ServingEngine::new(ServingConfig::sarathi(model.clone(), gpu.clone(), 1024))
        .run(requests.clone());
    let pod = ServingEngine::new(ServingConfig::sarathi_pod(model, gpu, 1024)).run(requests);
    assert_eq!(pod.completed, 24);
    assert!(pod.requests_per_minute() > sarathi.requests_per_minute());
    assert!(pod.requests_per_minute() > vllm.requests_per_minute());
    assert!(pod.stall_fraction_200ms <= sarathi.stall_fraction_200ms + 1e-9);
}

/// §5.3: under online load, Sarathi+POD improves TTFT and request latency
/// over Sarathi without giving back its stall-free TBT.
#[test]
fn online_serving_latency_ordering() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let requests = Workload::arxiv().generate(64, 0.8, 99);
    let sarathi = ServingEngine::new(ServingConfig::sarathi(model.clone(), gpu.clone(), 1024))
        .run(requests.clone());
    let pod = ServingEngine::new(ServingConfig::sarathi_pod(model, gpu, 1024)).run(requests);
    assert_eq!(pod.completed, 64);
    assert!(pod.ttft.p50 <= sarathi.ttft.p50 * 1.01);
    assert!(pod.request_latency.p99 <= sarathi.request_latency.p99 * 1.01);
    assert!(pod.tbt.p99 <= sarathi.tbt.p99 * 1.05);
}

/// Degenerate workloads run through the whole stack without panicking.
#[test]
fn degenerate_workloads_are_handled() {
    let model = ModelConfig::yi_6b();
    let gpu = GpuConfig::a100_80gb();
    // Single tiny request.
    let report = ServingEngine::new(ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 512))
        .run(vec![llm_serving::RequestSpec::new(0.0, 8, 1)]);
    assert_eq!(report.completed, 1);
    // Prefill-only and decode-only batches at the kernel level.
    let pod = PodAttention::new(AttentionConfig::yi_6b(), gpu);
    assert!(pod.execute(&HybridBatch::prefill_only(64, 64)).is_ok());
    assert!(pod.execute(&HybridBatch::decode_only(1, 16)).is_ok());
}

//! Theoretical best-case (perfect overlap) runtime of a hybrid batch.
//!
//! §5.1 of the paper reports that in 25 % of cases POD-Attention reaches
//! within 10 % of the "theoretical peak speedup". The oracle here is that
//! reference: the attention of a hybrid batch can never finish faster than
//! the larger of (a) all its tensor work executed at the device's achievable
//! compute rate and (b) all its HBM traffic moved at the achievable
//! bandwidth.

use attn_kernels::{AttentionConfig, DecodeKernel, HybridBatch, PrefillKernel, SplitPolicy};
use gpu_sim::{GpuConfig, UnitRuns, MAX_CTA_BANDWIDTH_FRACTION, MAX_CTA_COMPUTE_FRACTION};

/// Perfect-overlap lower bound on the attention runtime of `batch` (seconds).
///
/// Uses the same FlashAttention work-models as the serial baseline (so the
/// comparison isolates *overlap*, not tiling differences) and the same
/// per-CTA throughput caps as the contention engine.
pub fn oracle_time(batch: &HybridBatch, cfg: &AttentionConfig, gpu: &GpuConfig) -> f64 {
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut ctas = 0usize;
    let mut add = |runs: UnitRuns| {
        let (f, b) = unit_sums(&runs);
        flops += f;
        bytes += b;
        ctas += runs.len();
    };
    if let Some(chunk) = &batch.prefill {
        let k = PrefillKernel::flash_attention().with_split_policy(SplitPolicy::LimitedToTwoWaves);
        add(k.unit_runs(chunk, cfg, gpu));
    }
    if !batch.decodes.is_empty() {
        add(DecodeKernel::pod().unit_runs(&batch.decodes, cfg, gpu));
    }
    if ctas == 0 {
        return 0.0;
    }
    let compute_rate =
        (ctas as f64 * MAX_CTA_COMPUTE_FRACTION * gpu.sm_compute_flops()).min(gpu.tensor_flops);
    let mem_rate =
        (ctas as f64 * MAX_CTA_BANDWIDTH_FRACTION * gpu.hbm_bandwidth).min(gpu.hbm_bandwidth);
    (flops / compute_rate).max(bytes / mem_rate)
}

/// A grid's `(flops, bytes)`, each unit's value added once per CTA in launch
/// order: bit-identical to summing the expanded unit list.
fn unit_sums(runs: &UnitRuns) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0, 0.0);
    for &(u, n) in runs.runs() {
        for _ in 0..n {
            flops += u.flops;
            bytes += u.bytes;
        }
    }
    (flops, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_zero_for_empty_batch() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        assert_eq!(oracle_time(&HybridBatch::new(), &cfg, &gpu), 0.0);
    }

    #[test]
    fn oracle_scales_with_work() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let small = oracle_time(&HybridBatch::uniform(512, 4096, 32, 4096), &cfg, &gpu);
        let large = oracle_time(&HybridBatch::uniform(512, 4096, 128, 16 * 1024), &cfg, &gpu);
        assert!(large > small);
        assert!(small > 0.0);
    }

    #[test]
    fn oracle_is_at_most_sum_of_sides() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let batch = HybridBatch::config_c1();
        let both = oracle_time(&batch, &cfg, &gpu);
        let prefill_only = oracle_time(
            &HybridBatch {
                prefill: batch.prefill,
                decodes: vec![],
                kv_dedup_tokens: 0,
                spec_verify_tokens: 0,
            },
            &cfg,
            &gpu,
        );
        let decode_only = oracle_time(
            &HybridBatch {
                prefill: None,
                decodes: batch.decodes.clone(),
                kv_dedup_tokens: 0,
                spec_verify_tokens: 0,
            },
            &cfg,
            &gpu,
        );
        assert!(both <= prefill_only + decode_only + 1e-12);
        assert!(both >= prefill_only.max(decode_only) * 0.99);
    }
}

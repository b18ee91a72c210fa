//! Bit-for-bit golden of the closed-form attention estimator
//! (`attn_kernels::AttentionEstimator`) under the two strategies serving
//! prices: FA_Serial and POD, each under the quantized (`new`) and the exact
//! (`exact`) estimator.
//!
//! One digest stands for every `f64` field of every estimate, hashed by bit
//! pattern, so any change to the pricing formulas or their float summation
//! order shows up. A refactor of the estimator must leave it intact; a
//! deliberate model change re-records it (a mismatch prints the new digest).

use attn_kernels::{
    AnalyticCost, AttentionConfig, AttentionEstimator, AttentionStrategy, DecodeRequest,
    HybridBatch,
};
use gpu_sim::GpuConfig;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hash_cost(hash: u64, c: &AnalyticCost) -> u64 {
    let fields = [
        c.total_time,
        c.prefill_time,
        c.decode_time,
        c.flops,
        c.bytes,
    ];
    fields
        .iter()
        .fold(hash, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// The uniform Figure 11 grid: context 4K/12K/20K x chunk 512/1024/2048 x
/// decode batch 16/48/96/160/224 (45 batches per model).
fn fig11_grid() -> Vec<HybridBatch> {
    let mut out = Vec::new();
    for kib in [4, 12, 20] {
        for chunk in [512, 1024, 2048] {
            for decodes in [16, 48, 96, 160, 224] {
                out.push(HybridBatch::uniform(chunk, kib * 1024, decodes, kib * 1024));
            }
        }
    }
    out
}

/// Shapes off the uniform grid: single-sided batches, a heterogeneous decode
/// set, and batches declaring shared-prefix dedup or speculative verify.
fn extra_cases() -> Vec<HybridBatch> {
    let mut heterogeneous = HybridBatch::uniform(1024, 9 * 1024, 0, 0);
    for i in 0..70 {
        heterogeneous
            .decodes
            .push(DecodeRequest::new(4 * 1024 + 137 * i));
    }
    let mut decode_only_mixed = HybridBatch::new();
    for i in 0..41 {
        decode_only_mixed
            .decodes
            .push(DecodeRequest::new(1000 + 311 * i));
    }
    vec![
        HybridBatch::prefill_only(2048, 8192),
        HybridBatch::prefill_only(512, 512),
        HybridBatch::decode_only(64, 8192),
        HybridBatch::decode_only(217, 2085),
        decode_only_mixed.clone(),
        heterogeneous.clone(),
        HybridBatch {
            kv_dedup_tokens: 39 * 4096,
            ..HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024)
        },
        HybridBatch {
            kv_dedup_tokens: 24 * 1024,
            ..heterogeneous.clone()
        },
        HybridBatch {
            kv_dedup_tokens: 10_000,
            ..decode_only_mixed
        },
        HybridBatch {
            spec_verify_tokens: 220 * 3,
            ..HybridBatch::uniform(1024, 12 * 1024, 220, 12 * 1024)
        },
        HybridBatch {
            spec_verify_tokens: 33 * 5,
            ..HybridBatch::uniform(512, 5000, 33, 7777)
        },
        HybridBatch {
            kv_dedup_tokens: 16 * 1024,
            spec_verify_tokens: 70 * 2,
            ..heterogeneous
        },
    ]
}

/// Every estimate field of FA_Serial and POD, quantized and exact, over the
/// 135-batch Figure 11 grid (3 models) plus the extra cases on each model.
#[test]
fn estimator_digest() {
    let gpu = GpuConfig::a100_80gb();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut cases = 0;
    for cfg in [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ] {
        let estimators = [
            AttentionEstimator::new(cfg, gpu.clone()),
            AttentionEstimator::exact(cfg, gpu.clone()),
        ];
        for batch in fig11_grid().into_iter().chain(extra_cases()) {
            cases += 1;
            for est in &estimators {
                for strategy in [AttentionStrategy::FaSerial, AttentionStrategy::Pod] {
                    hash = hash_cost(hash, &est.estimate(&batch, strategy));
                }
            }
        }
    }
    assert_eq!(
        (format!("{hash:016x}"), cases),
        (ESTIMATOR_DIGEST.to_owned(), ESTIMATOR_CASES),
        "digest mismatch"
    );
}

const ESTIMATOR_DIGEST: &str = "c68b7081f133c254";
const ESTIMATOR_CASES: usize = 171;

//! Figure 13: sensitivity of POD-Attention to the number of fused CTAs per
//! SM (2 vs 4) across decode batch sizes and context lengths (Llama-3-8B).
//! Prefill-dominant (long-context) batches prefer 2 CTAs/SM and its larger
//! tiles; decode-dominant batches prefer 4 CTAs/SM and its finer interleave.

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::GpuConfig;
use pod_attention::{CtasPerSm, PodAttention, PodOptions};
use pod_bench::{heading, print_table};

fn main() {
    let cfg = AttentionConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let chunk = 1024usize;
    let batch_sizes = [16usize, 32, 64, 128, 192];
    let contexts_kib = [1usize, 2, 4, 8, 16];

    let pod_with = |mode: CtasPerSm| {
        HybridAttentionRunner::with_pod(PodAttention::with_options(
            cfg,
            gpu.clone(),
            PodOptions::recommended().with_ctas_per_sm(mode),
        ))
    };
    let two = pod_with(CtasPerSm::Two);
    let four = pod_with(CtasPerSm::Four);

    heading(
        "Figure 13: runtime of 2 CTAs/SM relative to 4 CTAs/SM",
        "Values < 1.00 mean 2 CTAs/SM is faster (long contexts); > 1.00 mean 4 CTAs/SM is faster.",
    );

    let mut rows = Vec::new();
    for &ctx_kib in &contexts_kib {
        let context = ctx_kib * 1024;
        let mut row = vec![format!("{ctx_kib}K")];
        for &bs in &batch_sizes {
            let batch = HybridBatch::uniform(chunk.min(context), context, bs, context);
            let t2 = two
                .time(&batch, AttentionStrategy::Pod)
                .expect("2 CTAs/SM runs");
            let t4 = four
                .time(&batch, AttentionStrategy::Pod)
                .expect("4 CTAs/SM runs");
            row.push(format!("{:.2}", t2 / t4));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Context".to_string())
        .chain(batch_sizes.iter().map(|b| format!("bs={b}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);

    println!(
        "\nExpected shape (paper): the 2-CTA configuration wins toward the bottom-left (long \
         context, small batch); the 4-CTA configuration wins as decode dominates."
    );
}

//! Table 8: limiting the number of KV splits of the chunked prefill inside
//! the fused kernel. Per-layer attention runtime (ms) of the last four chunks
//! of a 16K-token prompt (chunk 512), co-running with 64 decode requests of
//! 16K context (Llama-3-8B).

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch, SplitPolicy};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::GpuConfig;
use pod_attention::{PodAttention, PodOptions};
use pod_bench::{heading, ms, print_table};

fn main() {
    let cfg = AttentionConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let chunk = 512usize;
    let decode_bs = 64usize;
    let context = 16 * 1024usize;
    let chunks = context / chunk;

    let runner_with = |splits| {
        HybridAttentionRunner::with_pod(PodAttention::with_options(
            cfg,
            gpu.clone(),
            PodOptions::recommended().with_prefill_splits(splits),
        ))
    };
    let vanilla = runner_with(SplitPolicy::Vanilla);
    let limited = runner_with(SplitPolicy::LimitedToTwoWaves);

    heading(
        "Table 8: per-layer attention runtime (ms) of the last four prefill chunks",
        "Llama-3-8B, 16K context, chunk 512, decode batch 64.",
    );

    let mut rows = Vec::new();
    for chunk_id in (chunks - 4)..chunks {
        let batch = HybridBatch::uniform(chunk, (chunk_id + 1) * chunk, decode_bs, context);
        let fa = limited
            .time(&batch, AttentionStrategy::FaSerial)
            .expect("FA serial runs");
        let t_vanilla = vanilla
            .time(&batch, AttentionStrategy::Pod)
            .expect("vanilla-split POD runs");
        let t_limited = limited
            .time(&batch, AttentionStrategy::Pod)
            .expect("limited-split POD runs");
        rows.push(vec![
            format!("{chunk_id}"),
            ms(fa),
            format!("{} ({:.2}x)", ms(t_vanilla), t_vanilla / fa),
            format!("{} ({:.2}x)", ms(t_limited), t_limited / fa),
        ]);
    }
    print_table(
        &[
            "Chunk Id",
            "FA_Serial",
            "POD (vanilla split)",
            "POD (limited split)",
        ],
        &rows,
    );

    println!(
        "\nExpected shape (paper): both POD variants beat FA_Serial; limiting the splits to two \
         waves is clearly faster than vanilla splitting (0.73-0.75x vs 0.86-0.87x of serial)."
    );
}

//! Figure 11: distribution of attention speedup over FA_Serial for
//! FA_Streams, FI_Serial, FI_Batched, FA_HFuse and POD across a sweep of
//! hybrid batches (context lengths 4K–20K, chunk sizes 512–2K, all three
//! models), restricted — as in the paper — to batches where both prefill and
//! decode attention are at least 20 % of the serial runtime.

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::GpuConfig;
use pod_bench::{heading, par_map, print_table, Distribution};

fn sweep_batches(step: usize) -> Vec<(AttentionConfig, HybridBatch)> {
    let models = [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ];
    let mut batches = Vec::new();
    for cfg in models {
        for context_kib in (4..=20).step_by(step) {
            let context = context_kib * 1024;
            for chunk in [512usize, 1024, 2048] {
                for decode_bs in [16usize, 48, 96, 160, 224] {
                    batches.push((
                        cfg,
                        HybridBatch::uniform(chunk, context, decode_bs, context),
                    ));
                }
            }
        }
    }
    batches
}

fn main() {
    let gpu = GpuConfig::a100_80gb();
    // Quick mode: 4K/8K/12K/16K/20K in steps of 8K; full mode: every 4K.
    let step = if pod_bench::full_eval() { 4 } else { 8 };
    let batches = sweep_batches(step);

    heading(
        "Figure 11: distribution of attention speedup over FA_Serial",
        &format!(
            "Sweep of {} hybrid batches across Yi-6B, Llama-2-7B, Llama-3-8B.",
            batches.len()
        ),
    );

    let strategies = [
        AttentionStrategy::FaStreams,
        AttentionStrategy::FiSerial,
        AttentionStrategy::FiBatched,
        AttentionStrategy::FaHFuse,
        AttentionStrategy::Pod,
    ];
    // One job per hybrid batch: each runs the serial baseline (for the 20%
    // inclusion filter) plus all five strategies through the CTA-level
    // simulator. The per-model runners are shared read-only across workers.
    let runners: Vec<(AttentionConfig, HybridAttentionRunner)> = [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ]
    .into_iter()
    .map(|cfg| (cfg, HybridAttentionRunner::new(cfg, gpu.clone())))
    .collect();
    let per_batch: Vec<Option<[f64; 5]>> = par_map(batches, |(cfg, batch)| {
        let runner = &runners
            .iter()
            .find(|(c, _)| *c == cfg)
            .expect("runner for every model")
            .1;
        // Keep only batches where both operations matter (>= 20% of serial).
        let serial = runner
            .execute(&batch, AttentionStrategy::FaSerial)
            .expect("serial runs");
        let prefill_t = serial
            .kernel("fa2_prefill")
            .map(|k| k.duration())
            .unwrap_or(0.0);
        let decode_t = serial
            .kernel("fa_decode")
            .map(|k| k.duration())
            .unwrap_or(0.0);
        let total = prefill_t + decode_t;
        if total <= 0.0 || prefill_t / total < 0.2 || decode_t / total < 0.2 {
            return None;
        }
        let mut speedups = [0.0_f64; 5];
        for (i, &s) in strategies.iter().enumerate() {
            let speedup = runner
                .speedup_over_fa_serial(&batch, s)
                .expect("strategy runs");
            speedups[i] = (speedup - 1.0) * 100.0;
        }
        Some(speedups)
    });

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut included = 0usize;
    for speedups in per_batch.into_iter().flatten() {
        included += 1;
        for (i, s) in speedups.into_iter().enumerate() {
            samples[i].push(s);
        }
    }

    let rows: Vec<Vec<String>> = strategies
        .iter()
        .zip(&samples)
        .map(|(s, vals)| {
            let d = Distribution::of(vals);
            vec![
                s.label().to_string(),
                format!("{:.1}%", d.min),
                format!("{:.1}%", d.p25),
                format!("{:.1}%", d.median),
                format!("{:.1}%", d.p75),
                format!("{:.1}%", d.max),
                format!("{:.1}%", d.mean),
            ]
        })
        .collect();
    println!("Included {included} hybrid batches (both operations >= 20% of serial runtime).\n");
    print_table(
        &["Strategy", "min", "p25", "median", "p75", "max", "mean"],
        &rows,
    );

    println!(
        "\nExpected shape (paper): POD reaches up to ~59% speedup with a mean of ~28% and never \
         falls below 0%; FA_HFuse is the strongest baseline but can be negative; FI_Batched \
         degrades sharply at long contexts."
    );
}

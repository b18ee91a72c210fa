//! Quickstart: compute the attention of one hybrid batch with POD-Attention
//! and compare it against serial FlashAttention kernels on the simulated
//! A100.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::{GpuConfig, SimError};

fn main() -> Result<(), SimError> {
    // The paper's main configuration: Llama-3-8B served with tensor
    // parallelism across two A100s (so one GPU sees 16 query / 4 KV heads).
    let cfg = AttentionConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();

    // A typical Sarathi-style hybrid batch: one 1K-token prefill chunk of a
    // 12K-token prompt, co-scheduled with 80 ongoing decodes at 12K context
    // (configuration C0 from Table 1 of the paper).
    let batch = HybridBatch::config_c0();

    let runner = HybridAttentionRunner::new(cfg, gpu);
    let plan = runner.pod().plan(&batch);
    println!(
        "fused launch: {} prefill CTAs + {} decode slots ({}), ratio {}:{}",
        plan.prefill_ctas, plan.decode_slots, plan.ctas_per_sm, plan.ratio.0, plan.ratio.1
    );

    let fused = runner.execute(&batch, AttentionStrategy::Pod)?;
    let serial = runner.execute(&batch, AttentionStrategy::FaSerial)?;

    println!();
    println!(
        "serial FlashAttention kernels : {:.3} ms",
        serial.makespan * 1e3
    );
    println!(
        "POD-Attention (fused)         : {:.3} ms",
        fused.makespan * 1e3
    );
    println!(
        "speedup                       : {:.2}x",
        runner.speedup_over_fa_serial(&batch, AttentionStrategy::Pod)?
    );
    println!();
    println!(
        "utilization   serial: {:>4.0}% compute / {:>4.0}% memory",
        serial.compute_utilization() * 100.0,
        serial.memory_utilization() * 100.0
    );
    println!(
        "              POD   : {:>4.0}% compute / {:>4.0}% memory",
        fused.compute_utilization() * 100.0,
        fused.memory_utilization() * 100.0
    );
    println!();
    println!(
        "POD keeps both the tensor cores and HBM busy at the same time, which is exactly the\n\
         resource overlap the paper exploits (Figure 1)."
    );
    Ok(())
}

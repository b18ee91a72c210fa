//! Bit-for-bit golden outputs of the CTA-level engine (`gpu_sim::Engine`).
//!
//! Every figure here is an `f64` pinned by its bit pattern, so any change to
//! placement order, interval boundaries or float summation order shows up as
//! a failure. Host-side optimisations of the engine must leave them intact;
//! a deliberate model change re-records them (the failure message prints the
//! new block verbatim).

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::{
    CtaWork, Engine, ExecutionReport, Footprint, GpuConfig, KernelLaunch, OpClass, Stream, WorkUnit,
};

/// The pinned fields of one report, one per line, floats as hex bits.
fn fingerprint(r: &ExecutionReport) -> String {
    let mut s = format!(
        "makespan {:016x}\nintervals {}\ntotal_ctas {}\ntotal_flops {:016x}\ntotal_bytes {:016x}\nenergy {:016x}\n",
        r.makespan.to_bits(),
        r.intervals,
        r.total_ctas,
        r.total_flops.to_bits(),
        r.total_bytes.to_bits(),
        r.energy_joules.to_bits(),
    );
    for k in &r.kernels {
        s += &format!(
            "kernel {} ctas {} start {:016x} end {:016x}\n",
            k.name,
            k.ctas,
            k.start.to_bits(),
            k.end.to_bits()
        );
    }
    s
}

fn check(report: &ExecutionReport, golden: &str) {
    let got = fingerprint(report);
    assert_eq!(got, golden, "golden mismatch; new values:\n{got}");
}

/// A deterministic spread of per-CTA work in `[lo, hi)` so CTAs retire at
/// staggered times (a uniform grid would retire a whole wave at once).
fn spread(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lo + (hi - lo) * ((x >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

fn engine() -> Engine {
    Engine::new(GpuConfig::a100_80gb())
}

/// Two streams, each capped below the SM occupancy, contending for SMs.
#[test]
fn two_capped_streams() {
    let compute: Vec<CtaWork> = spread(400, 1, 2e8, 9e8)
        .into_iter()
        .map(|f| CtaWork::single(OpClass::Prefill, f, f * 1e-3))
        .collect();
    let memory: Vec<CtaWork> = spread(500, 2, 1e6, 8e6)
        .into_iter()
        .map(|b| CtaWork::single(OpClass::Decode, b * 0.5, b))
        .collect();
    let fp = Footprint::new(128, 24 * 1024);
    let report = engine()
        .run(vec![
            Stream::with_kernel(
                "s0",
                KernelLaunch::from_ctas("compute", fp, compute).limit_ctas_per_sm(2),
            ),
            Stream::with_kernel(
                "s1",
                KernelLaunch::from_ctas("memory", fp, memory).limit_ctas_per_sm(3),
            ),
        ])
        .unwrap();
    check(&report, TWO_CAPPED_STREAMS);
}

/// A stream's second kernel activates mid-run while the other stream still
/// holds some SMs and leaves others partly free: the new kernel must see
/// free space on SMs that did not just release a CTA.
#[test]
fn kernel_activating_mid_run() {
    let fp = Footprint::new(128, 40 * 1024); // occupancy 4
    let short: Vec<CtaWork> = spread(70, 3, 1e8, 3e8)
        .into_iter()
        .map(|f| CtaWork::single(OpClass::Other, f, 1e5))
        .collect();
    let next: Vec<CtaWork> = spread(300, 4, 1e8, 6e8)
        .into_iter()
        .map(|f| CtaWork::single(OpClass::ComputeBound, f, 2e5))
        .collect();
    let long: Vec<CtaWork> = spread(150, 5, 5e6, 2e7)
        .into_iter()
        .map(|b| CtaWork::single(OpClass::MemoryBound, 1e4, b))
        .collect();
    let mut s0 = Stream::new("s0");
    s0.push(KernelLaunch::from_ctas("short", fp, short).limit_ctas_per_sm(1));
    s0.push(KernelLaunch::from_ctas("next", fp, next));
    let s1 = Stream::with_kernel(
        "s1",
        KernelLaunch::from_ctas("long", fp, long).limit_ctas_per_sm(1),
    );
    let report = engine().run(vec![s0, s1]).unwrap();
    check(&report, KERNEL_ACTIVATING_MID_RUN);
}

/// Fused multi-unit CTAs whose units carry barrier-induced serial tails.
#[test]
fn serial_fraction_tails() {
    let fractions = spread(260, 6, 0.0, 1.0);
    let flops = spread(260, 7, 1e8, 1e9);
    let bytes = spread(260, 8, 1e6, 1e7);
    let ctas: Vec<CtaWork> = (0..260)
        .map(|i| {
            CtaWork::fused(vec![
                WorkUnit::new(OpClass::Prefill, flops[i], bytes[i] * 0.1)
                    .with_serial_fraction(fractions[i]),
                WorkUnit::new(OpClass::Decode, flops[i] * 1e-3, bytes[i])
                    .with_serial_fraction(1.0 - fractions[i]),
            ])
        })
        .collect();
    let report = engine()
        .run_kernel(KernelLaunch::from_ctas(
            "tails",
            Footprint::new(256, 48 * 1024),
            ctas,
        ))
        .unwrap();
    check(&report, SERIAL_FRACTION_TAILS);
}

/// A Figure 11 shape: Llama-3-8B, 1K chunk over 12K context, 96 decodes.
fn fig11() -> (HybridAttentionRunner, HybridBatch) {
    (
        HybridAttentionRunner::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb()),
        HybridBatch::uniform(1024, 12 * 1024, 96, 12 * 1024),
    )
}

#[test]
fn pod_fused_launch() {
    let (runner, batch) = fig11();
    let report = runner.execute(&batch, AttentionStrategy::Pod).unwrap();
    check(&report, POD_FUSED_LAUNCH);
}

#[test]
fn fa_serial_launch() {
    let (runner, batch) = fig11();
    let report = runner.execute(&batch, AttentionStrategy::FaSerial).unwrap();
    check(&report, FA_SERIAL_LAUNCH);
}

const TWO_CAPPED_STREAMS: &str = "\
makespan 3f54999190813430
intervals 1800
total_ctas 900
total_flops 4249893c1fabc205
total_bytes 41e26572a2ebe4f9
energy 3fdbe232c134e55c
kernel compute ctas 400 start 0000000000000000 end 3f4fab448fcd2453
kernel memory ctas 500 start 0000000000000000 end 3f54999190813430
";
const KERNEL_ACTIVATING_MID_RUN: &str = "\
makespan 3f52fa860aa0a72b
intervals 566
total_ctas 520
total_flops 423b3c9bfdb25621
total_bytes 41ddcd2c06abdc8f
energy 3fd634a4514565af
kernel short ctas 70 start 0000000000000000 end 3f1e3de809179307
kernel long ctas 150 start 0000000000000000 end 3f52fa860aa0a72b
kernel next ctas 300 start 3f1e3de809179307 end 3f45460a82271166
";
const SERIAL_FRACTION_TAILS: &str = "\
makespan 3f5028774f34f6dd
intervals 1560
total_ctas 260
total_flops 4240f9032a075a27
total_bytes 41d7d344c166be3c
energy 3fd4293aa5260965
kernel tails ctas 260 start 0000000000000000 end 3f5028774f34f6dd
";
const POD_FUSED_LAUNCH: &str = "\
makespan 3f56ef8c55c5044a
intervals 205
total_ctas 480
total_flops 424649d89d89d89b
total_bytes 41e5444654e0836a
energy 3fdd93eaf7920893
kernel pod_attention ctas 480 start 0000000000000000 end 3f56ef8c55c5044a
";
const FA_SERIAL_LAUNCH: &str = "\
makespan 3f5f9ec98a317445
intervals 263
total_ctas 1280
total_flops 424649d89d89d89e
total_bytes 41e60082911cbfa8
energy 3fe1f74954884657
kernel fa2_prefill ctas 896 start 0000000000000000 end 3f431d18a5a12e8b
kernel fa_decode ctas 384 start 3f431d18a5a12e8b end 3f5f9ec98a317445
";

//! Golden outputs of the CTA-level engine (`gpu_sim::Engine`).
//!
//! Every figure here is an `f64` pinned by its bit pattern, so any change to
//! placement order, interval boundaries or float summation order shows up as
//! a failure; the failure message prints the new block verbatim.
//!
//! A host-side optimisation leaves every block and the digest intact. A
//! deliberate change of float association re-records them, and must keep
//! passing `tests/cta_reference.rs`, which runs the engine against a
//! reference simulator that walks every SM each interval: integers and
//! dispatch logs equal, floats within 1e-12 relative. A model change
//! re-records both.

use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::{
    CtaWork, Engine, ExecutionReport, Footprint, GpuConfig, KernelLaunch, KernelReport, OpClass,
    SimError, Stream, WorkUnit,
};
use pod_attention::CtasPerSm;

/// Every field of one report, one per line, floats as hex bits.
fn fingerprint(r: &ExecutionReport) -> String {
    let mut s = format!(
        "makespan {:016x}\nintervals {}\ntotal_ctas {}\ntotal_flops {:016x}\ntotal_bytes {:016x}\nenergy {:016x}\npeaks {:016x} {:016x}\n",
        r.makespan.to_bits(),
        r.intervals,
        r.total_ctas,
        r.total_flops.to_bits(),
        r.total_bytes.to_bits(),
        r.energy_joules.to_bits(),
        r.peak_flops.to_bits(),
        r.peak_bandwidth.to_bits(),
    );
    for k in &r.kernels {
        s += &format!(
            "kernel {} ctas {} start {:016x} end {:016x} flops {:016x} bytes {:016x}\n",
            k.name,
            k.ctas,
            k.start.to_bits(),
            k.end.to_bits(),
            k.flops.to_bits(),
            k.bytes.to_bits()
        );
    }
    for (op, c) in &r.op_classes {
        s += &format!(
            "op {op} ctas {} flops {:016x} bytes {:016x} finish {:016x}\n",
            c.ctas,
            c.flops.to_bits(),
            c.bytes.to_bits(),
            c.finish_time.to_bits()
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
fn run_two_capped_streams() -> ExecutionReport {
    let compute: Vec<CtaWork> = spread(400, 1, 2e8, 9e8)
        .into_iter()
        .map(|f| CtaWork::single(OpClass::Prefill, f, f * 1e-3))
        .collect();
    let memory: Vec<CtaWork> = spread(500, 2, 1e6, 8e6)
        .into_iter()
        .map(|b| CtaWork::single(OpClass::Decode, b * 0.5, b))
        .collect();
    let fp = Footprint::new(128, 24 * 1024);
    engine()
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
        .unwrap()
}

#[test]
fn two_capped_streams() {
    check(&run_two_capped_streams(), TWO_CAPPED_STREAMS);
}

/// A stream's second kernel activates mid-run while the other stream still
/// holds some SMs and leaves others partly free: the new kernel must see
/// free space on SMs that did not just release a CTA.
fn run_kernel_activating_mid_run() -> ExecutionReport {
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
    engine().run(vec![s0, s1]).unwrap()
}

#[test]
fn kernel_activating_mid_run() {
    check(&run_kernel_activating_mid_run(), KERNEL_ACTIVATING_MID_RUN);
}

/// Fused multi-unit CTAs whose units carry barrier-induced serial tails.
fn run_serial_fraction_tails() -> ExecutionReport {
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
    engine()
        .run_kernel(KernelLaunch::from_ctas(
            "tails",
            Footprint::new(256, 48 * 1024),
            ctas,
        ))
        .unwrap()
}

#[test]
fn serial_fraction_tails() {
    check(&run_serial_fraction_tails(), SERIAL_FRACTION_TAILS);
}

/// A Figure 11 shape: Llama-3-8B, 1K chunk over 12K context, 96 decodes.
fn fig11() -> (HybridAttentionRunner, HybridBatch) {
    (
        HybridAttentionRunner::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb()),
        HybridBatch::uniform(1024, 12 * 1024, 96, 12 * 1024),
    )
}

fn run_pod_fused_launch() -> ExecutionReport {
    let (runner, batch) = fig11();
    runner.execute(&batch, AttentionStrategy::Pod).unwrap()
}

#[test]
fn pod_fused_launch() {
    check(&run_pod_fused_launch(), POD_FUSED_LAUNCH);
}

fn run_fa_serial_launch() -> ExecutionReport {
    let (runner, batch) = fig11();
    runner.execute(&batch, AttentionStrategy::FaSerial).unwrap()
}

#[test]
fn fa_serial_launch() {
    check(&run_fa_serial_launch(), FA_SERIAL_LAUNCH);
}

/// Llama-2-7B: its shapes dominate a Figure 11 sweep's host cost.
fn llama2() -> HybridAttentionRunner {
    HybridAttentionRunner::new(AttentionConfig::llama2_7b(), GpuConfig::a100_80gb())
}

/// 4 CTAs/SM: 1,432 CTAs, every decode CTA packing two units.
fn run_pod_four_ctas_per_sm_llama2() -> ExecutionReport {
    let runner = llama2();
    let batch = HybridBatch::uniform(1024, 20 * 1024, 51, 20 * 1024);
    let plan = runner.pod().plan(&batch);
    assert_eq!(plan.ctas_per_sm, CtasPerSm::Four);
    assert_eq!(plan.prefill_ctas + plan.decode_slots, 1432);
    assert_eq!(plan.virtual_decode_ctas, 2 * plan.decode_slots);
    runner.execute(&batch, AttentionStrategy::Pod).unwrap()
}

#[test]
fn pod_four_ctas_per_sm_llama2() {
    check(
        &run_pod_four_ctas_per_sm_llama2(),
        POD_FOUR_CTAS_PER_SM_LLAMA2,
    );
}

/// 3,584 one-unit decode CTAs behind a short prefill.
fn run_fa_serial_wide_decode_llama2() -> ExecutionReport {
    let runner = llama2();
    let batch = HybridBatch::uniform(512, 4096, 224, 4096);
    runner.execute(&batch, AttentionStrategy::FaSerial).unwrap()
}

#[test]
fn fa_serial_wide_decode_llama2() {
    check(
        &run_fa_serial_wide_decode_llama2(),
        FA_SERIAL_WIDE_DECODE_LLAMA2,
    );
}

/// The wide decode on a 132-SM device: the engine's reused state must be
/// rebuilt for the other SM count.
fn run_fa_serial_wide_decode_132_sms() -> Result<ExecutionReport, SimError> {
    let gpu = GpuConfig {
        num_sms: 132,
        ..GpuConfig::a100_80gb()
    };
    HybridAttentionRunner::new(AttentionConfig::llama2_7b(), gpu).execute(
        &HybridBatch::uniform(512, 4096, 224, 4096),
        AttentionStrategy::FaSerial,
    )
}

/// Stream `s1` runs a short kernel and then `second`, which fails when it
/// activates, while stream `s0`'s longer kernel still holds CTAs on every
/// SM: the run returns the error with its heaps, slabs and SMs in use.
fn run_failing_after(second: KernelLaunch) -> Result<ExecutionReport, SimError> {
    let fp = Footprint::new(128, 40 * 1024);
    let ctas = |n, seed, lo, hi| -> Vec<CtaWork> {
        spread(n, seed, lo, hi)
            .into_iter()
            .map(|f| CtaWork::single(OpClass::Prefill, f, f * 1e-2))
            .collect()
    };
    let mut s1 = Stream::with_kernel(
        "s1",
        KernelLaunch::from_ctas("short", fp, ctas(108, 9, 1e7, 5e7)),
    );
    s1.push(second);
    engine().run(vec![
        Stream::with_kernel(
            "s0",
            KernelLaunch::from_ctas("long", fp, ctas(300, 10, 1e9, 4e9)).limit_ctas_per_sm(2),
        ),
        s1,
    ])
}

fn run_stalled() -> Result<ExecutionReport, SimError> {
    let ctas = vec![CtaWork::single(OpClass::Other, 1e6, 1e6); 4];
    run_failing_after(
        KernelLaunch::from_ctas("capped", Footprint::default(), ctas).limit_ctas_per_sm(0),
    )
}

fn run_cta_too_large() -> Result<ExecutionReport, SimError> {
    let ctas = vec![CtaWork::single(OpClass::Other, 1e6, 1e6); 4];
    run_failing_after(KernelLaunch::from_ctas(
        "huge",
        Footprint::new(128, 512 * 1024),
        ctas,
    ))
}

/// The engine keeps each thread's run state between launches. Run launches
/// of every kind on one thread, errors and another SM count included, and
/// each must report exactly what it reports on a thread of its own.
#[test]
fn reused_run_state_matches_a_fresh_thread() {
    type Launch = fn() -> Result<ExecutionReport, SimError>;
    let launches: [(&str, Launch); 9] = [
        ("wide decode", || Ok(run_fa_serial_wide_decode_llama2())),
        ("pod", || Ok(run_pod_fused_launch())),
        // Staggered CTAs, so placement order shows in every field.
        ("two capped streams", || Ok(run_two_capped_streams())),
        ("activating mid-run", || Ok(run_kernel_activating_mid_run())),
        ("132 SMs", run_fa_serial_wide_decode_132_sms),
        ("108 SMs after 132", || Ok(run_pod_fused_launch())),
        ("stalled", run_stalled),
        ("cta too large", run_cta_too_large),
        ("wide decode again", || {
            Ok(run_fa_serial_wide_decode_llama2())
        }),
    ];
    let print = |result: Result<ExecutionReport, SimError>| match result {
        Ok(report) => fingerprint(&report),
        Err(e) => format!("error {e:?}"),
    };
    let warm: Vec<String> = launches.iter().map(|(_, run)| print(run())).collect();
    assert!(warm[6].starts_with("error Stalled"), "{}", warm[6]);
    assert!(warm[7].starts_with("error CtaTooLarge"), "{}", warm[7]);
    for ((name, run), warm) in launches.iter().zip(&warm) {
        let run = *run;
        let fresh = std::thread::spawn(move || print(run())).join().unwrap();
        assert_eq!(warm, &fresh, "{name}: reused state vs a fresh thread");
    }
}

/// FNV-1a over bytes: a digest that is stable across toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every report field, under all six strategies, over 36 Figure 11 shapes:
/// 3 models x context 4K/12K/20K x chunk 512/2048 x 16/224 decodes. One
/// digest stands for 216 fingerprints; a mismatch means some field moved.
/// Each report's `total_flops` and `total_bytes` are its kernels' totals
/// summed in kernel order, bit for bit.
#[test]
fn fig11_subgrid_digest() {
    let gpu = GpuConfig::a100_80gb();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut intervals = 0;
    for cfg in [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ] {
        let runner = HybridAttentionRunner::new(cfg, gpu.clone());
        for kib in [4, 12, 20] {
            for chunk in [512, 2048] {
                for decodes in [16, 224] {
                    let batch = HybridBatch::uniform(chunk, kib * 1024, decodes, kib * 1024);
                    for strategy in AttentionStrategy::all() {
                        let report = runner.execute(&batch, strategy).unwrap();
                        let sum = |work: fn(&KernelReport) -> f64| {
                            report.kernels.iter().fold(0.0, |sum, k| sum + work(k))
                        };
                        assert_eq!(
                            (report.total_flops.to_bits(), report.total_bytes.to_bits()),
                            (sum(|k| k.flops).to_bits(), sum(|k| k.bytes).to_bits()),
                            "{strategy:?} totals vs kernel sums"
                        );
                        intervals += report.intervals;
                        hash = fnv1a(hash, fingerprint(&report).as_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(
        (format!("{hash:016x}"), intervals),
        (FIG11_SUBGRID_DIGEST.to_owned(), FIG11_SUBGRID_INTERVALS),
        "digest mismatch"
    );
}

const TWO_CAPPED_STREAMS: &str = "\
makespan 3f54999190813431
intervals 1800
total_ctas 900
total_flops 4249893c1fabc219
total_bytes 41e26572a2ebe4f7
energy 3fdbe232c134e564
peaks 42f1bc3292b80000 427dabddee600000
kernel compute ctas 400 start 0000000000000000 end 3f4fab448fcd2453 flops 424967b1b372a504 bytes 41aa03c865d5a6e7
kernel memory ctas 500 start 0000000000000000 end 3f54999190813431 flops 41d0c5361c8e8a8d bytes 41e0c5361c8e8a89
op prefill ctas 400 flops 424967b1b372a504 bytes 41aa03c865d5a6e7 finish 3f4fab448fcd2453
op decode ctas 500 flops 41d0c5361c8e8a8d bytes 41e0c5361c8e8a89 finish 3f54999190813431
";
const KERNEL_ACTIVATING_MID_RUN: &str = "\
makespan 3f52fa860aa0a72b
intervals 566
total_ctas 520
total_flops 423b3c9bfdb25624
total_bytes 41ddcd2c06abdc8c
energy 3fd634a4514565b3
peaks 42f1bc3292b80000 427dabddee600000
kernel short ctas 70 start 0000000000000000 end 3f1e3de809179309 flops 420a70c8ae7cb454 bytes 415ab3f000000000
kernel long ctas 150 start 0000000000000000 end 3f52fa860aa0a72b flops 4136e36000000000 bytes 41dccd9656abdc8c
kernel next ctas 300 start 3f1e3de809179309 end 3f45460a82271168 flops 4237ee6c0482bf9a bytes 418c9c3800000000
op compute ctas 300 flops 4237ee6c0482bf9a bytes 418c9c3800000000 finish 3f45460a82271168
op memory ctas 150 flops 4136e36000000000 bytes 41dccd9656abdc8c finish 3f52fa860aa0a72b
op other ctas 70 flops 420a70c8ae7cb454 bytes 415ab3f000000000 finish 3f1e3de809179309
";
const SERIAL_FRACTION_TAILS: &str = "\
makespan 3f5028774f34f6dc
intervals 1560
total_ctas 260
total_flops 4240f9032a075a25
total_bytes 41d7d344c166be40
energy 3fd4293aa5260964
peaks 42f1bc3292b80000 427dabddee600000
kernel tails ctas 260 start 0000000000000000 end 3f5028774f34f6dc flops 4240f9032a075a25 bytes 41d7d344c166be40
op prefill ctas 260 flops 4240f4abf3c4d9ed bytes 41a153d4e9bf15fc finish 3f5028774f34f6dc
op decode ctas 0 flops 41a15cd90a00df22 bytes 41d5a8ca242edb7e finish 0000000000000000
";
const POD_FUSED_LAUNCH: &str = "\
makespan 3f56ef8c55c50448
intervals 205
total_ctas 480
total_flops 424649d89d89d8c4
total_bytes 41e5444654e08389
energy 3fdd93eaf79208ac
peaks 42f1bc3292b80000 427dabddee600000
kernel pod_attention ctas 480 start 0000000000000000 end 3f56ef8c55c50448 flops 424649d89d89d8c4 bytes 41e5444654e08389
op prefill ctas 384 flops 4241c9d89d89d8a6 bytes 4199e1e1e1e1e1f4 finish 3f4bac10833e6046
op decode ctas 96 flops 4222000000000000 bytes 41e4753745d17478 finish 3f56ef8c55c50448
";
const FA_SERIAL_LAUNCH: &str = "\
makespan 3f5f9ec98a31744a
intervals 263
total_ctas 1280
total_flops 424649d89d89d8a7
total_bytes 41e60082911cbfc5
energy 3fe1f7495488465e
peaks 42f1bc3292b80000 427dabddee600000
kernel fa2_prefill ctas 896 start 0000000000000000 end 3f431d18a5a12e94 flops 4241c9d89d89d8a7 bytes 41a8b4b4b4b4b4d4
kernel fa_decode ctas 384 start 3f431d18a5a12e94 end 3f5f9ec98a31744a flops 4222000000000000 bytes 41e4753745d17478
op prefill ctas 896 flops 4241c9d89d89d8a7 bytes 41a8b4b4b4b4b4d4 finish 3f431d18a5a12e94
op decode ctas 384 flops 4222000000000000 bytes 41e4753745d17478 finish 3f5f9ec98a31744a
";
const POD_FOUR_CTAS_PER_SM_LLAMA2: &str = "\
makespan 3f78a22dec4aa6a1
intervals 590
total_ctas 1432
total_flops 4258ce58469ee58a
total_bytes 4206d6c55cbfa8c1
energy 3ffc83b4db8bc659
peaks 42f1bc3292b80000 427dabddee600000
kernel pod_attention ctas 1432 start 0000000000000000 end 3f78a22dec4aa6a1 flops 4258ce58469ee58a bytes 4206d6c55cbfa8c1
op prefill ctas 1024 flops 4250d658469ee58b bytes 41e2e92d2d2d2d24 finish 3f761d56b3afc32e
op decode ctas 408 flops 423fe00000000000 bytes 42021c7a11745d1c finish 3f78a22dec4aa6a1
";
const FA_SERIAL_WIDE_DECODE_LLAMA2: &str = "\
makespan 3f71a478b1f147fc
intervals 268
total_ctas 4480
total_flops 4240eec4ec4ec4ed
total_bytes 42004f93ceb770b6
energy 3ff31870d0d5a5ab
peaks 42f1bc3292b80000 427dabddee600000
kernel fa2_prefill ctas 896 start 0000000000000000 end 3f1ee4d1f524bd30 flops 4217762762762765 bytes 41a99696969696a4
kernel fa_decode ctas 3584 start 3f1ee4d1f524bd30 end 3f71a478b1f147fc flops 423c000000000000 bytes 41ffd272e8ba2cb7
op prefill ctas 896 flops 4217762762762765 bytes 41a99696969696a4 finish 3f1ee4d1f524bd30
op decode ctas 3584 flops 423c000000000000 bytes 41ffd272e8ba2cb7 finish 3f71a478b1f147fc
";
const FIG11_SUBGRID_DIGEST: &str = "8ea05eadcc3d49a7";
const FIG11_SUBGRID_INTERVALS: usize = 96947;

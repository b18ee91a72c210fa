//! Figure 21 (repro-original): prefix-shared batched decode (CoDec-style KV
//! dedup). Sweeps the share ratio of a shared-system-prompt workload ×
//! attention backend, with decode dedup on and off, on the paged
//! prefix-caching engine.
//!
//! What this answers:
//!
//! 1. How much decode cost and TBT does deduplicating the shared-prefix KV
//!    reads save as the share ratio grows? Each co-batched group pays one
//!    pass over its shared blocks per iteration instead of one per member.
//! 2. Is the machinery provably inert when there is nothing to share —
//!    bit-for-bit at share ratio 0, and report-identical under the
//!    conservative KV policy, where no block identity exists to group by?
//!
//! Writes `BENCH_decode.json` at the repository root (uploaded as a CI
//! artifact alongside the other trend files); `perf_gate` gates every value
//! exactly, so a modeling change that moves the dedup win, the mean TBT
//! speedup included, fails CI unless it re-baselines the file.
//!
//! Run with `cargo bench -p pod-bench --bench fig21_shared_decode`.

use gpu_sim::GpuConfig;
use llm_serving::{JsonValue, ModelConfig, ServingConfig, ServingEngine};
use pod_bench::online::{backends, write_trend, SharedPrefixTrace, Sweep, SHARE_RATIOS};
use pod_bench::{heading, pct, scaled, secs};

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(96, 480);
    let workload = SharedPrefixTrace {
        num_requests,
        qps: 3.0,
    };

    heading(
        "Figure 21: shared-prefix decode — share ratio x backend x dedup",
        "Shared-system-prompt workload (4 groups, ~2K-token prefixes, 35% multi-turn); \
         paged prefix-caching engine; Llama-3-8B, chunk 1024.",
    );

    // Every cell generates the same trace for its ratio, so on/off pairs
    // are directly comparable.
    let sweep = Sweep::run(SharedPrefixTrace::cells(), |(si, bi, dedup)| {
        let specs = workload.generate(SHARE_RATIOS[si]);
        let config = backends(&model, &gpu)[bi]
            .clone()
            .with_paged_kv(true)
            .with_decode_dedup(dedup);
        ServingEngine::new(config).run(specs)
    });
    sweep.print_rows(
        &[
            "Share",
            "System",
            "TBT mean",
            "TBT P99",
            "Makespan",
            "KV deduped",
            "Hit rate",
            "Preempt",
        ],
        |(si, _, _), r| {
            vec![
                format!("{:.1}", SHARE_RATIOS[si]),
                r.system.clone(),
                secs(r.tbt.mean),
                secs(r.tbt.p99),
                secs(r.makespan),
                format!("{}", r.decode_kv_tokens_deduped),
                pct(r.prefix_hit_rate()),
                format!("{}", r.preemptions),
            ]
        },
    );

    // Ordering 1: at every positive share ratio, dedup strictly reduces
    // makespan (decode cost) and mean TBT, on both backends.
    for (si, &ratio) in SHARE_RATIOS.iter().enumerate() {
        for bi in 0..2 {
            let on = sweep.get((si, bi, true));
            let off = sweep.get((si, bi, false));
            assert_eq!(on.completed, num_requests);
            assert_eq!(off.completed, num_requests);
            assert_eq!(off.decode_kv_tokens_deduped, 0, "dedup off never dedups");
            if ratio > 0.0 {
                assert!(
                    on.decode_kv_tokens_deduped > 0,
                    "share {ratio} / {}: shared decodes must dedup",
                    on.system
                );
                assert!(
                    on.makespan < off.makespan,
                    "share {ratio} / {}: makespan {} vs {}",
                    on.system,
                    on.makespan,
                    off.makespan
                );
                assert!(
                    on.tbt.mean < off.tbt.mean,
                    "share {ratio} / {}: mean TBT {} vs {}",
                    on.system,
                    on.tbt.mean,
                    off.tbt.mean
                );
            } else {
                // Ordering 2: nothing shared — dedup must be bit-for-bit
                // inert.
                assert_eq!(on.makespan.to_bits(), off.makespan.to_bits());
                assert_eq!(on.tbt.mean.to_bits(), off.tbt.mean.to_bits());
                assert_eq!(on.decode_kv_tokens_deduped, 0);
            }
        }
    }

    // Ordering 3: deduped KV volume grows with the share ratio (POD backend).
    for si in 1..SHARE_RATIOS.len() {
        let prev = sweep.get((si - 1, 1, true)).decode_kv_tokens_deduped;
        let here = sweep.get((si, 1, true)).decode_kv_tokens_deduped;
        assert!(
            here > prev,
            "deduped KV must grow with share ratio: {here} vs {prev}"
        );
    }

    // Ordering 4: under the conservative KV policy there is no block
    // identity to group by — requesting dedup must change nothing at all.
    let max_share = SHARE_RATIOS[SHARE_RATIOS.len() - 1];
    let conservative = ServingConfig::sarathi(model.clone(), gpu.clone(), 1024);
    let cons_on = ServingEngine::new(conservative.clone().with_decode_dedup(true))
        .run(workload.generate(max_share));
    let cons_off = ServingEngine::new(conservative).run(workload.generate(max_share));
    assert_eq!(cons_on, cons_off, "conservative policy must ignore dedup");
    assert_eq!(cons_on.decode_kv_tokens_deduped, 0);

    println!(
        "\nOrderings hold: dedup strictly reduces makespan and mean TBT at every positive \
         share ratio, is bit-for-bit inert at ratio 0 and under the conservative policy, \
         and deduped KV volume grows with sharing."
    );

    // The gated summary: mean TBT speedup (off / on) over both backends at
    // the highest share ratio, plus the deduped-KV volume for the trend.
    let max_si = SHARE_RATIOS.len() - 1;
    let mean_tbt_speedup = (0..2)
        .map(|bi| sweep.get((max_si, bi, false)).tbt.mean / sweep.get((max_si, bi, true)).tbt.mean)
        .sum::<f64>()
        / 2.0;
    let kv_tokens_deduped: usize = (0..2)
        .map(|bi| sweep.get((max_si, bi, true)).decode_kv_tokens_deduped)
        .sum();
    println!(
        "mean TBT speedup at share {max_share}: {mean_tbt_speedup:.4}x \
         ({kv_tokens_deduped} KV tokens deduped)"
    );

    write_trend(
        "BENCH_decode.json",
        workload.fields(),
        vec![(
            "decode",
            JsonValue::obj(vec![
                ("mean_tbt_speedup", JsonValue::Num(mean_tbt_speedup)),
                (
                    "kv_tokens_deduped",
                    JsonValue::Num(kv_tokens_deduped as f64),
                ),
            ]),
        )],
        sweep
            .iter()
            .map(|((si, _, dedup), report)| {
                vec![
                    ("share_ratio", JsonValue::Num(SHARE_RATIOS[si])),
                    ("decode_dedup", JsonValue::Bool(dedup)),
                    ("report", report.to_json()),
                ]
            })
            .collect(),
    );
}

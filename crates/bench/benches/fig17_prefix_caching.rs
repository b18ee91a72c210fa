//! Figure 17 (repro-original): prefix-sharing paged KV cache. Sweeps the
//! share ratio of a shared-system-prompt workload × attention backend, with
//! prefix caching on and off, on the paged serving engine.
//!
//! What this answers:
//!
//! 1. How much TTFT and scheduled-prefill work does prefix sharing save as
//!    the share ratio grows (agent fleets and chat products live at the high
//!    end)?
//! 2. Does the saving compose with POD-Attention — i.e. does the fused
//!    kernel keep its win when much of the prefill never runs?
//!
//! Writes `BENCH_prefix.json` at the repository root (uploaded as a CI
//! artifact alongside the other trend files) and asserts the orderings:
//! caching must strictly reduce mean TTFT and scheduled prefill tokens at
//! every positive share ratio, and must be inert at share ratio zero.
//!
//! Run with `cargo bench -p pod-bench --bench fig17_prefix_caching`.

use gpu_sim::GpuConfig;
use llm_serving::{JsonValue, ModelConfig, ServingEngine};
use pod_bench::online::{backends, write_trend, SharedPrefixTrace, Sweep, SHARE_RATIOS};
use pod_bench::{heading, pct, scaled, secs};

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(96, 480);
    let workload = SharedPrefixTrace {
        num_requests,
        qps: 1.0,
    };

    heading(
        "Figure 17: prefix caching — share ratio x backend x caching",
        "Shared-system-prompt workload (4 groups, ~2K-token prefixes, 35% multi-turn); \
         paged KV engine; Llama-3-8B, chunk 1024.",
    );

    // Every cell generates the same trace for its ratio, so on/off pairs
    // are directly comparable.
    let sweep = Sweep::run(SharedPrefixTrace::cells(), |(si, bi, caching)| {
        let config = backends(&model, &gpu)[bi].clone().with_paged_kv(caching);
        ServingEngine::new(config).run(workload.generate(SHARE_RATIOS[si]))
    });

    sweep.print_rows(
        &[
            "Share",
            "System",
            "TTFT mean",
            "TTFT P99",
            "Lat mean",
            "Prefill toks",
            "Hit rate",
            "Blocks reused",
            "CoW",
            "Preempt",
        ],
        |(si, _, _), r| {
            vec![
                format!("{:.1}", SHARE_RATIOS[si]),
                r.system.clone(),
                secs(r.ttft.mean),
                secs(r.ttft.p99),
                secs(r.request_latency.mean),
                format!("{}", r.prefill_tokens_scheduled),
                pct(r.prefix_hit_rate()),
                format!("{}", r.blocks_reused),
                format!("{}", r.cow_copies),
                format!("{}", r.preemptions),
            ]
        },
    );

    // Ordering 1: at every positive share ratio, caching strictly reduces
    // mean TTFT and scheduled prefill tokens, on both backends.
    for (si, &ratio) in SHARE_RATIOS.iter().enumerate() {
        for bi in 0..2 {
            let on = sweep.get((si, bi, true));
            let off = sweep.get((si, bi, false));
            assert_eq!(on.completed, num_requests);
            assert_eq!(off.completed, num_requests);
            if ratio > 0.0 {
                assert!(
                    on.ttft.mean < off.ttft.mean,
                    "share {ratio} / {}: caching TTFT {} vs {}",
                    on.system,
                    on.ttft.mean,
                    off.ttft.mean
                );
                assert!(
                    on.prefill_tokens_scheduled < off.prefill_tokens_scheduled,
                    "share {ratio} / {}: prefill {} vs {}",
                    on.system,
                    on.prefill_tokens_scheduled,
                    off.prefill_tokens_scheduled
                );
            } else {
                // Ordering 2: nothing to share — caching must be inert.
                assert_eq!(on.makespan.to_bits(), off.makespan.to_bits());
                assert_eq!(on.prefill_tokens_scheduled, off.prefill_tokens_scheduled);
                assert_eq!(on.cached_prefix_tokens, 0);
            }
        }
    }

    // Ordering 3: the hit rate grows with the share ratio (POD backend).
    for si in 1..SHARE_RATIOS.len() {
        let prev = sweep.get((si - 1, 1, true)).prefix_hit_rate();
        let here = sweep.get((si, 1, true)).prefix_hit_rate();
        assert!(
            here > prev,
            "hit rate must grow with share ratio: {here:.3} vs {prev:.3}"
        );
    }
    println!(
        "\nOrderings hold: caching strictly improves TTFT and scheduled prefill at every \
         positive share ratio, is bit-for-bit inert at ratio 0, and hit rate grows with sharing."
    );

    write_trend(
        "BENCH_prefix.json",
        workload.fields(),
        vec![],
        sweep
            .iter()
            .map(|((si, _, caching), report)| {
                vec![
                    ("share_ratio", JsonValue::Num(SHARE_RATIOS[si])),
                    ("prefix_caching", JsonValue::Bool(caching)),
                    ("report", report.to_json()),
                ]
            })
            .collect(),
    );
}

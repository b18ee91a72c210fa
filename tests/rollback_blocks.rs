//! Rollback × block-pool backbone: speculative decode optimistically grows a
//! request's KV chain by its draft width, then truncates the rejected suffix
//! — a grow/release cycle the pool must survive **exactly**, across block
//! boundaries, under CoW prefix sharing, and interleaved with preemption.
//!
//! Three layers of defense:
//! * pool-level property sweeps of the grow-then-truncate cycle the engine
//!   runs (`split_off` + `release_blocks`), over every context offset within
//!   a block, draft depth and rejection count;
//! * an indexed-chain guard: rollback-style release of a sharer's tail must
//!   never free blocks the prefix index (or another sharer) still holds;
//! * engine/cluster determinism: rollback-then-preempt-then-restore runs
//!   fingerprint bit-identically across repeats and advancement worker
//!   counts, with every path (rejections, preemptions, prefix hits) proven
//!   live by the report counters.

use gpu_sim::GpuConfig;
use llm_serving::{
    blocks_for, AcceptanceModel, BlockPool, Cluster, ClusterConfig, DraftModelConfig,
    IterationOutcome, ModelConfig, PromptContent, RequestSpec, RouterPolicy, ServingConfig,
    ServingEngine, SharedPrefixWorkload, Workload, BLOCK_TOKENS,
};

/// The engine's speculative grow/rollback cycle, distilled: a request at
/// `ctx` tokens grows its chain for a width-`w` round, the verifier keeps
/// `minted <= w` tokens, and the tail blocks past the surviving context are
/// released. Sweeps every context offset within a block, so the cycle
/// crosses zero, one or several block boundaries in both directions.
#[test]
fn grow_then_rollback_conserves_blocks_across_boundaries() {
    let mut pool = BlockPool::new(64 * BLOCK_TOKENS);
    let baseline_free = pool.free_blocks();
    for ctx in 1..=(3 * BLOCK_TOKENS) {
        for width in 1..=8usize {
            for minted in 1..=width {
                let mut chain = pool.alloc(blocks_for(ctx)).expect("ample pool");
                // Optimistic growth to hold the whole drafted width.
                let grown = blocks_for(ctx + width);
                if grown > chain.len() {
                    chain.extend(pool.alloc(grown - chain.len()).expect("ample pool"));
                }
                assert_eq!(
                    pool.referenced_blocks(),
                    grown,
                    "ctx={ctx} width={width}: optimistic chain size"
                );
                // Verify kept `minted`: truncate to the surviving context,
                // exactly as the engine does after `Request::rollback`.
                let keep = blocks_for(ctx + minted);
                let tail = chain.split_off(keep);
                pool.release(&tail);
                assert_eq!(
                    pool.referenced_blocks(),
                    keep,
                    "ctx={ctx} width={width} minted={minted}: post-rollback chain"
                );
                pool.release(&chain);
                assert_eq!(
                    pool.free_blocks(),
                    baseline_free,
                    "ctx={ctx} width={width} minted={minted}: pool must drain clean"
                );
            }
        }
    }
}

/// A rollback-style tail release must never free blocks another sharer (or
/// the prefix index) still holds: the sharer's release drops only its own
/// reference, the survivor keeps decoding on the same blocks, and the chain
/// stays matchable afterwards.
#[test]
fn shared_tail_survives_a_sharers_rollback_release() {
    let mut pool = BlockPool::new(32 * BLOCK_TOKENS);
    let content = PromptContent::shared(0xBEEF, 4 * BLOCK_TOKENS, 1);
    // First request computes and indexes four full blocks.
    let own = pool.alloc(4).expect("ample pool");
    let (_, registered) = pool.extend_index(llm_serving::Cursor::root(), content, 0, &own);
    assert_eq!(registered, 4, "all four blocks indexed");
    // Second request acquires the whole cached prefix: every block now has
    // two references.
    let m = pool.acquire_prefix(content, 4 * BLOCK_TOKENS);
    assert_eq!(m.cached_tokens, 4 * BLOCK_TOKENS);
    assert_eq!(m.blocks, own, "sharer rides the same chain");
    // The sharer speculates past the shared region, then a full rejection
    // rolls it back: its private tail goes, the shared blocks lose only the
    // sharer's reference.
    let mut sharer_chain = m.blocks.clone();
    sharer_chain.extend(pool.alloc(1).expect("room for a draft block"));
    let tail = sharer_chain.split_off(4);
    pool.release(&tail);
    pool.release(&sharer_chain);
    assert_eq!(
        pool.referenced_blocks(),
        4,
        "the originator still references its chain"
    );
    // The chain is still indexed and matchable after the sharer vanished.
    assert_eq!(
        pool.peek_prefix(content, 4 * BLOCK_TOKENS),
        4 * BLOCK_TOKENS
    );
    pool.release(&own);
    assert_eq!(pool.referenced_blocks(), 0, "fully released");
    assert_eq!(pool.cached_blocks(), 4, "chain stays cached for reuse");
}

fn spec_config(kv_capacity: Option<usize>, prefix_caching: bool) -> ServingConfig {
    let mut config =
        ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 512)
            .with_paged_kv(prefix_caching)
            .with_speculative(
                6,
                DraftModelConfig::scaled(0.2),
                AcceptanceModel::new(0.35, 99),
            );
    config.kv_capacity_tokens = kv_capacity;
    config
}

/// CoW prefix sharing under constant rollback: a shared-prefix trace with a
/// rejection-heavy acceptance model drains leak-free, with both the sharing
/// path and the rollback path proven live by the counters.
#[test]
fn prefix_shared_speculative_runs_are_leak_free_and_deterministic() {
    for seed in [11u64, 47, 83] {
        let shared = SharedPrefixWorkload::new(Workload::internal(), 2, 257, 0.6, 0.3);
        let specs = shared.generate(18, 3.0, seed);
        let run = |specs: Vec<RequestSpec>| {
            let mut engine = ServingEngine::new(spec_config(None, true));
            for s in specs {
                engine.submit(s);
            }
            engine.run_until_drained();
            assert_eq!(engine.kv_utilization(), 0.0, "seed {seed}: leaked blocks");
            engine.report()
        };
        let a = run(specs.clone());
        let b = run(specs);
        assert_eq!(a.completed, 18, "seed {seed}");
        assert!(
            a.cached_prefix_tokens > 0,
            "seed {seed}: sharing path never exercised"
        );
        assert!(
            a.draft_tokens_rejected > 0,
            "seed {seed}: rollback path never exercised"
        );
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "seed {seed}: repeat run diverged"
        );
    }
}

/// Rollback-then-preempt-then-restore: a tight pool forces preemptions in
/// the middle of a rejection-heavy speculative run. Restored requests
/// recompute, re-speculate (their round index never resets, so acceptance
/// draws stay deterministic) and finish; the whole thing fingerprints
/// bit-identically across repeats and seeds.
#[test]
fn rollback_preempt_restore_is_deterministic_and_leak_free() {
    for seed in [7u64, 29, 61] {
        // Long decodes against a pool the prompts nearly fill at admission:
        // paged admission charges prompt blocks only, so the collective
        // decode growth (700 tokens each, plus the drafted widths) exhausts
        // the pool mid-decode and forces LIFO eviction.
        let mut specs = Workload::internal().generate(8, 6.0, seed);
        for s in &mut specs {
            s.prompt_tokens = 2_048;
            s.output_tokens = 700;
        }
        let run = |specs: Vec<RequestSpec>| {
            let mut engine = ServingEngine::new(spec_config(Some(16_000), false));
            for s in specs {
                engine.submit(s);
            }
            engine.run_until_drained();
            assert_eq!(engine.kv_utilization(), 0.0, "seed {seed}: leaked blocks");
            engine.report()
        };
        let a = run(specs.clone());
        let b = run(specs);
        assert_eq!(a.completed, 8, "seed {seed}: conservation across restore");
        assert!(
            a.preemptions > 0,
            "seed {seed}: the tight pool must force preemption"
        );
        assert!(
            a.draft_tokens_rejected > 0,
            "seed {seed}: rollback path never exercised"
        );
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "seed {seed}: repeat run diverged"
        );
    }
}

/// The same rollback-plus-preemption stress at the fleet level: the
/// event-driven cluster core must fingerprint bit-identically at every
/// advancement worker count (1 and 7, the CI matrix's two thread counts).
#[test]
fn speculative_cluster_runs_are_worker_count_independent() {
    let specs = Workload::internal().generate(24, 6.0, 13);
    let fingerprint = |workers: usize| {
        let mut cluster = Cluster::new(ClusterConfig::new(
            spec_config(Some(48_000), false),
            2,
            RouterPolicy::LeastOutstandingTokens,
        ));
        cluster.set_advance_workers(workers);
        let report = cluster.run(specs.clone());
        for replica in cluster.replicas() {
            assert_eq!(replica.kv_utilization(), 0.0, "replica leaked");
        }
        assert_eq!(report.aggregate.completed, 24);
        assert!(report.aggregate.draft_tokens_rejected > 0);
        report.to_json().to_string_pretty()
    };
    let one = fingerprint(1);
    let seven = fingerprint(7);
    assert_eq!(one, seven, "worker count changed the speculative schedule");
}

/// A restored speculative request must be admitted with room for its whole
/// first drafted round, not just one decode token. With only `+1` reserved,
/// the restore prefill completed, growth then asked for the full draft
/// width, and the request preempted itself on every iteration: 45 of these
/// 60 requests finished and the rest cycled forever. The step budget turns
/// a regression into a failure instead of a hang; the fixed run drains in
/// a few thousand steps.
#[test]
fn restored_speculative_request_does_not_preempt_itself_forever() {
    let mut config = ServingConfig::vllm(ModelConfig::llama3_8b(), GpuConfig::a100_80gb())
        .with_paged_kv(false)
        .with_speculative(
            4,
            DraftModelConfig::scaled(0.2),
            AcceptanceModel::new(0.5, 5),
        );
    config.kv_capacity_tokens = Some(45_000);
    let mut engine = ServingEngine::new(config);
    for spec in
        SharedPrefixWorkload::new(Workload::internal(), 3, 1000, 0.7, 0.4).generate(60, 2.0, 9)
    {
        engine.submit(spec);
    }
    let (mut now, mut steps) = (0.0, 0usize);
    loop {
        match engine.step(now) {
            IterationOutcome::Ran(stats) => now = stats.completed_at,
            IterationOutcome::IdleUntil(t) => now = t,
            IterationOutcome::Drained => break,
            IterationOutcome::Blocked { .. } => panic!("every request fits the pool"),
        }
        steps += 1;
        assert!(
            steps < 20_000,
            "livelock: {} of 60 finished, {} preemptions after {steps} steps",
            engine.report().completed,
            engine.report().preemptions
        );
    }
    let report = engine.report();
    assert_eq!(report.completed, 60);
    assert_eq!(engine.kv_utilization(), 0.0, "engine leaked blocks");
}

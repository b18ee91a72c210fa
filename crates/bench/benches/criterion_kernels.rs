//! Micro-benchmarks of the reproduction's own hot paths: the CTA-level
//! contention engine, the POD-Attention launch builder, the closed-form
//! attention estimator and the serving loop's batch pricing — the paths the
//! whole evaluation's wall-clock hangs on.
//!
//! Besides printing a human-readable summary, this harness writes
//! `BENCH_engine.json` at the repository root. Its deterministic values (the
//! C0 batch's interval count, the quick-mode Figure 12 sweep's price-cache
//! hit rate and cached-vs-exact makespan deviation) sit at the top level;
//! every wall-clock number (engine intervals/second, batches priced/second,
//! KV blocks allocated/second under eviction, host seconds per simulate
//! call, including a wide Llama-2-7B decode that loads the per-CTA path
//! where the C0 batch loads the per-interval one, the cached-vs-uncached
//! sweep speedup) sits under `host`, so future
//! changes have a perf trajectory to compare against. Each timed subject
//! reads the median of five slices of its budget, so one slice disturbed by
//! another process does not move the trend value `perf_gate` gates.
//!
//! Run with `cargo bench -p pod-bench --bench criterion_kernels`.

use attn_kernels::{AttentionConfig, AttentionEstimator, AttentionStrategy, HybridBatch};
use fusion_lab::HybridAttentionRunner;
use gpu_sim::GpuConfig;
use llm_serving::{
    offline_long_context, BlockPool, IterationCostModel, ModelConfig, PromptContent,
    QuantileSketch, ServingConfig, ServingEngine, ServingReport, SummaryStats, BLOCK_TOKENS,
};
use pod_bench::heading;
use pod_bench::microbench::{bench, BenchResult, Json};
use pod_bench::online::write_json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed budget per subject, split into `microbench::SLICES` slices whose
/// median is the reading. The numbers feed a trend file, not a paper, so a
/// few hundred milliseconds per subject is plenty.
const BUDGET: Duration = Duration::from_millis(300);

fn fig12_quick_setups() -> Vec<(ModelConfig, usize, usize, usize)> {
    vec![
        (ModelConfig::yi_6b(), 512, 2048, 96),
        (ModelConfig::llama2_7b(), 1024, 256, 128),
        (ModelConfig::llama3_8b(), 1024, 1024, 96),
    ]
}

/// Run the quick-mode Figure 12 sweep (3 models x 3 systems, serialized) and
/// return the wall-clock seconds plus every report.
fn run_fig12_quick(price_cache: bool) -> (f64, Vec<ServingReport>) {
    let gpu = GpuConfig::a100_80gb();
    let start = Instant::now();
    let mut reports = Vec::new();
    for (model, chunk, output_tokens, num_requests) in fig12_quick_setups() {
        let requests = offline_long_context(num_requests, 16 * 1024, output_tokens);
        for mut config in [
            ServingConfig::vllm(model.clone(), gpu.clone()),
            ServingConfig::sarathi(model.clone(), gpu.clone(), chunk),
            ServingConfig::sarathi_pod(model.clone(), gpu.clone(), chunk),
        ] {
            config.price_cache = price_cache;
            reports.push(ServingEngine::new(config).run(requests.clone()));
        }
    }
    (start.elapsed().as_secs_f64(), reports)
}

/// Blocks in the pool of the eviction-heavy KV pool loops.
const KV_POOL_BLOCKS: usize = 4096;
/// Chains admitted per timed iteration of those loops.
const KV_CHAINS_PER_ITER: usize = 64;

/// The prefix cache at steady state: a full pool of cached `chain_blocks`
/// chains, each admission matching what it can of `content(lineage)` (a
/// shared system prompt, say, plus a copy-on-write head of the next block)
/// and allocating the rest of its chain by evicting LRU leaves, then
/// indexing the chain and releasing it into the cache. Returns the blocks it
/// allocated (the same count once the pool is full).
fn kv_pool_churn(
    pool: &mut BlockPool,
    lineage: &mut u64,
    chain_blocks: usize,
    content: fn(u64) -> PromptContent,
) -> usize {
    let mut allocated = 0;
    for _ in 0..KV_CHAINS_PER_ITER {
        *lineage += 1;
        let content = content(*lineage);
        let m = pool.acquire_prefix(content, chain_blocks * BLOCK_TOKENS - 1);
        let mut table = m.blocks;
        let shared = table.len();
        assert!(pool.alloc_into(chain_blocks - shared, &mut table));
        allocated += chain_blocks - shared;
        if let Some(cow) = m.cow_source {
            pool.release(&[cow]);
        }
        pool.extend_index(m.cursor, content, shared, &table[shared..]);
        pool.release(&table);
    }
    allocated
}

fn main() {
    let cfg = AttentionConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let c0_like = HybridBatch::uniform(1024, 12 * 1024, 128, 12 * 1024);

    heading(
        "Engine & pricing micro-benchmarks",
        "Hot paths of the reproduction itself; results also written to BENCH_engine.json.",
    );

    let mut results: Vec<BenchResult> = Vec::new();

    // --- contention-engine throughput ---
    let runner = HybridAttentionRunner::new(cfg, gpu.clone());
    let pod = runner.pod();
    let pod_intervals = pod.execute(&c0_like).expect("POD executes").intervals;
    let r_pod = bench("engine/pod_simulate_c0_like_batch", BUDGET, 10, || {
        pod.execute(black_box(&c0_like)).expect("POD executes")
    });
    let intervals_per_sec = pod_intervals as f64 * r_pod.iters_per_sec();
    results.push(r_pod);
    results.push(bench(
        "engine/fa_serial_simulate_c0_like_batch",
        BUDGET,
        10,
        || {
            runner
                .execute(black_box(&c0_like), AttentionStrategy::FaSerial)
                .expect("serial executes")
        },
    ));
    // The per-CTA path: a Llama-2-7B FA_Serial pair whose decode kernel
    // issues 3,584 one-unit CTAs behind a short prefill.
    let llama2 = HybridAttentionRunner::new(AttentionConfig::llama2_7b(), gpu.clone());
    let wide_decode = HybridBatch::uniform(512, 4096, 224, 4096);
    let r_wide = bench(
        "engine/fa_serial_simulate_llama2_wide_decode",
        BUDGET,
        10,
        || {
            llama2
                .execute(black_box(&wide_decode), AttentionStrategy::FaSerial)
                .expect("serial executes")
        },
    );
    let wide_decode_secs_per_call = r_wide.secs_per_iter();
    let wide_decode_calls_per_sec = r_wide.iters_per_sec();
    results.push(r_wide);

    // --- closed-form estimator (quantized and exact) ---
    let est_quantized = AttentionEstimator::new(cfg, gpu.clone());
    let est_exact = AttentionEstimator::exact(cfg, gpu.clone());
    results.push(bench(
        "estimator/pod_hybrid_batch_quantized",
        BUDGET,
        100,
        || est_quantized.estimate(black_box(&c0_like), AttentionStrategy::Pod),
    ));
    results.push(bench(
        "estimator/pod_hybrid_batch_exact",
        BUDGET,
        100,
        || est_exact.estimate(black_box(&c0_like), AttentionStrategy::Pod),
    ));

    // --- batch pricing through the serving cost model: the batch-price
    // memo (a hit after the first call) and the exact path ---
    let price = |cost: &mut IterationCostModel, batch: &HybridBatch| {
        cost.price(
            batch.prefill.map(|c| (c.chunk_len, c.prior_len)),
            batch.decodes.iter().map(|d| d.context_len),
            batch.kv_dedup_tokens,
            batch.spec_verify_tokens,
            AttentionStrategy::Pod,
        )
        .0
    };
    let mut memo_cost = IterationCostModel::new(ModelConfig::llama3_8b(), gpu.clone());
    let mut exact_cost = IterationCostModel::exact(ModelConfig::llama3_8b(), gpu.clone());
    let r_price_memo = bench("pricing/price_batch_memoized", BUDGET, 1000, || {
        price(&mut memo_cost, black_box(&c0_like))
    });
    let r_price_exact = bench("pricing/price_batch_exact", BUDGET, 1000, || {
        price(&mut exact_cost, black_box(&c0_like))
    });
    let priced_per_sec_memo = r_price_memo.iters_per_sec();
    let priced_per_sec_exact = r_price_exact.iters_per_sec();
    results.push(r_price_memo);
    results.push(r_price_exact);

    // --- report summarization: shared-select stats and the quantile sketch ---
    // 500K latency-like samples, the size of a large serving run's token-gap
    // buffer. `from_samples` does one shared O(n) selection pass for p50/p99;
    // the sketch is the streaming (constant-memory) alternative the cluster
    // layer uses at fleet scale.
    let samples: Vec<f64> = {
        let mut x = 0x9e3779b97f4a7c15_u64;
        (0..500_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1e-3 + (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    };
    let r_stats = bench("metrics/summary_stats_500k_samples", BUDGET, 5, || {
        SummaryStats::from_samples(black_box(&samples))
    });
    let stats_samples_per_sec = samples.len() as f64 * r_stats.iters_per_sec();
    results.push(r_stats);
    let r_sketch = bench("metrics/sketch_observe_500k_samples", BUDGET, 5, || {
        let mut sketch = QuantileSketch::new();
        for &s in black_box(&samples) {
            sketch.observe(s);
        }
        (sketch.quantile(0.5), sketch.quantile(0.99))
    });
    let sketch_samples_per_sec = samples.len() as f64 * r_sketch.iters_per_sec();
    results.push(r_sketch);

    // --- KV block pool under eviction ---
    // 32-block chains behind a two-block system prompt drain as long
    // single-child runs; 4-block unique prompts fan the root out to every
    // cached chain.
    let mut kv_pool_loop = |name, chain_blocks, content: fn(u64) -> PromptContent| {
        let mut pool = BlockPool::new(KV_POOL_BLOCKS * BLOCK_TOKENS);
        let mut lineage = 0;
        while pool.blocks_evicted() == 0 {
            kv_pool_churn(&mut pool, &mut lineage, chain_blocks, content);
        }
        let blocks_per_iter = kv_pool_churn(&mut pool, &mut lineage, chain_blocks, content);
        let r = bench(name, BUDGET, 10, || {
            kv_pool_churn(&mut pool, &mut lineage, chain_blocks, content)
        });
        let blocks_per_sec = blocks_per_iter as f64 * r.iters_per_sec();
        results.push(r);
        blocks_per_sec
    };
    let kv_pool_blocks_per_sec = kv_pool_loop("kv_pool/admit_index_release_evicting", 32, |l| {
        PromptContent::shared(1, 2 * BLOCK_TOKENS + 5, l)
    });
    let kv_pool_wide_blocks_per_sec =
        kv_pool_loop("kv_pool/unique_prompts_wide_root", 4, PromptContent::unique);

    // --- end-to-end serving, small and fixed-size ---
    results.push(bench("serving/8_requests_end_to_end", BUDGET, 5, || {
        ServingEngine::new(ServingConfig::sarathi_pod(
            ModelConfig::llama3_8b(),
            gpu.clone(),
            1024,
        ))
        .run(vec![llm_serving::RequestSpec::new(0.0, 4096, 32); 8])
    }));

    for r in &results {
        println!("{}", r.summary());
    }

    // --- the acceptance headline: quick-mode Figure 12, cached vs naive ---
    println!("\nQuick-mode Figure 12 sweep (3 models x 3 systems, single-threaded):");
    let (uncached_secs, exact_reports) = run_fig12_quick(false);
    let (cached_secs, cached_reports) = run_fig12_quick(true);
    let speedup = uncached_secs / cached_secs.max(1e-12);
    let hits: usize = cached_reports.iter().map(|r| r.price_cache_hits).sum();
    let misses: usize = cached_reports.iter().map(|r| r.price_cache_misses).sum();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let iterations: usize = cached_reports.iter().map(|r| r.iterations).sum();
    let batches_priced_per_sec = iterations as f64 / cached_secs.max(1e-12);
    let max_rel_diff = cached_reports
        .iter()
        .zip(&exact_reports)
        .map(|(a, b)| (a.makespan - b.makespan).abs() / b.makespan.max(1e-12))
        .fold(0.0_f64, f64::max);
    println!("  cache off (naive): {uncached_secs:.3} s");
    println!("  cache on:          {cached_secs:.3} s  ({speedup:.1}x speedup)");
    println!(
        "  price-cache hit rate: {:.1}%  ({hits} hits / {misses} misses)",
        hit_rate * 100.0
    );
    println!(
        "  max cached-vs-exact makespan deviation: {:.3}%",
        max_rel_diff * 100.0
    );
    assert!(
        max_rel_diff < 0.02,
        "cached and uncached serving makespans must agree within 2%"
    );

    // --- trend file: deterministic values at the top level, wall-clock
    // timings under `host` ---
    let json = Json::obj(vec![
        (
            "engine",
            Json::obj(vec![("pod_c0_intervals", Json::Num(pod_intervals as f64))]),
        ),
        (
            "fig12_quick",
            Json::obj(vec![
                ("price_cache_hit_rate", Json::Num(hit_rate)),
                ("max_makespan_rel_diff", Json::Num(max_rel_diff)),
            ]),
        ),
        (
            "host",
            Json::obj(vec![
                (
                    "engine",
                    Json::obj(vec![
                        ("intervals_per_sec", Json::Num(intervals_per_sec)),
                        (
                            "pod_c0_host_secs_per_call",
                            Json::Num(results[0].secs_per_iter()),
                        ),
                        (
                            "fa_serial_c0_host_secs_per_call",
                            Json::Num(results[1].secs_per_iter()),
                        ),
                        (
                            "fa_serial_llama2_wide_decode_host_secs_per_call",
                            Json::Num(wide_decode_secs_per_call),
                        ),
                        // The same two launches as rates, for the gate.
                        (
                            "pod_c0_calls_per_sec",
                            Json::Num(results[0].iters_per_sec()),
                        ),
                        (
                            "fa_serial_llama2_wide_decode_calls_per_sec",
                            Json::Num(wide_decode_calls_per_sec),
                        ),
                    ]),
                ),
                (
                    "pricing",
                    Json::obj(vec![
                        (
                            "batches_priced_per_sec_memoized",
                            Json::Num(priced_per_sec_memo),
                        ),
                        (
                            "batches_priced_per_sec_exact",
                            Json::Num(priced_per_sec_exact),
                        ),
                    ]),
                ),
                (
                    "kv_pool",
                    Json::obj(vec![
                        ("blocks_per_sec", Json::Num(kv_pool_blocks_per_sec)),
                        (
                            "wide_blocks_per_sec",
                            Json::Num(kv_pool_wide_blocks_per_sec),
                        ),
                    ]),
                ),
                (
                    "metrics",
                    Json::obj(vec![
                        (
                            "summary_stats_samples_per_sec",
                            Json::Num(stats_samples_per_sec),
                        ),
                        (
                            "sketch_observe_samples_per_sec",
                            Json::Num(sketch_samples_per_sec),
                        ),
                    ]),
                ),
                (
                    "fig12_quick",
                    Json::obj(vec![
                        ("uncached_secs", Json::Num(uncached_secs)),
                        ("cached_secs", Json::Num(cached_secs)),
                        ("speedup", Json::Num(speedup)),
                        (
                            "serving_iterations_per_sec_cached",
                            Json::Num(batches_priced_per_sec),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    write_json("BENCH_engine.json", &json);
}

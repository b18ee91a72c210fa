//! Work-model of FlashAttention / FlashDecoding / FlashInfer *decode*
//! attention kernels.
//!
//! Decode attention processes a single new query token per request (or the
//! GQA group of query heads that share a KV head), so its tensor-core work is
//! negligible and its runtime is governed by streaming each request's KV
//! cache from HBM. The kernel grid is
//! `(requests) × (KV heads per GPU) × (KV splits)`; FlashDecoding adds the KV
//! splits when the grid would otherwise leave SMs idle.

use crate::batch::DecodeRequest;
use crate::config::AttentionConfig;
use crate::cost::{attention_flops_per_head, kv_bytes_per_head, q_bytes_per_head};
use crate::tiles::TileShape;
use gpu_sim::{Footprint, GpuConfig, KernelLaunch, OpClass, UnitRuns, WorkUnit};

/// How many query rows the decode kernel actually runs through the tensor
/// cores per CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPadding {
    /// Pad only to the GQA group size, rounded up to the 16-row MMA
    /// granularity. This is what the production FlashAttention / FlashInfer
    /// decode paths achieve, and why Figure 1 measures <10 % compute
    /// utilization for decode attention.
    GroupGranularity,
    /// Pad all the way to the tile's query dimension, so redundant compute
    /// grows with the tile (the design-space exploration of Figure 10 and the
    /// behaviour of prefill-style kernels applied to decodes).
    FullTile,
}

/// Configuration of a decode attention kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeKernel {
    /// Tile shape. The query dimension determines the CTA's shared-memory
    /// footprint and — under [`QueryPadding::FullTile`] — its redundant
    /// compute (Figure 10a).
    pub tile: TileShape,
    /// Threads per CTA.
    pub threads: usize,
    /// Fraction of peak HBM bandwidth the kernel's access pattern achieves.
    pub bandwidth_efficiency: f64,
    /// Query-row padding behaviour.
    pub padding: QueryPadding,
}

impl DecodeKernel {
    /// FlashAttention's decode kernel (`flash_fwd_splitkv`), tile (64, 128).
    pub fn flash_attention() -> Self {
        DecodeKernel {
            tile: TileShape::fa_decode(),
            threads: 128,
            bandwidth_efficiency: 0.88,
            padding: QueryPadding::GroupGranularity,
        }
    }

    /// FlashInfer's decode kernel: pads queries only to the GQA group size
    /// (less redundant compute) and sustains slightly higher bandwidth,
    /// giving it the modest edge over FlashAttention the paper reports for
    /// FI_Serial.
    pub fn flashinfer() -> Self {
        DecodeKernel {
            tile: TileShape::new(16, 64),
            threads: 128,
            bandwidth_efficiency: 0.95,
            padding: QueryPadding::GroupGranularity,
        }
    }

    /// The decode configuration POD-Attention uses inside the fused kernel:
    /// minimum query tile so decode's redundant compute does not steal tensor
    /// cores from co-located prefill CTAs.
    pub fn pod() -> Self {
        DecodeKernel {
            tile: TileShape::pod_decode(),
            threads: 128,
            bandwidth_efficiency: 0.88,
            padding: QueryPadding::GroupGranularity,
        }
    }

    /// Use a specific tile shape.
    pub fn with_tile(mut self, tile: TileShape) -> Self {
        self.tile = tile;
        self
    }

    /// Pad queries to the full tile (Figure 10's design-space exploration).
    pub fn with_full_tile_padding(mut self) -> Self {
        self.padding = QueryPadding::FullTile;
        self
    }

    /// Per-CTA resource footprint.
    pub fn footprint(&self, cfg: &AttentionConfig) -> Footprint {
        Footprint::new(self.threads, self.tile.shared_mem_bytes(cfg))
    }

    /// Number of KV splits used for a batch of `batch_size` requests:
    /// enough to give every SM at least one CTA, capped by the KV length.
    pub fn num_splits(
        &self,
        batch_size: usize,
        max_context: usize,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> usize {
        if batch_size == 0 {
            return 1;
        }
        let base = batch_size * cfg.kv_heads_per_gpu();
        if base >= gpu.num_sms {
            return 1;
        }
        let wanted = gpu.num_sms.div_ceil(base);
        wanted.min(self.tile.kv_tiles(max_context).max(1)).max(1)
    }

    /// CTAs the kernel launches for `decodes`: one per
    /// (request, KV head, KV split).
    pub fn num_ctas(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> usize {
        decodes.len() * self.grid(decodes, cfg, gpu).0
    }

    /// The kernel's grid for a batch of decode requests as unit runs: one
    /// run per request, of one unit per (KV head, KV split) CTA, in launch
    /// order. Building it costs O(requests).
    ///
    /// The grid is `(requests) × (KV heads per GPU) × (KV splits)` CTAs.
    pub fn unit_runs(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> UnitRuns {
        let (per_request, walk) = self.grid(decodes, cfg, gpu);
        let mut runs = UnitRuns::new();
        for (flops, bytes) in walk {
            runs.push(WorkUnit::new(OpClass::Decode, flops, bytes), per_request);
        }
        runs
    }

    /// Build the per-CTA work units for a batch of decode requests:
    /// [`DecodeKernel::unit_runs`] expanded, one unit per CTA.
    pub fn build_units(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> Vec<WorkUnit> {
        self.unit_runs(decodes, cfg, gpu).iter().collect()
    }

    /// Exact `(flops, bytes, ctas)` of a decode batch, summed unit by unit
    /// in launch order: bit-identical to summing
    /// [`DecodeKernel::build_units`], without materializing it.
    pub(crate) fn work(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> (f64, f64, usize) {
        let (per_request, walk) = self.grid(decodes, cfg, gpu);
        let (mut flops, mut bytes) = (0.0, 0.0);
        for (unit_flops, unit_bytes) in walk {
            for _ in 0..per_request {
                flops += unit_flops;
                bytes += unit_bytes;
            }
        }
        (flops, bytes, decodes.len() * per_request)
    }

    /// The CTAs per request of a decode batch's grid and a walk of each
    /// request's per-CTA `(flops, bytes)` in launch order: the one grid
    /// definition behind [`DecodeKernel::num_ctas`],
    /// [`DecodeKernel::unit_runs`] and [`DecodeKernel::work`]. The walk
    /// yields plain pairs, not checked [`WorkUnit`]s, so the estimator's
    /// exact path stays a tight loop.
    fn grid<'a>(
        &'a self,
        decodes: &'a [DecodeRequest],
        cfg: &'a AttentionConfig,
        gpu: &GpuConfig,
    ) -> (usize, impl Iterator<Item = (f64, f64)> + 'a) {
        let max_context = decodes.iter().map(|r| r.context_len).max().unwrap_or(0);
        let splits = self.num_splits(decodes.len(), max_context, cfg, gpu);
        let per_request = cfg.kv_heads_per_gpu() * splits;
        let walk = decodes
            .iter()
            .map(move |req| self.unit_work(req.context_len, splits, cfg));
        (per_request, walk)
    }

    /// Tensor FLOPs and HBM bytes of *one* CTA serving one request at
    /// `context_len` under `splits` KV splits. Every CTA of the request's
    /// `(KV heads) × (splits)` sub-grid performs the same work, which is what
    /// lets [`DecodeKernel::aggregate_work`] price a batch in O(1) per
    /// distinct context length.
    fn unit_work(&self, context_len: usize, splits: usize, cfg: &AttentionConfig) -> (f64, f64) {
        let group = cfg.group_size();
        let d = cfg.head_dim;
        // Query rows actually run through the tensor cores per CTA.
        let padded_q = match self.padding {
            QueryPadding::GroupGranularity => group.div_ceil(16).max(1) * 16,
            QueryPadding::FullTile => self.tile.q.max(group),
        } as f64;
        let kv_per_split = (context_len as f64 / splits as f64).max(1.0);
        let flops = attention_flops_per_head(padded_q, kv_per_split, d);
        let mut bytes = kv_bytes_per_head(kv_per_split, cfg) + q_bytes_per_head(group as f64, cfg);
        if splits > 1 {
            // Partial output written in fp32 and re-read by the reduction
            // pass.
            bytes += 2.0 * group as f64 * (d * 4) as f64;
        }
        (flops, bytes / self.bandwidth_efficiency)
    }

    /// Aggregate `(flops, bytes, ctas)` of a batch described by its
    /// `(count, total context, max context)` summary — one request at
    /// `max_context`, the remaining `count - 1` sharing the rest evenly —
    /// plus a shared/unique token split: `dedup_tokens` of the total context
    /// are shared-prefix KV that is streamed **once per group** instead of
    /// once per request (the CoDec-style prefix-shared decode variant), so
    /// their redundant HBM reads are subtracted from the memory side. FLOPs
    /// and the CTA grid are unchanged: every request still computes
    /// attention over its full context, only the duplicate KV traffic is
    /// saved. With `dedup_tokens == 0` the result is bit-for-bit identical
    /// to a dedup-unaware aggregate.
    ///
    /// Agrees with summing [`DecodeKernel::build_units`] over the same
    /// canonical batch, without materializing the grid — the attention
    /// estimator's quantized fast path calls this.
    ///
    /// `dedup_tokens` is clamped to `total_context - max_context`: one full
    /// pass over the largest request's context can never be elided, which
    /// also bounds any over-declared sharing from an inconsistent caller.
    ///
    /// # Panics
    ///
    /// Debug builds assert `count * max_context >= total_context` (for
    /// `count > 0`) — an inconsistent aggregate would otherwise be priced
    /// silently as garbage.
    pub fn aggregate_work(
        &self,
        count: usize,
        total_context: usize,
        max_context: usize,
        dedup_tokens: usize,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> (f64, f64, usize) {
        if count == 0 {
            return (0.0, 0.0, 0);
        }
        debug_assert!(
            count.saturating_mul(max_context.max(1)) >= total_context,
            "inconsistent decode aggregate: count={count} max={max_context} total={total_context}"
        );
        let kv_heads = cfg.kv_heads_per_gpu();
        let max_context = max_context.clamp(1, total_context.max(1));
        let splits = self.num_splits(count, max_context, cfg, gpu);
        let units_per_req = (kv_heads * splits) as f64;
        let (f_max, b_max) = self.unit_work(max_context, splits, cfg);
        let mut flops = f_max * units_per_req;
        let mut bytes = b_max * units_per_req;
        if count > 1 {
            let rest = (total_context.saturating_sub(max_context) / (count - 1)).max(1);
            let (f_rest, b_rest) = self.unit_work(rest, splits, cfg);
            flops += f_rest * units_per_req * (count - 1) as f64;
            bytes += b_rest * units_per_req * (count - 1) as f64;
        }
        if dedup_tokens > 0 {
            let dedup = dedup_tokens.min(total_context.saturating_sub(max_context));
            bytes -= self.dedup_bytes_saved(dedup, cfg);
        }
        (flops, bytes, count * kv_heads * splits)
    }

    /// HBM bytes saved by not re-reading `dedup_tokens` of shared-prefix KV:
    /// one K/V pass per KV head, at this kernel's bandwidth efficiency (the
    /// same scaling [`DecodeKernel::unit_work`] applies to the reads being
    /// elided).
    pub(crate) fn dedup_bytes_saved(&self, dedup_tokens: usize, cfg: &AttentionConfig) -> f64 {
        kv_bytes_per_head(dedup_tokens as f64, cfg) * cfg.kv_heads_per_gpu() as f64
            / self.bandwidth_efficiency
    }

    /// Total FLOPs (including padding) across the batch.
    pub fn total_flops(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> f64 {
        self.work(decodes, cfg, gpu).0
    }

    /// Total HBM bytes across the batch.
    pub fn total_bytes(
        &self,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> f64 {
        self.work(decodes, cfg, gpu).1
    }

    /// Build a ready-to-submit [`KernelLaunch`] for a decode batch.
    pub fn launch(
        &self,
        name: &str,
        decodes: &[DecodeRequest],
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> KernelLaunch {
        KernelLaunch::from_runs(name, self.footprint(cfg), self.unit_runs(decodes, cfg, gpu))
    }
}

impl Default for DecodeKernel {
    fn default() -> Self {
        DecodeKernel::flash_attention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Engine;

    fn cfg() -> AttentionConfig {
        AttentionConfig::yi_6b()
    }

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    /// Drain `launch` on a round-robin SM sequence and check that CTA `i`
    /// performs exactly `want[i]`, bit for bit.
    fn assert_launch_dispatches(mut launch: KernelLaunch, want: &[WorkUnit], label: &str) {
        assert_eq!(launch.remaining(), want.len(), "{label}: CTAs");
        let mut units = Vec::new();
        for (i, w) in want.iter().enumerate() {
            units.clear();
            launch.dispatcher.dispatch(i % 108, &mut units);
            let got: Vec<_> = units
                .iter()
                .map(|u| (u.op, u.flops.to_bits(), u.bytes.to_bits()))
                .collect();
            assert_eq!(
                got,
                [(w.op, w.flops.to_bits(), w.bytes.to_bits())],
                "{label}: CTA {i}"
            );
        }
        assert_eq!(launch.remaining(), 0, "{label}");
    }

    /// The run-built launch dispatches the per-CTA construction: one
    /// `build_units` unit per CTA, in order, for each model, with and
    /// without KV splits and with ragged contexts.
    #[test]
    fn launch_dispatches_one_built_unit_per_cta() {
        let ragged: Vec<_> = (0..37)
            .map(|i| DecodeRequest::new(300 + 997 * i % 9000))
            .collect();
        for cfg in [
            AttentionConfig::yi_6b(),
            AttentionConfig::llama2_7b(),
            AttentionConfig::llama3_8b(),
        ] {
            for (i, decodes) in [
                vec![DecodeRequest::new(4096); 5],
                vec![DecodeRequest::new(16 * 1024); 128],
                ragged.clone(),
            ]
            .iter()
            .enumerate()
            {
                for k in [DecodeKernel::flash_attention(), DecodeKernel::pod()] {
                    let want = k.build_units(decodes, &cfg, &gpu());
                    assert_eq!(k.num_ctas(decodes, &cfg, &gpu()), want.len());
                    let launch = k.launch("d", decodes, &cfg, &gpu());
                    assert_launch_dispatches(launch, &want, &format!("{cfg:?} batch {i}"));
                }
            }
        }
    }

    #[test]
    fn grid_matches_paper_figure6_setup() {
        // Yi-6B: 4 KV heads, so a batch of 54 requests uses 216 CTAs
        // (no splits needed since 216 >= 108 SMs).
        let k = DecodeKernel::flash_attention();
        let decodes = vec![DecodeRequest::new(16 * 1024); 54];
        let units = k.build_units(&decodes, &cfg(), &gpu());
        assert_eq!(units.len(), 216);
        assert_eq!(k.num_splits(54, 16 * 1024, &cfg(), &gpu()), 1);
    }

    /// The O(1) aggregate path must agree with summing the materialized grid
    /// over the same canonical batch.
    #[test]
    fn aggregate_work_matches_build_units() {
        for kernel in [DecodeKernel::flash_attention(), DecodeKernel::pod()] {
            for (count, max_ctx, rest_ctx) in [
                (54usize, 16 * 1024usize, 16 * 1024usize),
                (8, 8192, 1000),
                (1, 777, 0),
            ] {
                let mut decodes = vec![DecodeRequest::new(max_ctx)];
                decodes.extend(vec![DecodeRequest::new(rest_ctx.max(1)); count - 1]);
                let total: usize = decodes.iter().map(|d| d.context_len).sum();
                let units = kernel.build_units(&decodes, &cfg(), &gpu());
                let flops: f64 = units.iter().map(|u| u.flops).sum();
                let bytes: f64 = units.iter().map(|u| u.bytes).sum();
                let (af, ab, actas) =
                    kernel.aggregate_work(count, total, max_ctx, 0, &cfg(), &gpu());
                assert_eq!(actas, units.len());
                assert!(
                    (af - flops).abs() / flops.max(1.0) < 1e-9,
                    "{af} vs {flops}"
                );
                assert!(
                    (ab - bytes).abs() / bytes.max(1.0) < 1e-9,
                    "{ab} vs {bytes}"
                );
            }
        }
    }

    /// Every kernel variant returns the same zeroed work split for an empty
    /// batch — no variant may price phantom work (or divide by a zero count).
    #[test]
    fn empty_batch_is_zero_work_for_every_variant() {
        for kernel in [
            DecodeKernel::flash_attention(),
            DecodeKernel::flashinfer(),
            DecodeKernel::pod(),
        ] {
            assert_eq!(
                kernel.aggregate_work(0, 0, 0, 0, &cfg(), &gpu()),
                (0.0, 0.0, 0)
            );
            // Declared sharing on an empty batch is equally inert.
            assert_eq!(
                kernel.aggregate_work(0, 0, 0, 4096, &cfg(), &gpu()),
                (0.0, 0.0, 0)
            );
        }
    }

    /// An aggregate whose total exceeds `count * max` is inconsistent — no
    /// real batch can produce it — and must be rejected loudly in debug
    /// builds instead of priced as garbage.
    #[test]
    #[should_panic(expected = "inconsistent decode aggregate")]
    #[cfg(debug_assertions)]
    fn inconsistent_aggregate_is_rejected() {
        let _ = DecodeKernel::flash_attention().aggregate_work(2, 10_000, 100, 0, &cfg(), &gpu());
    }

    /// Declaring shared-prefix tokens strictly reduces the memory side while
    /// leaving FLOPs and the CTA grid untouched; declaring zero is
    /// bit-for-bit the dedup-unaware price.
    #[test]
    fn dedup_subtracts_exactly_the_shared_kv_traffic() {
        for kernel in [
            DecodeKernel::flash_attention(),
            DecodeKernel::flashinfer(),
            DecodeKernel::pod(),
        ] {
            let (count, ctx) = (16usize, 8192usize);
            let total = count * ctx;
            let (f0, b0, c0) = kernel.aggregate_work(count, total, ctx, 0, &cfg(), &gpu());
            // Half the batch shares a 2048-token prefix: 7 redundant passes.
            let dedup = 7 * 2048;
            let (f1, b1, c1) = kernel.aggregate_work(count, total, ctx, dedup, &cfg(), &gpu());
            assert_eq!(f0.to_bits(), f1.to_bits(), "flops must not change");
            assert_eq!(c0, c1, "grid must not change");
            assert!(b1 < b0, "dedup must reduce bytes: {b1} vs {b0}");
            let saved = kernel.dedup_bytes_saved(dedup, &cfg());
            assert!(((b0 - b1) - saved).abs() / saved < 1e-9);
        }
    }

    /// Over-declared sharing is clamped: the batch can never be priced below
    /// one full pass over the largest request plus per-request overheads.
    #[test]
    fn dedup_is_clamped_to_the_redundant_share() {
        let kernel = DecodeKernel::flash_attention();
        let (count, ctx) = (8usize, 4096usize);
        let total = count * ctx;
        let absurd = kernel.aggregate_work(count, total, ctx, total * 10, &cfg(), &gpu());
        let capped = kernel.aggregate_work(count, total, ctx, total - ctx, &cfg(), &gpu());
        assert_eq!(absurd.1.to_bits(), capped.1.to_bits());
        assert!(absurd.1 > 0.0);
    }

    #[test]
    fn small_batches_get_kv_splits() {
        let k = DecodeKernel::flash_attention();
        // 8 requests * 4 KV heads = 32 CTAs < 108 SMs: FlashDecoding splits.
        let splits = k.num_splits(8, 8192, &cfg(), &gpu());
        assert!(splits > 1);
        let units = k.build_units(&[DecodeRequest::new(8192); 8], &cfg(), &gpu());
        assert_eq!(units.len(), 8 * 4 * splits);
    }

    #[test]
    fn splits_preserve_kv_traffic() {
        let k = DecodeKernel::flash_attention();
        let small = vec![DecodeRequest::new(8192); 8];
        let big = vec![DecodeRequest::new(8192); 54];
        let per_req_small = k.total_bytes(&small, &cfg(), &gpu()) / 8.0;
        let per_req_big = k.total_bytes(&big, &cfg(), &gpu()) / 54.0;
        // Splitting adds only the tiny partial-output traffic.
        assert!((per_req_small - per_req_big).abs() / per_req_big < 0.01);
    }

    #[test]
    fn larger_tiles_do_more_redundant_compute() {
        let decodes = vec![DecodeRequest::new(4096); 32];
        let t128 = DecodeKernel::flash_attention()
            .with_tile(TileShape::new(128, 64))
            .with_full_tile_padding();
        let t16 = DecodeKernel::flash_attention()
            .with_tile(TileShape::new(16, 64))
            .with_full_tile_padding();
        let f128 = t128.total_flops(&decodes, &cfg(), &gpu());
        let f16 = t16.total_flops(&decodes, &cfg(), &gpu());
        assert!(f128 > 4.0 * f16, "128-tile flops {f128} vs 16-tile {f16}");
    }

    #[test]
    fn group_granularity_padding_is_independent_of_tile() {
        let decodes = vec![DecodeRequest::new(4096); 32];
        let t128 = DecodeKernel::flash_attention().with_tile(TileShape::new(128, 64));
        let t64 = DecodeKernel::flash_attention().with_tile(TileShape::new(64, 128));
        let f128 = t128.total_flops(&decodes, &cfg(), &gpu());
        let f64_ = t64.total_flops(&decodes, &cfg(), &gpu());
        assert!((f128 - f64_).abs() / f64_ < 1e-9);
    }

    /// Decode attention is memory bound: high HBM utilization, negligible
    /// compute utilization (Figure 1, middle panel).
    #[test]
    fn decode_kernel_is_memory_bound() {
        let k = DecodeKernel::flash_attention();
        let decodes = vec![DecodeRequest::new(4096); 128];
        let launch = k.launch("fa_decode", &decodes, &cfg(), &gpu());
        let report = Engine::new(gpu()).run_kernel(launch).unwrap();
        assert!(
            report.memory_utilization() > 0.5,
            "memory util {}",
            report.memory_utilization()
        );
        assert!(
            report.compute_utilization() < 0.15,
            "compute util {}",
            report.compute_utilization()
        );
    }

    #[test]
    fn flashinfer_decode_is_modestly_faster_than_flash_attention() {
        let decodes = vec![DecodeRequest::new(8 * 1024); 64];
        let engine = Engine::new(gpu());
        let fa = engine
            .run_kernel(DecodeKernel::flash_attention().launch("fa", &decodes, &cfg(), &gpu()))
            .unwrap()
            .makespan;
        let fi = engine
            .run_kernel(DecodeKernel::flashinfer().launch("fi", &decodes, &cfg(), &gpu()))
            .unwrap()
            .makespan;
        assert!(fi < fa, "FI {fi} vs FA {fa}");
        assert!(fi > fa * 0.8, "FI should only be modestly faster");
    }

    #[test]
    fn empty_batch_builds_no_work() {
        let k = DecodeKernel::flash_attention();
        assert!(k.build_units(&[], &cfg(), &gpu()).is_empty());
        assert_eq!(k.num_splits(0, 0, &cfg(), &gpu()), 1);
    }

    #[test]
    fn pod_decode_tile_shrinks_shared_memory() {
        let fa = DecodeKernel::flash_attention().footprint(&cfg());
        let pod = DecodeKernel::pod().footprint(&cfg());
        assert!(pod.shared_mem * 2 < fa.shared_mem);
    }
}

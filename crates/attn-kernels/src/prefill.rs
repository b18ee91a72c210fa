//! Work-model of FlashAttention-2 style *prefill* attention kernels,
//! including the FlashDecoding-style KV splitting that FlashAttention applies
//! to chunked prefills (§4.2.4 of the paper).

use crate::batch::PrefillChunk;
use crate::config::AttentionConfig;
use crate::cost::{
    attention_flops_per_head, hbm_bytes_with_l2, kv_bytes_per_head, q_bytes_per_head,
};
use crate::tiles::TileShape;
use gpu_sim::{Footprint, GpuConfig, KernelLaunch, OpClass, UnitRuns, WorkUnit};

/// How the number of KV splits for a chunked prefill is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// No splitting along the KV dimension.
    None,
    /// FlashAttention's default behaviour: split until the prefill grid alone
    /// fills roughly four waves of the GPU (maximizes prefill-only
    /// parallelism, at the cost of re-reading Q per split).
    Vanilla,
    /// POD-Attention's behaviour: split only until the prefill grid fills at
    /// most two waves, so the extra memory traffic does not starve co-located
    /// decode CTAs (Table 8).
    LimitedToTwoWaves,
    /// An explicit number of splits.
    Fixed(usize),
}

/// Shared per-chunk geometry: the causal KV span of each query tile and the
/// kernel-wide HBM traffic, computed once for both the unit runs and the
/// O(query tiles) aggregate path.
#[derive(Debug, Clone)]
struct PrefillGrid {
    tile_kv: Vec<f64>,
    total_tile_kv: f64,
    total_bytes: f64,
    splits: usize,
    padded_q: f64,
    eff: f64,
}

/// Configuration of a prefill attention kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefillKernel {
    /// Tile shape used by the kernel.
    pub tile: TileShape,
    /// Threads per CTA.
    pub threads: usize,
    /// Fraction of peak HBM bandwidth the kernel's access pattern achieves.
    pub bandwidth_efficiency: f64,
    /// KV-split policy for chunked prefills.
    pub split_policy: SplitPolicy,
}

impl PrefillKernel {
    /// FlashAttention-2's prefill kernel with its default tile and vanilla
    /// split heuristic.
    pub fn flash_attention() -> Self {
        PrefillKernel {
            tile: TileShape::fa2_prefill(),
            threads: 128,
            bandwidth_efficiency: 0.85,
            split_policy: SplitPolicy::Vanilla,
        }
    }

    /// FlashInfer's prefill kernel: same tiling strategy, slightly better
    /// scheduling of global loads.
    pub fn flashinfer() -> Self {
        PrefillKernel {
            bandwidth_efficiency: 0.9,
            ..PrefillKernel::flash_attention()
        }
    }

    /// Use a specific tile shape.
    pub fn with_tile(mut self, tile: TileShape) -> Self {
        self.tile = tile;
        self
    }

    /// Use a specific split policy.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split_policy = policy;
        self
    }

    /// The per-CTA resource footprint of this kernel.
    pub fn footprint(&self, cfg: &AttentionConfig) -> Footprint {
        Footprint::new(self.threads, self.tile.shared_mem_bytes(cfg))
    }

    /// Number of KV splits the kernel will use for `chunk`.
    ///
    /// Splitting along the KV dimension (FlashDecoding-style) only applies to
    /// *chunked* prefills — chunks appended to an existing KV cache — which is
    /// when the query grid alone is too small to fill the GPU. A full prompt
    /// processed from scratch uses the regular unsplit kernel. A zero-token
    /// chunk has no grid to split and gets 1.
    pub fn num_splits(
        &self,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> usize {
        let base = self.base_ctas(chunk, cfg);
        if base == 0 {
            return 1;
        }
        let fp = self.footprint(cfg);
        let wave = gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let max_by_kv = self.tile.kv_tiles(chunk.context_len()).max(1);
        if chunk.prior_len == 0 && !matches!(self.split_policy, SplitPolicy::Fixed(_)) {
            return 1;
        }
        let splits = match self.split_policy {
            SplitPolicy::None => 1,
            SplitPolicy::Fixed(n) => n.max(1),
            // Splitting is only worthwhile when the unsplit grid cannot fill
            // the GPU (small chunks); the vanilla heuristic then aims for
            // roughly four waves of CTAs, POD limits itself to two.
            SplitPolicy::Vanilla => {
                if base >= wave {
                    1
                } else {
                    (4 * wave).div_ceil(base)
                }
            }
            SplitPolicy::LimitedToTwoWaves => {
                if base >= wave {
                    1
                } else {
                    ((2 * wave) / base).max(1)
                }
            }
        };
        splits.min(max_by_kv)
    }

    /// CTAs in the grid before KV splitting: one per (query head, query tile).
    fn base_ctas(&self, chunk: &PrefillChunk, cfg: &AttentionConfig) -> usize {
        cfg.q_heads_per_gpu() * self.tile.q_tiles(chunk.chunk_len)
    }

    /// CTAs in the kernel's grid for one chunk:
    /// `(query heads per GPU) × (query tiles) × (KV splits)`, zero for an
    /// empty chunk.
    pub fn num_ctas(&self, chunk: &PrefillChunk, cfg: &AttentionConfig, gpu: &GpuConfig) -> usize {
        if chunk.chunk_len == 0 {
            return 0;
        }
        self.base_ctas(chunk, cfg) * self.num_splits(chunk, cfg, gpu)
    }

    /// The kernel's grid for one prefill chunk as unit runs: one run per
    /// (query head, query tile), of one unit per KV split, in launch order.
    ///
    /// The grid is `(query heads per GPU) × (query tiles) × (KV splits)`
    /// CTAs; each carries its causally-correct share of tensor FLOPs and HBM
    /// traffic. This is the grid's one definition: building it costs
    /// O(heads × tiles), and [`PrefillKernel::build_units`] and
    /// [`PrefillKernel::launch`] both take it from here.
    pub fn unit_runs(
        &self,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> UnitRuns {
        let mut runs = UnitRuns::new();
        let Some(grid) = self.grid(chunk, cfg, gpu) else {
            return runs;
        };
        let q_heads = cfg.q_heads_per_gpu();
        let d = cfg.head_dim;
        let splits = grid.splits;
        for _head in 0..q_heads {
            for kv in &grid.tile_kv {
                let flops_tile = attention_flops_per_head(grid.padded_q, *kv, d) / grid.eff;
                // This tile's share of the kernel's HBM traffic.
                let bytes_tile = grid.total_bytes * (*kv / (grid.total_tile_kv * q_heads as f64));
                let unit = WorkUnit::new(
                    OpClass::Prefill,
                    flops_tile / splits as f64,
                    bytes_tile / splits as f64,
                );
                runs.push(unit, splits);
            }
        }
        runs
    }

    /// Build the per-CTA work units of this kernel for one prefill chunk:
    /// [`PrefillKernel::unit_runs`] expanded, one unit per CTA.
    pub fn build_units(
        &self,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> Vec<WorkUnit> {
        self.unit_runs(chunk, cfg, gpu).iter().collect()
    }

    /// Aggregate `(flops, bytes, ctas)` of the kernel for one chunk, without
    /// materializing the per-CTA unit list — O(query tiles) instead of
    /// O(CTAs). Agrees with summing [`PrefillKernel::build_units`]; the
    /// attention estimator's hot path uses this.
    pub fn aggregate_work(
        &self,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> (f64, f64, usize) {
        let Some(grid) = self.grid(chunk, cfg, gpu) else {
            return (0.0, 0.0, 0);
        };
        let q_heads = cfg.q_heads_per_gpu();
        let d = cfg.head_dim;
        let flops: f64 = grid
            .tile_kv
            .iter()
            .map(|kv| attention_flops_per_head(grid.padded_q, *kv, d) / grid.eff)
            .sum::<f64>()
            * q_heads as f64;
        (flops, grid.total_bytes, self.num_ctas(chunk, cfg, gpu))
    }

    /// The per-tile geometry and whole-kernel HBM traffic shared by
    /// [`PrefillKernel::unit_runs`] and [`PrefillKernel::aggregate_work`].
    /// `None` for an empty chunk.
    fn grid(
        &self,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> Option<PrefillGrid> {
        if chunk.chunk_len == 0 {
            return None;
        }
        let q_heads = cfg.q_heads_per_gpu();
        let kv_heads = cfg.kv_heads_per_gpu();
        let group = cfg.group_size().min(q_heads);
        let d = cfg.head_dim;
        let splits = self.num_splits(chunk, cfg, gpu);
        let q_tiles = self.tile.q_tiles(chunk.chunk_len);

        // Causal KV length visible to each query tile.
        let tile_kv: Vec<f64> = (0..q_tiles)
            .map(|t| {
                let tile_end = ((t + 1) * self.tile.q).min(chunk.chunk_len);
                (chunk.prior_len + tile_end) as f64
            })
            .collect();
        let total_tile_kv: f64 = tile_kv.iter().sum();

        // HBM traffic for the whole kernel.
        let unique_kv = kv_bytes_per_head(chunk.context_len() as f64, cfg) * kv_heads as f64;
        let logical_kv: f64 = tile_kv
            .iter()
            .map(|kv| kv_bytes_per_head(*kv, cfg) * kv_heads as f64 * group as f64)
            .sum();
        let hbm_kv = hbm_bytes_with_l2(logical_kv, unique_kv, gpu.l2_cache_bytes as f64);
        let q_bytes =
            q_bytes_per_head(chunk.chunk_len as f64, cfg) * q_heads as f64 * splits as f64;
        let o_final = q_bytes_per_head(chunk.chunk_len as f64, cfg) * q_heads as f64;
        // Partial (fp32) outputs written by every split and re-read by the
        // reduction pass.
        let o_partial = if splits > 1 {
            2.0 * splits as f64 * chunk.chunk_len as f64 * (d * 4) as f64 * q_heads as f64
        } else {
            0.0
        };
        let total_bytes = (hbm_kv + q_bytes + o_final + o_partial) / self.bandwidth_efficiency;

        Some(PrefillGrid {
            tile_kv,
            total_tile_kv,
            total_bytes,
            splits,
            padded_q: self.tile.q as f64,
            eff: self.tile.tensor_efficiency(),
        })
    }

    /// Total tensor FLOPs (including tile padding) the kernel performs.
    pub fn total_flops(&self, chunk: &PrefillChunk, cfg: &AttentionConfig, gpu: &GpuConfig) -> f64 {
        self.aggregate_work(chunk, cfg, gpu).0
    }

    /// Total HBM bytes the kernel moves.
    pub fn total_bytes(&self, chunk: &PrefillChunk, cfg: &AttentionConfig, gpu: &GpuConfig) -> f64 {
        self.aggregate_work(chunk, cfg, gpu).1
    }

    /// Build a ready-to-submit [`KernelLaunch`] for one prefill chunk.
    pub fn launch(
        &self,
        name: &str,
        chunk: &PrefillChunk,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> KernelLaunch {
        KernelLaunch::from_runs(name, self.footprint(cfg), self.unit_runs(chunk, cfg, gpu))
    }
}

impl Default for PrefillKernel {
    fn default() -> Self {
        PrefillKernel::flash_attention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Engine;

    fn cfg() -> AttentionConfig {
        AttentionConfig::llama3_8b()
    }

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    #[test]
    fn grid_size_matches_heads_tiles_and_splits() {
        let k = PrefillKernel::flash_attention().with_split_policy(SplitPolicy::None);
        let chunk = PrefillChunk::new(1024, 0);
        let units = k.build_units(&chunk, &cfg(), &gpu());
        // 16 q heads per GPU * ceil(1024/128) = 128 CTAs.
        assert_eq!(units.len(), 16 * 8);
    }

    #[test]
    fn splits_multiply_grid_size() {
        let k = PrefillKernel::flash_attention().with_split_policy(SplitPolicy::Fixed(4));
        let chunk = PrefillChunk::new(512, 8192);
        let units = k.build_units(&chunk, &cfg(), &gpu());
        assert_eq!(units.len(), 16 * 4 * 4);
    }

    #[test]
    fn limited_splits_never_exceed_vanilla() {
        let chunk = PrefillChunk::new(512, 15 * 1024 + 512);
        let vanilla = PrefillKernel::flash_attention()
            .with_split_policy(SplitPolicy::Vanilla)
            .num_splits(&chunk, &cfg(), &gpu());
        let limited = PrefillKernel::flash_attention()
            .with_split_policy(SplitPolicy::LimitedToTwoWaves)
            .num_splits(&chunk, &cfg(), &gpu());
        assert!(limited <= vanilla);
        assert!(limited >= 1);
        // Vanilla splitting of a small chunk produces a lot of extra CTAs.
        assert!(vanilla > limited);
    }

    /// A zero-token chunk with prior context has no grid: the split
    /// heuristics must not divide by its empty base grid.
    #[test]
    fn empty_chunk_with_prior_context_gets_one_split() {
        let chunk = PrefillChunk::new(0, 100);
        for policy in [SplitPolicy::Vanilla, SplitPolicy::LimitedToTwoWaves] {
            let k = PrefillKernel::flash_attention().with_split_policy(policy);
            assert_eq!(k.num_splits(&chunk, &cfg(), &gpu()), 1, "{policy:?}");
            assert_eq!(k.num_ctas(&chunk, &cfg(), &gpu()), 0, "{policy:?}");
        }
    }

    #[test]
    fn flops_grow_with_context_length() {
        let k = PrefillKernel::flash_attention();
        let short = k.total_flops(&PrefillChunk::new(1024, 1024), &cfg(), &gpu());
        let long = k.total_flops(&PrefillChunk::new(1024, 15 * 1024), &cfg(), &gpu());
        assert!(long > 2.0 * short);
    }

    #[test]
    fn splits_increase_memory_traffic_not_flops() {
        let chunk = PrefillChunk::new(512, 8192);
        let one = PrefillKernel::flash_attention().with_split_policy(SplitPolicy::Fixed(1));
        let eight = PrefillKernel::flash_attention().with_split_policy(SplitPolicy::Fixed(8));
        let flops_1 = one.total_flops(&chunk, &cfg(), &gpu());
        let flops_8 = eight.total_flops(&chunk, &cfg(), &gpu());
        assert!((flops_1 - flops_8).abs() / flops_1 < 1e-9);
        assert!(
            eight.total_bytes(&chunk, &cfg(), &gpu()) > one.total_bytes(&chunk, &cfg(), &gpu())
        );
    }

    #[test]
    fn empty_chunk_builds_no_work() {
        let k = PrefillKernel::flash_attention();
        assert!(k
            .build_units(&PrefillChunk::new(0, 0), &cfg(), &gpu())
            .is_empty());
    }

    /// The headline motivation (Figure 1): prefill attention is
    /// compute-bound — high compute utilization, tiny HBM utilization.
    #[test]
    fn prefill_kernel_is_compute_bound() {
        let k = PrefillKernel::flash_attention();
        let chunk = PrefillChunk::new(4096, 0);
        let launch = k.launch("fa2_prefill", &chunk, &cfg(), &gpu());
        let report = Engine::new(gpu()).run_kernel(launch).unwrap();
        assert!(
            report.compute_utilization() > 0.35,
            "compute util {}",
            report.compute_utilization()
        );
        assert!(
            report.memory_utilization() < 0.10,
            "memory util {}",
            report.memory_utilization()
        );
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
    /// `build_units` unit per CTA, in order, for each model and split policy.
    #[test]
    fn launch_dispatches_one_built_unit_per_cta() {
        for cfg in [
            AttentionConfig::yi_6b(),
            AttentionConfig::llama2_7b(),
            AttentionConfig::llama3_8b(),
        ] {
            for (policy, chunk) in [
                (SplitPolicy::Vanilla, PrefillChunk::new(512, 8192)),
                (
                    SplitPolicy::LimitedToTwoWaves,
                    PrefillChunk::new(1000, 3000),
                ),
                (SplitPolicy::None, PrefillChunk::new(4096, 0)),
                (SplitPolicy::Fixed(3), PrefillChunk::new(100, 0)),
            ] {
                let k = PrefillKernel::flash_attention().with_split_policy(policy);
                let want = k.build_units(&chunk, &cfg, &gpu());
                assert_eq!(k.num_ctas(&chunk, &cfg, &gpu()), want.len());
                let launch = k.launch("p", &chunk, &cfg, &gpu());
                assert_launch_dispatches(launch, &want, &format!("{cfg:?} {policy:?}"));
            }
        }
    }

    #[test]
    fn footprint_matches_tile() {
        let k = PrefillKernel::flash_attention();
        let fp = k.footprint(&cfg());
        assert_eq!(fp.shared_mem, 64 * 1024);
        assert_eq!(fp.threads, 128);
        // Occupancy 2 on the A100.
        assert_eq!(gpu().occupancy(fp.shared_mem, fp.threads), 2);
    }
}

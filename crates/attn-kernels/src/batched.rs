//! The FI_Batched baseline: computing prefill *and* decode attention with a
//! single prefill-optimized kernel launch.
//!
//! Some serving systems take this shortcut because it is the easiest way to
//! handle a hybrid batch (the paper cites Sarathi's original FlashInfer
//! backend and a vLLM feature request). The prefill kernel pads every decode
//! request's single query token up to its large query tile, so long-context
//! decodes waste enormous amounts of tensor-core work and the approach can be
//! slower than running the two specialized kernels serially (§5.1,
//! Figure 11).

use crate::batch::HybridBatch;
use crate::config::AttentionConfig;
use crate::cost::{
    attention_flops_per_head, hbm_bytes_with_l2, kv_bytes_per_head, q_bytes_per_head,
};
use crate::prefill::{PrefillKernel, SplitPolicy};
use crate::tiles::TileShape;
use gpu_sim::{Footprint, GpuConfig, KernelLaunch, OpClass, WorkUnit};

/// Work-model of a prefill-style kernel applied to an entire hybrid batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedPrefillKernel {
    /// The underlying prefill kernel configuration.
    pub prefill: PrefillKernel,
}

impl BatchedPrefillKernel {
    /// FlashInfer's batched-prefill path (the FI_Batched baseline).
    pub fn flashinfer() -> Self {
        BatchedPrefillKernel {
            prefill: PrefillKernel::flashinfer().with_split_policy(SplitPolicy::None),
        }
    }

    /// The tile used for every sequence in the batch.
    pub fn tile(&self) -> TileShape {
        self.prefill.tile
    }

    /// Per-CTA resource footprint.
    pub fn footprint(&self, cfg: &AttentionConfig) -> Footprint {
        self.prefill.footprint(cfg)
    }

    /// Build the per-CTA work units for a hybrid batch: the prefill chunk
    /// plus one padded query tile per (decode request, query head).
    pub fn build_units(
        &self,
        batch: &HybridBatch,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        if let Some(chunk) = &batch.prefill {
            units.extend(self.prefill.build_units(chunk, cfg, gpu));
        }
        let q_heads = cfg.q_heads_per_gpu();
        let kv_heads = cfg.kv_heads_per_gpu();
        let group = cfg.group_size();
        let d = cfg.head_dim;
        let eff = self.tile().tensor_efficiency();
        let padded_q = self.tile().q as f64;

        for req in &batch.decodes {
            let kv = req.context_len as f64;
            // One CTA per query head; each pads its single real query row (or
            // GQA group) to the full prefill query tile.
            let flops_cta = attention_flops_per_head(padded_q, kv, d) / eff;
            // Every query head streams its KV head's cache; heads in the same
            // GQA group re-read the same data, partially caught by L2.
            let unique = kv_bytes_per_head(kv, cfg) * kv_heads as f64;
            let logical = kv_bytes_per_head(kv, cfg) * q_heads as f64;
            let hbm = hbm_bytes_with_l2(logical, unique, gpu.l2_cache_bytes as f64)
                + q_bytes_per_head(group as f64, cfg) * q_heads as f64;
            let bytes_cta = hbm / (q_heads as f64 * self.prefill.bandwidth_efficiency);
            for _h in 0..q_heads {
                units.push(WorkUnit::new(OpClass::Decode, flops_cta, bytes_cta));
            }
        }
        units
    }

    /// Build a ready-to-submit kernel launch for the whole hybrid batch.
    pub fn launch(
        &self,
        name: &str,
        batch: &HybridBatch,
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> KernelLaunch {
        let runs = self.build_units(batch, cfg, gpu).into_iter().collect();
        KernelLaunch::from_runs(name, self.footprint(cfg), runs)
    }
}

impl Default for BatchedPrefillKernel {
    fn default() -> Self {
        BatchedPrefillKernel::flashinfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodeKernel;
    use gpu_sim::Engine;

    fn cfg() -> AttentionConfig {
        AttentionConfig::llama3_8b()
    }

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    #[test]
    fn decode_part_wastes_tensor_work() {
        let batch = HybridBatch::decode_only(32, 8 * 1024);
        let batched = BatchedPrefillKernel::flashinfer();
        let dedicated = DecodeKernel::flashinfer();
        let batched_flops: f64 = batched
            .build_units(&batch, &cfg(), &gpu())
            .iter()
            .map(|u| u.flops)
            .sum();
        let dedicated_flops = dedicated.total_flops(&batch.decodes, &cfg(), &gpu());
        // Padding a 4-row GQA group to a 128-row tile, per query head instead
        // of per KV head, wastes well over an order of magnitude of compute.
        assert!(batched_flops > 10.0 * dedicated_flops);
    }

    #[test]
    fn unit_count_is_prefill_grid_plus_one_cta_per_query_head_per_decode() {
        let batch = HybridBatch::uniform(1024, 1024, 10, 4096);
        let batched = BatchedPrefillKernel::flashinfer();
        let units = batched.build_units(&batch, &cfg(), &gpu());
        let prefill_units = batched
            .prefill
            .build_units(&batch.prefill.unwrap(), &cfg(), &gpu())
            .len();
        assert_eq!(units.len(), prefill_units + 10 * 16);
    }

    /// At long context lengths FI_Batched is slower than running the two
    /// specialized kernels serially — the paper's motivation for rejecting
    /// this "easy" approach.
    #[test]
    fn batched_is_slower_than_serial_at_long_context() {
        let batch = HybridBatch::uniform(1024, 16 * 1024, 64, 16 * 1024);
        let engine = Engine::new(gpu());

        let batched = BatchedPrefillKernel::flashinfer();
        let t_batched = engine
            .run_kernel(batched.launch("fi_batched", &batch, &cfg(), &gpu()))
            .unwrap()
            .makespan;

        let prefill = PrefillKernel::flashinfer();
        let decode = DecodeKernel::flashinfer();
        let t_serial = engine
            .run_serial(vec![
                prefill.launch("fi_prefill", &batch.prefill.unwrap(), &cfg(), &gpu()),
                decode.launch("fi_decode", &batch.decodes, &cfg(), &gpu()),
            ])
            .unwrap()
            .makespan;

        assert!(
            t_batched > t_serial,
            "FI_Batched {t_batched} should be slower than serial {t_serial} at 16K context"
        );
    }

    #[test]
    fn empty_batch_builds_nothing() {
        let batched = BatchedPrefillKernel::flashinfer();
        assert!(batched
            .build_units(&HybridBatch::new(), &cfg(), &gpu())
            .is_empty());
    }
}

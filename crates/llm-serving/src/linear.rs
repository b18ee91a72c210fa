//! Roofline cost model for the linear (non-attention) operators of a
//! transformer iteration, plus the per-iteration breakdown used by Figure 4.
//!
//! Hybrid batching's benefit for linear operators is that the model weights
//! are read from HBM once per iteration and reused for the prefill chunk's
//! tokens *and* the decode tokens, so the cost model takes the total number
//! of query tokens in the batch.

use crate::model::ModelConfig;
use attn_kernels::{AttentionEstimator, AttentionStrategy, HybridBatch};
use gpu_sim::GpuConfig;

/// Achieved fraction of tensor-core peak for dense GEMMs (cuBLAS-like).
const GEMM_COMPUTE_EFFICIENCY: f64 = 0.75;
/// Achieved fraction of HBM bandwidth for weight streaming.
const GEMM_BANDWIDTH_EFFICIENCY: f64 = 0.8;
/// Fixed launch/overhead per linear operator per layer (seconds).
const LINEAR_OP_OVERHEAD: f64 = 4.0e-6;
/// Per-layer tensor-parallel all-reduce base latency (seconds).
const ALLREDUCE_BASE_LATENCY: f64 = 12.0e-6;
/// Interconnect bandwidth available for tensor-parallel all-reduce (bytes/s).
const ALLREDUCE_BANDWIDTH: f64 = 250e9;

/// Time contributions of one full model iteration, split the way Figure 4
/// reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationBreakdown {
    /// QKV projection ("Pre Projection").
    pub pre_projection: f64,
    /// Prefill attention.
    pub prefill_attention: f64,
    /// Decode attention.
    pub decode_attention: f64,
    /// Output projection ("Post Projection").
    pub post_projection: f64,
    /// MLP / feed-forward network.
    pub ffn: f64,
    /// Everything else: layer norms, rotary embeddings, tensor-parallel
    /// all-reduces, sampling.
    pub others: f64,
}

impl IterationBreakdown {
    /// Total iteration time (seconds).
    pub fn total(&self) -> f64 {
        self.pre_projection
            + self.prefill_attention
            + self.decode_attention
            + self.post_projection
            + self.ffn
            + self.others
    }

    /// The six components as `(label, seconds)` pairs in Figure 4's order.
    pub fn components(&self) -> [(&'static str, f64); 6] {
        [
            ("Pre Projection", self.pre_projection),
            ("Prefill Attention", self.prefill_attention),
            ("Decode Attention", self.decode_attention),
            ("Post Projection", self.post_projection),
            ("FFN", self.ffn),
            ("Others", self.others),
        ]
    }
}

/// Cost model for one serving iteration of a model on a device.
#[derive(Debug, Clone)]
pub struct IterationCostModel {
    model: ModelConfig,
    gpu: GpuConfig,
    estimator: AttentionEstimator,
}

impl IterationCostModel {
    /// Create a cost model for a model/device pair. Attention costs use the
    /// memoized estimator fast path (see [`IterationCostModel::exact`]).
    pub fn new(model: ModelConfig, gpu: GpuConfig) -> Self {
        let estimator = AttentionEstimator::new(model.attention, gpu.clone());
        IterationCostModel {
            model,
            gpu,
            estimator,
        }
    }

    /// Create a cost model that prices attention exactly, bypassing the
    /// estimator's side-cost memoization (the engine's path when
    /// `ServingConfig::price_cache` is off).
    pub fn exact(model: ModelConfig, gpu: GpuConfig) -> Self {
        let estimator = AttentionEstimator::exact(model.attention, gpu.clone());
        IterationCostModel {
            model,
            gpu,
            estimator,
        }
    }

    /// The model this cost model describes.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Time of one dense linear operator over `tokens` query tokens with
    /// `params` weight parameters (one GPU's shard, one layer).
    fn gemm_time(&self, tokens: usize, params: usize) -> f64 {
        if tokens == 0 || params == 0 {
            return 0.0;
        }
        let flops = 2.0 * tokens as f64 * params as f64;
        let weight_bytes = params as f64 * self.model.attention.dtype_bytes as f64;
        let act_bytes = 2.0
            * tokens as f64
            * self.model.hidden_size as f64
            * self.model.attention.dtype_bytes as f64;
        let tc = flops / (self.gpu.tensor_flops * GEMM_COMPUTE_EFFICIENCY);
        let tm = (weight_bytes + act_bytes) / (self.gpu.hbm_bandwidth * GEMM_BANDWIDTH_EFFICIENCY);
        tc.max(tm) + LINEAR_OP_OVERHEAD
    }

    /// Tensor-parallel all-reduce time for `tokens` activations (one layer
    /// performs two all-reduces: after attention and after the MLP).
    fn allreduce_time(&self, tokens: usize) -> f64 {
        if self.model.tensor_parallel() <= 1 || tokens == 0 {
            return 0.0;
        }
        let bytes = 2.0
            * tokens as f64
            * self.model.hidden_size as f64
            * self.model.attention.dtype_bytes as f64;
        2.0 * (ALLREDUCE_BASE_LATENCY + bytes / ALLREDUCE_BANDWIDTH)
    }

    /// Per-iteration breakdown of a hybrid batch, with attention computed by
    /// `strategy`. Costs cover all layers of the model plus sampling.
    pub fn breakdown(
        &self,
        batch: &HybridBatch,
        strategy: AttentionStrategy,
    ) -> IterationBreakdown {
        let tokens = batch.total_query_tokens();
        if tokens == 0 {
            return IterationBreakdown::default();
        }
        let layers = self.model.num_layers() as f64;
        let params = self.model.layer_params_per_gpu();

        let attn = self.estimator.estimate(batch, strategy);
        let (prefill_attention, decode_attention) =
            if strategy == AttentionStrategy::Pod || strategy == AttentionStrategy::FiBatched {
                // Fused execution: attribute the fused time proportionally to the
                // two operations' standalone costs so the breakdown still sums to
                // the iteration total.
                let serial_total = (attn.prefill_time + attn.decode_time).max(1e-12);
                (
                    attn.total_time * attn.prefill_time / serial_total,
                    attn.total_time * attn.decode_time / serial_total,
                )
            } else {
                (attn.prefill_time, attn.decode_time)
            };

        let pre_projection = self.gemm_time(tokens, params.qkv_proj) * layers;
        let post_projection = self.gemm_time(tokens, params.out_proj) * layers;
        let ffn = self.gemm_time(tokens, params.mlp) * layers;
        // Others: two norms + rotary (bandwidth-bound elementwise passes),
        // tensor-parallel all-reduces, and the sampling / LM-head cost for the
        // sequences that produce a token this iteration.
        let elementwise = 6.0
            * tokens as f64
            * self.model.hidden_size as f64
            * self.model.attention.dtype_bytes as f64
            / (self.gpu.hbm_bandwidth * GEMM_BANDWIDTH_EFFICIENCY);
        let sampling_rows = batch.decode_batch_size() + usize::from(batch.has_prefill());
        let lm_head = self.gemm_time(
            sampling_rows,
            self.model.vocab_size * self.model.hidden_size / self.model.tensor_parallel(),
        );
        let others = (elementwise + self.allreduce_time(tokens)) * layers + lm_head + 30.0e-6;

        IterationBreakdown {
            pre_projection,
            prefill_attention: prefill_attention * layers,
            decode_attention: decode_attention * layers,
            post_projection,
            ffn,
            others,
        }
    }

    /// Total time of one serving iteration (seconds).
    pub fn iteration_time(&self, batch: &HybridBatch, strategy: AttentionStrategy) -> f64 {
        self.breakdown(batch, strategy).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IterationCostModel {
        IterationCostModel::new(ModelConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    #[test]
    fn attention_dominates_at_long_context() {
        // Figure 4: at 16K context, attention is >60 % of the iteration.
        let m = model();
        let batch = HybridBatch::uniform(1024, 16 * 1024, 60, 16 * 1024);
        let b = m.breakdown(&batch, AttentionStrategy::FaSerial);
        let attn_share = (b.prefill_attention + b.decode_attention) / b.total();
        assert!(attn_share > 0.5, "attention share {attn_share}");
    }

    #[test]
    fn linear_dominates_at_short_context() {
        // Figure 4: at 1K context, the FFN is the largest contributor.
        let m = model();
        let batch = HybridBatch::uniform(1024, 1024, 60, 1024);
        let b = m.breakdown(&batch, AttentionStrategy::FaSerial);
        let attn_share = (b.prefill_attention + b.decode_attention) / b.total();
        assert!(attn_share < 0.4, "attention share {attn_share}");
        assert!(b.ffn > b.prefill_attention);
    }

    #[test]
    fn pod_reduces_iteration_time_on_hybrid_batches() {
        let m = model();
        let batch = HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024);
        let serial = m.iteration_time(&batch, AttentionStrategy::FaSerial);
        let pod = m.iteration_time(&batch, AttentionStrategy::Pod);
        assert!(pod < serial);
        // The end-to-end gain is bounded by attention's share of the iteration.
        assert!(pod > serial * 0.5);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let m = model();
        assert_eq!(
            m.iteration_time(&HybridBatch::new(), AttentionStrategy::FaSerial),
            0.0
        );
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = model();
        let batch = HybridBatch::uniform(512, 8 * 1024, 32, 8 * 1024);
        let b = m.breakdown(&batch, AttentionStrategy::Pod);
        let sum: f64 = b.components().iter().map(|(_, t)| t).sum();
        assert!((sum - b.total()).abs() < 1e-12);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn decode_only_iterations_are_memory_bound_and_fast() {
        let m = model();
        let decode = HybridBatch::decode_only(32, 4096);
        let hybrid = HybridBatch::uniform(2048, 4096, 32, 4096);
        let t_decode = m.iteration_time(&decode, AttentionStrategy::FaSerial);
        let t_hybrid = m.iteration_time(&hybrid, AttentionStrategy::FaSerial);
        assert!(t_decode < t_hybrid);
        // A decode-only iteration of a 7B-class model takes on the order of
        // tens of milliseconds, not seconds.
        assert!(
            t_decode > 1e-3 && t_decode < 0.2,
            "decode iteration {t_decode}"
        );
    }

    #[test]
    fn tensor_parallel_adds_allreduce_cost() {
        let tp2 = model();
        let tp1 = IterationCostModel::new(ModelConfig::yi_6b(), GpuConfig::a100_80gb());
        let batch = HybridBatch::uniform(1024, 1024, 16, 2048);
        let b2 = tp2.breakdown(&batch, AttentionStrategy::FaSerial);
        let b1 = tp1.breakdown(&batch, AttentionStrategy::FaSerial);
        // Yi-6B has no all-reduce; Llama-3-8B TP-2 does. "Others" should
        // reflect that (both still include sampling and norms).
        assert!(b2.others > b1.others * 0.8);
    }
}

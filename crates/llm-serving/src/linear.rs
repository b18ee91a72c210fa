//! Roofline cost model for the linear (non-attention) operators of a
//! transformer iteration, the per-iteration breakdown used by Figure 4, and
//! the serving loop's one batch-price memo.
//!
//! Hybrid batching's benefit for linear operators is that the model weights
//! are read from HBM once per iteration and reused for the prefill chunk's
//! tokens *and* the decode tokens, so the cost model takes the total number
//! of query tokens in the batch.

use crate::fasthash::FastMap;
use crate::model::ModelConfig;
use attn_kernels::{
    canonical_decodes, quantize_tokens, AttentionEstimator, AttentionStrategy, DecodeRequest,
    HybridBatch, PrefillChunk,
};
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

/// Upper bound on resident batch-price memo entries; reaching it clears the
/// memo (a trivially correct eviction policy — in practice serving sweeps
/// produce a few thousand distinct signatures, far below this).
const PRICE_CACHE_MAX_ENTRIES: usize = 1 << 16;

/// Quantized signature of a hybrid batch, the key of the batch-price memo.
/// Token counts are `u32`, which halves a memo entry; a batch too large for
/// that panics rather than aliasing another signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BatchSignature {
    /// The attention strategy the batch is priced under.
    strategy: AttentionStrategy,
    /// Prefill chunk length (0 when the batch has no prefill).
    chunk_len: u32,
    /// Quantized prior context of the prefill chunk.
    prior_bucket: u32,
    /// Number of decode requests.
    decode_count: u32,
    /// Quantized total decode context (the dominant decode cost term).
    decode_total_bucket: u32,
    /// Quantized maximum decode context (drives decode-kernel splits).
    decode_max_bucket: u32,
    /// Quantized shared-prefix decode KV tokens deduped this iteration
    /// (always 0 when dedup is off).
    decode_dedup_bucket: u32,
    /// Quantized extra speculative-verify query tokens carried by the
    /// decode side (always 0 in autoregressive mode).
    spec_bucket: u32,
}

/// `x` as a signature field.
///
/// # Panics
///
/// Panics if `x` does not fit in `u32`.
fn field(x: usize) -> u32 {
    u32::try_from(x).expect("batch signature field exceeds u32")
}

impl BatchSignature {
    /// The signature of the batch given by its raw aggregates (see
    /// [`IterationCostModel::price`]), without materializing the batch.
    fn of(
        prefill: Option<(usize, usize)>,
        decode_contexts: impl IntoIterator<Item = usize>,
        kv_dedup_tokens: usize,
        spec_verify_tokens: usize,
        strategy: AttentionStrategy,
    ) -> Self {
        let (chunk_len, prior_bucket) =
            prefill.map_or((0, 0), |(chunk, prior)| (chunk, quantize_tokens(prior)));
        let (mut decode_count, mut total_ctx, mut max_ctx) = (0usize, 0usize, 0usize);
        for ctx in decode_contexts {
            decode_count += 1;
            total_ctx += ctx;
            max_ctx = max_ctx.max(ctx);
        }
        BatchSignature {
            strategy,
            chunk_len: field(chunk_len),
            prior_bucket: field(prior_bucket),
            decode_count: field(decode_count),
            decode_total_bucket: field(quantize_tokens(total_ctx)),
            decode_max_bucket: field(quantize_tokens(max_ctx)),
            decode_dedup_bucket: field(quantize_tokens(kv_dedup_tokens)),
            spec_bucket: field(quantize_tokens(spec_verify_tokens)),
        }
    }

    /// The canonical batch this signature represents: the batch every member
    /// of the equivalence class is priced as. The decode set comes from
    /// [`canonical_decodes`], the same equivalence-class definition the
    /// quantized estimator prices in closed form.
    fn canonical_batch(&self) -> HybridBatch {
        let tokens = |x: u32| x as usize;
        HybridBatch {
            prefill: (self.chunk_len > 0)
                .then(|| PrefillChunk::new(tokens(self.chunk_len), tokens(self.prior_bucket))),
            decodes: canonical_decodes(
                tokens(self.decode_count),
                tokens(self.decode_total_bucket),
                tokens(self.decode_max_bucket),
            ),
            kv_dedup_tokens: tokens(self.decode_dedup_bucket),
            spec_verify_tokens: tokens(self.spec_bucket),
        }
    }
}

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
    /// Iteration prices by quantized batch signature; stays empty on an
    /// exact model.
    prices: FastMap<BatchSignature, f64>,
}

impl IterationCostModel {
    /// Create a cost model for a model/device pair that prices attention
    /// with the quantized estimator and memoizes [`IterationCostModel::price`]
    /// by quantized batch signature (see [`IterationCostModel::exact`]).
    pub fn new(model: ModelConfig, gpu: GpuConfig) -> Self {
        let estimator = AttentionEstimator::new(model.attention, gpu.clone());
        IterationCostModel {
            model,
            gpu,
            estimator,
            prices: FastMap::default(),
        }
    }

    /// Create a cost model that prices every batch exactly, with neither
    /// quantization nor memo (the engine's path when
    /// `ServingConfig::price_cache` is off).
    pub fn exact(model: ModelConfig, gpu: GpuConfig) -> Self {
        IterationCostModel {
            estimator: AttentionEstimator::exact(model.attention, gpu.clone()),
            ..IterationCostModel::new(model, gpu)
        }
    }

    /// Price one serving iteration from its raw aggregates: the prefill
    /// chunk as `(chunk_len, prior_len)`, each decode's context, the
    /// shared-prefix decode KV tokens deduped and the speculative-verify
    /// tokens. A memoizing model prices each quantized signature once, as
    /// its canonical batch, and returns `Some(hit)`; an exact model prices
    /// the batch itself and returns `None`.
    pub fn price(
        &mut self,
        prefill: Option<(usize, usize)>,
        decode_contexts: impl IntoIterator<Item = usize>,
        kv_dedup_tokens: usize,
        spec_verify_tokens: usize,
        strategy: AttentionStrategy,
    ) -> (f64, Option<bool>) {
        if !self.estimator.is_quantized() {
            let batch = HybridBatch {
                prefill: prefill.map(|(chunk, prior)| PrefillChunk::new(chunk, prior)),
                decodes: decode_contexts
                    .into_iter()
                    .map(DecodeRequest::new)
                    .collect(),
                kv_dedup_tokens,
                spec_verify_tokens,
            };
            return (self.iteration_time(&batch, strategy), None);
        }
        let sig = BatchSignature::of(
            prefill,
            decode_contexts,
            kv_dedup_tokens,
            spec_verify_tokens,
            strategy,
        );
        if let Some(&cached) = self.prices.get(&sig) {
            return (cached, Some(true));
        }
        let priced = self.iteration_time(&sig.canonical_batch(), strategy);
        if self.prices.len() >= PRICE_CACHE_MAX_ENTRIES {
            self.prices.clear();
        }
        self.prices.insert(sig, priced);
        (priced, Some(false))
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
    ///
    /// # Panics
    ///
    /// If the batch is non-empty and `strategy` is neither FA_Serial nor POD
    /// (see [`AttentionEstimator::estimate`]).
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
        // `estimate` rejects every strategy but FA_Serial and POD.
        let (prefill_attention, decode_attention) = match strategy {
            // Fused execution: attribute the overlapped time proportionally
            // to the two operations' standalone costs so the breakdown still
            // sums to the iteration total.
            AttentionStrategy::Pod => {
                let serial_total = (attn.prefill_time + attn.decode_time).max(1e-12);
                (
                    attn.total_time * attn.prefill_time / serial_total,
                    attn.total_time * attn.decode_time / serial_total,
                )
            }
            _ => (attn.prefill_time, attn.decode_time),
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

    /// Each strategy's attention is priced at its own estimate: the two
    /// components sum to the estimator's total per layer, so POD is not
    /// billed as FA_Serial.
    #[test]
    fn breakdown_prices_each_strategy_attention() {
        let m = model();
        let batch = HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024);
        let layers = m.model.num_layers() as f64;
        for strategy in [AttentionStrategy::FaSerial, AttentionStrategy::Pod] {
            let b = m.breakdown(&batch, strategy);
            let per_layer = (b.prefill_attention + b.decode_attention) / layers;
            let est = m.estimator.estimate(&batch, strategy).total_time;
            assert!(
                (per_layer / est - 1.0).abs() < 1e-12,
                "{strategy:?}: {per_layer} vs {est}"
            );
        }
    }

    #[test]
    fn signatures_collapse_equivalent_plans_only() {
        let pod = AttentionStrategy::Pod;
        let sig_a = BatchSignature::of(Some((512, 0)), [4097, 3000], 0, 0, pod);
        let sig_b = BatchSignature::of(Some((512, 0)), [3000, 4097], 0, 0, pod);
        let sig_c = BatchSignature::of(Some((256, 0)), [4097, 3000], 0, 0, pod);
        assert_eq!(sig_a, sig_b, "decode order must not matter");
        assert_ne!(sig_a, sig_c, "chunk length must matter");
        // The canonical batch reproduces the aggregates.
        let batch = sig_a.canonical_batch();
        assert_eq!(batch.decode_batch_size(), 2);
        assert_eq!(batch.prefill.unwrap().chunk_len, 512);
    }

    /// A memo hit returns the bits a miss computes, and every call on a
    /// memoizing model is exactly one hit or one miss; an exact model
    /// counts neither.
    #[test]
    fn memo_hits_price_like_misses() {
        let price = |m: &mut IterationCostModel| {
            let contexts = (0..48).map(|i| 6 * 1024 + 211 * i);
            m.price(
                Some((512, 5000)),
                contexts,
                24 * 1024,
                48 * 3,
                AttentionStrategy::Pod,
            )
        };
        let mut warm = model();
        let (first, first_hit) = price(&mut warm);
        let (again, again_hit) = price(&mut warm);
        let (fresh, fresh_hit) = price(&mut model());
        assert_eq!(
            (first_hit, again_hit, fresh_hit),
            (Some(false), Some(true), Some(false))
        );
        assert_eq!(first.to_bits(), again.to_bits());
        assert_eq!(again.to_bits(), fresh.to_bits());

        // Three shapes over six calls: each misses once, then hits.
        let lookups: Vec<Option<bool>> = [512, 1024, 512, 2048, 1024, 512]
            .into_iter()
            .map(|chunk| {
                warm.price(Some((chunk, 0)), [4096; 8], 0, 0, AttentionStrategy::Pod)
                    .1
            })
            .collect();
        let hits = lookups.iter().filter(|&&h| h == Some(true)).count();
        let misses = lookups.iter().filter(|&&h| h == Some(false)).count();
        assert_eq!((hits, misses), (3, 3));
        assert_eq!(hits + misses, lookups.len());

        let mut exact = IterationCostModel::exact(ModelConfig::llama3_8b(), GpuConfig::a100_80gb());
        let (exact_price, exact_hit) = price(&mut exact);
        assert_eq!(exact_hit, None);
        assert!(exact_price > 0.0);
        assert!(exact.prices.is_empty());
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

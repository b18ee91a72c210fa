//! Hybrid batch descriptors: one chunked prefill plus a set of ongoing
//! decodes, as formed by hybrid-batching LLM schedulers (Sarathi-Serve).

use crate::config::AttentionConfig;
use crate::decode::DecodeKernel;
use crate::prefill::PrefillKernel;
use gpu_sim::{GpuConfig, KernelLaunch};

/// The prefill side of a hybrid batch: one chunk of a prompt.
///
/// `chunk_len` new query tokens are processed; their keys/values are appended
/// to a KV cache that already holds `prior_len` tokens from earlier chunks,
/// so attention for this chunk spans `prior_len + chunk_len` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefillChunk {
    /// Number of new prompt tokens processed in this iteration.
    pub chunk_len: usize,
    /// Number of prompt tokens already processed in earlier chunks.
    pub prior_len: usize,
}

impl PrefillChunk {
    /// A chunk of `chunk_len` tokens following `prior_len` already-processed
    /// tokens.
    pub fn new(chunk_len: usize, prior_len: usize) -> Self {
        PrefillChunk {
            chunk_len,
            prior_len,
        }
    }

    /// The first chunk of a prompt (no prior context).
    pub fn first(chunk_len: usize) -> Self {
        PrefillChunk::new(chunk_len, 0)
    }

    /// Total KV length visible to the last token of this chunk.
    pub fn context_len(&self) -> usize {
        self.prior_len + self.chunk_len
    }
}

/// One decode request in a hybrid batch: a single new token attending to its
/// full context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodeRequest {
    /// KV-cache length (tokens) of this request, including the new token.
    pub context_len: usize,
}

impl DecodeRequest {
    /// A decode request with the given context length.
    pub fn new(context_len: usize) -> Self {
        DecodeRequest { context_len }
    }
}

/// A hybrid batch: at most one prefill chunk co-scheduled with any number of
/// decode requests (the common case in Sarathi-style scheduling; see Table 1
/// of the paper).
///
/// # Examples
///
/// ```
/// use attn_kernels::HybridBatch;
///
/// // Table 1, config C0: chunk of 1K tokens at 12K context with 80 decodes
/// // of 12K context each.
/// let c0 = HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024);
/// assert_eq!(c0.decode_batch_size(), 80);
/// assert!(c0.has_prefill());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HybridBatch {
    /// The prefill chunk, if this iteration carries one.
    pub prefill: Option<PrefillChunk>,
    /// The ongoing decode requests.
    pub decodes: Vec<DecodeRequest>,
    /// Decode KV tokens whose HBM reads are eliminated by shared-prefix
    /// dedup across the batch: for each group of decodes sharing the same
    /// prefix blocks, the shared KV is streamed once for the whole group
    /// instead of once per request, saving `(members − 1) × shared tokens`
    /// per group. The batch carries only the sum — the decode cost model is
    /// linear in KV bytes, so group structure beyond the total does not
    /// change the price. Zero (the default) declares no sharing and leaves
    /// every cost bit-for-bit identical to a dedup-unaware batch.
    pub kv_dedup_tokens: usize,
    /// Extra speculative-verify query tokens carried by the decode side,
    /// beyond the one token per decode already implied by `decodes`. In
    /// draft-then-verify decoding each speculating request verifies
    /// `width` draft tokens against its full context in one prefill-shaped
    /// op; the batch carries `Σ (width − 1)` here. Verify queries share the
    /// decode's single pass over KV (no extra HBM traffic) but each scores
    /// against the full context, so they scale decode attention *compute*
    /// and count as query tokens for the GEMM side. Zero (the default)
    /// declares no speculation and leaves every cost bit-for-bit identical
    /// to a speculation-unaware batch.
    pub spec_verify_tokens: usize,
}

impl HybridBatch {
    /// An empty batch.
    pub fn new() -> Self {
        HybridBatch {
            prefill: None,
            decodes: Vec::new(),
            kv_dedup_tokens: 0,
            spec_verify_tokens: 0,
        }
    }

    /// A batch with one prefill chunk and `decode_batch` decodes, all decodes
    /// sharing the same context length. `prefill_context` is the total
    /// context of the prompt *including* this chunk (the paper's "CL").
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` exceeds `prefill_context`.
    pub fn uniform(
        chunk_len: usize,
        prefill_context: usize,
        decode_batch: usize,
        decode_context: usize,
    ) -> Self {
        assert!(
            chunk_len <= prefill_context,
            "chunk ({chunk_len}) larger than prefill context ({prefill_context})"
        );
        HybridBatch {
            prefill: Some(PrefillChunk::new(chunk_len, prefill_context - chunk_len)),
            decodes: vec![DecodeRequest::new(decode_context); decode_batch],
            kv_dedup_tokens: 0,
            spec_verify_tokens: 0,
        }
    }

    /// A decode-only batch.
    pub fn decode_only(decode_batch: usize, decode_context: usize) -> Self {
        HybridBatch {
            prefill: None,
            decodes: vec![DecodeRequest::new(decode_context); decode_batch],
            kv_dedup_tokens: 0,
            spec_verify_tokens: 0,
        }
    }

    /// A prefill-only batch.
    pub fn prefill_only(chunk_len: usize, prefill_context: usize) -> Self {
        HybridBatch::uniform(chunk_len, prefill_context, 0, 0)
    }

    /// Table 1, configuration C0 (memory-bound hybrid batch).
    pub fn config_c0() -> Self {
        HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024)
    }

    /// Table 1, configuration C1 (balanced hybrid batch).
    pub fn config_c1() -> Self {
        HybridBatch::uniform(12 * 1024, 12 * 1024, 220, 12 * 1024)
    }

    /// Table 1, configuration C2 (compute-bound hybrid batch).
    pub fn config_c2() -> Self {
        HybridBatch::uniform(16 * 1024, 16 * 1024, 250, 12 * 1024)
    }

    /// Whether the batch carries a prefill chunk.
    pub fn has_prefill(&self) -> bool {
        self.prefill.is_some()
    }

    /// Whether the batch carries any decodes.
    pub fn has_decode(&self) -> bool {
        !self.decodes.is_empty()
    }

    /// Number of decode requests.
    pub fn decode_batch_size(&self) -> usize {
        self.decodes.len()
    }

    /// Total number of *query* tokens processed in this iteration
    /// (prefill chunk tokens, one token per decode, plus any extra
    /// speculative-verify tokens).
    pub fn total_query_tokens(&self) -> usize {
        self.prefill.map_or(0, |p| p.chunk_len) + self.decodes.len() + self.spec_verify_tokens
    }

    /// The launches of a two-kernel baseline: the `kernels.0` prefill kernel
    /// over the chunk, named `names.0`, then the `kernels.1` decode kernel
    /// over the decode requests, named `names.1`. A side the batch lacks
    /// launches nothing.
    pub fn two_kernel_launches(
        &self,
        kernels: (PrefillKernel, DecodeKernel),
        names: (&str, &str),
        cfg: &AttentionConfig,
        gpu: &GpuConfig,
    ) -> Vec<KernelLaunch> {
        let mut launches = Vec::with_capacity(2);
        if let Some(chunk) = &self.prefill {
            launches.push(kernels.0.launch(names.0, chunk, cfg, gpu));
        }
        if !self.decodes.is_empty() {
            launches.push(kernels.1.launch(names.1, &self.decodes, cfg, gpu));
        }
        launches
    }
}

impl Default for HybridBatch {
    fn default() -> Self {
        HybridBatch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_context_and_causal_average() {
        let c = PrefillChunk::new(1024, 3072);
        assert_eq!(c.context_len(), 4096);
        let first = PrefillChunk::first(512);
        assert_eq!(first.prior_len, 0);
        assert_eq!(first.context_len(), 512);
    }

    #[test]
    fn table1_configs() {
        let c0 = HybridBatch::config_c0();
        assert_eq!(c0.prefill.unwrap().chunk_len, 1024);
        assert_eq!(c0.prefill.unwrap().context_len(), 12 * 1024);
        assert_eq!(c0.decode_batch_size(), 80);

        let c1 = HybridBatch::config_c1();
        assert_eq!(c1.prefill.unwrap().chunk_len, 12 * 1024);
        assert_eq!(c1.decode_batch_size(), 220);

        let c2 = HybridBatch::config_c2();
        assert_eq!(c2.prefill.unwrap().context_len(), 16 * 1024);
        assert_eq!(c2.decodes[0].context_len, 12 * 1024);
    }

    #[test]
    fn query_token_accounting() {
        let b = HybridBatch::uniform(512, 2048, 10, 4096);
        assert_eq!(b.total_query_tokens(), 522);
        // Speculative-verify tokens count as query tokens.
        let s = HybridBatch {
            spec_verify_tokens: 30,
            ..b
        };
        assert_eq!(s.total_query_tokens(), 552);
    }

    #[test]
    fn decode_only_and_prefill_only() {
        let d = HybridBatch::decode_only(5, 100);
        assert!(!d.has_prefill());
        assert!(d.has_decode());
        let p = HybridBatch::prefill_only(256, 256);
        assert!(p.has_prefill());
        assert!(!p.has_decode());
    }

    #[test]
    #[should_panic(expected = "larger than prefill context")]
    fn uniform_rejects_inconsistent_chunk() {
        let _ = HybridBatch::uniform(2048, 1024, 0, 0);
    }
}

//! Attention configuration: heads, head dimension, grouping and tensor
//! parallelism for the models evaluated in the paper (Table 4).

/// Attention-layer configuration of a served model, as seen by one GPU.
///
/// All three models in the paper use 32 query heads and a head dimension of
/// 128; they differ in the number of KV heads (grouped-query attention) and
/// in the tensor-parallel degree they are deployed with.
///
/// # Examples
///
/// ```
/// use attn_kernels::AttentionConfig;
///
/// let llama3 = AttentionConfig::llama3_8b();
/// assert_eq!(llama3.q_heads_per_gpu(), 16);
/// assert_eq!(llama3.kv_heads_per_gpu(), 4);
/// assert_eq!(llama3.group_size(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttentionConfig {
    /// Total query heads in the model.
    pub num_q_heads: usize,
    /// Total key/value heads in the model (GQA groups).
    pub num_kv_heads: usize,
    /// Head dimension (elements per head).
    pub head_dim: usize,
    /// Bytes per element (2 for FP16/BF16).
    pub dtype_bytes: usize,
    /// Tensor-parallel degree the model is deployed with (heads are split
    /// evenly across GPUs).
    pub tensor_parallel: usize,
    /// Number of transformer layers (used by the serving simulator and the
    /// per-layer KV-cache accounting).
    pub num_layers: usize,
}

impl AttentionConfig {
    /// Yi-6B: 32 query heads, 4 KV heads, deployed on a single A100 (Table 4).
    pub fn yi_6b() -> Self {
        AttentionConfig {
            num_q_heads: 32,
            num_kv_heads: 4,
            head_dim: 128,
            dtype_bytes: 2,
            tensor_parallel: 1,
            num_layers: 32,
        }
    }

    /// Llama-2-7B: 32 query heads, 32 KV heads, deployed on two A100s (TP-2).
    pub fn llama2_7b() -> Self {
        AttentionConfig {
            num_q_heads: 32,
            num_kv_heads: 32,
            head_dim: 128,
            dtype_bytes: 2,
            tensor_parallel: 2,
            num_layers: 32,
        }
    }

    /// Llama-3-8B: 32 query heads, 8 KV heads, deployed on two A100s (TP-2).
    pub fn llama3_8b() -> Self {
        AttentionConfig {
            num_q_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            dtype_bytes: 2,
            tensor_parallel: 2,
            num_layers: 32,
        }
    }

    /// Query heads handled by one GPU under tensor parallelism.
    pub fn q_heads_per_gpu(&self) -> usize {
        (self.num_q_heads / self.tensor_parallel).max(1)
    }

    /// KV heads handled by one GPU under tensor parallelism.
    pub fn kv_heads_per_gpu(&self) -> usize {
        (self.num_kv_heads / self.tensor_parallel).max(1)
    }

    /// Query heads per KV head (the GQA group size).
    pub fn group_size(&self) -> usize {
        (self.num_q_heads / self.num_kv_heads).max(1)
    }

    /// Bytes of KV cache one token occupies on one GPU for one layer
    /// (key + value across the GPU's KV heads).
    fn kv_bytes_per_token_per_layer(&self) -> usize {
        2 * self.kv_heads_per_gpu() * self.head_dim * self.dtype_bytes
    }

    /// Bytes of KV cache one token occupies on one GPU across all layers.
    pub fn kv_bytes_per_token(&self) -> usize {
        self.kv_bytes_per_token_per_layer() * self.num_layers
    }
}

impl Default for AttentionConfig {
    fn default() -> Self {
        AttentionConfig::llama3_8b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_match_table4() {
        let yi = AttentionConfig::yi_6b();
        assert_eq!(
            (yi.num_q_heads, yi.num_kv_heads, yi.tensor_parallel),
            (32, 4, 1)
        );
        let l2 = AttentionConfig::llama2_7b();
        assert_eq!(
            (l2.num_q_heads, l2.num_kv_heads, l2.tensor_parallel),
            (32, 32, 2)
        );
        let l3 = AttentionConfig::llama3_8b();
        assert_eq!(
            (l3.num_q_heads, l3.num_kv_heads, l3.tensor_parallel),
            (32, 8, 2)
        );
    }

    #[test]
    fn per_gpu_heads_respect_tensor_parallelism() {
        let l3 = AttentionConfig::llama3_8b();
        assert_eq!(l3.q_heads_per_gpu(), 16);
        assert_eq!(l3.kv_heads_per_gpu(), 4);
        let yi = AttentionConfig::yi_6b();
        assert_eq!(yi.q_heads_per_gpu(), 32);
        assert_eq!(yi.kv_heads_per_gpu(), 4);
    }

    #[test]
    fn group_sizes() {
        assert_eq!(AttentionConfig::yi_6b().group_size(), 8);
        assert_eq!(AttentionConfig::llama2_7b().group_size(), 1);
        assert_eq!(AttentionConfig::llama3_8b().group_size(), 4);
    }

    #[test]
    fn kv_bytes_per_token() {
        let yi = AttentionConfig::yi_6b();
        // 2 (K and V) * 4 heads * 128 dim * 2 bytes = 2048 bytes per layer.
        assert_eq!(yi.kv_bytes_per_token_per_layer(), 2048);
        assert_eq!(yi.kv_bytes_per_token(), 2048 * 32);
    }
}

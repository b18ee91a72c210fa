//! Model configurations for the three LLMs evaluated in the paper (Table 4).

use attn_kernels::AttentionConfig;
use gpu_sim::GpuConfig;

/// Transformer model configuration as deployed for serving.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Attention configuration (heads, GQA grouping, tensor parallelism).
    pub attention: AttentionConfig,
    /// Hidden (embedding) dimension.
    pub hidden_size: usize,
    /// MLP intermediate dimension (SwiGLU: three matrices of this width).
    pub intermediate_size: usize,
    /// Vocabulary size (for the LM head / sampling cost).
    pub vocab_size: usize,
}

impl ModelConfig {
    /// Yi-6B deployed on one A100 (4 KV heads, 200K-token base model).
    pub fn yi_6b() -> Self {
        ModelConfig {
            name: "Yi-6B".to_string(),
            attention: AttentionConfig::yi_6b(),
            hidden_size: 4096,
            intermediate_size: 11008,
            vocab_size: 64000,
        }
    }

    /// Llama-2-7B deployed on two A100s with tensor parallelism.
    pub fn llama2_7b() -> Self {
        ModelConfig {
            name: "Llama-2-7B".to_string(),
            attention: AttentionConfig::llama2_7b(),
            hidden_size: 4096,
            intermediate_size: 11008,
            vocab_size: 32000,
        }
    }

    /// Llama-3-8B deployed on two A100s with tensor parallelism.
    pub fn llama3_8b() -> Self {
        ModelConfig {
            name: "Llama-3-8B".to_string(),
            attention: AttentionConfig::llama3_8b(),
            hidden_size: 4096,
            intermediate_size: 14336,
            vocab_size: 128256,
        }
    }

    /// Number of transformer layers.
    pub fn num_layers(&self) -> usize {
        self.attention.num_layers
    }

    /// Tensor-parallel degree of the deployment.
    pub fn tensor_parallel(&self) -> usize {
        self.attention.tensor_parallel
    }

    /// Parameters of one transformer layer that live on ONE GPU.
    pub fn layer_params_per_gpu(&self) -> ParamCounts {
        let a = &self.attention;
        let h = self.hidden_size;
        let d = a.head_dim;
        let q_dim = a.q_heads_per_gpu() * d;
        let kv_dim = a.kv_heads_per_gpu() * d;
        let inter = self.intermediate_size / self.tensor_parallel();
        ParamCounts {
            qkv_proj: h * (q_dim + 2 * kv_dim),
            out_proj: q_dim * h,
            mlp: 3 * h * inter,
        }
    }

    /// Total model weight bytes resident on one GPU (fp16), including the
    /// embedding and LM head split across the tensor-parallel group.
    pub fn weight_bytes_per_gpu(&self) -> usize {
        let per_layer = self.layer_params_per_gpu();
        let layers = self.num_layers() * (per_layer.qkv_proj + per_layer.out_proj + per_layer.mlp);
        let embeddings = 2 * self.vocab_size * self.hidden_size / self.tensor_parallel();
        (layers + embeddings) * self.attention.dtype_bytes
    }

    /// Number of KV-cache tokens one GPU can hold after model weights and an
    /// activation reserve are subtracted from HBM capacity.
    pub fn kv_cache_capacity_tokens(&self, gpu: &GpuConfig) -> usize {
        let reserve = 4 * 1024 * 1024 * 1024usize; // activations, workspace
        let available = gpu
            .hbm_capacity
            .saturating_sub(self.weight_bytes_per_gpu())
            .saturating_sub(reserve);
        available / self.attention.kv_bytes_per_token().max(1)
    }
}

/// Per-layer parameter counts (one GPU's shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamCounts {
    /// Fused QKV projection parameters.
    pub qkv_proj: usize,
    /// Output (post-attention) projection parameters.
    pub out_proj: usize,
    /// Gate + up + down MLP parameters.
    pub mlp: usize,
}

impl ParamCounts {
    /// Total parameters across the three groups.
    pub fn total(&self) -> usize {
        self.qkv_proj + self.out_proj + self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_have_expected_shapes() {
        let yi = ModelConfig::yi_6b();
        assert_eq!(yi.tensor_parallel(), 1);
        let l3 = ModelConfig::llama3_8b();
        assert_eq!(l3.tensor_parallel(), 2);
        assert_eq!(l3.num_layers(), 32);
        assert_eq!(ModelConfig::llama2_7b().tensor_parallel(), 2);
    }

    #[test]
    fn weight_bytes_are_plausible() {
        // Llama-3-8B is ~8 B parameters = ~16 GB in fp16; TP-2 halves that.
        let l3 = ModelConfig::llama3_8b();
        let gb = l3.weight_bytes_per_gpu() as f64 / 1e9;
        assert!((5.0..10.0).contains(&gb), "per-GPU weights {gb} GB");
        // Yi-6B on a single GPU carries everything: ~12 GB.
        let yi = ModelConfig::yi_6b();
        let gb = yi.weight_bytes_per_gpu() as f64 / 1e9;
        assert!((9.0..15.0).contains(&gb), "Yi weights {gb} GB");
    }

    #[test]
    fn kv_capacity_allows_long_context_batches() {
        let gpu = GpuConfig::a100_80gb();
        let l3 = ModelConfig::llama3_8b();
        let tokens = l3.kv_cache_capacity_tokens(&gpu);
        // Should hold at least 50 requests of 16K tokens.
        assert!(tokens > 50 * 16 * 1024, "capacity {tokens} tokens");
        // Llama-2-7B has 4x more KV heads per GPU, so far fewer tokens fit.
        let l2 = ModelConfig::llama2_7b();
        assert!(l2.kv_cache_capacity_tokens(&gpu) < tokens / 3);
    }

    #[test]
    fn param_counts_sum() {
        let p = ModelConfig::llama3_8b().layer_params_per_gpu();
        assert_eq!(p.total(), p.qkv_proj + p.out_proj + p.mlp);
        assert!(p.mlp > p.qkv_proj);
    }
}

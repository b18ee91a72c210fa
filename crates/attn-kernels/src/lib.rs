//! # attn-kernels: attention kernel work-models
//!
//! Analytical models of the attention kernels the paper evaluates —
//! FlashAttention-2 prefill, FlashAttention/FlashDecoding decode, FlashInfer
//! prefill/decode, and the batched-prefill shortcut (FI_Batched) — expressed
//! as CTA work lists that the [`gpu_sim`] contention engine executes.
//!
//! Each kernel model answers three questions about a [`HybridBatch`]:
//! how many CTAs does the kernel launch (the grid), what resources does each
//! CTA reserve (the [`gpu_sim::Footprint`]), and how many tensor FLOPs / HBM
//! bytes does each CTA consume. Everything else — wave quantization,
//! co-location, contention, utilization — is left to the simulator, exactly
//! as it is left to the hardware on a real GPU.
//!
//! The crate also holds [`AttentionEstimator`], a closed-form price of a
//! hybrid batch for the serving simulator. It prices the two strategies
//! serving runs, FA_Serial and POD, from the same work-models; the other
//! [`AttentionStrategy`] variants are timed only by the CTA simulation
//! (`fusion_lab::HybridAttentionRunner`).
//!
//! # Example: the prefill/decode utilization gap (Figure 1)
//!
//! ```
//! use attn_kernels::{AttentionConfig, DecodeKernel, DecodeRequest, PrefillChunk, PrefillKernel};
//! use gpu_sim::{Engine, GpuConfig};
//!
//! let cfg = AttentionConfig::llama3_8b();
//! let gpu = GpuConfig::a100_80gb();
//! let engine = Engine::new(gpu.clone());
//!
//! let prefill = PrefillKernel::flash_attention()
//!     .launch("prefill", &PrefillChunk::new(4096, 0), &cfg, &gpu);
//! let decode = DecodeKernel::flash_attention()
//!     .launch("decode", &vec![DecodeRequest::new(4096); 128], &cfg, &gpu);
//!
//! let p = engine.run_kernel(prefill)?;
//! let d = engine.run_kernel(decode)?;
//! assert!(p.compute_utilization() > d.compute_utilization());
//! assert!(d.memory_utilization() > p.memory_utilization());
//! # Ok::<(), gpu_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod batch;
mod batched;
mod config;
mod cost;
mod decode;
mod prefill;
mod tiles;

pub use analytic::{
    canonical_decodes, quantize_tokens, AnalyticCost, AttentionEstimator, AttentionStrategy,
};
pub use batch::{DecodeRequest, HybridBatch, PrefillChunk};
pub use batched::BatchedPrefillKernel;
pub use config::AttentionConfig;
pub use cost::{
    attention_flops_per_head, hbm_bytes_with_l2, kv_bytes_per_head, q_bytes_per_head,
    KERNEL_LAUNCH_OVERHEAD,
};
pub use decode::{DecodeKernel, QueryPadding};
pub use prefill::{PrefillKernel, SplitPolicy};
pub use tiles::{TileShape, MIN_Q_TILE};

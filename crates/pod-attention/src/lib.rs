//! # pod-attention: fused prefill-decode attention with SM-aware CTA scheduling
//!
//! This crate reproduces the core contribution of *POD-Attention: Unlocking
//! Full Prefill-Decode Overlap for Faster LLM Inference* (ASPLOS 2025): a
//! single fused kernel that computes the prefill attention and the decode
//! attention of a hybrid batch concurrently, so the GPU's tensor cores (which
//! prefill saturates) and its HBM bandwidth (which decode saturates) are busy
//! at the same time instead of alternating.
//!
//! The ingredients, each mapped from the paper:
//!
//! * **SM-aware CTA scheduling** ([`SmAwareScheduler`], §4.1 / Figure 9):
//!   every CTA decides whether to run prefill or decode *after* it knows
//!   which SM it landed on, using per-SM ticket counters, which guarantees
//!   both operations co-exist on every SM.
//! * **Scheduling policies** ([`SchedulingPolicy`], §5.4.2): 50:50
//!   alternation or allocation proportional to the two operations' CTA
//!   counts.
//! * **Tile-size selection** (§4.2.1): decode uses the minimum 16-row query
//!   tile inside the fused kernel so its padding does not steal tensor cores
//!   from co-located prefill.
//! * **Virtual decode CTAs** (§4.2.3): several warp-sized decode work items
//!   share one fused CTA slot so decode does not over-allocate shared memory.
//! * **2 vs 4 CTAs per SM** ([`CtasPerSm`], §4.2.2), chosen per batch unless
//!   [`PodOptions::ctas_per_sm`] fixes one.
//! * **Limited prefill splits** (§4.2.4): chunked-prefill KV splits are capped
//!   at two waves so the extra traffic does not starve co-running decodes.
//!
//! # Quick start
//!
//! ```
//! use attn_kernels::{AttentionConfig, HybridBatch};
//! use gpu_sim::GpuConfig;
//! use pod_attention::PodAttention;
//!
//! let pod = PodAttention::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb());
//! // A hybrid batch: a 1K-token prefill chunk (12K context) + 80 decodes.
//! let batch = HybridBatch::config_c0();
//! let report = pod.execute(&batch)?;
//! println!("POD {:.3} ms vs the perfect-overlap bound {:.3} ms",
//!          report.makespan * 1e3, pod.oracle_time(&batch) * 1e3);
//! # Ok::<(), gpu_sim::SimError>(())
//! ```
//!
//! Timing POD against the FA_Serial baseline (and the other fusion methods)
//! goes through `fusion_lab::HybridAttentionRunner`, whose `with_pod` takes
//! a `PodAttention` built with non-default [`PodOptions`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod kernel;
mod oracle;
mod policy;
mod scheduler;

pub use config::{CtasPerSm, PodOptions};
pub use kernel::{LaunchPlan, PodAttention};
pub use oracle::oracle_time;
pub use policy::SchedulingPolicy;
pub use scheduler::SmAwareScheduler;

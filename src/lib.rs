//! # pod-repro: reproduction of POD-Attention (ASPLOS 2025)
//!
//! This meta-crate re-exports the public API of every crate in the workspace
//! so that examples and downstream users can depend on a single package.
//!
//! * [`gpu_sim`] — the simulated GPU substrate (SMs, CTAs, streams, roofline
//!   contention engine).
//! * [`attn_kernels`] — work-models of FlashAttention / FlashInfer prefill and
//!   decode kernels and hybrid-batch descriptors.
//! * [`pod_attention`] — the paper's contribution: fused prefill+decode
//!   attention with SM-aware CTA scheduling.
//! * [`fusion_lab`] — the concurrent-execution case study of §3 (streams,
//!   CTA-parallel, warp-parallel/HFuse, intra-thread, SM-aware fusion).
//! * [`llm_serving`] — an iteration-level LLM serving simulator with vLLM and
//!   Sarathi-Serve schedulers used for the end-to-end evaluation. The engine
//!   is step-able ([`llm_serving::ServingEngine::step`]), and the
//!   [`llm_serving::Cluster`] layer runs N replicas on a shared virtual
//!   clock behind a pluggable router for fleet-scale experiments — including
//!   disaggregated prefill/decode fleets with KV migration
//!   ([`llm_serving::ReplicaRole`], [`llm_serving::KvMigration`]).
//!
//! See the repository README for a guided tour and `docs/ARCHITECTURE.md`
//! for the crate map, request lifecycle and bench → paper-figure index.

#![warn(missing_docs)]

pub use attn_kernels;
pub use fusion_lab;
pub use gpu_sim;
pub use llm_serving;
pub use pod_attention;

// The cluster-scale serving surface, re-exported at the top level: these are
// the types fleet experiments compose, and downstream users should not need
// to know which workspace crate owns them. One `use pod_repro::{...}` covers
// the whole user-facing API, including the multi-tenant fairness surface
// (`TenantId` / `Priority` / `FairQueueConfig` / `TenantMix`) and the
// `with_*` chains on `RequestSpec`, `ServingConfig` and `ClusterConfig`.
pub use llm_serving::{
    Cluster, ClusterConfig, ClusterReport, FairQueueConfig, IterationOutcome, KvMigration,
    Priority, RateSchedule, ReplicaRole, RequestSpec, RouterPolicy, ServingConfig, ServingEngine,
    ServingReport, TenantId, TenantMix, TenantReport, TenantTraffic,
};

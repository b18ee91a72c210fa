//! # llm-serving: an iteration-level LLM serving simulator
//!
//! The end-to-end evaluation of POD-Attention replaces the attention backend
//! inside Sarathi-Serve (which is built on vLLM) and measures offline
//! throughput and online latency. This crate reproduces that serving stack as
//! an iteration-level simulator:
//!
//! * [`ModelConfig`] — Yi-6B, Llama-2-7B and Llama-3-8B as deployed in the
//!   paper (Table 4), including tensor parallelism and KV-cache capacity.
//! * [`SchedulerKind`] — the original vLLM prefill-prioritizing scheduler and
//!   Sarathi-Serve's chunked-prefill stall-free scheduler.
//! * [`IterationCostModel`] — a roofline cost model for the linear operators
//!   plus the attention estimator from [`attn_kernels`], switchable between
//!   FA_Serial (the baselines) and POD (the paper's system). It owns the one
//!   batch-price memo the engine prices iterations through.
//! * [`ServingEngine`] — a **step-able** replica simulator: admits requests
//!   against a KV block pool ([`BlockPool`]), forms hybrid batches,
//!   prices every iteration and tracks TTFT, TBT, request latency, stalls and
//!   throughput ([`ServingReport`]). Drive it to completion with
//!   [`ServingEngine::run`], or one iteration at a time with
//!   [`ServingEngine::submit`] / [`ServingEngine::step`] (returning
//!   [`IterationOutcome`]) — `run` is itself a loop over `step`.
//! * [`Cluster`] — N replica engines on a shared virtual clock behind a
//!   pluggable [`RouterPolicy`] (round-robin, least-outstanding-tokens, or
//!   prefill/decode-aware), with fleet-level percentiles and replica
//!   imbalance in [`ClusterReport`].
//! * [`BlockPool`] / [`PrefixIndex`] — the prefix-sharing paged KV-cache
//!   block subsystem: ref-counted blocks, a radix trie over token-fingerprint
//!   chunks, copy-on-write on divergence and LRU eviction. The conservative
//!   default holds counted grants in the same pool; named, prefix-matched
//!   blocks are enabled per config via [`KvCachePolicy::Paged`]; requests
//!   carry [`PromptContent`]
//!   stream identities, shared-prefix traces come from
//!   [`SharedPrefixWorkload`], and [`RouterPolicy::PrefixAffinity`] routes
//!   on cached-prefix length.
//! * [`SloSpec`] / [`SloMix`] / [`AdmissionPolicy`] / [`AutoscalerConfig`] —
//!   the SLO subsystem: requests carry optional TTFT/TBT objectives (stamped
//!   onto traces by weighted class mixes), reports grade **goodput**
//!   (deadline-meeting completions), SLO attainment and per-class violation
//!   breakdowns ([`SloClassReport`]), admission can shed requests whose
//!   deadlines are already unmeetable, and the cluster can autoscale on
//!   sustained backlog — scale-out mid-run, drain-then-retire on slack, with
//!   hysteresis, bounds and a `replica_seconds` cost metric.
//! * [`ReplicaRole`] / [`KvMigration`] — disaggregated prefill/decode
//!   serving, the strongest alternative the paper argues against:
//!   prefill-only replicas complete prompts and export [`PrefillHandoff`]s
//!   (the request plus its serialized [`KvChain`]), a bandwidth/latency
//!   cost model with optional ISO-style compute overlap prices the
//!   transfer, and decode-only replicas adopt the chains and resume the
//!   decodes — with conservation guarantees (no request or block lost or
//!   duplicated across a handoff) and `migrated_*` / `migration_stall_time`
//!   metrics plus per-role [`RoleReport`] aggregation.
//! * [`TenantId`] / [`Priority`] / [`FairQueueConfig`] — multi-tenant
//!   fairness: requests carry a tenant and an optional priority class; the
//!   fairness module's fair queue runs virtual-time weighted fair queueing
//!   over queued prefill work (per-tenant counters billed scheduled prefill
//!   tokens over weight, so one tenant's flash crowd can't monopolize the
//!   chunked-prefill slot), and with priority preemption a higher class
//!   evicts the lowest-class, newest running decodes through the paged
//!   preemption path. Reports break goodput, attainment, TTFT and
//!   preemptions down per tenant ([`TenantReport`]). Adversarial
//!   multi-tenant traces come from [`TenantMix`].
//! * [`trace`] ([`TraceConfig`] / [`FlightRecording`]) — request-lifecycle
//!   tracing: a zero-cost-when-off, deterministic flight recorder capturing
//!   every enqueue/admit/shed/preempt/migrate/finish, per-iteration batch
//!   composition, KV block traffic and periodic timeline samples into a
//!   bounded per-replica ring buffer, exported as Chrome `trace_event` JSON
//!   (for `chrome://tracing`/Perfetto) or compact JSONL. Attach via
//!   [`ServingConfig::with_tracing`].
//! * [`Workload`] — synthetic traces matched to the paper's internal and
//!   arXiv-Summarization workload statistics, plus the offline and P:D-ratio
//!   sweeps and time-varying (bursty / diurnal) arrival schedules
//!   ([`RateSchedule`]).
//! * [`JsonValue`] — the dependency-free JSON writer/parser every report and
//!   bench trend file serializes through.
//!
//! # Example: Sarathi vs. Sarathi+POD on a small offline batch
//!
//! ```
//! use gpu_sim::GpuConfig;
//! use llm_serving::{offline_long_context, ModelConfig, ServingConfig, ServingEngine};
//!
//! let model = ModelConfig::llama3_8b();
//! let gpu = GpuConfig::a100_80gb();
//! let requests = offline_long_context(8, 16 * 1024, 128);
//!
//! let sarathi = ServingEngine::new(ServingConfig::sarathi(model.clone(), gpu.clone(), 1024))
//!     .run(requests.clone());
//! let pod = ServingEngine::new(ServingConfig::sarathi_pod(model, gpu, 1024)).run(requests);
//! assert!(pod.makespan <= sarathi.makespan);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocks;
mod cluster;
mod engine;
mod fairness;
mod fasthash;
mod json;
mod linear;
mod metrics;
mod model;
mod request;
mod rng;
mod scheduler;
mod sketch;
mod speculative;
pub mod trace;
mod workload;

pub use blocks::{
    blocks_for, BlockId, BlockPool, Cursor, KvChain, PrefixIndex, PrefixMatch, BLOCK_TOKENS,
};
pub use cluster::{
    AdvanceProfile, AutoscalerConfig, Cluster, ClusterConfig, ClusterReport, KvMigration,
    ReplicaRole, RoleReport, RouterPolicy, LONG_PREFILL_TOKENS,
};
pub use engine::{
    AdmissionPolicy, IterationOutcome, IterationStats, KvCachePolicy, PrefillHandoff,
    ServingConfig, ServingEngine,
};
pub use fairness::FairQueueConfig;
pub use json::{JsonParseError, JsonValue};
pub use linear::{IterationBreakdown, IterationCostModel};
pub use metrics::{percentile, ServingReport, SloClassReport, SummaryStats, TenantReport};
pub use model::{ModelConfig, ParamCounts};
pub use request::{Phase, Priority, PromptContent, Request, RequestSpec, SloSpec, TenantId};
pub use rng::SplitMix64;
pub use scheduler::SchedulerKind;
pub use sketch::QuantileSketch;
pub use speculative::{AcceptanceModel, DecodeMode, DraftModelConfig};
pub use trace::{
    FlightRecording, SpanOutcomes, TimelineSummary, TraceConfig, TraceEvent, TraceEventKind,
    TraceRecorder,
};
pub use workload::{
    offline_long_context, pd_ratio_workload, RateSchedule, RateSegment, SharedPrefixWorkload,
    SloMix, TenantMix, TenantTraffic, Workload,
};

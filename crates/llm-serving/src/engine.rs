//! The iteration-level serving engine: admits requests, forms batches with a
//! scheduler, prices every iteration with the cost model, and tracks latency
//! metrics. This is the substrate for the end-to-end results of §5.2–§5.4
//! (Figures 12 and 15, Tables 5–7).
//!
//! The engine is **step-able**: [`ServingEngine::submit`] enqueues requests
//! and [`ServingEngine::step`] advances the simulation by exactly one
//! scheduler iteration, returning an [`IterationOutcome`]. The closed-world
//! [`ServingEngine::run`] is a thin loop over `step` and reproduces the
//! pre-stepping reports bit-for-bit; the multi-replica layer in
//! [`crate::Cluster`] interleaves many engines on a shared virtual clock
//! through the same `step` entry point.

use crate::blocks::{blocks_for, BlockId, BlockPool, Cursor, KvChain, PrefixMatch, BLOCK_TOKENS};
use crate::linear::IterationCostModel;
use crate::metrics::{ReportAccumulator, ServingCounters, ServingReport};
use crate::model::ModelConfig;
use crate::request::{Phase, Priority, Request, RequestSpec, TenantId};
use crate::scheduler::{plan_batch, AdmissionDecision, BatchPlan, SchedulerKind};
use crate::speculative::{AcceptanceModel, DecodeMode};
use crate::trace::{FlightRecording, TraceConfig, TraceEventKind, TraceRecorder};
use attn_kernels::{
    canonical_decodes, AttentionStrategy, DecodeRequest, HybridBatch, PrefillChunk,
};
use gpu_sim::GpuConfig;
use std::collections::{HashMap, VecDeque};

/// Upper bound on resident price-cache entries; reaching it clears the cache
/// (a trivially correct eviction policy — in practice serving sweeps produce
/// a few hundred distinct signatures, far below this).
const PRICE_CACHE_MAX_ENTRIES: usize = 1 << 16;

use attn_kernels::quantize_tokens;

/// Quantized signature of a hybrid batch, the key of the price cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BatchSignature {
    /// Prefill chunk length (0 when the batch has no prefill).
    chunk_len: usize,
    /// Quantized prior context of the prefill chunk.
    prior_bucket: usize,
    /// Number of decode requests.
    decode_count: usize,
    /// Quantized total decode context (the dominant decode cost term).
    decode_total_bucket: usize,
    /// Quantized maximum decode context (drives decode-kernel splits).
    decode_max_bucket: usize,
    /// Quantized shared-prefix decode KV tokens deduped this iteration
    /// (always 0 when dedup is off, so dedup-free runs key and price
    /// exactly as before the dimension existed).
    decode_dedup_bucket: usize,
    /// Quantized extra speculative-verify query tokens carried by the
    /// decode side (always 0 in autoregressive mode, so speculation-free
    /// runs key and price exactly as before the dimension existed).
    spec_bucket: usize,
}

impl BatchSignature {
    /// Compute the signature of the batch a plan describes without
    /// materializing the batch itself. `dedup_tokens` is the iteration's
    /// shared-prefix decode KV dedup total (0 unless the engine computed
    /// sharing groups for this plan).
    fn of_plan(plan: &BatchPlan, requests: &[Request], dedup_tokens: usize) -> Self {
        let (chunk_len, prior_bucket) = match plan.prefill {
            Some((rid, chunk)) => (chunk, quantize_tokens(requests[rid].prefilled)),
            None => (0, 0),
        };
        let mut total_ctx = 0usize;
        let mut max_ctx = 0usize;
        for &rid in &plan.decodes {
            let ctx = requests[rid].context_len().max(1);
            total_ctx += ctx;
            max_ctx = max_ctx.max(ctx);
        }
        BatchSignature {
            chunk_len,
            prior_bucket,
            decode_count: plan.decodes.len(),
            decode_total_bucket: quantize_tokens(total_ctx),
            decode_max_bucket: quantize_tokens(max_ctx),
            decode_dedup_bucket: quantize_tokens(dedup_tokens),
            spec_bucket: quantize_tokens(plan.spec_tokens),
        }
    }

    /// The canonical batch this signature represents: the batch every member
    /// of the equivalence class is priced as. The decode set comes from
    /// [`canonical_decodes`] — the same equivalence-class definition the
    /// estimator's decode-side memo prices in closed form — so both cache
    /// layers agree on what a signature means.
    fn canonical_batch(&self) -> HybridBatch {
        let prefill = if self.chunk_len > 0 {
            Some(PrefillChunk::new(self.chunk_len, self.prior_bucket))
        } else {
            None
        };
        HybridBatch {
            prefill,
            decodes: canonical_decodes(
                self.decode_count,
                self.decode_total_bucket,
                self.decode_max_bucket,
            ),
            kv_dedup_tokens: self.decode_dedup_bucket,
            spec_verify_tokens: self.spec_bucket,
        }
    }
}

/// How the engine manages KV-cache residency. Both policies hold blocks in
/// one [`crate::BlockPool`] through the same admission, adoption, growth,
/// release and export paths; they differ only in the size of a request's
/// grant and in whether its blocks are named or counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCachePolicy {
    /// Sarathi-Serve's conservative rule: a request is admitted only when
    /// its full prompt **plus expected output** fits, held as one counted
    /// grant (interchangeable blocks without identity, O(1) to take and
    /// return), so it never grows and is never preempted. The historical
    /// default; golden tests pin it bit-for-bit.
    Conservative,
    /// Paged residency: admission takes named blocks for the prompt only,
    /// decode tokens grow the request's block table on demand, and when
    /// growth exhausts the pool the most recently started decode is
    /// preempted (swap-out) and later restored by recomputing its KV.
    Paged {
        /// Whether prompts are matched against the radix prefix index so
        /// shared prefixes skip prefill (with copy-on-write on divergence
        /// and LRU eviction of dead prefixes). With this off, the paged
        /// policy is pure on-demand paging + preemption.
        prefix_caching: bool,
    },
}

/// The blocks a request's residency grant spans, and whether they are
/// named (listed in its block table: growable, shareable, indexable) or
/// counted (held without identity).
#[derive(Debug, Clone, Copy)]
struct Grant {
    blocks: usize,
    named: bool,
}

impl KvCachePolicy {
    /// Report-label fragment (empty for the conservative default).
    pub fn label_suffix(&self) -> &'static str {
        match self {
            KvCachePolicy::Conservative => "",
            KvCachePolicy::Paged {
                prefix_caching: false,
            } => "+paged",
            KvCachePolicy::Paged {
                prefix_caching: true,
            } => "+prefix",
        }
    }

    /// Whether this policy runs the prefix index.
    pub fn prefix_caching(&self) -> bool {
        matches!(
            self,
            KvCachePolicy::Paged {
                prefix_caching: true
            }
        )
    }

    /// The grant `req` needs to become resident, on admission (`import` is
    /// `None`) or when adopting a migrated-in KV chain — the one place the
    /// engine's KV paths consult the policy.
    ///
    /// * Conservative: the whole prompt plus expected output, counted.
    /// * Paged: named blocks for the prefill target *plus the first decode
    ///   round after it* (any prefix-cache hit supplies the leading ones):
    ///   one token autoregressively, the whole drafted width
    ///   (`spec_width(spec_k)`) under speculation. Completing the prefill
    ///   mints that round, and without room for its KV a restored request
    ///   self-preempts forever: the preemption frees exactly the blocks
    ///   re-admission then re-allocates, while (under the vLLM scheduler)
    ///   the restore prefill pauses every other decode, so nothing ever
    ///   progresses. Requiring the extra room up front turns that livelock
    ///   into a Defer, letting the running decodes drain and free real
    ///   capacity; it stays within the feasibility bound, since the width
    ///   never exceeds the remaining output. An adopted chain gets the same
    ///   extra room, so a fresh import cannot preempt itself on first
    ///   growth, and never fewer blocks than the chain itself.
    fn grant(&self, req: &Request, import: Option<&KvChain>, spec_k: usize) -> Grant {
        let width = req.spec_width(spec_k);
        match self {
            KvCachePolicy::Conservative => Grant {
                blocks: blocks_for(req.spec.total_tokens()),
                named: false,
            },
            KvCachePolicy::Paged { .. } => Grant {
                blocks: match import {
                    None => blocks_for(req.target_prefill() + width),
                    Some(chain) => blocks_for(req.context_len() + width).max(chain.blocks),
                },
                named: true,
            },
        }
    }
}

/// SLO-aware admission control: what to do with a queued request whose
/// deadline can no longer be met.
///
/// Serving a request that has already blown its TTFT deadline spends chunk
/// budget (and KV capacity) on work that can never count toward goodput —
/// and delays every request queued behind it, poisoning *their* deadlines
/// too. Shedding it instead keeps the batch budget on requests that can
/// still be good throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Serve every request regardless of deadlines — the historical default;
    /// golden tests pin it bit-for-bit.
    #[default]
    AdmitAll,
    /// Drop (shed) a request at the admission point if its TTFT deadline has
    /// already passed before any of its prompt was computed. Requests
    /// without an [`crate::SloSpec`] are never shed, and neither are
    /// preempted requests (they already produced their first token — the
    /// deadline was decided at first admission).
    DeadlineShed,
}

impl AdmissionPolicy {
    /// Whether `req` should be shed rather than admitted at time `now`.
    fn should_shed(&self, req: &Request, now: f64) -> bool {
        match self {
            AdmissionPolicy::AdmitAll => false,
            AdmissionPolicy::DeadlineShed => {
                req.first_token_time.is_none()
                    && req
                        .spec
                        .slo
                        .is_some_and(|slo| now > req.spec.arrival + slo.ttft_deadline)
            }
        }
    }

    /// Report-label fragment (empty for the admit-all default).
    pub fn label_suffix(&self) -> &'static str {
        match self {
            AdmissionPolicy::AdmitAll => "",
            AdmissionPolicy::DeadlineShed => "+shed",
        }
    }
}

/// Multi-tenant fair-queueing configuration: weighted deficit round-robin
/// over queued prefill work, plus (optionally) priority preemption.
///
/// When attached to a config via [`ServingConfig::with_fair_queue`], the
/// engine keeps a **virtual-token counter per tenant**: every prefill token
/// scheduled for a tenant's request advances that tenant's counter by
/// `1 / weight`, and each iteration the waiting-queue front is given to the
/// tenant with the smallest counter (FIFO within a tenant, smallest
/// [`TenantId`] on exact ties). Heavy tenants thus accumulate virtual time
/// fast and yield the chunked-prefill slot; a tenant that was idle re-enters
/// at the current virtual floor, so credit cannot be banked while away.
///
/// With a single tenant (or when no config is attached) the selection
/// degenerates to plain FCFS and the engine's behavior is **bit-for-bit
/// identical** to a fairness-free run — the inertness pin the golden tests
/// and `fig20_fairness` rely on.
///
/// `preempt_priorities` additionally lets a strictly higher-[`Priority`]
/// request at the queue front evict lower-priority running decodes through
/// the existing paged preemption path (swap-out + recompute) when the block
/// pool is what blocks its admission. Requires [`KvCachePolicy::Paged`];
/// under the conservative policy the flag is ignored (there is no preemption
/// path to reuse). The **admitted** request records each eviction it caused
/// in [`Request::preemptions_inflicted`]; memory-pressure preemptions (decode
/// growth against a full pool) have no single inflictor and are attributed
/// to nobody.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FairQueueConfig {
    /// `(tenant, weight)` overrides; any tenant not listed has weight 1.
    /// Larger weight = larger guaranteed share of prefill slots.
    weights: Vec<(TenantId, f64)>,
    /// Whether higher-priority queue fronts may evict lower-priority running
    /// decodes (paged policy only).
    pub preempt_priorities: bool,
}

impl FairQueueConfig {
    /// Fair queueing with equal weights for every tenant and no priority
    /// preemption.
    pub fn new() -> Self {
        FairQueueConfig::default()
    }

    /// The same configuration with `tenant`'s weight set to `weight`
    /// (relative to the default of 1 for unlisted tenants).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn with_weight(mut self, tenant: TenantId, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "tenant weights must be positive and finite"
        );
        match self.weights.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => self.weights[i].1 = weight,
            Err(i) => self.weights.insert(i, (tenant, weight)),
        }
        self
    }

    /// The same configuration with priority preemption on or off.
    pub fn with_priority_preemption(mut self, on: bool) -> Self {
        self.preempt_priorities = on;
        self
    }

    /// The weight of `tenant` (1 unless overridden).
    pub fn weight(&self, tenant: TenantId) -> f64 {
        self.weights
            .binary_search_by_key(&tenant, |&(t, _)| t)
            .map(|i| self.weights[i].1)
            .unwrap_or(1.0)
    }

    /// Report-label fragment for a config that carries fair queueing.
    pub fn label_suffix(&self) -> &'static str {
        "+fair"
    }
}

/// Full configuration of a serving system under test.
///
/// # Builder surface
///
/// Start from a named baseline — [`ServingConfig::vllm`],
/// [`ServingConfig::sarathi`] or [`ServingConfig::sarathi_pod`] — then
/// layer optional subsystems with the `with_*` methods, each of which
/// consumes and returns the config so they chain:
///
/// * [`ServingConfig::with_paged_kv`] — paged KV blocks / prefix caching
/// * [`ServingConfig::with_admission`] — SLO-aware shedding
/// * [`ServingConfig::with_streaming_metrics`] — constant-memory reports
/// * [`ServingConfig::with_fair_queue`] — multi-tenant fairness / priorities
///
/// [`ClusterConfig`](crate::ClusterConfig) wraps a `ServingConfig` for a
/// replica fleet and follows the same convention
/// ([`ClusterConfig::with_roles`](crate::ClusterConfig::with_roles),
/// [`ClusterConfig::with_autoscaler`](crate::ClusterConfig::with_autoscaler),
/// [`ClusterConfig::with_fair_queue`](crate::ClusterConfig::with_fair_queue)),
/// as does per-request construction via [`RequestSpec::new`](crate::RequestSpec::new)
/// and its `with_*` setters.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The model being served.
    pub model: ModelConfig,
    /// The GPU (one tensor-parallel shard) it runs on.
    pub gpu: GpuConfig,
    /// Batch-formation policy.
    pub scheduler: SchedulerKind,
    /// How hybrid-batch attention is computed.
    pub attention: AttentionStrategy,
    /// Maximum concurrent requests in the decode phase.
    pub max_batch_size: usize,
    /// Override for the KV-cache capacity in tokens (defaults to what fits in
    /// HBM after weights).
    pub kv_capacity_tokens: Option<usize>,
    /// Whether the engine memoizes iteration prices by quantized batch
    /// signature. Defaults to on; set it to `false` to price every iteration
    /// exactly (e.g. when validating the quantization error).
    pub price_cache: bool,
    /// KV-cache residency policy (conservative admission vs. paged blocks
    /// with prefix sharing and preemption).
    pub kv_policy: KvCachePolicy,
    /// Prefix-shared decode attention (CoDec-style KV dedup): each
    /// iteration, resident decodes holding the same shared-prefix block
    /// chain are grouped, the scheduler co-batches each group contiguously,
    /// and the batch is priced with the group's shared KV streamed once
    /// instead of once per member (see
    /// [`HybridBatch::kv_dedup_tokens`](attn_kernels::HybridBatch)). Only
    /// active under [`KvCachePolicy::Paged`] with prefix caching — the
    /// prefix index is where sharing is proven — and ignored otherwise.
    /// Defaults to off, which is bit-for-bit inert.
    pub decode_dedup: bool,
    /// SLO-aware admission control (shed vs. serve requests whose deadlines
    /// are already unmeetable). Defaults to [`AdmissionPolicy::AdmitAll`].
    pub admission: AdmissionPolicy,
    /// Which sample store the report's one grader uses. Off (the default):
    /// requests keep their token times and are graded at report time into
    /// exact stores, the output the golden tests pin bit for bit. On:
    /// each request is graded into [`crate::QuantileSketch`] stores the
    /// moment it finishes or is shed, and its per-token sample buffer is
    /// dropped, so memory stays constant in trace length. Counts, means,
    /// maxima and SLO tallies are the same either way; on, percentiles are
    /// within the sketch's documented error bound. Fleet-scale trace replay
    /// turns this on.
    pub streaming_metrics: bool,
    /// How decode rounds mint tokens: plain autoregressive (the default,
    /// bit-for-bit pinned by the golden tests) or speculative
    /// draft-then-verify (see [`DecodeMode`] and
    /// [`ServingConfig::with_speculative`]). In speculative mode every
    /// resident decode proposes up to `k` draft tokens per round on the
    /// draft model, the verify step rides the hybrid batch as extra
    /// prefill-shaped query tokens budgeted against the Sarathi chunk, and
    /// rejected suffixes roll back through the paged-KV free paths.
    pub decode_mode: DecodeMode,
    /// Multi-tenant fair queueing and priority preemption. Defaults to
    /// `None` (plain FCFS admission) — the inert default the golden tests
    /// pin bit-for-bit; see [`FairQueueConfig`].
    pub fair_queue: Option<FairQueueConfig>,
    /// Request-lifecycle tracing into a per-replica flight recorder (see
    /// [`crate::trace`]). Defaults to `None`: no recorder is allocated, no
    /// event is constructed, and the simulation is bit-for-bit identical to
    /// an untraced run — tracing is purely observational either way, so the
    /// *report* is identical even when this is `Some`.
    pub tracing: Option<TraceConfig>,
}

impl ServingConfig {
    /// The original vLLM baseline: prefill-prioritizing scheduling with
    /// FlashAttention kernels.
    pub fn vllm(model: ModelConfig, gpu: GpuConfig) -> Self {
        ServingConfig {
            model,
            gpu,
            scheduler: SchedulerKind::Vllm,
            attention: AttentionStrategy::FaSerial,
            max_batch_size: 256,
            kv_capacity_tokens: None,
            price_cache: true,
            kv_policy: KvCachePolicy::Conservative,
            decode_dedup: false,
            admission: AdmissionPolicy::AdmitAll,
            streaming_metrics: false,
            decode_mode: DecodeMode::Autoregressive,
            fair_queue: None,
            tracing: None,
        }
    }

    /// Sarathi-Serve with FlashAttention kernels (the paper's "Sarathi").
    pub fn sarathi(model: ModelConfig, gpu: GpuConfig, chunk_size: usize) -> Self {
        ServingConfig {
            model,
            gpu,
            scheduler: SchedulerKind::Sarathi { chunk_size },
            attention: AttentionStrategy::FaSerial,
            max_batch_size: 256,
            kv_capacity_tokens: None,
            price_cache: true,
            kv_policy: KvCachePolicy::Conservative,
            decode_dedup: false,
            admission: AdmissionPolicy::AdmitAll,
            streaming_metrics: false,
            decode_mode: DecodeMode::Autoregressive,
            fair_queue: None,
            tracing: None,
        }
    }

    /// Sarathi-Serve with POD-Attention (the paper's "Sarathi+POD").
    pub fn sarathi_pod(model: ModelConfig, gpu: GpuConfig, chunk_size: usize) -> Self {
        ServingConfig {
            attention: AttentionStrategy::Pod,
            ..ServingConfig::sarathi(model, gpu, chunk_size)
        }
    }

    /// The same configuration on the paged KV policy, with or without prefix
    /// caching.
    pub fn with_paged_kv(mut self, prefix_caching: bool) -> Self {
        self.kv_policy = KvCachePolicy::Paged { prefix_caching };
        self
    }

    /// The same configuration with prefix-shared decode attention (KV
    /// dedup) on or off (see [`ServingConfig::decode_dedup`]). Takes effect
    /// only under the paged KV policy with prefix caching
    /// ([`ServingConfig::with_paged_kv`] with `prefix_caching = true`).
    pub fn with_decode_dedup(mut self, dedup: bool) -> Self {
        self.decode_dedup = dedup;
        self
    }

    /// The same configuration with an SLO-aware admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// The same configuration with streaming constant-memory metrics on or
    /// off (see [`ServingConfig::streaming_metrics`]).
    pub fn with_streaming_metrics(mut self, streaming: bool) -> Self {
        self.streaming_metrics = streaming;
        self
    }

    /// The same configuration decoding speculatively: every decode round
    /// drafts `k` tokens on `draft` (a scaled-down copy of the target
    /// model), verifies them in one prefill-shaped op inside the hybrid
    /// batch, and keeps the prefix `acceptance` accepts (plus the target's
    /// correction token on the first rejection). See [`DecodeMode`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero (a zero-depth round is plain autoregressive
    /// decode; use the default mode for that).
    pub fn with_speculative(
        mut self,
        k: usize,
        draft: crate::DraftModelConfig,
        acceptance: AcceptanceModel,
    ) -> Self {
        assert!(k > 0, "speculation depth must be at least 1");
        self.decode_mode = DecodeMode::Speculative {
            k,
            draft,
            acceptance,
        };
        self
    }

    /// The same configuration with multi-tenant fair queueing (and, per the
    /// [`FairQueueConfig`], priority preemption) attached.
    pub fn with_fair_queue(mut self, fair_queue: FairQueueConfig) -> Self {
        self.fair_queue = Some(fair_queue);
        self
    }

    /// The same configuration with request-lifecycle tracing into a flight
    /// recorder (see [`crate::trace`]). Collect the recording after a run
    /// with [`ServingEngine::flight_recording`] (or
    /// [`Cluster::flight_recording`](crate::Cluster::flight_recording) for a
    /// fleet). Tracing never changes simulation outcomes; its only costs are
    /// recorder memory (bounded by [`TraceConfig::capacity`]) and the
    /// recording time itself.
    pub fn with_tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// Label used in reports, e.g. `"Sarathi(chunk=1024)+POD"` (with
    /// `"+paged"` / `"+prefix"` appended for the paged KV policies,
    /// `"+dedup"` for prefix-shared decode, `"+shed"` for deadline-shedding
    /// admission, `"+fair"` for fair-queueing configs, and `"+spec"` for
    /// speculative decode).
    pub fn system_label(&self) -> String {
        let kv = self.kv_policy.label_suffix();
        let dedup = if self.decode_dedup && self.kv_policy.prefix_caching() {
            "+dedup"
        } else {
            ""
        };
        let adm = self.admission.label_suffix();
        let fair = self.fair_queue.as_ref().map_or("", |f| f.label_suffix());
        let spec = if self.decode_mode.is_speculative() {
            "+spec"
        } else {
            ""
        };
        let attn = match self.attention {
            AttentionStrategy::Pod => "+POD",
            AttentionStrategy::FaSerial => "",
            other => {
                return format!(
                    "{}[{}]{}{}{}{}{}",
                    self.scheduler.label(),
                    other,
                    kv,
                    dedup,
                    adm,
                    fair,
                    spec
                )
            }
        };
        format!(
            "{}{}{}{}{}{}{}",
            self.scheduler.label(),
            attn,
            kv,
            dedup,
            adm,
            fair,
            spec
        )
    }
}

/// What one call to [`ServingEngine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterationOutcome {
    /// One scheduler iteration executed.
    Ran(IterationStats),
    /// Nothing is runnable right now, but a submitted request arrives at the
    /// given simulated time; call `step` again at (or after) that time.
    IdleUntil(f64),
    /// Every submitted request has finished.
    Drained,
    /// Requests are queued but the front one can never be admitted: it needs
    /// more KV-cache capacity than the GPU offers. A configuration error
    /// rather than a load condition.
    Blocked {
        /// KV-cache tokens the stuck request needs.
        needed_tokens: usize,
        /// Total KV-cache capacity of the replica.
        capacity_tokens: usize,
    },
}

/// Per-iteration accounting returned by [`ServingEngine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationStats {
    /// Simulated time at which the iteration started.
    pub started_at: f64,
    /// Simulated time at which the iteration completed (the engine clock).
    pub completed_at: f64,
    /// Modeled execution time of the iteration in seconds.
    pub duration: f64,
    /// Whether the batch carried both a prefill chunk and decodes.
    pub hybrid: bool,
    /// Prefill tokens processed this iteration.
    pub prefill_tokens: usize,
    /// Decode tokens generated this iteration.
    pub decode_tokens: usize,
    /// Requests that reached their final token this iteration.
    pub newly_finished: usize,
}

/// A completed prefill packaged for migration to a decode replica
/// (disaggregated serving): the request record — with its latency
/// bookkeeping, since TTFT was stamped when this replica minted the first
/// token — plus the serialized KV chain and the timing the cluster's
/// migration cost model prices the transfer from.
#[derive(Debug, Clone)]
pub struct PrefillHandoff {
    /// The request, prefill complete and first token minted.
    pub request: Request,
    /// Serialized KV chain (context tokens and the blocks backing them).
    pub chain: KvChain,
    /// Simulated time the prefill completed; the transfer starts no earlier.
    pub export_time: f64,
    /// Seconds the prefill computation spanned on the source replica — the
    /// window a layer-wise-streaming transfer can overlap with compute
    /// (ISO-style), since each layer's KV is final as soon as it is
    /// computed.
    pub prefill_window: f64,
}

/// A migrated-in request waiting for its KV transfer to complete and for
/// residency on this replica.
#[derive(Debug, Clone)]
struct PendingImport {
    /// When the KV chain finishes arriving (per the migration cost model).
    available_at: f64,
    request: Request,
    chain: KvChain,
}

/// One request's KV residency: the grant it holds — named blocks (paged) or
/// a counted block grant (conservative) — and how far its named chain is
/// registered in the prefix index. Empty (the default) while the request
/// holds nothing: queued, preempted, finished or exported.
#[derive(Debug, Clone, Default)]
struct Residency {
    /// Named blocks backing this request's context, in stream order. The
    /// leading `shared` entries were acquired from the prefix cache.
    blocks: Vec<BlockId>,
    /// Blocks of a counted grant.
    counted: usize,
    /// Trie position after the last indexed block.
    cursor: Cursor,
    /// Leading blocks registered in the prefix index (shared or own).
    indexed: usize,
    /// Leading blocks acquired from the cache at admission.
    shared: usize,
    /// Indexing hit an existing equal chain (a concurrent identical prompt
    /// won the race); further blocks stay private.
    index_stalled: bool,
}

impl Residency {
    /// Whether the request holds a grant: it was admitted (or adopted from
    /// a migration) and has not released it since.
    fn is_held(&self) -> bool {
        self.counted > 0 || !self.blocks.is_empty()
    }

    /// Blocks the grant spans, named or counted.
    fn held_blocks(&self) -> usize {
        self.counted + self.blocks.len()
    }

    /// Identity of the shared-prefix chain acquired at admission, in O(1):
    /// a referenced block backs exactly one trie node, so the last shared
    /// block fixes the whole path. Callers skip tables with `shared == 0`.
    fn shared_chain_key(&self) -> (usize, BlockId) {
        (self.shared, self.blocks[self.shared - 1])
    }

    /// Take `n` more blocks from `pool`: named ones are appended to the
    /// block table, counted ones to the count. Returns `false`, taking
    /// nothing, when even eviction cannot make room.
    fn take(&mut self, pool: &mut BlockPool, n: usize, named: bool) -> bool {
        if !named {
            let granted = pool.alloc_counted(n);
            if granted {
                self.counted += n;
            }
            return granted;
        }
        pool.alloc_into(n, &mut self.blocks)
    }
}

/// Mutable simulation state of one replica: queues, KV cache, clock and the
/// price cache. Kept separate from the engine's immutable configuration so
/// `step` can borrow the cost model and the state independently.
#[derive(Debug, Clone)]
struct EngineState {
    requests: Vec<Request>,
    /// Request ids sorted by arrival time, not yet visible to the scheduler.
    arrivals: VecDeque<usize>,
    waiting: VecDeque<usize>,
    running: Vec<usize>,
    /// KV residency, parallel to `requests`.
    tables: Vec<Residency>,
    pool: BlockPool,
    clock: f64,
    price_cache: HashMap<BatchSignature, f64>,
    /// The report's engine-side tallies (`blocks_evicted` lives in `pool`
    /// and is filled in by [`ServingEngine::counters`]).
    counters: ServingCounters,
    /// Requests that completed prefill and are parked for migration pickup
    /// (prefill-export mode only), with their already-serialized KV chains.
    /// The KV residency is released the moment a request parks — the
    /// transfer is modeled as overlappable communication that does not
    /// occupy source HBM — so parked exports can never deadlock admission.
    pending_export: Vec<(usize, KvChain)>,
    /// Migrated-in requests waiting on transfer completion / residency,
    /// ordered by `available_at` (ties keep insertion order).
    pending_imports: VecDeque<PendingImport>,
    /// Streaming-metrics accumulator (`Some` exactly when the config's
    /// `streaming_metrics` is on): finished and shed requests fold in here
    /// the moment they happen, after which their token-time buffers are
    /// dropped.
    accumulator: Option<ReportAccumulator>,
    /// Token-time samples currently buffered across this replica's request
    /// records — the resident sample memory proxy (8 bytes each).
    live_token_samples: usize,
    /// High-water mark of `live_token_samples`. In streaming mode this stays
    /// bounded by in-flight work instead of growing with the whole trace.
    peak_token_samples: usize,
    /// Per-tenant virtual-token counters for fair queueing, sorted by tenant
    /// id (empty and untouched unless the config carries a
    /// [`FairQueueConfig`]). A tenant's counter advances by
    /// `scheduled prefill tokens / weight`.
    fair_vtime: Vec<(TenantId, f64)>,
    /// Monotone floor of the virtual clock: the smallest counter among
    /// tenants competing at the most recent selection. Tenants activating
    /// (first request, or returning from idle) are lifted to it so virtual
    /// time cannot be banked while away.
    fair_floor: f64,
    /// Flight recorder (`Some` exactly when the config carries a
    /// [`TraceConfig`]): every lifecycle / iteration / KV / migration event
    /// lands here, stamped on the virtual clock. Purely observational —
    /// nothing in the simulation reads it back.
    recorder: Option<TraceRecorder>,
}

impl EngineState {
    fn new(kv_capacity: usize, config: &ServingConfig) -> Self {
        EngineState {
            requests: Vec::new(),
            arrivals: VecDeque::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            tables: Vec::new(),
            pool: BlockPool::new(kv_capacity),
            clock: 0.0,
            price_cache: HashMap::new(),
            counters: ServingCounters::default(),
            pending_export: Vec::new(),
            pending_imports: VecDeque::new(),
            accumulator: config.streaming_metrics.then(ReportAccumulator::sketch),
            live_token_samples: 0,
            peak_token_samples: 0,
            fair_vtime: Vec::new(),
            fair_floor: 0.0,
            recorder: config.tracing.clone().map(TraceRecorder::new),
        }
    }

    /// Record one trace event at time `t` if tracing is on — the single
    /// choke point every instrumentation site goes through, so tracing off
    /// is one branch on a `None`.
    #[inline]
    fn trace(&mut self, t: f64, kind: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(t, kind());
        }
    }

    /// Mutable virtual-time counter of `tenant`, created at the current
    /// floor on first sight (the activation lift).
    fn fair_vtime_entry(&mut self, tenant: TenantId) -> &mut f64 {
        let i = match self.fair_vtime.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => i,
            Err(i) => {
                self.fair_vtime.insert(i, (tenant, self.fair_floor));
                i
            }
        };
        &mut self.fair_vtime[i].1
    }

    /// Return `rid`'s whole grant, named and counted alike, to the pool,
    /// leaving its residency empty.
    fn release_residency(&mut self, rid: usize) -> Residency {
        let table = std::mem::take(&mut self.tables[rid]);
        self.pool.release(&table.blocks);
        self.pool.release_counted(table.counted);
        table
    }

    /// Release `rid`'s grant, tracing the named blocks it frees (a counted
    /// grant is not block traffic and emits no KV event).
    fn free_residency(&mut self, rid: usize) {
        let freed = self.release_residency(rid).blocks.len();
        if freed > 0 {
            let t = self.clock;
            self.trace(t, || TraceEventKind::KvFree {
                request: rid,
                blocks: freed,
            });
        }
    }

    /// Preempt a decoding request: reclaim its blocks (indexed ones stay
    /// cached for its own restore or other sharers), move it to the front of
    /// the waiting queue, and mark the full recompute it owes.
    fn preempt(&mut self, rid: usize) {
        let t = self.clock;
        self.trace(t, || TraceEventKind::Preempt { request: rid });
        self.free_residency(rid);
        self.requests[rid].preempt();
        self.running.retain(|&r| r != rid);
        // Re-queue ahead of unadmitted work but *behind* any already-admitted
        // (mid-prefill) request: that one holds blocks, and only the queue
        // front ever gets scheduled — parking an unadmittable victim in front
        // of it would starve the one request able to free capacity.
        let at = self
            .waiting
            .iter()
            .take_while(|&&r| self.tables[r].is_held())
            .count();
        self.waiting.insert(at, rid);
        self.counters.preemptions += 1;
    }

    /// Ensure every request that will decode this iteration has a block for
    /// its next token — or, in speculative mode, for its whole drafted
    /// width of up to `spec_k` tokens (speculative allocation; the rejected
    /// tail is released after verification) — preempting the most recently
    /// started decodes when the pool is exhausted (LIFO victim selection:
    /// the youngest decode loses the least recomputation). `spec_k = 0`
    /// (autoregressive) grows by exactly one token, bit-for-bit the
    /// pre-speculation arithmetic. A counted grant already spans the whole
    /// output, so it never grows.
    fn grow_decode_blocks(&mut self, decode_cap: usize, spec_k: usize) {
        let mut i = 0;
        while i < self.running.len().min(decode_cap) {
            let rid = self.running[i];
            let width = self.requests[rid].spec_width(spec_k);
            let needed = blocks_for(self.requests[rid].context_len() + width);
            let held = self.tables[rid].held_blocks();
            if held >= needed || self.tables[rid].take(&mut self.pool, needed - held, true) {
                i += 1;
            } else {
                // Shed the newest decode and retry; if that is the very
                // request being grown, it preempts itself.
                let victim = *self.running.last().expect("rid is in running");
                self.preempt(victim);
            }
        }
    }

    /// Co-batching hint for prefix-shared decode: stably reorder the running
    /// decode set so requests holding the same shared-prefix block chain sit
    /// contiguously, in order of each group's first member. Requests with no
    /// shared blocks are singleton groups at their own positions, so the
    /// permutation is the identity unless at least two residents actually
    /// share a chain. Running this *before* decode growth and planning keeps
    /// the growth set, the Sarathi decode cap and the LIFO preemption victim
    /// all consistent with the co-batched order.
    fn cobatch_shared_prefixes(&mut self) {
        let mut group_of: HashMap<(usize, BlockId), usize> = HashMap::new();
        let mut next_group = 0usize;
        let mut ranked: Vec<(usize, usize, usize)> = Vec::with_capacity(self.running.len());
        for (i, &rid) in self.running.iter().enumerate() {
            let table = &self.tables[rid];
            let group = if table.shared == 0 {
                let g = next_group;
                next_group += 1;
                g
            } else {
                *group_of.entry(table.shared_chain_key()).or_insert_with(|| {
                    let g = next_group;
                    next_group += 1;
                    g
                })
            };
            ranked.push((group, i, rid));
        }
        // Lexicographic (group, original position): stable by construction.
        ranked.sort_unstable();
        let reordered: Vec<usize> = ranked.into_iter().map(|(_, _, rid)| rid).collect();
        self.running = reordered;
    }

    /// Per-iteration shared-prefix dedup summary of the planned decode set:
    /// `(groups, tokens)` where `groups` counts shared-block chains held by
    /// at least two of this iteration's decodes and `tokens` is the decode
    /// KV the grouped pass does **not** re-read — `(members − 1) × shared
    /// tokens` summed over those groups. Requests whose admission acquired
    /// no cached blocks (`shared == 0`) never group.
    fn shared_decode_dedup(&self, decodes: &[usize]) -> (usize, usize) {
        let mut chains: HashMap<(usize, BlockId), usize> = HashMap::new();
        for &rid in decodes {
            let table = &self.tables[rid];
            if table.shared == 0 {
                continue;
            }
            *chains.entry(table.shared_chain_key()).or_insert(0) += 1;
        }
        let mut groups = 0usize;
        let mut tokens = 0usize;
        for ((shared, _), members) in chains {
            if members > 1 {
                groups += 1;
                tokens += (members - 1) * shared * BLOCK_TOKENS;
            }
        }
        (groups, tokens)
    }

    /// Register this request's newly computed full blocks in the prefix
    /// index (no-op for opaque content or once indexing stalled on an
    /// existing equal chain).
    fn index_computed_blocks(&mut self, rid: usize) {
        let req = &self.requests[rid];
        if !req.spec.content.is_shareable() || self.tables[rid].index_stalled {
            return;
        }
        let computed_full = (req.context_len() / BLOCK_TOKENS).min(self.tables[rid].blocks.len());
        let table = &mut self.tables[rid];
        if computed_full > table.indexed {
            let want = computed_full - table.indexed;
            let (cursor, registered) = self.pool.extend_index(
                table.cursor,
                req.spec.content,
                table.indexed,
                &table.blocks[table.indexed..computed_full],
            );
            table.cursor = cursor;
            table.indexed += registered;
            table.index_stalled = registered < want;
        }
    }
}

/// The serving simulator for one replica.
///
/// Two ways to drive it:
///
/// * **Closed world** — [`ServingEngine::run`] serves a whole workload to
///   completion and returns the aggregated [`ServingReport`].
/// * **Stepping** — [`ServingEngine::submit`] requests (in arrival order) and
///   [`ServingEngine::step`] one iteration at a time; `run` is itself a loop
///   over `step`, so the two produce identical reports. Stepping is what the
///   multi-replica [`crate::Cluster`] layer builds on.
///
/// # Examples
///
/// ```
/// use gpu_sim::GpuConfig;
/// use llm_serving::{ModelConfig, RequestSpec, ServingConfig, ServingEngine};
///
/// let config = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024);
/// let engine = ServingEngine::new(config);
/// let requests = vec![RequestSpec::new(0.0, 4096, 64); 4];
/// let report = engine.run(requests);
/// assert_eq!(report.completed, 4);
/// ```
///
/// Stepping the same workload by hand:
///
/// ```
/// use gpu_sim::GpuConfig;
/// use llm_serving::{IterationOutcome, ModelConfig, RequestSpec, ServingConfig, ServingEngine};
///
/// let config = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024);
/// let mut engine = ServingEngine::new(config);
/// for spec in vec![RequestSpec::new(0.0, 4096, 64); 4] {
///     engine.submit(spec);
/// }
/// loop {
///     match engine.step(engine.clock()) {
///         IterationOutcome::Ran(_) => {}
///         IterationOutcome::IdleUntil(t) => { engine.step(t); }
///         IterationOutcome::Drained => break,
///         IterationOutcome::Blocked { .. } => panic!("undersized KV cache"),
///     }
/// }
/// assert_eq!(engine.report().completed, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServingEngine {
    config: ServingConfig,
    cost: IterationCostModel,
    /// Iteration cost model of the draft model (`Some` exactly when the
    /// config decodes speculatively with a non-free drafter): prices the
    /// `k` draft proposal passes each speculative round runs before its
    /// verify step.
    draft_cost: Option<IterationCostModel>,
    kv_capacity: usize,
    /// Prefill-only mode (disaggregated serving): requests that complete
    /// their prefill here are parked for [`ServingEngine::take_ready_handoffs`]
    /// instead of decoding locally.
    export_prefills: bool,
    state: EngineState,
}

impl ServingEngine {
    /// Create an engine from a configuration, with an empty request queue.
    pub fn new(config: ServingConfig) -> Self {
        // `price_cache` gates both memoization layers: the engine's
        // batch-signature cache and the estimator's side-cost memo.
        let cost_model = |model: ModelConfig| {
            if config.price_cache {
                IterationCostModel::new(model, config.gpu.clone())
            } else {
                IterationCostModel::exact(model, config.gpu.clone())
            }
        };
        let cost = cost_model(config.model.clone());
        // The drafter is priced through the same estimator stack as the
        // target, just over a scaled-down model. A free drafter (scale 0)
        // resolves to no model and costs exactly nothing.
        let draft_cost = match &config.decode_mode {
            DecodeMode::Autoregressive => None,
            DecodeMode::Speculative { draft, .. } => draft.resolve(&config.model).map(cost_model),
        };
        let kv_capacity = config
            .kv_capacity_tokens
            .unwrap_or_else(|| config.model.kv_cache_capacity_tokens(&config.gpu));
        let state = EngineState::new(kv_capacity, &config);
        ServingEngine {
            config,
            cost,
            draft_cost,
            kv_capacity,
            export_prefills: false,
            state,
        }
    }

    /// Put this replica in (or out of) prefill-only mode: with exporting on,
    /// a request that completes its prefill — first token minted, TTFT
    /// stamped — is parked for [`ServingEngine::take_ready_handoffs`]
    /// instead of entering the local decode set. The cluster layer sets this
    /// for [`crate::ReplicaRole::PrefillOnly`] replicas.
    pub fn set_export_prefills(&mut self, export: bool) {
        self.export_prefills = export;
    }

    /// Whether this replica exports completed prefills instead of decoding.
    pub fn exports_prefills(&self) -> bool {
        self.export_prefills
    }

    /// The draft width KV grants reserve room for (see
    /// [`KvCachePolicy::grant`]). A prefill-only replica exports every
    /// prefill and never decodes, so its grants keep the single token.
    fn grant_spec_k(&self) -> usize {
        if self.export_prefills {
            0
        } else {
            self.config.decode_mode.spec_k()
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Total KV-cache capacity of this replica in tokens.
    pub fn kv_capacity_tokens(&self) -> usize {
        self.kv_capacity
    }

    /// Current simulated time: the completion time of the last iteration this
    /// engine executed (0 before the first).
    pub fn clock(&self) -> f64 {
        self.state.clock
    }

    /// Total modeled execution time across all iterations so far. The
    /// difference between [`clock`](Self::clock) and this is time the replica
    /// sat idle waiting for arrivals.
    pub fn busy_time(&self) -> f64 {
        self.state.counters.busy_time
    }

    /// Submit one request for serving and return its id within this engine.
    /// Requests may be submitted at any point between steps; arrival times
    /// are honored (a request is invisible to the scheduler until the clock
    /// reaches its arrival).
    ///
    /// # Panics
    ///
    /// Panics on a NaN arrival time (it would never compare as due and the
    /// engine could never drain).
    pub fn submit(&mut self, spec: RequestSpec) -> usize {
        assert!(!spec.arrival.is_nan(), "arrival times must not be NaN");
        let id = self.state.requests.len();
        self.state.requests.push(Request::new(id, spec));
        self.state.tables.push(Residency::default());
        // Keep the pending-arrival queue sorted; insertion after equal
        // arrivals preserves submission order for ties, matching the stable
        // sort the closed-world `run` historically used.
        let at = self
            .state
            .arrivals
            .partition_point(|&r| self.state.requests[r].spec.arrival <= spec.arrival);
        self.state.arrivals.insert(at, id);
        id
    }

    /// Requests submitted so far (finished or not), in submission order.
    pub fn requests(&self) -> &[Request] {
        &self.state.requests
    }

    /// Pull every request that has not started (no KV residency, no tokens
    /// computed) out of this replica's queues and return its spec, marking
    /// the local record as reassigned. The cluster autoscaler calls this
    /// when draining a replica for scale-in: the in-flight requests (admitted
    /// mid-prefill or decoding) stay and finish here, while the returned
    /// specs are re-routed to surviving replicas. Returned in queue order
    /// (waiting front first, then not-yet-due arrivals by arrival time).
    pub fn reclaim_unstarted(&mut self) -> Vec<RequestSpec> {
        let st = &mut self.state;
        let mut specs = Vec::new();
        let mut kept = VecDeque::new();
        for &rid in &st.waiting {
            if st.tables[rid].is_held() {
                kept.push_back(rid);
            } else {
                st.requests[rid].reassigned = true;
                specs.push(st.requests[rid].spec);
            }
        }
        st.waiting = kept;
        for &rid in &st.arrivals {
            st.requests[rid].reassigned = true;
            specs.push(st.requests[rid].spec);
        }
        st.arrivals.clear();
        specs
    }

    /// Take every request that completed its prefill since the last call and
    /// package each as a [`PrefillHandoff`]: its KV residency is released
    /// here (serialized into the handoff's [`KvChain`]; blocks already
    /// registered in the prefix index stay cached for future sharers), the
    /// local record is marked migrated-out and excluded from this replica's
    /// metrics, and the returned handoffs carry the latency bookkeeping to
    /// the decode replica. Only meaningful in prefill-export mode.
    pub fn take_ready_handoffs(&mut self) -> Vec<PrefillHandoff> {
        let st = &mut self.state;
        let mut out = Vec::with_capacity(st.pending_export.len());
        for (rid, chain) in std::mem::take(&mut st.pending_export) {
            let export_time = st.requests[rid]
                .first_token_time
                .expect("exported requests completed their prefill");
            let prefill_window =
                export_time - st.requests[rid].prefill_start_time.unwrap_or(export_time);
            let request = st.requests[rid].clone();
            st.requests[rid].migrated_out = true;
            st.counters.migrated_out_requests += 1;
            st.counters.migrated_tokens += chain.tokens;
            out.push(PrefillHandoff {
                request,
                chain,
                export_time,
                prefill_window,
            });
        }
        out
    }

    /// Hand a migrated request to this replica: its KV chain finishes
    /// arriving at `available_at` (as priced by the cluster's migration
    /// model), after which the next [`ServingEngine::step`] adopts the chain
    /// into the local KV cache and resumes decoding. If the cache is full at
    /// delivery, the import waits for residents to finish (the waiting time
    /// is accounted as migration stall).
    ///
    /// # Panics
    ///
    /// Panics if the handoff's request is not prefill-complete.
    pub fn import_handoff(&mut self, handoff: PrefillHandoff, available_at: f64) {
        assert_eq!(
            handoff.request.phase(),
            Phase::Decoding,
            "only prefill-complete requests migrate"
        );
        let at = self
            .state
            .pending_imports
            .partition_point(|imp| imp.available_at <= available_at);
        self.state.pending_imports.insert(
            at,
            PendingImport {
                available_at,
                request: handoff.request,
                chain: handoff.chain,
            },
        );
    }

    /// Completed prefills parked for migration pickup.
    pub fn ready_handoffs(&self) -> usize {
        self.state.pending_export.len()
    }

    /// Migrated-in requests whose transfer or residency is still pending.
    pub fn pending_imports(&self) -> usize {
        self.state.pending_imports.len()
    }

    /// Whether every submitted request has finished (including any parked
    /// handoffs being picked up and any migrated-in arrivals being served).
    pub fn is_drained(&self) -> bool {
        self.state.arrivals.is_empty()
            && self.state.waiting.is_empty()
            && self.state.running.is_empty()
            && self.state.pending_export.is_empty()
            && self.state.pending_imports.is_empty()
    }

    /// Requests currently in their decode phase.
    pub fn running_decodes(&self) -> usize {
        self.state.running.len()
    }

    /// Prompt tokens still to be prefilled across every request this replica
    /// owns — the queued-or-admitted ones *and* submitted ones whose arrival
    /// the clock has not reached yet (a router assigns work the instant it
    /// arrives, so committed-but-unadmitted prompts are backlog too;
    /// excluding them would let simultaneous long prefills all dogpile onto
    /// the same replica).
    pub fn queued_prefill_tokens(&self) -> usize {
        let st = &self.state;
        st.arrivals
            .iter()
            .chain(st.waiting.iter())
            .map(|&r| st.requests[r].remaining_prompt())
            .sum()
    }

    /// Total tokens of work (prompt + output) still to be processed across
    /// every unfinished request this replica owns, including ones that have
    /// not arrived yet. The load signal the least-outstanding router uses.
    pub fn outstanding_tokens(&self) -> usize {
        let st = &self.state;
        st.arrivals
            .iter()
            .chain(st.waiting.iter())
            .chain(st.running.iter())
            .map(|&r| st.requests[r].remaining_tokens())
            .sum::<usize>()
            // Migrated-in requests still in flight are committed work too —
            // without them, simultaneous deliveries would all dogpile onto
            // the same decode replica.
            + st.pending_imports
                .iter()
                .map(|imp| imp.request.remaining_tokens())
                .sum::<usize>()
    }

    /// Fraction of the KV cache currently held by resident requests.
    pub fn kv_utilization(&self) -> f64 {
        self.state.pool.utilization()
    }

    /// The earliest simulated time at which [`ServingEngine::step`] could
    /// make progress, or `None` when nothing is pending (drained, or only
    /// parked handoffs awaiting cluster pickup).
    ///
    /// This is the contract the event-driven [`crate::Cluster`] core builds
    /// on: whenever `next_event_time()` is `None` or `>= t`, `advance_to(t)`
    /// is a state no-op — the clock does not move (idle clocks only advance
    /// when an iteration actually runs) and no queue changes — so skipping
    /// this replica until `t` cannot change any simulation outcome. The
    /// returned time may be conservative (earlier than real progress), which
    /// costs one no-op step, never correctness.
    pub fn next_event_time(&self) -> Option<f64> {
        let st = &self.state;
        if !st.waiting.is_empty() || !st.running.is_empty() {
            // Runnable (or admission-deferred) work: steppable at the clock.
            return Some(st.clock);
        }
        let next_arrival = st.arrivals.front().map(|&id| st.requests[id].spec.arrival);
        let next_import = st.pending_imports.front().map(|imp| imp.available_at);
        match (next_arrival, next_import) {
            (Some(a), Some(m)) => Some(a.min(m)),
            (a, m) => a.or(m),
        }
    }

    /// High-water mark of token-time samples resident in this replica's
    /// request records — the sample-memory proxy (8 bytes each) the
    /// fleet-replay bench reports. In streaming mode finished requests drop
    /// their buffers, so this tracks in-flight work rather than trace
    /// length.
    pub fn peak_token_samples(&self) -> usize {
        self.state.peak_token_samples
    }

    /// Streaming-metrics accumulator, when the config enables it. The
    /// cluster layer merges these for fleet-wide percentiles.
    pub(crate) fn accumulator(&self) -> Option<&ReportAccumulator> {
        self.state.accumulator.as_ref()
    }

    /// The flight recorder, when the config enables tracing. The cluster
    /// layer concatenates these in replica-index order.
    pub(crate) fn trace_recorder(&self) -> Option<&TraceRecorder> {
        self.state.recorder.as_ref()
    }

    /// Collect this engine's flight recording (one replica, no cluster
    /// events), or `None` when the config carries no [`TraceConfig`].
    /// Valid mid-run; the recording is a snapshot.
    pub fn flight_recording(&self) -> Option<FlightRecording> {
        self.state.recorder.as_ref().map(|rec| {
            let mut recording = FlightRecording::new();
            recording.push_replica(rec);
            recording
        })
    }

    /// Prompt tokens of `spec` this replica's prefix index could satisfy
    /// right now, without touching any state. Zero unless the engine runs
    /// the paged policy with prefix caching. The affinity signal
    /// [`crate::RouterPolicy::PrefixAffinity`] routes on.
    pub fn cached_prefix_tokens_for(&self, spec: &RequestSpec) -> usize {
        if !self.config.kv_policy.prefix_caching() {
            return 0;
        }
        self.state
            .pool
            .peek_prefix(spec.content, spec.prompt_tokens.saturating_sub(1))
    }

    /// Fair-queueing selection: give the waiting-queue slot right after any
    /// admitted (resident, mid-prefill) prefix to the best candidate —
    /// highest [`Priority`] first, then the tenant with the smallest
    /// virtual-token counter, then the smallest tenant id, then queue order.
    /// Every other waiting request keeps its relative order. A no-op without
    /// a [`FairQueueConfig`], and order-preserving (hence bit-for-bit inert)
    /// whenever the FIFO front is already the best candidate — in particular
    /// always for single-tenant, single-priority traces.
    fn fair_reorder(&mut self) {
        if self.config.fair_queue.is_none() {
            return;
        }
        let st = &mut self.state;
        let start = st
            .waiting
            .iter()
            .take_while(|&&r| st.tables[r].is_held())
            .count();
        if st.waiting.len().saturating_sub(start) < 2 {
            return;
        }
        // Activation lift + floor advance: every competing tenant enters the
        // race at no less than the current floor, and the floor ratchets to
        // the smallest competing counter so idle tenants cannot bank credit.
        for pos in start..st.waiting.len() {
            let tenant = st.requests[st.waiting[pos]].spec.tenant;
            let floor = st.fair_floor;
            let v = st.fair_vtime_entry(tenant);
            *v = v.max(floor);
        }
        let min_active = (start..st.waiting.len())
            .map(|pos| {
                let t = st.requests[st.waiting[pos]].spec.tenant;
                *st.fair_vtime_entry(t)
            })
            .fold(f64::INFINITY, f64::min);
        st.fair_floor = st.fair_floor.max(min_active);
        // Pick the best candidate; strict improvement keeps FIFO on ties.
        let mut best = start;
        for pos in start + 1..st.waiting.len() {
            let (bp, bt): (Priority, TenantId) = {
                let r = &st.requests[st.waiting[best]];
                (r.spec.priority, r.spec.tenant)
            };
            let (cp, ct) = {
                let r = &st.requests[st.waiting[pos]];
                (r.spec.priority, r.spec.tenant)
            };
            let bv = *st.fair_vtime_entry(bt);
            let cv = *st.fair_vtime_entry(ct);
            if cp > bp || (cp == bp && (cv < bv || (cv == bv && ct < bt))) {
                best = pos;
            }
        }
        if best != start {
            let rid = st.waiting.remove(best).expect("best is in bounds");
            st.waiting.insert(start, rid);
        }
    }

    /// Priority preemption: when the fair queue's choice sits at the actual
    /// queue front but the block pool blocks its admission, evict running
    /// decodes of strictly lower [`Priority`] (lowest class first, most
    /// recently started among equals — they lose the least recomputation)
    /// through the paged preemption path until the candidate fits or no
    /// eligible victim remains. Each eviction is charged to the candidate's
    /// [`Request::preemptions_inflicted`]. Returns whether anything was
    /// preempted (victims re-queue at the front, so the caller must re-run
    /// the fair selection).
    fn priority_preempt(&mut self) -> bool {
        let preempt_on = self
            .config
            .fair_queue
            .as_ref()
            .is_some_and(|f| f.preempt_priorities)
            && matches!(self.config.kv_policy, KvCachePolicy::Paged { .. });
        if !preempt_on {
            return false;
        }
        let grant_spec_k = self.grant_spec_k();
        let st = &mut self.state;
        // Only act for the schedulable front: a resident (mid-prefill)
        // request ahead of the candidate owns the prefill slot, and evicting
        // decodes for a request that cannot be consulted yet wastes work.
        let Some(&cand) = st.waiting.front() else {
            return false;
        };
        if st.tables[cand].is_held() {
            return false;
        }
        // Never preempt for a request that cannot fit even in an empty pool
        // (the feasibility rule admission defers on).
        let capacity_blocks = st.pool.capacity_blocks();
        if blocks_for(st.requests[cand].spec.total_tokens()) > capacity_blocks {
            return false;
        }
        let pri = st.requests[cand].spec.priority;
        // The grant admission takes (prefix-cache hits can only shrink it,
        // so the check may over-evict by at most the cached share).
        let needed = self
            .config
            .kv_policy
            .grant(&st.requests[cand], None, grant_spec_k)
            .blocks;
        let mut any = false;
        while capacity_blocks - st.pool.referenced_blocks() < needed {
            let victim = st
                .running
                .iter()
                .rev()
                .filter(|&&r| st.requests[r].spec.priority < pri)
                .min_by_key(|&&r| st.requests[r].spec.priority)
                .copied();
            let Some(v) = victim else {
                break;
            };
            st.preempt(v);
            st.requests[cand].preemptions_inflicted += 1;
            any = true;
        }
        any
    }

    /// Advance the simulation by exactly one scheduler iteration.
    ///
    /// `now` is the caller's clock; the engine clock first catches up to it
    /// (`clock = max(clock, now)`) — even when nothing turns out to be
    /// runnable, since idle time is real time — making newly due arrivals
    /// visible. The engine then forms one batch, prices it, advances its
    /// clock by the iteration time and applies the effects. When nothing is
    /// runnable the outcome says why ([`IterationOutcome::IdleUntil`] /
    /// [`IterationOutcome::Drained`] / [`IterationOutcome::Blocked`]) and no
    /// further time passes.
    ///
    /// Each phase of the iteration is one method over the engine state, run
    /// in this order.
    pub fn step(&mut self, now: f64) -> IterationOutcome {
        self.state.clock = self.state.clock.max(now);
        // Eviction watermark for the per-iteration KvEvict delta (a plain
        // counter read; the delta is only consulted when tracing is on).
        let evicted_before = self.state.pool.blocks_evicted();
        self.enqueue_arrivals();
        self.adopt_imports();
        self.cobatch_and_grow();
        // Multi-tenant fair queueing: decide which waiting request owns the
        // admission slot this iteration, and — with priority preemption on —
        // evict lower-priority decodes to make room for it. Victims re-queue
        // at the front, so the selection re-runs to restore the winner (it
        // outranks its own victims by construction).
        self.fair_reorder();
        if self.priority_preempt() {
            self.fair_reorder();
        }
        let plan = self.plan();
        if plan.is_empty() {
            return self.idle_outcome();
        }
        let dt = self.price(&plan);
        let (stats, finished) = self.apply(&plan, dt);
        self.kv_effects(&plan, &finished);
        self.finish_and_stream(&finished);
        self.export_prefill(&plan);
        self.trace_iteration(&plan, &stats, evicted_before);
        IterationOutcome::Ran(stats)
    }

    /// Whether prefix-shared decode (KV dedup) is on. It is only meaningful
    /// where sharing can be proven: the paged policy's prefix index.
    fn dedup_on(&self) -> bool {
        self.config.decode_dedup && self.config.kv_policy.prefix_caching()
    }

    /// Phase: move arrivals that have happened by now to the waiting queue.
    fn enqueue_arrivals(&mut self) {
        let st = &mut self.state;
        while let Some(&id) = st.arrivals.front() {
            if st.requests[id].spec.arrival > st.clock {
                break;
            }
            st.waiting.push_back(id);
            st.arrivals.pop_front();
            let t = st.clock;
            let spec = st.requests[id].spec;
            st.trace(t, || TraceEventKind::Enqueue {
                request: id,
                tenant: spec.tenant,
                priority: spec.priority,
                prompt_tokens: spec.prompt_tokens,
                output_tokens: spec.output_tokens,
            });
        }
    }

    /// Phase: adopt migrated-in KV chains whose transfer has completed —
    /// take the policy's grant for each and resume the request's decode
    /// here. Delivery order is FIFO: a failed grant holds later imports back
    /// too, so admission is deterministic and the longest-waiting chain
    /// lands first once capacity frees up.
    fn adopt_imports(&mut self) {
        let grant_spec_k = self.grant_spec_k();
        let st = &mut self.state;
        while let Some(front) = st
            .pending_imports
            .front()
            .filter(|imp| imp.available_at <= st.clock)
        {
            let grant =
                self.config
                    .kv_policy
                    .grant(&front.request, Some(&front.chain), grant_spec_k);
            // Adopted chains stay private: block fingerprints are pool-local,
            // so the migrated KV cannot be proven equal to anything in this
            // replica's prefix index.
            let mut table = Residency {
                index_stalled: true,
                ..Residency::default()
            };
            if !table.take(&mut st.pool, grant.blocks, grant.named) {
                break;
            }
            let mut imp = st.pending_imports.pop_front().expect("front exists");
            let rid = st.requests.len();
            imp.request.id = rid;
            imp.request.migrated_in = true;
            let stall = st.clock
                - imp
                    .request
                    .first_token_time
                    .expect("migrated requests completed prefill");
            imp.request.migration_stall = stall;
            st.counters.migration_stall_time += stall;
            st.counters.migrated_in_requests += 1;
            st.live_token_samples += imp.request.token_times.len();
            let tokens = imp.chain.tokens;
            st.requests.push(imp.request);
            st.tables.push(table);
            st.running.push(rid);
            let t = st.clock;
            st.trace(t, || TraceEventKind::HandoffImport {
                request: rid,
                tokens,
                stall,
            });
        }
    }

    /// Phase: co-batching and decode growth, before batch formation.
    ///
    /// Co-batch same-prefix decodes so dedup groups actually form under the
    /// Sarathi decode cap (taking the first `max_batch_size` of an
    /// interleaved running set would split groups). This precedes growth so
    /// the growth set matches the co-batched decode set. Growth then gives
    /// every request that will decode this iteration blocks for its next
    /// token, preempting the newest decodes if the pool is exhausted. The
    /// growth set must match the scheduler's decode set exactly: Sarathi
    /// caps decodes at `max_batch_size`, while the vLLM policy decodes every
    /// running request.
    fn cobatch_and_grow(&mut self) {
        if self.dedup_on() && self.state.running.len() > 1 {
            self.state.cobatch_shared_prefixes();
        }
        let decode_cap = match self.config.scheduler {
            SchedulerKind::Vllm => usize::MAX,
            SchedulerKind::Sarathi { .. } => self.config.max_batch_size,
        };
        self.state
            .grow_decode_blocks(decode_cap, self.config.decode_mode.spec_k());
    }

    /// Phase: plan the iteration, consulting [`admit`] for the front of the
    /// waiting queue. Shedding re-plans without advancing time: a shed frees
    /// the prefill slot, so the next waiting request gets its admission
    /// consult in the *same* iteration (each shed strictly shrinks the
    /// waiting queue, so the loop terminates).
    fn plan(&mut self) -> BatchPlan {
        let grant_spec_k = self.grant_spec_k();
        let config = &self.config;
        let st = &mut self.state;
        loop {
            let ctx = AdmitCtx {
                config,
                grant_spec_k,
                now: st.clock,
            };
            let (pool, tables) = (&mut st.pool, &mut st.tables);
            let (counters, recorder) = (&mut st.counters, &mut st.recorder);
            let plan = plan_batch(
                config.scheduler,
                &mut st.requests,
                &st.waiting,
                &st.running,
                &mut |req: &Request| admit(ctx, pool, &mut tables[req.id], counters, recorder, req),
                config.max_batch_size,
                config.decode_mode.spec_k(),
            );
            let Some(rid) = plan.shed else {
                return plan;
            };
            st.requests[rid].shed_time = Some(st.clock);
            let t = st.clock;
            st.trace(t, || TraceEventKind::Shed { request: rid });
            if let Some(acc) = st.accumulator.as_mut() {
                acc.observe(&st.requests[rid]);
            }
            st.waiting.retain(|&r| r != rid);
            // Always re-plan: the freed prefill slot must be offered to the
            // next waiting request in this same iteration (dropping only the
            // shed request from an otherwise-formed plan would waste the
            // whole chunk budget on a decodes-only batch).
        }
    }

    /// Phase: why an empty plan ran nothing — idle until the next arrival or
    /// import delivery, drained, or blocked on a request that can never fit.
    fn idle_outcome(&self) -> IterationOutcome {
        let st = &self.state;
        // A due-but-unadmitted import with no resident work left to free
        // capacity can never fit: the migration analog of the oversized-
        // request deadlock.
        let import_due = st
            .pending_imports
            .front()
            .is_some_and(|imp| imp.available_at <= st.clock);
        if import_due && st.waiting.is_empty() && st.running.is_empty() {
            return IterationOutcome::Blocked {
                needed_tokens: st
                    .pending_imports
                    .front()
                    .map(|imp| imp.request.spec.total_tokens())
                    .unwrap_or(0),
                capacity_tokens: self.kv_capacity,
            };
        }
        let next_arrival = st.arrivals.front().map(|&id| st.requests[id].spec.arrival);
        let next_import = st
            .pending_imports
            .front()
            .map(|imp| imp.available_at)
            .filter(|&t| t > st.clock);
        let wake = match (next_arrival, next_import) {
            (Some(a), Some(m)) => Some(a.min(m)),
            (a, m) => a.or(m),
        };
        if let Some(t) = wake {
            return IterationOutcome::IdleUntil(t);
        }
        if st.waiting.is_empty() && st.running.is_empty() {
            return IterationOutcome::Drained;
        }
        IterationOutcome::Blocked {
            needed_tokens: st
                .waiting
                .front()
                .map(|&r| st.requests[r].spec.total_tokens())
                .unwrap_or(0),
            capacity_tokens: self.kv_capacity,
        }
    }

    /// Phase: price the planned iteration, returning its duration.
    ///
    /// Shared-prefix decode dedup first groups this iteration's decodes by
    /// their shared-block chains and computes the KV traffic the grouped
    /// pass saves; with dedup off it stays 0 and every signature, price and
    /// trace is bit-for-bit what a dedup-unaware engine produces. With the
    /// price cache on, only novel (quantized) batch shapes reach the cost
    /// model; repeats are a map lookup.
    fn price(&mut self, plan: &BatchPlan) -> f64 {
        let dedup_on = self.dedup_on();
        let st = &mut self.state;
        let (dedup_groups, dedup_tokens) = if dedup_on && !plan.decodes.is_empty() {
            st.shared_decode_dedup(&plan.decodes)
        } else {
            (0, 0)
        };
        if dedup_tokens > 0 {
            st.counters.decode_kv_tokens_deduped += dedup_tokens;
            let t = st.clock;
            st.trace(t, || TraceEventKind::KvDedup {
                groups: dedup_groups,
                tokens: dedup_tokens,
            });
        }
        let dt = if self.config.price_cache {
            let sig = BatchSignature::of_plan(plan, &st.requests, dedup_tokens);
            match st.price_cache.get(&sig) {
                Some(&cached) => {
                    st.counters.price_cache_hits += 1;
                    cached
                }
                None => {
                    st.counters.price_cache_misses += 1;
                    let priced = self
                        .cost
                        .iteration_time(&sig.canonical_batch(), self.config.attention);
                    if st.price_cache.len() >= PRICE_CACHE_MAX_ENTRIES {
                        st.price_cache.clear();
                    }
                    st.price_cache.insert(sig, priced);
                    priced
                }
            }
        } else {
            let batch = to_hybrid_batch(plan, &st.requests, dedup_tokens);
            self.cost.iteration_time(&batch, self.config.attention)
        };
        // Draft proposal time: `k` decode passes of the drafter over this
        // iteration's decode set, added outside the price cache (the
        // drafter's own cost model memoizes internally). Zero — and
        // bit-for-bit absent — in autoregressive mode or with a free
        // drafter, so speculation can never be priced cheaper than the
        // verify work already inside `dt`.
        let draft_dt = draft_proposal_time(
            self.draft_cost.as_ref(),
            self.config.decode_mode.spec_k(),
            self.config.attention,
            plan,
            &st.requests,
        );
        if draft_dt > 0.0 {
            dt + draft_dt
        } else {
            dt
        }
    }

    /// Phase: advance the clock by `dt` and apply the plan to request
    /// lifecycles and queues, including the speculative bookkeeping and the
    /// prefill billing. Returns the iteration's stats and the requests that
    /// finished.
    fn apply(&mut self, plan: &BatchPlan, dt: f64) -> (IterationStats, Vec<usize>) {
        let st = &mut self.state;
        let started_at = st.clock;
        st.clock += dt;
        st.counters.iterations += 1;
        st.counters.busy_time += dt;
        if plan.is_hybrid() {
            st.counters.hybrid_iterations += 1;
        }

        // Speculative rounds: draw each decode's acceptance outcome up
        // front. Outcomes are pure functions of (seed, request id, round),
        // so the vector — and everything downstream of it — is identical
        // across thread counts, replica layouts and replays. Empty in
        // autoregressive mode.
        let spec_outcomes: Vec<SpecOutcome> = match &self.config.decode_mode {
            DecodeMode::Autoregressive => Vec::new(),
            DecodeMode::Speculative { k, acceptance, .. } => plan
                .decodes
                .iter()
                .map(|&rid| {
                    let req = &st.requests[rid];
                    let width = req.spec_width(*k);
                    let accepted = acceptance.accepted(rid, req.spec_rounds, width);
                    let minted = AcceptanceModel::minted(accepted, width);
                    SpecOutcome {
                        width,
                        accepted,
                        minted,
                    }
                })
                .collect(),
        };

        let prefill_tt_before = plan
            .prefill
            .map(|(rid, _)| st.requests[rid].token_times.len());
        let finished = apply_plan(
            plan,
            &spec_outcomes,
            st.clock,
            &mut st.requests,
            &mut st.waiting,
            &mut st.running,
        );
        // Net decode tokens minted this iteration: one per decode
        // autoregressively; the accepted prefix plus correction token per
        // speculative round (optimistic mints beyond that were rolled back).
        let decode_tokens = if spec_outcomes.is_empty() {
            plan.decodes.len()
        } else {
            spec_outcomes.iter().map(|o| o.minted).sum()
        };
        // Resident-sample accounting: every decode minted its net tokens,
        // and a prefill completion may have minted the first one.
        st.live_token_samples += decode_tokens
            + plan.prefill.map_or(0, |(rid, _)| {
                st.requests[rid].token_times.len() - prefill_tt_before.unwrap_or(0)
            });
        if st.live_token_samples > st.peak_token_samples {
            st.peak_token_samples = st.live_token_samples;
        }

        // Speculative bookkeeping: advance round indices, tally draft
        // accept/reject counters, release the KV tail a rollback stranded
        // (those blocks were allocated by this iteration's speculative
        // growth and are never indexed or shared — the refcount-conserving
        // truncation path; a counted grant has no tail), and trace each
        // round.
        for (&rid, o) in plan.decodes.iter().zip(&spec_outcomes) {
            let rejected = o.width - o.accepted;
            let req = &mut st.requests[rid];
            req.spec_rounds += 1;
            req.draft_accepted += o.accepted;
            req.draft_rejected += rejected;
            st.counters.spec_rounds += 1;
            st.counters.draft_tokens_accepted += o.accepted;
            st.counters.draft_tokens_rejected += rejected;
            if o.minted < o.width {
                let table = &mut st.tables[rid];
                let keep = blocks_for(st.requests[rid].context_len())
                    .max(table.indexed)
                    .max(table.shared);
                if table.blocks.len() > keep {
                    st.pool.release(&table.blocks.split_off(keep));
                }
            }
            let t = st.clock;
            st.trace(t, || TraceEventKind::SpecRound {
                request: rid,
                width: o.width,
                accepted: o.accepted,
                minted: o.minted,
            });
        }

        // Token accounting via the plan's own budget arithmetic, so the
        // stats and the Sarathi chunk accounting can never drift apart.
        let prefill_tokens = plan.scheduled_tokens() - plan.decodes.len() - plan.spec_tokens;
        st.counters.prefill_tokens_scheduled += prefill_tokens;
        // Fair queueing bills scheduled prefill work to the owning tenant's
        // virtual-token counter, weighted (cached-prefix tokens were never
        // scheduled and are free; decode tokens are not contended the same
        // way — the chunk budget is what tenants fight over).
        if let (Some(fq), Some((rid, _))) = (&self.config.fair_queue, plan.prefill) {
            if prefill_tokens > 0 {
                let tenant = st.requests[rid].spec.tenant;
                let weight = fq.weight(tenant);
                *st.fair_vtime_entry(tenant) += prefill_tokens as f64 / weight;
            }
        }
        let stats = IterationStats {
            started_at,
            completed_at: st.clock,
            duration: dt,
            hybrid: plan.is_hybrid(),
            prefill_tokens,
            decode_tokens,
            newly_finished: finished.len(),
        };
        (stats, finished)
    }

    /// Phase: KV effects — register newly computed full blocks in the prefix
    /// index, then release finished residencies (a finished request's
    /// indexed blocks stay cached until evicted).
    fn kv_effects(&mut self, plan: &BatchPlan, finished: &[usize]) {
        let prefix_caching = self.config.kv_policy.prefix_caching();
        let st = &mut self.state;
        if prefix_caching {
            let prefill = plan.prefill.map(|(rid, _)| rid);
            for &rid in prefill.iter().chain(&plan.decodes) {
                if !finished.contains(&rid) {
                    st.index_computed_blocks(rid);
                }
            }
        }
        for &rid in finished {
            if prefix_caching {
                // Index the decode region too, so multi-turn follow-ups
                // whose prompts embed this response hit the cache.
                st.index_computed_blocks(rid);
            }
            st.free_residency(rid);
        }
    }

    /// Phase: trace each finished request, then (streaming metrics) fold it
    /// into the accumulator and drop its token-time buffer — nothing
    /// downstream needs it. Prefill-export parkings are not finished: their
    /// buffers ride the handoff to the decode replica, which observes the
    /// request.
    fn finish_and_stream(&mut self, finished: &[usize]) {
        let st = &mut self.state;
        // Finish events, before streaming metrics drop any request buffers.
        if st.recorder.is_some() {
            for &rid in finished {
                let req = &st.requests[rid];
                let prompt_tokens = req.spec.prompt_tokens;
                let generated = req.generated;
                let ttft = req.first_token_time.map_or(0.0, |t| t - req.spec.arrival);
                let latency = req.finish_time.map_or(0.0, |t| t - req.spec.arrival);
                let t = st.clock;
                st.trace(t, || TraceEventKind::Finish {
                    request: rid,
                    prompt_tokens,
                    generated,
                    ttft,
                    latency,
                });
            }
        }
        if let Some(acc) = st.accumulator.as_mut() {
            for &rid in finished {
                acc.observe(&st.requests[rid]);
                let dropped = std::mem::take(&mut st.requests[rid].token_times);
                st.live_token_samples -= dropped.len();
            }
        }
    }

    /// Phase (prefill-export mode only): a request that just completed its
    /// prefill (first token minted, TTFT stamped, blocks indexed so the
    /// local prefix cache keeps serving future sharers) parks for migration
    /// pickup instead of decoding here. Its grant is serialized into the
    /// handoff chain and released *now* — the transfer is overlappable
    /// communication, not source HBM — so a backlog of parked exports can
    /// never wedge admission. Requests that finished outright at prefill
    /// (single-token outputs) have nothing to migrate.
    fn export_prefill(&mut self, plan: &BatchPlan) {
        let st = &mut self.state;
        let Some((rid, _)) = plan.prefill.filter(|_| self.export_prefills) else {
            return;
        };
        if st.requests[rid].phase() != Phase::Decoding {
            return;
        }
        st.running.retain(|&r| r != rid);
        let tokens = st.requests[rid].context_len();
        let table = st.release_residency(rid);
        // The chain carries the context's blocks. A fresh prefill's named
        // grant (target + 1 tokens: no draft width on a prefill-only
        // replica) is exactly that; a counted grant spans the whole output,
        // more than the chain needs.
        debug_assert!(table.counted > 0 || table.blocks.len() == blocks_for(tokens));
        let chain = KvChain {
            tokens,
            blocks: blocks_for(tokens),
        };
        st.pending_export.push((rid, chain));
        let t = st.clock;
        st.trace(t, || TraceEventKind::HandoffExport {
            request: rid,
            tokens: chain.tokens,
            blocks: chain.blocks,
        });
    }

    /// Phase: iteration-level trace events — any evictions the iteration's
    /// allocations forced, the priced batch, and (when a timeline boundary
    /// was crossed) one sample of replica occupancy. All inside one
    /// `is_some` branch so tracing off never builds an event.
    fn trace_iteration(&mut self, plan: &BatchPlan, stats: &IterationStats, evicted_before: usize) {
        let st = &mut self.state;
        if st.recorder.is_none() {
            return;
        }
        let evicted = st.pool.blocks_evicted() - evicted_before;
        let clock = st.clock;
        if evicted > 0 {
            st.trace(clock, || TraceEventKind::KvEvict { blocks: evicted });
        }
        let stats = *stats;
        st.trace(clock, || TraceEventKind::Iteration {
            started_at: stats.started_at,
            duration: stats.duration,
            hybrid: stats.hybrid,
            prefill_request: plan.prefill.map(|(rid, _)| rid),
            chunk: plan.prefill.map_or(0, |(_, c)| c),
            decodes: plan.decodes.len(),
            prefill_tokens: stats.prefill_tokens,
            decode_tokens: stats.decode_tokens,
            newly_finished: stats.newly_finished,
        });
        let due = st
            .recorder
            .as_mut()
            .is_some_and(|rec| rec.timeline_due(clock));
        if due {
            let mut backlog: std::collections::BTreeMap<TenantId, usize> =
                std::collections::BTreeMap::new();
            for &r in &st.waiting {
                *backlog.entry(st.requests[r].spec.tenant).or_insert(0) += 1;
            }
            let (running, waiting) = (st.running.len(), st.waiting.len());
            let kv_utilization = st.pool.utilization();
            st.trace(clock, || TraceEventKind::TimelineSample {
                running,
                waiting,
                kv_utilization,
                prefill_tokens: stats.prefill_tokens,
                decode_tokens: stats.decode_tokens,
                tenant_backlog: backlog.into_iter().collect(),
            });
        }
    }

    /// Step until this engine can make no progress before simulated time `t`:
    /// it runs every iteration that *starts* before `t` (an iteration started
    /// just before `t` may complete after it, exactly as a real replica would
    /// still be mid-iteration when a new request arrives).
    ///
    /// # Panics
    ///
    /// Panics if a queued request can never fit in the KV cache.
    pub fn advance_to(&mut self, t: f64) {
        let mut now = self.state.clock;
        while now < t {
            match self.step(now) {
                IterationOutcome::Ran(stats) => now = stats.completed_at,
                IterationOutcome::IdleUntil(u) if u < t => now = u,
                IterationOutcome::IdleUntil(_) | IterationOutcome::Drained => break,
                IterationOutcome::Blocked {
                    needed_tokens,
                    capacity_tokens,
                } => panic_blocked(needed_tokens, capacity_tokens),
            }
        }
    }

    /// Step until every submitted request has finished.
    ///
    /// # Panics
    ///
    /// Panics if a queued request can never fit in the KV cache.
    pub fn run_until_drained(&mut self) {
        let mut now = self.state.clock;
        loop {
            match self.step(now) {
                IterationOutcome::Ran(stats) => now = stats.completed_at,
                IterationOutcome::IdleUntil(t) => now = t,
                IterationOutcome::Drained => break,
                IterationOutcome::Blocked {
                    needed_tokens,
                    capacity_tokens,
                } => panic_blocked(needed_tokens, capacity_tokens),
            }
        }
    }

    /// Snapshot the aggregated report for everything served so far. Valid
    /// mid-run (unfinished requests are excluded from the latency stats).
    pub fn report(&self) -> ServingReport {
        let st = &self.state;
        let acc = match &st.accumulator {
            // Streaming mode: the accumulator already folded every finished
            // and shed request (token buffers are gone).
            Some(acc) => acc.clone(),
            None => {
                let mut acc = ReportAccumulator::exact();
                acc.observe_all(&st.requests);
                acc
            }
        };
        acc.finalize(&self.config.system_label(), st.clock, &self.counters())
    }

    /// The report's engine-side tallies so far.
    pub(crate) fn counters(&self) -> ServingCounters {
        ServingCounters {
            blocks_evicted: self.state.pool.blocks_evicted(),
            ..self.state.counters
        }
    }

    /// Serve `specs` to completion and return the aggregated report.
    pub fn run(&self, specs: Vec<RequestSpec>) -> ServingReport {
        self.run_detailed(specs).0
    }

    /// Serve `specs` to completion and return both the report and the
    /// per-request records (for custom analyses). Runs on a fresh copy of the
    /// engine state, so `run` can be called repeatedly (and on an engine that
    /// is also being stepped) without interference.
    ///
    /// # Panics
    ///
    /// Panics if a single request can never fit in the KV cache (a
    /// configuration error rather than a load condition).
    pub fn run_detailed(&self, specs: Vec<RequestSpec>) -> (ServingReport, Vec<Request>) {
        let mut engine = ServingEngine {
            config: self.config.clone(),
            cost: self.cost.clone(),
            draft_cost: self.draft_cost.clone(),
            kv_capacity: self.kv_capacity,
            export_prefills: self.export_prefills,
            state: EngineState::new(self.kv_capacity, &self.config),
        };
        for spec in specs {
            engine.submit(spec);
        }
        engine.run_until_drained();
        let report = engine.report();
        (report, engine.state.requests)
    }

    /// Total iteration time of `batch` in seconds under this engine's cost
    /// model and attention strategy (side costs memoized unless
    /// [`ServingConfig::price_cache`] is off). Only the pricing
    /// microbenchmarks in `criterion_kernels` call it.
    pub fn price_batch(&self, batch: &HybridBatch) -> f64 {
        self.cost.iteration_time(batch, self.config.attention)
    }
}

/// The replica-wide inputs of an [`admit`] consult: the configuration, the
/// draft width grants reserve ([`ServingEngine::grant_spec_k`]) and the
/// clock.
#[derive(Clone, Copy)]
struct AdmitCtx<'a> {
    config: &'a ServingConfig,
    grant_spec_k: usize,
    now: f64,
}

/// Admission consult for the front of the waiting queue, under either KV
/// policy: a request that holds its grant stays admitted; otherwise it is
/// shed (its deadline is already unmeetable), takes its policy grant —
/// after matching the prefix index, when enabled — or defers until the pool
/// has room. A counted grant emits no KV alloc event.
fn admit(
    ctx: AdmitCtx,
    pool: &mut BlockPool,
    table: &mut Residency,
    counters: &mut ServingCounters,
    recorder: &mut Option<TraceRecorder>,
    req: &Request,
) -> AdmissionDecision {
    let AdmitCtx {
        config,
        grant_spec_k,
        now,
    } = ctx;
    if table.is_held() {
        return AdmissionDecision::Admit { cached_tokens: 0 };
    }
    if config.admission.should_shed(req, now) {
        return AdmissionDecision::Shed;
    }
    let defer = |recorder: &mut Option<TraceRecorder>| {
        if let Some(rec) = recorder.as_mut() {
            rec.record(now, TraceEventKind::Defer { request: req.id });
        }
        AdmissionDecision::Defer
    };
    // Feasibility: to *finish*, the request must at some point hold blocks
    // for its whole prompt + output. Admitting one that never can would
    // decode until growth exhausts the pool and then preempt/recompute
    // forever; deferring it surfaces the Blocked outcome with the same
    // total-tokens sizing number under both policies.
    if blocks_for(req.spec.total_tokens()) > pool.capacity_blocks() {
        return defer(recorder);
    }
    // Match the prompt (or, after a preemption, the full recompute target)
    // against the prefix index, capped one below the target so at least one
    // token is always computed; then take the uncached rest of the grant.
    let grant = config.kv_policy.grant(req, None, grant_spec_k);
    let m = if config.kv_policy.prefix_caching() {
        pool.acquire_prefix(req.spec.content, req.target_prefill() - 1)
    } else {
        PrefixMatch::default()
    };
    let (reused, cow) = (m.blocks.len(), m.cow_source);
    let needed = grant.blocks - reused;
    table.blocks = m.blocks;
    let decision = if table.take(pool, needed, grant.named) {
        counters.cached_prefix_tokens += m.cached_tokens;
        counters.blocks_reused += reused;
        counters.cow_copies += usize::from(cow.is_some());
        if let Some(rec) = recorder.as_mut() {
            rec.record(
                now,
                TraceEventKind::Admit {
                    request: req.id,
                    cached_tokens: m.cached_tokens,
                },
            );
            if grant.named {
                rec.record(
                    now,
                    TraceEventKind::KvAlloc {
                        request: req.id,
                        blocks: needed,
                        reused,
                        cow: cow.is_some(),
                    },
                );
            }
        }
        table.shared = reused;
        table.indexed = reused;
        table.cursor = m.cursor;
        AdmissionDecision::Admit {
            cached_tokens: m.cached_tokens,
        }
    } else {
        // Roll back the prefix acquisition; the request retries next
        // iteration.
        pool.release(&std::mem::take(&mut table.blocks));
        defer(recorder)
    };
    // The CoW source was pinned by acquire_prefix so the grant above could
    // not evict it mid-admission; the copy has now happened (or the
    // admission was rolled back), so drop the pin either way.
    if let Some(cow) = cow {
        pool.release(&[cow]);
    }
    decision
}

/// The historical deadlock panic, shared by `run_until_drained` and
/// `advance_to` so the message stays identical to the closed-world engine's.
fn panic_blocked(needed_tokens: usize, capacity_tokens: usize) -> ! {
    panic!(
        "serving deadlock: a request needs more KV-cache capacity ({needed_tokens} tokens) than the GPU offers ({capacity_tokens} tokens)"
    );
}

fn to_hybrid_batch(plan: &BatchPlan, requests: &[Request], dedup_tokens: usize) -> HybridBatch {
    let prefill = plan.prefill.map(|(rid, chunk)| {
        let req = &requests[rid];
        PrefillChunk::new(chunk, req.prefilled)
    });
    let decodes = plan
        .decodes
        .iter()
        .map(|&rid| DecodeRequest::new(requests[rid].context_len().max(1)))
        .collect();
    HybridBatch {
        prefill,
        decodes,
        kv_dedup_tokens: dedup_tokens,
        spec_verify_tokens: plan.spec_tokens,
    }
}

/// One decode's speculative-round outcome, drawn before the mint.
#[derive(Debug, Clone, Copy)]
struct SpecOutcome {
    /// Draft tokens proposed and verified this round (`spec_width`).
    width: usize,
    /// Leading drafts verification accepted (`<= width`).
    accepted: usize,
    /// Net tokens the round mints: the accepted prefix plus the target's
    /// correction token on the first rejection (`1..=width`).
    minted: usize,
}

/// Time the draft model spends proposing `spec_k` tokens for each of this
/// iteration's decodes: `spec_k` decode-only passes of the scaled-down
/// drafter over the same contexts as the target batch. Zero without a
/// drafter cost model (autoregressive mode or a free drafter) or without
/// decodes.
fn draft_proposal_time(
    draft_cost: Option<&IterationCostModel>,
    spec_k: usize,
    attention: AttentionStrategy,
    plan: &BatchPlan,
    requests: &[Request],
) -> f64 {
    let Some(cost) = draft_cost else {
        return 0.0;
    };
    if plan.decodes.is_empty() || spec_k == 0 {
        return 0.0;
    }
    let batch = HybridBatch {
        prefill: None,
        decodes: plan
            .decodes
            .iter()
            .map(|&rid| DecodeRequest::new(requests[rid].context_len().max(1)))
            .collect(),
        kv_dedup_tokens: 0,
        spec_verify_tokens: 0,
    };
    spec_k as f64 * cost.iteration_time(&batch, attention)
}

/// Apply one iteration's effects to the request lifecycles and queues,
/// returning the ids that finished (prefill-completions first, then decodes,
/// in plan order — a deterministic release order). KV-cache effects are the
/// caller's job, since they depend on the residency policy.
///
/// `spec` is empty in autoregressive mode (each decode mints exactly one
/// token); in speculative mode it is parallel to `plan.decodes` and each
/// decode optimistically mints its whole drafted width, then rolls the
/// rejected suffix back through [`Request::rollback`] — the same
/// mint-then-truncate lifecycle a real draft-then-verify engine follows.
fn apply_plan(
    plan: &BatchPlan,
    spec: &[SpecOutcome],
    clock: f64,
    requests: &mut [Request],
    waiting: &mut VecDeque<usize>,
    running: &mut Vec<usize>,
) -> Vec<usize> {
    let mut finished = Vec::new();
    if let Some((rid, chunk)) = plan.prefill {
        requests[rid].record_prefill(chunk, clock);
        match requests[rid].phase() {
            Phase::Decoding => {
                // Prompt finished: first token produced (or, after a
                // preemption, recompute complete), move to running.
                waiting.retain(|&r| r != rid);
                running.push(rid);
            }
            Phase::Finished => {
                waiting.retain(|&r| r != rid);
                finished.push(rid);
            }
            _ => {}
        }
    }
    for (i, &rid) in plan.decodes.iter().enumerate() {
        match spec.get(i) {
            None => requests[rid].record_decode_token(clock),
            Some(o) => {
                // `width <= remaining output`, so the optimistic mint never
                // overshoots the request's budget.
                for _ in 0..o.width {
                    requests[rid].record_decode_token(clock);
                }
                requests[rid].rollback(o.width - o.minted);
            }
        }
        if requests[rid].phase() == Phase::Finished {
            running.retain(|&r| r != rid);
            finished.push(rid);
        }
    }
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{offline_long_context, Workload};

    fn llama3() -> ModelConfig {
        ModelConfig::llama3_8b()
    }

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    #[test]
    fn all_requests_complete_and_tokens_are_accounted() {
        let engine = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024));
        let specs = vec![RequestSpec::new(0.0, 3000, 50); 8];
        let (report, requests) = engine.run_detailed(specs);
        assert_eq!(report.completed, 8);
        for r in &requests {
            assert_eq!(r.prefilled, 3000);
            assert_eq!(r.generated, 50);
            assert!(r.finish_time.is_some());
            assert_eq!(r.token_times.len(), 50);
        }
        assert!(report.makespan > 0.0);
        assert!(report.hybrid_iterations > 0);
    }

    #[test]
    fn vllm_has_lower_ttft_but_stalls_decodes() {
        // Online arrivals: new prompts show up while earlier requests are
        // still decoding, which is when vLLM's prefill-prioritizing policy
        // causes generation stalls.
        let requests = Workload::internal().generate(40, 0.8, 17);
        let vllm = ServingEngine::new(ServingConfig::vllm(llama3(), gpu())).run(requests.clone());
        let sarathi =
            ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024)).run(requests);
        // vLLM schedules whole prompts immediately: lower median TTFT.
        assert!(
            vllm.ttft.p50 < sarathi.ttft.p50,
            "vLLM TTFT {} vs Sarathi {}",
            vllm.ttft.p50,
            sarathi.ttft.p50
        );
        // But its prefills pause ongoing decodes: long worst-case decode gaps
        // and many more requests experiencing at least one stall.
        assert!(
            vllm.tbt.max > sarathi.tbt.max,
            "vLLM max TBT {} vs Sarathi {}",
            vllm.tbt.max,
            sarathi.tbt.max
        );
        assert!(
            vllm.stall_fraction_200ms > 0.3,
            "vLLM stall fraction {}",
            vllm.stall_fraction_200ms
        );
        assert!(vllm.stall_fraction_200ms > sarathi.stall_fraction_200ms);
    }

    #[test]
    fn pod_improves_offline_throughput_over_sarathi() {
        let requests = offline_long_context(32, 16 * 1024, 256);
        let sarathi =
            ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024)).run(requests.clone());
        let pod =
            ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024)).run(requests);
        assert_eq!(sarathi.completed, 32);
        assert_eq!(pod.completed, 32);
        let gain = pod.requests_per_minute() / sarathi.requests_per_minute();
        assert!(
            gain > 1.05,
            "POD should improve throughput: {:.1} vs {:.1} req/min",
            pod.requests_per_minute(),
            sarathi.requests_per_minute()
        );
        assert!(gain < 1.6, "throughput gain {gain} is implausibly large");
    }

    #[test]
    fn pod_reduces_latency_under_online_load() {
        let workload = Workload::internal().generate(48, 0.9, 123);
        let sarathi =
            ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1536)).run(workload.clone());
        let pod =
            ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1536)).run(workload);
        assert_eq!(sarathi.completed, 48);
        assert_eq!(pod.completed, 48);
        assert!(pod.ttft.p50 <= sarathi.ttft.p50 * 1.01);
        assert!(pod.request_latency.p50 <= sarathi.request_latency.p50 * 1.01);
    }

    #[test]
    fn kv_capacity_limits_concurrency_but_everything_finishes() {
        let mut config = ServingConfig::sarathi(llama3(), gpu(), 1024);
        // Tiny cache: only ~2 requests of 4K+64 tokens fit at a time.
        config.kv_capacity_tokens = Some(10_000);
        let engine = ServingEngine::new(config);
        let report = engine.run(vec![RequestSpec::new(0.0, 4096, 64); 6]);
        assert_eq!(report.completed, 6);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn oversized_request_panics_with_clear_message() {
        let mut config = ServingConfig::sarathi(llama3(), gpu(), 1024);
        config.kv_capacity_tokens = Some(1_000);
        let engine = ServingEngine::new(config);
        let _ = engine.run(vec![RequestSpec::new(0.0, 4096, 64)]);
    }

    #[test]
    fn online_arrivals_are_respected() {
        let engine = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024));
        let specs = vec![
            RequestSpec::new(0.0, 2048, 16),
            RequestSpec::new(100.0, 2048, 16),
        ];
        let (_, requests) = engine.run_detailed(specs);
        // The second request cannot start before it arrives.
        assert!(requests[1].first_token_time.unwrap() > 100.0);
        assert!(requests[0].finish_time.unwrap() < 100.0);
    }

    #[test]
    fn price_cache_hits_dominate_on_offline_workloads() {
        let mut config = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
        config.price_cache = true;
        let report = ServingEngine::new(config).run(offline_long_context(16, 2 * 1024, 512));
        assert_eq!(report.completed, 16);
        assert_eq!(
            report.price_cache_hits + report.price_cache_misses,
            report.iterations
        );
        assert!(
            report.price_cache_hit_rate() > 0.8,
            "hit rate {:.3} ({} hits / {} misses)",
            report.price_cache_hit_rate(),
            report.price_cache_hits,
            report.price_cache_misses
        );
    }

    #[test]
    fn cached_and_uncached_serving_agree_within_quantization_tolerance() {
        let workloads = [
            offline_long_context(12, 8 * 1024, 96),
            Workload::internal().generate(24, 0.8, 5),
        ];
        for requests in workloads {
            for make in [
                ServingConfig::sarathi as fn(ModelConfig, GpuConfig, usize) -> ServingConfig,
                ServingConfig::sarathi_pod,
            ] {
                let mut cached = make(llama3(), gpu(), 1024);
                cached.price_cache = true;
                let mut exact = cached.clone();
                exact.price_cache = false;
                let a = ServingEngine::new(cached).run(requests.clone());
                let b = ServingEngine::new(exact).run(requests.clone());
                assert_eq!(a.completed, b.completed);
                assert_eq!(b.price_cache_hits + b.price_cache_misses, 0);
                let rel = (a.makespan - b.makespan).abs() / b.makespan;
                assert!(
                    rel < 0.02,
                    "{}: cached makespan {} vs exact {} ({:.2}% off)",
                    a.system,
                    a.makespan,
                    b.makespan,
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn signatures_collapse_equivalent_plans_only() {
        let specs = [RequestSpec::new(0.0, 4096, 64); 4];
        let mut requests: Vec<Request> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| Request::new(i, *s))
            .collect();
        requests[1].record_prefill(4096, 0.0);
        requests[2].record_prefill(4096, 0.0);
        let plan_a = BatchPlan {
            prefill: Some((0, 512)),
            decodes: vec![1, 2],
            shed: None,
            spec_tokens: 0,
        };
        let plan_b = BatchPlan {
            prefill: Some((0, 512)),
            decodes: vec![2, 1],
            shed: None,
            spec_tokens: 0,
        };
        let plan_c = BatchPlan {
            prefill: Some((0, 256)),
            decodes: vec![1, 2],
            shed: None,
            spec_tokens: 0,
        };
        let sig_a = BatchSignature::of_plan(&plan_a, &requests, 0);
        let sig_b = BatchSignature::of_plan(&plan_b, &requests, 0);
        let sig_c = BatchSignature::of_plan(&plan_c, &requests, 0);
        assert_eq!(sig_a, sig_b, "decode order must not matter");
        assert_ne!(sig_a, sig_c, "chunk length must matter");
        // The canonical batch reproduces the aggregates.
        let batch = sig_a.canonical_batch();
        assert_eq!(batch.decode_batch_size(), 2);
        assert_eq!(batch.prefill.unwrap().chunk_len, 512);
    }

    #[test]
    #[should_panic(expected = "arrival times must not be NaN")]
    fn nan_arrivals_are_rejected_at_submission() {
        // The pre-stepping engine panicked on NaN arrivals in its sort; the
        // step-able engine must too (a NaN arrival never compares as due, so
        // it would otherwise spin forever un-drainable).
        let _ = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024))
            .run(vec![RequestSpec::new(f64::NAN, 128, 8)]);
    }

    #[test]
    fn deadline_shed_drops_only_hopeless_requests() {
        use crate::request::SloSpec;
        // A saturating front: one huge prompt monopolizes the replica while
        // short SLO'd requests queue behind it past their deadlines.
        let config = ServingConfig::sarathi(llama3(), gpu(), 1024)
            .with_admission(AdmissionPolicy::DeadlineShed);
        let slo = SloSpec::new("interactive", 0.5, 0.2);
        let specs = vec![
            RequestSpec::new(0.0, 30_000, 64),
            RequestSpec::new(0.1, 2_000, 32).with_slo(slo),
            RequestSpec::new(0.2, 2_000, 32).with_slo(slo),
            // No SLO: never shed, however late.
            RequestSpec::new(0.3, 2_000, 32),
        ];
        let (report, requests) = ServingEngine::new(config).run_detailed(specs.clone());
        // The big prompt takes far longer than 0.5 s to prefill, so both
        // SLO'd requests blow their deadline in the queue and are shed.
        assert_eq!(report.shed_requests, 2);
        assert_eq!(report.completed, 2);
        assert!(requests[1].shed_time.is_some());
        assert!(requests[2].shed_time.is_some());
        assert!(requests[3].finish_time.is_some(), "SLO-free request served");
        assert_eq!(report.goodput_requests(), 2);

        // Under AdmitAll the same trace serves everything (but late).
        let admit_all = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024));
        let all = admit_all.run(specs);
        assert_eq!(all.shed_requests, 0);
        assert_eq!(all.completed, 4);
        assert_eq!(all.slo_met, 0, "served, but past deadline: not goodput");
        assert_eq!(all.goodput_requests(), 2);
    }

    #[test]
    fn shedding_never_strands_the_engine() {
        use crate::request::SloSpec;
        // Every request hopeless: the engine must shed them all and drain,
        // not deadlock. Deadlines are blown by arrival ordering: a slow
        // first request pushes the clock far past everyone's deadline.
        let config = ServingConfig::sarathi_pod(llama3(), gpu(), 1024)
            .with_admission(AdmissionPolicy::DeadlineShed);
        let slo = SloSpec::new("interactive", 0.2, 0.2);
        let mut specs = vec![RequestSpec::new(0.0, 30_000, 32)];
        specs.extend((0..6).map(|i| RequestSpec::new(0.1 * i as f64, 4_000, 16).with_slo(slo)));
        let report = ServingEngine::new(config).run(specs);
        assert_eq!(report.completed, 1);
        assert_eq!(report.shed_requests, 6);
        assert_eq!(report.slo_classes[0].shed, 6);
    }

    #[test]
    fn admit_all_is_bit_for_bit_inert_on_slo_carrying_traces() {
        use crate::workload::SloMix;
        // Attaching SLOs without a shedding policy must not change the
        // simulation at all — only the grading.
        let plain = Workload::internal().generate(24, 1.5, 11);
        let tagged = SloMix::interactive_batch().apply(plain.clone(), 11);
        let a = ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024)).run(plain);
        let b = ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024)).run(tagged);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.ttft.p99.to_bits(), b.ttft.p99.to_bits());
        assert_eq!(a.completed, b.completed);
        assert_eq!(b.shed_requests, 0);
        assert!(b.slo_requests > 0, "the tagged run is actually graded");
    }

    #[test]
    fn reclaim_unstarted_takes_queued_but_not_inflight_requests() {
        let mut engine = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024));
        engine.submit(RequestSpec::new(0.0, 8_000, 64)); // will be mid-prefill
        engine.submit(RequestSpec::new(0.0, 4_000, 32)); // queued behind it, unadmitted
        engine.submit(RequestSpec::new(100.0, 2_000, 16)); // future arrival
        engine.step(0.0);
        // Request 0 is mid-prefill (admitted at the queue front, holds KV);
        // request 1 never reached the front, request 2 has not arrived —
        // both are reclaimable, in queue-then-arrival order.
        let reclaimed = engine.reclaim_unstarted();
        assert_eq!(reclaimed.len(), 2);
        assert_eq!(reclaimed[0].prompt_tokens, 4_000);
        assert_eq!(reclaimed[1].arrival, 100.0);
        assert!(engine.requests()[1].reassigned);
        assert!(engine.requests()[2].reassigned);
        assert!(!engine.requests()[0].reassigned);
        // The engine drains what it kept.
        engine.run_until_drained();
        assert!(engine.is_drained());
        let report = engine.report();
        assert_eq!(
            report.completed, 1,
            "reassigned requests are not served here"
        );
    }

    #[test]
    fn system_labels_distinguish_configurations() {
        let a = ServingConfig::vllm(llama3(), gpu()).system_label();
        let b = ServingConfig::sarathi(llama3(), gpu(), 512).system_label();
        let c = ServingConfig::sarathi_pod(llama3(), gpu(), 512).system_label();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(c.contains("POD"));
        let f = ServingConfig::sarathi(llama3(), gpu(), 512)
            .with_fair_queue(FairQueueConfig::new())
            .system_label();
        assert!(f.ends_with("+fair"), "fair label: {f}");
    }

    /// The inertness pin at the engine level: with one tenant and one
    /// priority class, fair queueing never reorders the queue and the report
    /// is bit-for-bit FCFS (only the system label differs).
    #[test]
    fn single_tenant_fair_queueing_is_bit_for_bit_fcfs() {
        let specs = Workload::internal().generate(30, 1.0, 77);
        let fcfs =
            ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024)).run(specs.clone());
        let mut fair = ServingEngine::new(
            ServingConfig::sarathi(llama3(), gpu(), 1024).with_fair_queue(FairQueueConfig::new()),
        )
        .run(specs);
        assert!(fair.system.ends_with("+fair"));
        fair.system = fcfs.system.clone();
        assert_eq!(
            fair.to_json().to_string_pretty(),
            fcfs.to_json().to_string_pretty()
        );
    }

    /// Two tenants, one flooding the queue with heavy prefills: weighted
    /// fair queueing must keep the polite tenant's time-to-first-token far
    /// below what FCFS gives it, without losing any requests.
    #[test]
    fn fair_queueing_protects_the_polite_tenant_from_a_flood() {
        // The flood: 12 heavy prompts, all at t=0, tenant 0. The polite
        // tenant trickles small prompts in behind them.
        let mut specs: Vec<RequestSpec> = (0..12)
            .map(|_| RequestSpec::new(0.0, 12_000, 32).with_tenant(TenantId(0)))
            .collect();
        specs.extend(
            (0..6).map(|i| {
                RequestSpec::new(0.1 + i as f64 * 2.0, 1_000, 32).with_tenant(TenantId(1))
            }),
        );
        let polite_ttft = |report: &ServingReport| {
            report
                .tenants
                .iter()
                .find(|t| t.tenant == TenantId(1))
                .expect("tenant 1 served")
                .ttft
                .mean
        };
        let base = ServingConfig::sarathi(llama3(), gpu(), 1024);
        let fcfs = ServingEngine::new(base.clone()).run(specs.clone());
        let fair = ServingEngine::new(base.with_fair_queue(FairQueueConfig::new())).run(specs);
        assert_eq!(fair.completed, fcfs.completed, "no request lost");
        assert!(
            polite_ttft(&fair) < 0.5 * polite_ttft(&fcfs),
            "fair TTFT {} vs FCFS {}",
            polite_ttft(&fair),
            polite_ttft(&fcfs)
        );
    }

    /// Priority preemption: a high-priority arrival evicts a lower-priority
    /// resident decode when the paged pool is full, the eviction is
    /// attributed to the preemptor, and everything still completes.
    #[test]
    fn priority_preemption_evicts_lower_class_decodes() {
        let mut base = ServingConfig::sarathi(llama3(), gpu(), 1024).with_paged_kv(false);
        base.kv_capacity_tokens = Some(20_000);
        // Low-priority requests fill the pool with long decodes first; the
        // high-priority request arrives once they are resident.
        let mut specs: Vec<RequestSpec> = (0..4)
            .map(|_| {
                RequestSpec::new(0.0, 4_000, 2_000)
                    .with_tenant(TenantId(0))
                    .with_priority(Priority::Low)
            })
            .collect();
        specs.push(
            RequestSpec::new(2.0, 4_000, 32)
                .with_tenant(TenantId(1))
                .with_priority(Priority::High),
        );
        let fair = ServingEngine::new(
            base.clone()
                .with_fair_queue(FairQueueConfig::new().with_priority_preemption(true)),
        )
        .run(specs.clone());
        assert_eq!(fair.completed, 5, "preempted work is re-served");
        let high = fair
            .tenants
            .iter()
            .find(|t| t.tenant == TenantId(1))
            .expect("high-priority tenant served");
        assert!(
            high.preemptions_inflicted > 0,
            "the high-priority admission must have evicted someone"
        );
        let low = fair
            .tenants
            .iter()
            .find(|t| t.tenant == TenantId(0))
            .expect("low-priority tenant served");
        assert!(
            low.preemptions_suffered >= high.preemptions_inflicted,
            "victims restart: {} suffered vs {} inflicted",
            low.preemptions_suffered,
            high.preemptions_inflicted
        );
        // Without preemption the high-priority request waits for free KV.
        let fcfs = ServingEngine::new(base).run(specs);
        let high_ttft = |r: &ServingReport| {
            r.tenants
                .iter()
                .find(|t| t.tenant == TenantId(1))
                .expect("tenant 1")
                .ttft
                .mean
        };
        assert!(
            high_ttft(&fair) < high_ttft(&fcfs),
            "preemption must cut the high-priority TTFT: {} vs {}",
            high_ttft(&fair),
            high_ttft(&fcfs)
        );
    }

    /// The "+spec" suffix appears exactly when speculative decoding is
    /// configured, and it sorts last in the label.
    #[test]
    fn speculative_label_suffix() {
        let plain = ServingConfig::sarathi_pod(llama3(), gpu(), 512);
        assert!(!plain.system_label().contains("+spec"));
        let spec = plain.with_speculative(
            4,
            crate::DraftModelConfig::scaled(0.25),
            AcceptanceModel::new(0.8, 7),
        );
        let label = spec.system_label();
        assert!(label.ends_with("+spec"), "spec label: {label}");
    }

    /// The headline win: with a free drafter and perfect acceptance, k=4
    /// speculation mints four tokens per verify round, so the same workload
    /// completes in strictly less virtual time than plain autoregressive
    /// decode — with zero rejected drafts.
    #[test]
    fn perfect_acceptance_free_draft_beats_autoregressive() {
        let specs = Workload::internal().generate(24, 2.0, 11);
        let base = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
        let ar = ServingEngine::new(base.clone()).run(specs.clone());
        let spec = ServingEngine::new(base.with_speculative(
            4,
            crate::DraftModelConfig::free(),
            AcceptanceModel::new(1.0, 11),
        ))
        .run(specs);
        assert_eq!(spec.completed, ar.completed, "no request lost");
        assert!(spec.spec_rounds > 0, "speculation must actually run");
        assert_eq!(
            spec.draft_tokens_rejected, 0,
            "acceptance 1.0 rejects nothing"
        );
        assert!(spec.draft_tokens_accepted > 0);
        assert!(
            spec.makespan < ar.makespan,
            "spec makespan {} vs AR {}",
            spec.makespan,
            ar.makespan
        );
    }

    /// At acceptance 0.0 every round nets exactly one token (the mandatory
    /// bonus token), so speculation degrades to autoregressive progress while
    /// still paying for its drafts and verify work: one spec round per decode
    /// token, all drafts rejected, and a makespan no better than plain AR.
    #[test]
    fn zero_acceptance_mints_one_token_per_round() {
        // Offline batch with ample KV: no preemption, so every request mints
        // its first token at prefill completion and the remaining
        // `output - 1` in decode rounds.
        let specs: Vec<RequestSpec> = (0..8).map(|_| RequestSpec::new(0.0, 2000, 40)).collect();
        let base = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
        let ar = ServingEngine::new(base.clone()).run(specs.clone());
        let spec = ServingEngine::new(base.with_speculative(
            4,
            crate::DraftModelConfig::scaled(0.25),
            AcceptanceModel::new(0.0, 13),
        ))
        .run(specs);
        assert_eq!(spec.completed, ar.completed);
        assert_eq!(
            spec.draft_tokens_accepted, 0,
            "acceptance 0.0 accepts nothing"
        );
        assert!(spec.draft_tokens_rejected > 0);
        assert_eq!(
            spec.spec_rounds,
            8 * (40 - 1),
            "one net token per round means one round per decode token"
        );
        assert!(
            spec.makespan >= ar.makespan,
            "verify work is never free: spec {} vs AR {}",
            spec.makespan,
            ar.makespan
        );
    }

    /// Rollback through the paged KV path must conserve blocks: after a
    /// speculative run full of rejected drafts drains, the pool is empty.
    #[test]
    fn speculative_rollback_leaks_no_kv_blocks() {
        let mut config = ServingConfig::sarathi_pod(llama3(), gpu(), 512)
            .with_paged_kv(false)
            .with_speculative(
                6,
                crate::DraftModelConfig::scaled(0.25),
                AcceptanceModel::new(0.4, 29),
            );
        config.kv_capacity_tokens = Some(60_000);
        let mut engine = ServingEngine::new(config);
        for spec in Workload::internal().generate(20, 4.0, 29) {
            engine.submit(spec);
        }
        engine.run_until_drained();
        let report = engine.report();
        assert_eq!(report.completed, 20);
        assert!(report.spec_rounds > 0);
        assert!(
            report.draft_tokens_rejected > 0,
            "rollback must be exercised"
        );
        assert_eq!(
            engine.kv_utilization(),
            0.0,
            "drained pool must hold no leaked blocks"
        );
    }

    /// Every speculative round lands a `spec_round` event in the flight
    /// recorder, and the recorded accepted/rejected tallies reconcile with
    /// the report's counters.
    #[test]
    fn speculative_rounds_are_traced() {
        let config = ServingConfig::sarathi_pod(llama3(), gpu(), 1024)
            .with_speculative(
                4,
                crate::DraftModelConfig::scaled(0.25),
                AcceptanceModel::new(0.7, 5),
            )
            .with_tracing(TraceConfig::new().with_capacity(1 << 20));
        let mut engine = ServingEngine::new(config);
        for spec in Workload::internal().generate(10, 2.0, 5) {
            engine.submit(spec);
        }
        engine.run_until_drained();
        let report = engine.report();
        let recording = engine.flight_recording().expect("tracing configured");
        let (mut rounds, mut accepted, mut rejected) = (0usize, 0usize, 0usize);
        for ev in &recording.replicas[0] {
            if let TraceEventKind::SpecRound {
                width,
                accepted: a,
                minted,
                ..
            } = ev.kind
            {
                rounds += 1;
                accepted += a;
                rejected += width - a;
                assert!(minted >= 1 && minted <= width);
                assert!(a <= width);
            }
        }
        assert_eq!(rounds, report.spec_rounds);
        assert_eq!(accepted, report.draft_tokens_accepted);
        assert_eq!(rejected, report.draft_tokens_rejected);
    }
}

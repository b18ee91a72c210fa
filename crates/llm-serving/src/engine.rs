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
use crate::fairness::{victim, FairQueue, FairQueueConfig};
use crate::fasthash::FastMap;
use crate::linear::IterationCostModel;
use crate::metrics::{ReportAccumulator, ServingCounters, ServingReport};
use crate::model::ModelConfig;
use crate::request::{Phase, Priority, Request, RequestSpec, TenantId};
use crate::scheduler::{BatchPlan, SchedulerKind};
use crate::speculative::{AcceptanceModel, DecodeMode};
use crate::trace::{FlightRecording, TraceConfig, TraceEventKind, TraceRecorder};
use attn_kernels::{AttentionStrategy, DecodeRequest, HybridBatch};
use gpu_sim::GpuConfig;
use std::collections::VecDeque;

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
/// [`ClusterConfig::with_autoscaler`](crate::ClusterConfig::with_autoscaler)),
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
    /// How hybrid-batch attention is computed: FA_Serial or POD, the two
    /// strategies the closed-form estimator prices (see
    /// [`ServingEngine::new`]).
    pub attention: AttentionStrategy,
    /// Override for the KV-cache capacity in tokens (defaults to what fits in
    /// HBM after weights).
    pub kv_capacity_tokens: Option<usize>,
    /// Whether the engine's cost model memoizes iteration prices by quantized
    /// batch signature ([`IterationCostModel::new`]). Defaults to on; set it
    /// to `false` to price every iteration exactly
    /// ([`IterationCostModel::exact`]), e.g. when validating the quantization
    /// error.
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
    /// requests keep their token times and are graded at report time with
    /// exact percentiles, the output the golden tests pin bit for bit; the
    /// token gaps are read from the records, not copied, so the token
    /// samples are held once. On:
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
            scheduler: SchedulerKind::Sarathi { chunk_size },
            ..ServingConfig::vllm(model, gpu)
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
    /// off (see [`ServingConfig::streaming_metrics`]). Off, memory grows
    /// with the tokens generated: each request keeps one output-sized
    /// token-time buffer, which exact reports read in place.
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
        let flag = |on: bool, label: &'static str| if on { label } else { "" };
        format!(
            "{}{}{}{}{}{}{}",
            self.scheduler.label(),
            flag(self.attention == AttentionStrategy::Pod, "+POD"),
            self.kv_policy.label_suffix(),
            flag(
                self.decode_dedup && self.kv_policy.prefix_caching(),
                "+dedup"
            ),
            self.admission.label_suffix(),
            flag(self.fair_queue.is_some(), "+fair"),
            flag(self.decode_mode.is_speculative(), "+spec"),
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

/// Mutable simulation state of one replica: queues, KV cache and clock.
/// Kept separate from the engine's configuration and cost models so `step`
/// can borrow the cost model and the state independently.
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
    /// Remaining tokens (prompt + output) of every request in `arrivals`,
    /// `waiting`, `running` and `pending_imports`, kept as a running count:
    /// [`ServingEngine::outstanding_tokens`] reads it in O(1), and debug
    /// builds check it against [`EngineState::scan_outstanding`] after
    /// every step and every call that moves it.
    outstanding: usize,
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
    /// Fair-queue state (`Some` exactly when the config carries a
    /// [`FairQueueConfig`]): per-tenant virtual time and the floor.
    fair: Option<FairQueue>,
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
            counters: ServingCounters::default(),
            pending_export: Vec::new(),
            pending_imports: VecDeque::new(),
            outstanding: 0,
            accumulator: config.streaming_metrics.then(ReportAccumulator::sketch),
            live_token_samples: 0,
            peak_token_samples: 0,
            fair: config.fair_queue.clone().map(FairQueue::new),
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

    /// The remaining tokens [`EngineState::outstanding`] counts, summed from
    /// the queues: the oracle the running count is checked against.
    fn scan_outstanding(&self) -> usize {
        self.arrivals
            .iter()
            .chain(self.waiting.iter())
            .chain(self.running.iter())
            .map(|&r| self.requests[r].remaining_tokens())
            .sum::<usize>()
            + self
                .pending_imports
                .iter()
                .map(|imp| imp.request.remaining_tokens())
                .sum::<usize>()
    }

    /// Debug builds: the running count equals the scan.
    fn debug_check_outstanding(&self) {
        debug_assert_eq!(
            self.outstanding,
            self.scan_outstanding(),
            "outstanding-token count drifted from its queues"
        );
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
        // The reclaimed KV is owed again: recompute raises the remaining work.
        let before = self.requests[rid].remaining_tokens();
        self.requests[rid].preempt();
        self.outstanding += self.requests[rid].remaining_tokens() - before;
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

    /// Admit `rid`, the unadmitted front of the waiting queue, under either
    /// KV policy: match the prompt against the prefix index (when enabled),
    /// take the uncached rest of the policy grant, and skip the matched
    /// tokens. Without room it defers, taking nothing. A counted grant emits
    /// no KV alloc event.
    fn admit(&mut self, policy: KvCachePolicy, grant_spec_k: usize, rid: usize) -> bool {
        let now = self.clock;
        let req = &self.requests[rid];
        // Feasibility: to *finish*, the request must at some point hold
        // blocks for its whole prompt + output. Admitting one that never can
        // would decode until growth exhausts the pool and then
        // preempt/recompute forever; deferring it surfaces the Blocked
        // outcome with the same total-tokens sizing number under both
        // policies.
        if blocks_for(req.spec.total_tokens()) > self.pool.capacity_blocks() {
            self.trace(now, || TraceEventKind::Defer { request: rid });
            return false;
        }
        // Match the prompt (or, after a preemption, the full recompute
        // target) against the prefix index, capped one below the target so
        // at least one token is always computed; then take the uncached rest
        // of the grant.
        let grant = policy.grant(req, None, grant_spec_k);
        let m = if policy.prefix_caching() {
            self.pool
                .acquire_prefix(req.spec.content, req.target_prefill() - 1)
        } else {
            PrefixMatch::default()
        };
        let (reused, cow, cached_tokens) = (m.blocks.len(), m.cow_source, m.cached_tokens);
        let needed = grant.blocks - reused;
        let table = &mut self.tables[rid];
        table.blocks = m.blocks;
        let admitted = table.take(&mut self.pool, needed, grant.named);
        if admitted {
            table.shared = reused;
            table.indexed = reused;
            table.cursor = m.cursor;
            self.counters.cached_prefix_tokens += cached_tokens;
            self.counters.blocks_reused += reused;
            self.counters.cow_copies += usize::from(cow.is_some());
            self.trace(now, || TraceEventKind::Admit {
                request: rid,
                cached_tokens,
            });
            if grant.named {
                self.trace(now, || TraceEventKind::KvAlloc {
                    request: rid,
                    blocks: needed,
                    reused,
                    cow: cow.is_some(),
                });
            }
            // Chunking starts at the matched offset; the skipped tokens
            // leave the outstanding count.
            self.requests[rid].note_cached_prefix(cached_tokens);
            self.outstanding -= cached_tokens;
        } else {
            // Roll back the prefix acquisition; the request retries next
            // iteration.
            self.pool.release(&std::mem::take(&mut table.blocks));
            self.trace(now, || TraceEventKind::Defer { request: rid });
        }
        // The CoW source was pinned by acquire_prefix so the grant above
        // could not evict it mid-admission; the copy has now happened (or
        // the admission was rolled back), so drop the pin either way.
        if let Some(cow) = cow {
            self.pool.release(&[cow]);
        }
        admitted
    }

    /// Drop the front of the waiting queue unserved: its deadline is
    /// already unmeetable (SLO-aware admission control).
    fn shed_front(&mut self) {
        let rid = self.waiting.pop_front().expect("a front to shed");
        self.outstanding -= self.requests[rid].remaining_tokens();
        self.requests[rid].shed_time = Some(self.clock);
        let t = self.clock;
        self.trace(t, || TraceEventKind::Shed { request: rid });
        if let Some(acc) = self.accumulator.as_mut() {
            acc.observe(&self.requests[rid]);
        }
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
        let mut group_of: FastMap<(usize, BlockId), usize> = FastMap::default();
        let mut next_group = 0usize;
        let mut ranked: Vec<(usize, usize, usize)> = Vec::with_capacity(self.running.len());
        for (i, &rid) in self.running.iter().enumerate() {
            let table = &self.tables[rid];
            let group = if table.shared == 0 {
                next_group
            } else {
                *group_of
                    .entry(table.shared_chain_key())
                    .or_insert(next_group)
            };
            next_group += usize::from(group == next_group);
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
        let mut chains: FastMap<(usize, BlockId), usize> = FastMap::default();
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
    ///
    /// # Panics
    ///
    /// If `config.attention` is neither FA_Serial nor POD, the only
    /// strategies the closed-form estimator prices.
    pub fn new(config: ServingConfig) -> Self {
        let attention = config.attention;
        assert!(
            matches!(
                attention,
                AttentionStrategy::FaSerial | AttentionStrategy::Pod
            ),
            "serving runs FA_Serial or POD attention, not {attention}; time {attention} \
             with fusion_lab::HybridAttentionRunner"
        );
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
    /// Panics on a NaN or infinite arrival time: a NaN never compares as
    /// due, and a request served at `+∞` has no finite latency.
    pub fn submit(&mut self, spec: RequestSpec) -> usize {
        assert!(
            spec.arrival.is_finite(),
            "arrival times must not be NaN or infinite"
        );
        let id = self.state.requests.len();
        let request = Request::new(id, spec);
        self.state.outstanding += request.remaining_tokens();
        self.state.requests.push(request);
        self.state.tables.push(Residency::default());
        // Keep the pending-arrival queue sorted; insertion after equal
        // arrivals preserves submission order for ties, matching the stable
        // sort the closed-world `run` historically used.
        let at = self
            .state
            .arrivals
            .partition_point(|&r| self.state.requests[r].spec.arrival <= spec.arrival);
        self.state.arrivals.insert(at, id);
        self.state.debug_check_outstanding();
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
                st.outstanding -= st.requests[rid].remaining_tokens();
                specs.push(st.requests[rid].spec);
            }
        }
        st.waiting = kept;
        for &rid in &st.arrivals {
            st.requests[rid].reassigned = true;
            st.outstanding -= st.requests[rid].remaining_tokens();
            specs.push(st.requests[rid].spec);
        }
        st.arrivals.clear();
        st.debug_check_outstanding();
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
            // The handoff takes the output-sized token buffer; the record
            // left here keeps a copy of its one token time.
            let mut request = st.requests[rid].clone();
            std::mem::swap(&mut request.token_times, &mut st.requests[rid].token_times);
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
        self.state.outstanding += handoff.request.remaining_tokens();
        self.state.pending_imports.insert(
            at,
            PendingImport {
                available_at,
                request: handoff.request,
                chain: handoff.chain,
            },
        );
        self.state.debug_check_outstanding();
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
    ///
    /// Migrated-in requests still in flight count too: without them,
    /// simultaneous deliveries would all dogpile onto the same decode
    /// replica. Parked prefill exports do not (they belong to the decode
    /// side once picked up). O(1): the engine keeps it as a running count.
    pub fn outstanding_tokens(&self) -> usize {
        self.state.outstanding
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
        next_arrival.into_iter().chain(next_import).reduce(f64::min)
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

    /// Fair-queueing selection: move [`FairQueue::select`]'s winner to the
    /// waiting-queue slot right after any admitted (resident, mid-prefill)
    /// prefix. Every other waiting request keeps its relative order. A no-op
    /// without a [`FairQueueConfig`].
    fn fair_reorder(&mut self) {
        let st = &mut self.state;
        let Some(fair) = st.fair.as_mut() else {
            return;
        };
        let start = st
            .waiting
            .iter()
            .take_while(|&&r| st.tables[r].is_held())
            .count();
        let candidates = st.waiting.range(start..).map(|&r| {
            let spec = &st.requests[r].spec;
            (spec.priority, spec.tenant)
        });
        let winner = fair.select(candidates);
        if winner > 0 {
            let rid = st.waiting.remove(start + winner).expect("winner is queued");
            st.waiting.insert(start, rid);
        }
    }

    /// Priority preemption (paged policy only): when the fair queue's choice
    /// sits at the actual queue front but the block pool blocks its
    /// admission, preempt fairness [`victim`]s of strictly lower
    /// [`Priority`] until the candidate fits or no victim remains. Each
    /// eviction is charged to the candidate's
    /// [`Request::preemptions_inflicted`]. Returns whether anything was
    /// preempted (victims re-queue at the front, so the caller must re-run
    /// the fair selection).
    fn priority_preempt(&mut self) -> bool {
        let fair = self.state.fair.as_ref();
        let paged = matches!(self.config.kv_policy, KvCachePolicy::Paged { .. });
        if !paged || !fair.is_some_and(FairQueue::preempts_priorities) {
            return false;
        }
        let grant_spec_k = self.grant_spec_k();
        let st = &mut self.state;
        // Only act for the schedulable front: a resident (mid-prefill)
        // request ahead of the candidate owns the prefill slot, and evicting
        // decodes for a request that cannot be consulted yet wastes work.
        let front = st.waiting.front().filter(|&&r| !st.tables[r].is_held());
        let Some(&cand) = front else {
            return false;
        };
        // Never preempt for a request that cannot fit even in an empty pool
        // (the feasibility rule admission defers on).
        let capacity_blocks = st.pool.capacity_blocks();
        if blocks_for(st.requests[cand].spec.total_tokens()) > capacity_blocks {
            return false;
        }
        let pri: Priority = st.requests[cand].spec.priority;
        // The grant admission takes (prefix-cache hits can only shrink it,
        // so the check may over-evict by at most the cached share).
        let needed = self
            .config
            .kv_policy
            .grant(&st.requests[cand], None, grant_spec_k)
            .blocks;
        let mut any = false;
        while capacity_blocks - st.pool.referenced_blocks() < needed {
            let running = st
                .running
                .iter()
                .map(|&r| (r, st.requests[r].spec.priority));
            let Some(v) = victim(running, pri) else {
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
        // Victims of priority preemption re-queue at the front; re-selecting
        // restores the winner, which outranks its own victims.
        self.fair_reorder();
        if self.priority_preempt() {
            self.fair_reorder();
        }
        let plan = self.plan();
        if plan.is_empty() {
            self.state.debug_check_outstanding();
            return self.idle_outcome();
        }
        let dt = self.price(&plan);
        let (stats, finished) = self.apply(&plan, dt);
        self.kv_effects(&plan, &finished);
        self.finish_and_stream(&finished);
        self.export_prefill(&plan);
        self.trace_iteration(&plan, &stats, evicted_before);
        self.state.debug_check_outstanding();
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
    /// Sarathi decode cap (taking the first `MAX_BATCH_SIZE` of an
    /// interleaved running set would split groups). This precedes growth so
    /// the growth set matches the co-batched decode set. Growth then gives
    /// every request that will decode this iteration blocks for its next
    /// token, preempting the newest decodes if the pool is exhausted. The
    /// growth set must match the scheduler's decode set exactly, so both
    /// take [`SchedulerKind::decode_cap`].
    fn cobatch_and_grow(&mut self) {
        if self.dedup_on() && self.state.running.len() > 1 {
            self.state.cobatch_shared_prefixes();
        }
        self.state.grow_decode_blocks(
            self.config.scheduler.decode_cap(),
            self.config.decode_mode.spec_k(),
        );
    }

    /// Phase: plan the iteration. The scheduler picks the decodes and the
    /// prefill budget; admission then consults the front of the waiting
    /// queue. A front that holds its grant (mid-prefill) takes the prefill
    /// slot. An unadmitted one is shed (its deadline is already unmeetable)
    /// and the next front consulted in the same iteration, or is admitted
    /// into the slot, or defers, leaving the slot empty.
    fn plan(&mut self) -> BatchPlan {
        let grant_spec_k = self.grant_spec_k();
        let config = &self.config;
        let st = &mut self.state;
        let spec_k = config.decode_mode.spec_k();
        let (mut plan, budget) = config.scheduler.plan(&st.requests, &st.running, spec_k);
        let Some(budget) = budget else {
            return plan;
        };
        while let Some(&front) = st.waiting.front() {
            if !st.tables[front].is_held() {
                if config.admission.should_shed(&st.requests[front], st.clock) {
                    st.shed_front();
                    continue;
                }
                if !st.admit(config.kv_policy, grant_spec_k, front) {
                    break;
                }
            }
            plan.add_prefill(config.scheduler, &st.requests[front], budget);
            break;
        }
        plan
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
        if let Some(t) = next_arrival.into_iter().chain(next_import).reduce(f64::min) {
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
    /// trace is bit-for-bit what a dedup-unaware engine produces. The cost
    /// model prices the plan's aggregates (see [`IterationCostModel::price`]).
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
        let requests = &st.requests;
        let (dt, hit) = self.cost.price(
            plan.prefill
                .map(|(rid, chunk)| (chunk, requests[rid].prefilled)),
            plan.decodes
                .iter()
                .map(|&rid| requests[rid].context_len().max(1)),
            dedup_tokens,
            plan.spec_tokens,
            self.config.attention,
        );
        match hit {
            Some(true) => st.counters.price_cache_hits += 1,
            Some(false) => st.counters.price_cache_misses += 1,
            None => {}
        }
        // Draft proposal time: `k` decode passes of the drafter over this
        // iteration's decode set, priced unmemoized over the real contexts
        // and added outside the batch-price memo. Zero — and
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

        // Request lifecycles. `finished` lists the requests that finished:
        // a prefill completion first, then decodes in plan order (a
        // deterministic release order). Every minted token is a resident
        // sample, and it leaves the outstanding count with the prefilled
        // chunk.
        let mut finished = Vec::new();
        if let Some((rid, chunk)) = plan.prefill {
            let req = &mut st.requests[rid];
            let (samples, remaining) = (req.token_times.len(), req.remaining_tokens());
            req.record_prefill(chunk, st.clock);
            st.live_token_samples += req.token_times.len() - samples;
            st.outstanding -= remaining - req.remaining_tokens();
            // A completed prompt minted its first token (or, after a
            // preemption, finished its recompute) and moves to running.
            match req.phase() {
                Phase::Decoding => {
                    st.waiting.retain(|&r| r != rid);
                    st.running.push(rid);
                }
                Phase::Finished => {
                    st.waiting.retain(|&r| r != rid);
                    finished.push(rid);
                }
                _ => {}
            }
        }
        // A speculative decode optimistically mints its whole drafted width
        // (`width <= remaining output`, so it never overshoots the budget),
        // then rolls the rejected suffix back through [`Request::rollback`]:
        // the mint-then-truncate lifecycle a real draft-then-verify engine
        // follows.
        for (i, &rid) in plan.decodes.iter().enumerate() {
            let req = &mut st.requests[rid];
            match spec_outcomes.get(i) {
                None => req.record_decode_token(st.clock),
                Some(o) => {
                    for _ in 0..o.width {
                        req.record_decode_token(st.clock);
                    }
                    req.rollback(o.width - o.minted);
                }
            }
            if req.phase() == Phase::Finished {
                st.running.retain(|&r| r != rid);
                finished.push(rid);
            }
        }
        // Net decode tokens minted this iteration: one per decode
        // autoregressively; the accepted prefix plus correction token per
        // speculative round (optimistic mints beyond that were rolled back).
        let decode_tokens = if spec_outcomes.is_empty() {
            plan.decodes.len()
        } else {
            spec_outcomes.iter().map(|o| o.minted).sum()
        };
        st.live_token_samples += decode_tokens;
        st.outstanding -= decode_tokens;
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

        let prefill_tokens = plan.prefill.map_or(0, |(_, chunk)| chunk);
        st.counters.prefill_tokens_scheduled += prefill_tokens;
        if let (Some(fair), Some((rid, _))) = (st.fair.as_mut(), plan.prefill) {
            fair.bill(st.requests[rid].spec.tenant, prefill_tokens);
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
        st.outstanding -= st.requests[rid].remaining_tokens();
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
                } => panic!(
                    "serving deadlock: a request needs more KV-cache capacity ({needed_tokens} tokens) than the GPU offers ({capacity_tokens} tokens)"
                ),
            }
        }
    }

    /// Step until every submitted request has finished. Every arrival is
    /// finite, so this is [`advance_to`](Self::advance_to) at `+∞`.
    ///
    /// # Panics
    ///
    /// Panics if a queued request can never fit in the KV cache.
    pub fn run_until_drained(&mut self) {
        self.advance_to(f64::INFINITY);
    }

    /// Snapshot the aggregated report for everything served so far. Valid
    /// mid-run (unfinished requests are excluded from the latency stats).
    pub fn report(&self) -> ServingReport {
        let st = &self.state;
        let acc = match &st.accumulator {
            // Streaming mode: the accumulator already folded every finished
            // and shed request (token buffers are gone).
            Some(acc) => acc.clone(),
            None => ReportAccumulator::exact(&st.requests),
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
    /// per-request records (for custom analyses). Runs on a fresh engine of
    /// the same configuration (empty state and price memo), so `run` can be
    /// called repeatedly (and on an engine that is also being stepped)
    /// without interference.
    ///
    /// # Panics
    ///
    /// Panics if a single request can never fit in the KV cache (a
    /// configuration error rather than a load condition).
    pub fn run_detailed(&self, specs: Vec<RequestSpec>) -> (ServingReport, Vec<Request>) {
        let mut engine = ServingEngine::new(self.config.clone());
        engine.export_prefills = self.export_prefills;
        for spec in specs {
            engine.submit(spec);
        }
        engine.run_until_drained();
        let report = engine.report();
        (report, engine.state.requests)
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

    /// A strategy the estimator cannot price fails when the engine is built,
    /// not at its first iteration.
    #[test]
    #[should_panic(expected = "serving runs FA_Serial or POD attention, not FA_Streams")]
    fn unpriced_attention_is_rejected_at_construction() {
        let mut config = ServingConfig::sarathi(llama3(), gpu(), 1024);
        config.attention = AttentionStrategy::FaStreams;
        let _ = ServingEngine::new(config);
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
    fn shed_front_is_reported_without_occupying_the_prefill_slot() {
        use crate::request::SloSpec;
        use crate::trace::TraceConfig;
        // One request decoding, then two hopeless SLO'd fronts ahead of a
        // servable one: the same iteration sheds both and gives the prefill
        // slot to the third, in queue order.
        let slo = SloSpec::new("interactive", 0.001, 0.2);
        for base in [
            ServingConfig::vllm(llama3(), gpu()),
            ServingConfig::sarathi(llama3(), gpu(), 1024),
        ] {
            let hybrid = base.scheduler != SchedulerKind::Vllm;
            let config = base
                .with_admission(AdmissionPolicy::DeadlineShed)
                .with_tracing(TraceConfig::new());
            let mut engine = ServingEngine::new(config);
            engine.submit(RequestSpec::new(0.0, 512, 64));
            assert!(matches!(engine.step(0.0), IterationOutcome::Ran(_)));
            assert_eq!(engine.running_decodes(), 1);
            engine.submit(RequestSpec::new(0.0, 2_000, 32).with_slo(slo));
            engine.submit(RequestSpec::new(0.0, 2_000, 32).with_slo(slo));
            engine.submit(RequestSpec::new(0.0, 2_000, 32));
            let IterationOutcome::Ran(stats) = engine.step(engine.clock()) else {
                panic!("the servable front runs");
            };
            assert_eq!(stats.hybrid, hybrid);
            assert_eq!(stats.prefill_tokens, if hybrid { 1023 } else { 2_000 });
            let requests = engine.requests();
            assert!(requests[1].shed_time.is_some() && requests[2].shed_time.is_some());
            assert!(requests[3].prefill_start_time.is_some());
            let recording = engine.flight_recording().expect("tracing configured");
            let admission: Vec<&TraceEventKind> = recording.replicas[0]
                .iter()
                .map(|ev| &ev.kind)
                .filter(|k| {
                    matches!(
                        k,
                        TraceEventKind::Shed { .. } | TraceEventKind::Admit { .. }
                    )
                })
                .collect();
            let admit = |request| TraceEventKind::Admit {
                request,
                cached_tokens: 0,
            };
            assert_eq!(
                admission,
                [
                    &admit(0),
                    &TraceEventKind::Shed { request: 1 },
                    &TraceEventKind::Shed { request: 2 },
                    &admit(3),
                ]
            );
            assert_eq!(engine.outstanding_tokens(), engine.state.scan_outstanding());
        }
    }

    #[test]
    #[should_panic(expected = "arrival times must not be NaN or infinite")]
    fn infinite_arrivals_are_rejected() {
        let mut engine = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024));
        engine.submit(RequestSpec::new(f64::INFINITY, 2_000, 8));
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

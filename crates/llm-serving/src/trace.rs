//! Request-lifecycle tracing, timeline metrics and the flight recorder.
//!
//! The end-of-run [`crate::ServingReport`] says *what* a run did; this module
//! records *why*: every request's journey through
//! enqueue → admit/defer/shed → chunked prefill → decode →
//! preempt/migrate/finish, per-iteration batch composition with the priced
//! cost, KV block traffic, and periodic timeline samples of occupancy and
//! utilization — all stamped on the **virtual clock**, so a trace is a
//! deterministic function of (workload, config, seed) and bit-for-bit
//! identical at every cluster worker count.
//!
//! # Design rules
//!
//! * **Zero-cost when off.** Tracing lives behind
//!   [`ServingConfig::with_tracing`](crate::ServingConfig::with_tracing); the
//!   engine holds an `Option<TraceRecorder>` that is `None` by default, and
//!   every emission site is a branch on that option. Recording is purely
//!   observational — it reads simulation state and never mutates it — so a
//!   traced run's report is bit-identical to an untraced run's (pinned by
//!   the golden tests and the fuzz ride-along).
//! * **Bounded memory: the flight recorder.** Events land in a per-replica
//!   ring buffer of [`TraceConfig::capacity`] entries; once full, the oldest
//!   event is dropped (and counted). A fleet can therefore fly with tracing
//!   always on and pay a constant memory bill, keeping the last *N* events
//!   of history for when something goes wrong — the fuzz harness dumps the
//!   recorder automatically on any invariant violation.
//! * **Constant-memory timelines.** Periodic samples of running requests, KV
//!   utilization and queue depth additionally fold into
//!   [`QuantileSketch`]es ([`TimelineSummary`]), so the *distribution* of a
//!   timeline survives even after the ring has dropped its oldest samples.
//!
//! # Exporters
//!
//! [`FlightRecording`] (collected from an engine or merged across a
//! cluster's replicas in replica-index order) exports two formats through
//! the in-repo [`JsonValue`] writer:
//!
//! * [`FlightRecording::to_chrome_json`] — Chrome `trace_event` JSON:
//!   complete spans per request and per iteration, counter tracks for the
//!   timelines, and an instant for every other event except admissions,
//!   defers, allocs and frees. Load the file in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! * [`FlightRecording::to_jsonl`] — one compact JSON object per event, for
//!   grep/jq-style analysis and byte-exact determinism tests.
//!
//! Each event kind declares its fields once, in `TraceEventKind::fields`:
//! the JSONL record is `t`, `type` and those fields, and every Chrome
//! instant is derived from them by one rule (see `chrome_instant`). A new
//! kind needs a variant, a [`TraceEventKind::label`] arm and a `fields` arm.

use crate::json::JsonValue;
use crate::request::{Priority, TenantId};
use crate::sketch::QuantileSketch;
use std::collections::{BTreeMap, VecDeque};

/// Default ring-buffer capacity (events per replica).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default virtual-clock interval between timeline samples, in seconds.
pub const DEFAULT_TIMELINE_INTERVAL: f64 = 1.0;

/// Configuration of the tracing subsystem, attached to a config via
/// [`ServingConfig::with_tracing`](crate::ServingConfig::with_tracing).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events, per replica. When the buffer is
    /// full, the oldest event is dropped (flight-recorder semantics; the
    /// drop count is reported). Must be at least 1.
    pub capacity: usize,
    /// Virtual seconds between timeline samples. Samples are taken on the
    /// first iteration completing at or after each interval boundary, so an
    /// idle replica emits none. Must be positive and finite.
    pub timeline_interval: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            timeline_interval: DEFAULT_TIMELINE_INTERVAL,
        }
    }
}

impl TraceConfig {
    /// Default capacity and timeline interval.
    pub fn new() -> Self {
        TraceConfig::default()
    }

    /// The same configuration with the given ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "the flight recorder needs capacity >= 1");
        self.capacity = capacity;
        self
    }

    /// The same configuration with a timeline sampling interval in virtual
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn with_timeline_interval(mut self, interval: f64) -> Self {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "timeline intervals must be positive and finite"
        );
        self.timeline_interval = interval;
        self
    }
}

/// One recorded event: a virtual-clock stamp plus what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event in seconds.
    pub t: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// What a [`TraceEvent`] records. Request ids are the engine-local ids
/// ([`crate::Request::id`]); in cluster recordings they are scoped by the
/// replica the event came from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A request became visible to the scheduler (its arrival time was
    /// reached).
    Enqueue {
        /// Engine-local request id.
        request: usize,
        /// Owning tenant.
        tenant: TenantId,
        /// Scheduling priority class.
        priority: Priority,
        /// Prompt length in tokens.
        prompt_tokens: usize,
        /// Output length in tokens.
        output_tokens: usize,
    },
    /// Admission granted: the request acquired KV residency and entered the
    /// prefill slot (also emitted on re-admission after a preemption).
    Admit {
        /// Engine-local request id.
        request: usize,
        /// Prompt tokens satisfied from the prefix cache at this admission.
        cached_tokens: usize,
    },
    /// Admission deferred: the request stays queued (KV pressure or
    /// feasibility).
    Defer {
        /// Engine-local request id.
        request: usize,
    },
    /// The admission policy dropped the request unserved (deadline already
    /// blown).
    Shed {
        /// Engine-local request id.
        request: usize,
    },
    /// A running decode was preempted (swap-out): its blocks were reclaimed
    /// and it re-queued for recompute.
    Preempt {
        /// Engine-local request id.
        request: usize,
    },
    /// The request generated its final token.
    Finish {
        /// Engine-local request id.
        request: usize,
        /// Prompt length in tokens.
        prompt_tokens: usize,
        /// Output tokens generated.
        generated: usize,
        /// Time to first token, in seconds from arrival.
        ttft: f64,
        /// End-to-end latency in seconds from arrival.
        latency: f64,
    },
    /// One scheduler iteration was priced and applied.
    Iteration {
        /// When the iteration started (it completes at the event's `t`).
        started_at: f64,
        /// Priced execution time in seconds.
        duration: f64,
        /// Whether the batch carried both a prefill chunk and decodes.
        hybrid: bool,
        /// The request owning the prefill slot, if any.
        prefill_request: Option<usize>,
        /// Prefill chunk length scheduled this iteration.
        chunk: usize,
        /// Decode requests in the batch.
        decodes: usize,
        /// Prefill tokens actually computed (cached tokens are free).
        prefill_tokens: usize,
        /// Decode tokens generated.
        decode_tokens: usize,
        /// Requests that reached their final token this iteration.
        newly_finished: usize,
    },
    /// KV blocks were allocated to a request at admission.
    KvAlloc {
        /// Engine-local request id.
        request: usize,
        /// Fresh blocks allocated from the pool.
        blocks: usize,
        /// Cached blocks acquired (shared) from the prefix index.
        reused: usize,
        /// Whether a copy-on-write divergence copy was made.
        cow: bool,
    },
    /// A request's KV blocks were released back to the pool.
    KvFree {
        /// Engine-local request id.
        request: usize,
        /// Blocks released.
        blocks: usize,
    },
    /// Cached blocks were evicted (LRU) to satisfy allocations this
    /// iteration.
    KvEvict {
        /// Blocks evicted.
        blocks: usize,
    },
    /// Prefix-shared decode grouping deduped KV traffic this iteration:
    /// `groups` shared-block chains were each streamed once for all their
    /// members, saving `tokens` redundant decode KV-token reads.
    KvDedup {
        /// Shared-prefix groups with at least two co-batched decodes.
        groups: usize,
        /// Decode KV tokens whose re-reads were elided.
        tokens: usize,
    },
    /// A speculative draft-then-verify round completed for one decode:
    /// `width` drafts were proposed and verified, the leading `accepted`
    /// survived, and `minted` tokens (the accepted prefix plus the target's
    /// correction token on the first rejection) advanced the request; the
    /// rejected suffix was rolled back and its KV tail released.
    SpecRound {
        /// Engine-local request id.
        request: usize,
        /// Draft tokens proposed and verified this round.
        width: usize,
        /// Leading drafts verification accepted.
        accepted: usize,
        /// Net tokens the round minted (`1..=width`).
        minted: usize,
    },
    /// A completed prefill was parked for migration to a decode replica,
    /// its KV chain serialized and the local residency released.
    HandoffExport {
        /// Engine-local request id (on the prefill replica).
        request: usize,
        /// Context tokens in the exported chain.
        tokens: usize,
        /// Blocks backing the chain.
        blocks: usize,
    },
    /// A migrated-in KV chain was adopted and its request resumed decoding.
    HandoffImport {
        /// Engine-local request id (on the decode replica).
        request: usize,
        /// Context tokens in the adopted chain.
        tokens: usize,
        /// Seconds between first token on the source replica and decode
        /// admission here (transfer + residency queueing).
        stall: f64,
    },
    /// The autoscaler spawned a replica (cluster-level event).
    ScaleOut {
        /// Fleet size after the action.
        replicas: usize,
    },
    /// The autoscaler began draining a replica (cluster-level event).
    ScaleIn {
        /// Index of the draining replica.
        replica: usize,
    },
    /// Periodic timeline sample of replica state.
    TimelineSample {
        /// Requests in their decode phase.
        running: usize,
        /// Requests waiting for admission.
        waiting: usize,
        /// Fraction of the KV pool in use.
        kv_utilization: f64,
        /// Prefill tokens computed by the sampled iteration.
        prefill_tokens: usize,
        /// Decode tokens generated by the sampled iteration.
        decode_tokens: usize,
        /// Waiting requests per tenant, ascending by tenant id (only
        /// tenants with backlog appear).
        tenant_backlog: Vec<(TenantId, usize)>,
    },
}

impl TraceEventKind {
    /// Stable event-type label (the `"type"` field of the JSON encodings).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Enqueue { .. } => "enqueue",
            TraceEventKind::Admit { .. } => "admit",
            TraceEventKind::Defer { .. } => "defer",
            TraceEventKind::Shed { .. } => "shed",
            TraceEventKind::Preempt { .. } => "preempt",
            TraceEventKind::Finish { .. } => "finish",
            TraceEventKind::Iteration { .. } => "iteration",
            TraceEventKind::KvAlloc { .. } => "kv_alloc",
            TraceEventKind::KvFree { .. } => "kv_free",
            TraceEventKind::KvEvict { .. } => "kv_evict",
            TraceEventKind::KvDedup { .. } => "kv_dedup",
            TraceEventKind::SpecRound { .. } => "spec_round",
            TraceEventKind::HandoffExport { .. } => "handoff_export",
            TraceEventKind::HandoffImport { .. } => "handoff_import",
            TraceEventKind::ScaleOut { .. } => "scale_out",
            TraceEventKind::ScaleIn { .. } => "scale_in",
            TraceEventKind::TimelineSample { .. } => "timeline",
        }
    }

    /// The kind's fields in record order: the one place each kind's schema
    /// is declared. The JSONL record is `t`, `type`, then these; a Chrome
    /// instant's `args` are these minus `request`.
    pub(crate) fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        let mut fields = Vec::new();
        let num = |n: usize| JsonValue::Num(n as f64);
        match self {
            TraceEventKind::Enqueue {
                request,
                tenant,
                priority,
                prompt_tokens,
                output_tokens,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("tenant", JsonValue::Num(tenant.0 as f64)));
                fields.push(("priority", JsonValue::str(&format!("{priority:?}"))));
                fields.push(("prompt_tokens", num(*prompt_tokens)));
                fields.push(("output_tokens", num(*output_tokens)));
            }
            TraceEventKind::Admit {
                request,
                cached_tokens,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("cached_tokens", num(*cached_tokens)));
            }
            TraceEventKind::Defer { request }
            | TraceEventKind::Shed { request }
            | TraceEventKind::Preempt { request } => {
                fields.push(("request", num(*request)));
            }
            TraceEventKind::Finish {
                request,
                prompt_tokens,
                generated,
                ttft,
                latency,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("prompt_tokens", num(*prompt_tokens)));
                fields.push(("generated", num(*generated)));
                fields.push(("ttft", JsonValue::Num(*ttft)));
                fields.push(("latency", JsonValue::Num(*latency)));
            }
            TraceEventKind::Iteration {
                started_at,
                duration,
                hybrid,
                prefill_request,
                chunk,
                decodes,
                prefill_tokens,
                decode_tokens,
                newly_finished,
            } => {
                fields.push(("started_at", JsonValue::Num(*started_at)));
                fields.push(("duration", JsonValue::Num(*duration)));
                fields.push(("hybrid", JsonValue::Bool(*hybrid)));
                fields.push((
                    "prefill_request",
                    prefill_request.map_or(JsonValue::Null, num),
                ));
                fields.push(("chunk", num(*chunk)));
                fields.push(("decodes", num(*decodes)));
                fields.push(("prefill_tokens", num(*prefill_tokens)));
                fields.push(("decode_tokens", num(*decode_tokens)));
                fields.push(("newly_finished", num(*newly_finished)));
            }
            TraceEventKind::KvAlloc {
                request,
                blocks,
                reused,
                cow,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("blocks", num(*blocks)));
                fields.push(("reused", num(*reused)));
                fields.push(("cow", JsonValue::Bool(*cow)));
            }
            TraceEventKind::KvFree { request, blocks } => {
                fields.push(("request", num(*request)));
                fields.push(("blocks", num(*blocks)));
            }
            TraceEventKind::KvEvict { blocks } => {
                fields.push(("blocks", num(*blocks)));
            }
            TraceEventKind::KvDedup { groups, tokens } => {
                fields.push(("groups", num(*groups)));
                fields.push(("tokens", num(*tokens)));
            }
            TraceEventKind::SpecRound {
                request,
                width,
                accepted,
                minted,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("width", num(*width)));
                fields.push(("accepted", num(*accepted)));
                fields.push(("minted", num(*minted)));
            }
            TraceEventKind::HandoffExport {
                request,
                tokens,
                blocks,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("tokens", num(*tokens)));
                fields.push(("blocks", num(*blocks)));
            }
            TraceEventKind::HandoffImport {
                request,
                tokens,
                stall,
            } => {
                fields.push(("request", num(*request)));
                fields.push(("tokens", num(*tokens)));
                fields.push(("stall", JsonValue::Num(*stall)));
            }
            TraceEventKind::ScaleOut { replicas } => {
                fields.push(("replicas", num(*replicas)));
            }
            TraceEventKind::ScaleIn { replica } => {
                fields.push(("replica", num(*replica)));
            }
            TraceEventKind::TimelineSample {
                running,
                waiting,
                kv_utilization,
                prefill_tokens,
                decode_tokens,
                tenant_backlog,
            } => {
                fields.push(("running", num(*running)));
                fields.push(("waiting", num(*waiting)));
                fields.push(("kv_utilization", JsonValue::Num(*kv_utilization)));
                fields.push(("prefill_tokens", num(*prefill_tokens)));
                fields.push(("decode_tokens", num(*decode_tokens)));
                fields.push((
                    "tenant_backlog",
                    JsonValue::Arr(
                        tenant_backlog
                            .iter()
                            .map(|&(t, n)| {
                                JsonValue::obj(vec![
                                    ("tenant", JsonValue::Num(t.0 as f64)),
                                    ("waiting", num(n)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
        fields
    }
}

impl TraceEvent {
    /// Serialize as a flat JSON object (`t`, `type`, then the kind's
    /// fields). This is the JSONL record shape; the Chrome exporter derives
    /// its instants from the same fields.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("t", JsonValue::Num(self.t)),
            ("type", JsonValue::str(self.kind.label())),
        ];
        fields.extend(self.kind.fields());
        JsonValue::obj(fields)
    }
}

/// Constant-memory summary of the timeline samples: one
/// [`QuantileSketch`] per sampled metric, so the distribution of a whole
/// run's timeline survives the ring buffer dropping its oldest samples.
#[derive(Debug, Clone)]
pub struct TimelineSummary {
    /// Running requests (resident, in their decode phase) per sample: a
    /// count of requests, not a fraction of the decode cap. It can exceed
    /// the decode batch when the scheduler caps decodes per iteration.
    pub running_requests: QuantileSketch,
    /// KV pool utilization per sample: the fraction in `[0, 1]` of pool
    /// blocks referenced by live requests.
    pub kv_utilization: QuantileSketch,
    /// Admission queue depth per sample: a count of waiting requests.
    pub queue_depth: QuantileSketch,
    /// Prefill share of the sampled iteration's scheduled tokens per
    /// sample: the ratio `prefill / (prefill + decode)` in `[0, 1]`
    /// (iterations that scheduled no tokens are not observed).
    pub prefill_share: QuantileSketch,
    /// Samples folded in.
    pub samples: u64,
}

impl Default for TimelineSummary {
    fn default() -> Self {
        TimelineSummary::new()
    }
}

impl TimelineSummary {
    /// An empty summary.
    pub fn new() -> Self {
        TimelineSummary {
            running_requests: QuantileSketch::new(),
            kv_utilization: QuantileSketch::new(),
            queue_depth: QuantileSketch::new(),
            prefill_share: QuantileSketch::new(),
            samples: 0,
        }
    }

    fn observe(
        &mut self,
        running: usize,
        waiting: usize,
        kv_util: f64,
        prefill: usize,
        decode: usize,
    ) {
        self.running_requests.observe(running as f64);
        self.kv_utilization.observe(kv_util);
        self.queue_depth.observe(waiting as f64);
        let scheduled = prefill + decode;
        if scheduled > 0 {
            self.prefill_share
                .observe(prefill as f64 / scheduled as f64);
        }
        self.samples += 1;
    }

    /// Fold another summary into this one (bucket-count addition — order
    /// independent, like the report accumulators).
    pub fn merge(&mut self, other: &TimelineSummary) {
        self.running_requests.merge(&other.running_requests);
        self.kv_utilization.merge(&other.kv_utilization);
        self.queue_depth.merge(&other.queue_depth);
        self.prefill_share.merge(&other.prefill_share);
        self.samples += other.samples;
    }

    /// Serialize as a JSON object of per-metric summaries.
    pub fn to_json(&self) -> JsonValue {
        let stats = |s: &QuantileSketch| {
            if s.count() == 0 {
                return JsonValue::obj(vec![("count", JsonValue::Num(0.0))]);
            }
            JsonValue::obj(vec![
                ("count", JsonValue::Num(s.count() as f64)),
                ("mean", JsonValue::Num(s.mean())),
                ("p50", JsonValue::Num(s.quantile(0.50))),
                ("p99", JsonValue::Num(s.quantile(0.99))),
                ("max", JsonValue::Num(s.max())),
            ])
        };
        JsonValue::obj(vec![
            ("samples", JsonValue::Num(self.samples as f64)),
            ("running_requests", stats(&self.running_requests)),
            ("kv_utilization", stats(&self.kv_utilization)),
            ("queue_depth", stats(&self.queue_depth)),
            ("prefill_share", stats(&self.prefill_share)),
        ])
    }
}

/// Per-replica flight recorder: a bounded ring of [`TraceEvent`]s plus the
/// constant-memory [`TimelineSummary`]. Owned by the engine when tracing is
/// configured; collected through
/// [`ServingEngine::flight_recording`](crate::ServingEngine::flight_recording)
/// or [`Cluster::flight_recording`](crate::Cluster::flight_recording).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    config: TraceConfig,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Next timeline-sample boundary (virtual seconds).
    next_sample: f64,
    timeline: TimelineSummary,
}

impl TraceRecorder {
    /// A recorder with an empty ring.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the timeline interval is not
    /// positive and finite. The fields are public, so a struct literal can
    /// skip the checks in `with_capacity` and `with_timeline_interval`.
    pub fn new(config: TraceConfig) -> Self {
        assert!(
            config.capacity > 0,
            "the flight recorder needs capacity >= 1"
        );
        assert!(
            config.timeline_interval > 0.0 && config.timeline_interval.is_finite(),
            "timeline intervals must be positive and finite"
        );
        let next_sample = config.timeline_interval;
        TraceRecorder {
            config,
            events: VecDeque::new(),
            dropped: 0,
            next_sample,
            timeline: TimelineSummary::new(),
        }
    }

    /// The configuration this recorder was built from.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Record one event, dropping the oldest if the ring is full.
    pub fn record(&mut self, t: f64, kind: TraceEventKind) {
        if let TraceEventKind::TimelineSample {
            running,
            waiting,
            kv_utilization,
            prefill_tokens,
            decode_tokens,
            ..
        } = &kind
        {
            self.timeline.observe(
                *running,
                *waiting,
                *kv_utilization,
                *prefill_tokens,
                *decode_tokens,
            );
        }
        if self.events.len() == self.config.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { t, kind });
    }

    /// Whether a timeline sample is due at virtual time `t`. When it is,
    /// the sample boundary advances past `t` — one sample per crossing, so
    /// a long iteration spanning several intervals yields one sample, not a
    /// burst.
    pub fn timeline_due(&mut self, t: f64) -> bool {
        if t < self.next_sample {
            return false;
        }
        let interval = self.config.timeline_interval;
        self.next_sample = ((t / interval).floor() + 1.0) * interval;
        true
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The constant-memory timeline summary.
    pub fn timeline(&self) -> &TimelineSummary {
        &self.timeline
    }
}

/// Terminal-event tallies reconstructed from a recording's events — the
/// cross-check that per-request spans agree with the end-of-run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanOutcomes {
    /// Requests whose `finish` event is in the recording.
    pub finished: usize,
    /// Requests whose `shed` event is in the recording.
    pub shed: usize,
    /// `handoff_export` events (requests migrated out).
    pub migrated_out: usize,
    /// `handoff_import` events (requests migrated in).
    pub migrated_in: usize,
}

/// A collected trace: per-replica event logs in replica-index order, plus
/// cluster-level events (autoscaler actions) and the merged timeline
/// summary. Replica-index-order concatenation is what makes recordings
/// bit-for-bit reproducible at every cluster worker count — each replica's
/// log is deterministic on the virtual clock, and the merge never depends
/// on host-side interleaving.
#[derive(Debug, Clone)]
pub struct FlightRecording {
    /// Each replica's events, oldest first, in replica-index order.
    pub replicas: Vec<Vec<TraceEvent>>,
    /// Cluster-level events (autoscaler actions), oldest first.
    pub cluster: Vec<TraceEvent>,
    /// Events dropped across all rings (flight-recorder overwrites).
    pub dropped: u64,
    /// Timeline summary merged across replicas in replica-index order.
    pub timeline: TimelineSummary,
}

impl FlightRecording {
    /// An empty recording.
    pub fn new() -> Self {
        FlightRecording {
            replicas: Vec::new(),
            cluster: Vec::new(),
            dropped: 0,
            timeline: TimelineSummary::new(),
        }
    }

    /// Append one replica's recorder (cloned) as the next replica index.
    pub fn push_replica(&mut self, recorder: &TraceRecorder) {
        self.replicas
            .push(recorder.events().iter().cloned().collect());
        self.dropped += recorder.dropped();
        self.timeline.merge(recorder.timeline());
    }

    /// Attach the cluster-level recorder (cloned).
    pub fn set_cluster(&mut self, recorder: &TraceRecorder) {
        self.cluster = recorder.events().iter().cloned().collect();
        self.dropped += recorder.dropped();
    }

    /// Total events across every replica and the cluster log.
    pub fn event_count(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum::<usize>() + self.cluster.len()
    }

    /// Tally terminal events per outcome (see [`SpanOutcomes`]).
    pub fn span_outcomes(&self) -> SpanOutcomes {
        let mut out = SpanOutcomes::default();
        for ev in self.replicas.iter().flatten() {
            match ev.kind {
                TraceEventKind::Finish { .. } => out.finished += 1,
                TraceEventKind::Shed { .. } => out.shed += 1,
                TraceEventKind::HandoffExport { .. } => out.migrated_out += 1,
                TraceEventKind::HandoffImport { .. } => out.migrated_in += 1,
                _ => {}
            }
        }
        out
    }

    /// Export as compact JSONL: one JSON object per event, each carrying a
    /// `replica` field (`null` for cluster-level events), replicas in index
    /// order then the cluster log. Deterministic byte-for-byte for a
    /// deterministic simulation — the byte-equality oracle the determinism
    /// tests pin.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON output is UTF-8")
    }

    /// Stream the JSONL export to a writer without building the whole dump
    /// in memory.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let line = |w: &mut W, replica: Option<usize>, ev: &TraceEvent| -> std::io::Result<()> {
            let mut obj = vec![(
                "replica".to_string(),
                replica.map_or(JsonValue::Null, |i| JsonValue::Num(i as f64)),
            )];
            if let JsonValue::Obj(fields) = ev.to_json() {
                obj.extend(fields);
            }
            JsonValue::Obj(obj).write_compact(w)?;
            w.write_all(b"\n")
        };
        for (i, events) in self.replicas.iter().enumerate() {
            for ev in events {
                line(w, Some(i), ev)?;
            }
        }
        for ev in &self.cluster {
            line(w, None, ev)?;
        }
        Ok(())
    }

    /// Export as Chrome `trace_event` JSON (the object form, loadable in
    /// `chrome://tracing` and Perfetto):
    ///
    /// * one *process* per replica (pid = replica index; the cluster log is
    ///   the process after the last replica);
    /// * a complete span (`ph: "X"`) per request from its first sighting
    ///   (enqueue or handoff import) to its terminal event (finish, shed or
    ///   handoff export), on `tid = request id + 1`, with the outcome in
    ///   `args`;
    /// * a complete span per iteration on `tid = 0` carrying the batch
    ///   composition and priced cost;
    /// * counter tracks (`ph: "C"`) from the timeline samples;
    /// * an instant (`ph: "i"`) for every other event except admissions,
    ///   defers, allocs and frees, named by its label, on the request's lane
    ///   when it has one, with the event's other fields as `args`.
    ///
    /// Timestamps are the virtual clock in microseconds (the unit the
    /// format requires).
    pub fn to_chrome_json(&self) -> JsonValue {
        let mut out: Vec<JsonValue> = Vec::new();
        for (pid, events) in self.replicas.iter().enumerate() {
            chrome_process(&mut out, pid, &format!("replica {pid}"), events);
        }
        if !self.cluster.is_empty() {
            chrome_process(&mut out, self.replicas.len(), "cluster", &self.cluster);
        }
        JsonValue::obj(vec![
            ("traceEvents", JsonValue::Arr(out)),
            ("displayTimeUnit", JsonValue::str("ms")),
        ])
    }
}

impl Default for FlightRecording {
    fn default() -> Self {
        FlightRecording::new()
    }
}

/// Microseconds on the virtual clock (what `trace_event` timestamps use).
fn us(t: f64) -> f64 {
    t * 1e6
}

/// The Chrome thread id request spans render on (`tid = 0` is the
/// iteration lane).
fn request_tid(request: usize) -> f64 {
    (request + 1) as f64
}

fn chrome_event(
    name: &str,
    ph: &str,
    pid: usize,
    tid: f64,
    ts: f64,
    extra: Vec<(&str, JsonValue)>,
) -> JsonValue {
    let mut fields = vec![
        ("name", JsonValue::str(name)),
        ("ph", JsonValue::str(ph)),
        ("pid", JsonValue::Num(pid as f64)),
        ("tid", JsonValue::Num(tid)),
        ("ts", JsonValue::Num(ts)),
    ];
    fields.extend(extra);
    JsonValue::obj(fields)
}

/// Emit one replica's (or the cluster log's) events as `trace_event`
/// records under process id `pid`.
fn chrome_process(out: &mut Vec<JsonValue>, pid: usize, name: &str, events: &[TraceEvent]) {
    out.push(chrome_event(
        "process_name",
        "M",
        pid,
        0.0,
        0.0,
        vec![("args", JsonValue::obj(vec![("name", JsonValue::str(name))]))],
    ));
    // Open request spans: first sighting time plus how the span started.
    // BTreeMap (not HashMap) so any leftover iteration order is
    // deterministic; spans close in event order regardless.
    let mut open: BTreeMap<usize, (f64, &'static str)> = BTreeMap::new();
    let close = |out: &mut Vec<JsonValue>,
                 open: &mut BTreeMap<usize, (f64, &'static str)>,
                 request: usize,
                 t: f64,
                 outcome: &str,
                 mut args: Vec<(&str, JsonValue)>| {
        let (start, origin) = open.remove(&request).unwrap_or((t, "unknown"));
        args.push(("outcome", JsonValue::str(outcome)));
        args.push(("origin", JsonValue::str(origin)));
        out.push(chrome_event(
            "request",
            "X",
            pid,
            request_tid(request),
            us(start),
            vec![
                ("dur", JsonValue::Num(us(t) - us(start))),
                ("cat", JsonValue::str("lifecycle")),
                ("args", JsonValue::obj(args)),
            ],
        ));
    };
    for ev in events {
        match &ev.kind {
            TraceEventKind::Enqueue { request, .. } => {
                open.insert(*request, (ev.t, "enqueue"));
            }
            TraceEventKind::HandoffImport { request, .. } => {
                open.insert(*request, (ev.t, "import"));
                out.push(chrome_instant(pid, ev));
            }
            TraceEventKind::Finish {
                request,
                prompt_tokens,
                generated,
                ttft,
                ..
            } => close(
                out,
                &mut open,
                *request,
                ev.t,
                "finished",
                vec![
                    ("prompt_tokens", JsonValue::Num(*prompt_tokens as f64)),
                    ("generated", JsonValue::Num(*generated as f64)),
                    ("ttft", JsonValue::Num(*ttft)),
                ],
            ),
            TraceEventKind::Shed { request } => {
                out.push(chrome_instant(pid, ev));
                close(out, &mut open, *request, ev.t, "shed", Vec::new());
            }
            TraceEventKind::HandoffExport {
                request, tokens, ..
            } => close(
                out,
                &mut open,
                *request,
                ev.t,
                "migrated_out",
                vec![("tokens", JsonValue::Num(*tokens as f64))],
            ),
            TraceEventKind::Iteration {
                started_at,
                duration,
                hybrid,
                chunk,
                decodes,
                prefill_tokens,
                decode_tokens,
                ..
            } => {
                out.push(chrome_event(
                    "iteration",
                    "X",
                    pid,
                    0.0,
                    us(*started_at),
                    vec![
                        ("dur", JsonValue::Num(us(*duration))),
                        ("cat", JsonValue::str("iteration")),
                        (
                            "args",
                            JsonValue::obj(vec![
                                ("hybrid", JsonValue::Bool(*hybrid)),
                                ("chunk", JsonValue::Num(*chunk as f64)),
                                ("decodes", JsonValue::Num(*decodes as f64)),
                                ("prefill_tokens", JsonValue::Num(*prefill_tokens as f64)),
                                ("decode_tokens", JsonValue::Num(*decode_tokens as f64)),
                            ]),
                        ),
                    ],
                ));
            }
            TraceEventKind::TimelineSample {
                running,
                waiting,
                kv_utilization,
                prefill_tokens,
                decode_tokens,
                ..
            } => {
                let counter = |name: &str, args: Vec<(&str, JsonValue)>| {
                    chrome_event(
                        name,
                        "C",
                        pid,
                        0.0,
                        us(ev.t),
                        vec![("args", JsonValue::obj(args))],
                    )
                };
                out.push(counter(
                    "queue",
                    vec![
                        ("running", JsonValue::Num(*running as f64)),
                        ("waiting", JsonValue::Num(*waiting as f64)),
                    ],
                ));
                out.push(counter(
                    "kv_utilization",
                    vec![("utilization", JsonValue::Num(*kv_utilization))],
                ));
                out.push(counter(
                    "scheduled_tokens",
                    vec![
                        ("prefill", JsonValue::Num(*prefill_tokens as f64)),
                        ("decode", JsonValue::Num(*decode_tokens as f64)),
                    ],
                ));
            }
            // Admissions, defers, allocs and frees carry no Chrome record;
            // the JSONL export keeps their full detail.
            TraceEventKind::Admit { .. }
            | TraceEventKind::Defer { .. }
            | TraceEventKind::KvAlloc { .. }
            | TraceEventKind::KvFree { .. } => {}
            _ => out.push(chrome_instant(pid, ev)),
        }
    }
}

/// The Chrome instant (`ph: "i"`) of an event without a span or counter of
/// its own, derived from its JSONL fields: named by its label, on the
/// request's lane with thread scope when it has a `request` field, else on
/// lane 0 with global scope for autoscaler actions and process scope
/// otherwise; `args` are the remaining fields, omitted when empty.
fn chrome_instant(pid: usize, ev: &TraceEvent) -> JsonValue {
    let mut args = ev.kind.fields();
    let request = args
        .iter()
        .position(|(key, _)| *key == "request")
        .map(|i| args.remove(i).1);
    let (tid, scope) = match request {
        Some(JsonValue::Num(request)) => (request + 1.0, "t"),
        _ if matches!(
            ev.kind,
            TraceEventKind::ScaleOut { .. } | TraceEventKind::ScaleIn { .. }
        ) =>
        {
            (0.0, "g")
        }
        _ => (0.0, "p"),
    };
    let mut extra = vec![("s", JsonValue::str(scope))];
    if !args.is_empty() {
        extra.push(("args", JsonValue::obj(args)));
    }
    chrome_event(ev.kind.label(), "i", pid, tid, us(ev.t), extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueue(request: usize) -> TraceEventKind {
        TraceEventKind::Enqueue {
            request,
            tenant: TenantId::DEFAULT,
            priority: Priority::Normal,
            prompt_tokens: 128,
            output_tokens: 16,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut rec = TraceRecorder::new(TraceConfig::new().with_capacity(3));
        for i in 0..5 {
            rec.record(i as f64, enqueue(i));
        }
        assert_eq!(rec.events().len(), 3);
        assert_eq!(rec.dropped(), 2);
        let first = rec.events().front().expect("ring is non-empty");
        assert_eq!(first.t, 2.0, "the two oldest events were dropped");
    }

    #[test]
    fn timeline_sampling_is_one_per_interval_crossing() {
        let mut rec = TraceRecorder::new(TraceConfig::new().with_timeline_interval(1.0));
        assert!(!rec.timeline_due(0.5));
        assert!(rec.timeline_due(1.2));
        // Same interval: not due again.
        assert!(!rec.timeline_due(1.9));
        // A long jump over many boundaries yields one sample, then re-arms.
        assert!(rec.timeline_due(7.3));
        assert!(!rec.timeline_due(7.9));
        assert!(rec.timeline_due(8.0));
    }

    #[test]
    fn timeline_summary_folds_samples_into_sketches() {
        let mut rec = TraceRecorder::new(TraceConfig::new());
        for i in 0..10 {
            rec.record(
                i as f64,
                TraceEventKind::TimelineSample {
                    running: i,
                    waiting: 2 * i,
                    kv_utilization: i as f64 / 10.0,
                    prefill_tokens: 100,
                    decode_tokens: 100,
                    tenant_backlog: Vec::new(),
                },
            );
        }
        let tl = rec.timeline();
        assert_eq!(tl.samples, 10);
        assert_eq!(tl.running_requests.count(), 10);
        assert!((tl.prefill_share.mean() - 0.5).abs() < 1e-9);
        let json = tl.to_json();
        assert!(json.get_path("queue_depth.p99").is_some());
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_event() {
        let mut rec = TraceRecorder::new(TraceConfig::new());
        rec.record(0.0, enqueue(0));
        rec.record(
            0.5,
            TraceEventKind::Finish {
                request: 0,
                prompt_tokens: 128,
                generated: 16,
                ttft: 0.2,
                latency: 0.5,
            },
        );
        let mut recording = FlightRecording::new();
        recording.push_replica(&rec);
        let jsonl = recording.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = JsonValue::parse(line).expect("each line is a JSON object");
            assert!(v.get("replica").is_some());
            assert!(v.get("type").is_some());
        }
        assert_eq!(
            JsonValue::parse(lines[1]).unwrap().get("type"),
            Some(&JsonValue::str("finish"))
        );
    }

    #[test]
    fn chrome_export_builds_spans_from_terminal_events() {
        let mut rec = TraceRecorder::new(TraceConfig::new());
        rec.record(1.0, enqueue(7));
        rec.record(
            3.0,
            TraceEventKind::Finish {
                request: 7,
                prompt_tokens: 128,
                generated: 16,
                ttft: 0.5,
                latency: 2.0,
            },
        );
        rec.record(4.0, TraceEventKind::Shed { request: 8 });
        let mut recording = FlightRecording::new();
        recording.push_replica(&rec);
        let doc = recording.to_chrome_json();
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents should be an array, got {other:?}"),
        };
        let spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph") == Some(&JsonValue::str("X")))
            .collect();
        assert_eq!(spans.len(), 2, "one finished span, one shed span");
        let finished = spans
            .iter()
            .find(|s| s.get_path("args.outcome") == Some(&JsonValue::str("finished")))
            .expect("finished span present");
        assert_eq!(finished.get("ts"), Some(&JsonValue::Num(1e6)));
        assert_eq!(finished.get("dur"), Some(&JsonValue::Num(2e6)));
        let outcomes = recording.span_outcomes();
        assert_eq!(outcomes.finished, 1);
        assert_eq!(outcomes.shed, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = TraceConfig::new().with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "timeline intervals must be positive and finite")]
    fn recorder_rejects_a_non_positive_timeline_interval() {
        let _ = TraceRecorder::new(TraceConfig {
            timeline_interval: 0.0,
            ..TraceConfig::new()
        });
    }
}

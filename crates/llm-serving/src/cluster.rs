//! Multi-replica serving: N step-able engines on a shared virtual clock
//! behind a pluggable router.
//!
//! The paper evaluates POD-Attention on a single GPU, but its wins (and
//! failure modes) at fleet scale depend on how load is spread: a router that
//! lands a long prefill on a replica deep in decode work recreates exactly
//! the prefill-decode interference the fused kernel is built to hide. This
//! module models that regime: requests arrive on one global timeline, a
//! [`RouterPolicy`] assigns each to a replica at arrival time using live
//! replica state, and every replica runs its own scheduler, KV-cache
//! admission and queueing via [`ServingEngine::step`]. Results aggregate
//! into a [`ClusterReport`] with fleet-level latency percentiles and a
//! replica-imbalance measure.
//!
//! The run loop is an **event-driven core**, one loop for every fleet
//! shape. A fleet has a prompt side (colocated and prefill-only replicas)
//! and a decode side (decode-only replicas); a colocated or autoscaled
//! fleet is one whose decode side is empty. Every arrival and every
//! autoscaler check is the same barrier: advance the prompt side, collect
//! the KV chains its finished prefills export, land the deliveries due by
//! then on the decode side (one min-heap on delivery time, export order
//! breaking ties), then advance the decode side. Within a side, a min-heap
//! of per-replica next-event times picks out only the replicas with due
//! work, and those advance on the calling thread; an empty side is not a
//! barrier. The final drain spreads each side across scoped worker threads
//! ([`Cluster::set_advance_workers`]).
//! A sequential full-sweep twin
//! ([`Cluster::run_lockstep`]) is kept as the differential oracle; both
//! produce bit-identical reports. Fleet reports are graded by the same
//! accumulator as a single engine's: by default it folds every replica's
//! request records, in replica order, into exact sample stores; for
//! fleet-scale trace replay [`ServingConfig::streaming_metrics`] switches
//! it to mergeable quantile sketches ([`crate::QuantileSketch`]) so report
//! memory stays constant in trace length.

use crate::engine::{PrefillHandoff, ServingEngine};
use crate::json::JsonValue;
use crate::metrics::{ReportAccumulator, ServingCounters, ServingReport};
use crate::request::RequestSpec;
use crate::trace::{FlightRecording, TraceEventKind, TraceRecorder};
use crate::ServingConfig;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Prompt length (tokens) above which the decode-aware router treats a
/// request as a "long prefill" and steers it away from decode-heavy
/// replicas.
pub const LONG_PREFILL_TOKENS: usize = 8 * 1024;

/// How arriving requests are assigned to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Cycle through replicas in order, ignoring load. The baseline every
    /// load-aware policy must beat.
    RoundRobin,
    /// Send each request to the replica with the fewest outstanding work
    /// tokens (remaining prompt + remaining output across its unfinished
    /// requests).
    LeastOutstandingTokens,
    /// Prefill/decode-aware: long prefills (prompt ≥ `long_prefill_tokens`)
    /// go to the replica whose prefill backlog is smallest — that backlog is
    /// what a chunked-prefill scheduler drains one chunk per iteration, so it
    /// is the head-of-line delay a new prompt actually queues behind — with
    /// running decodes as the tiebreak, steering heavy prompts away from
    /// replicas where they would interleave with (and slow) the most
    /// generation streams. Short requests follow least-outstanding load with
    /// the prefill backlog as tiebreak, keeping decode-bound work off
    /// prefill-clogged replicas.
    DecodeAware {
        /// Prompt length threshold in tokens for the long-prefill rule.
        long_prefill_tokens: usize,
    },
    /// Prefix-affinity: send each request to the replica whose prefix index
    /// holds the longest cached prefix of its prompt (probed side-effect-free
    /// via [`ServingEngine::cached_prefix_tokens_for`]), so agent fleets and
    /// shared-system-prompt chat reuse warm KV instead of re-prefilling it on
    /// a cold replica. Ties — including the all-cold case — fall back to
    /// least outstanding work tokens. Only meaningful when replicas run the
    /// paged KV policy with prefix caching; otherwise every probe returns
    /// zero and this degrades to least-outstanding.
    PrefixAffinity,
}

impl RouterPolicy {
    /// The decode-aware policy with the default [`LONG_PREFILL_TOKENS`]
    /// threshold.
    pub fn decode_aware() -> Self {
        RouterPolicy::DecodeAware {
            long_prefill_tokens: LONG_PREFILL_TOKENS,
        }
    }

    /// Human-readable name used in reports.
    pub fn label(&self) -> String {
        match self {
            RouterPolicy::RoundRobin => "round-robin".to_string(),
            RouterPolicy::LeastOutstandingTokens => "least-outstanding".to_string(),
            RouterPolicy::DecodeAware {
                long_prefill_tokens,
            } => format!("decode-aware(long>={long_prefill_tokens})"),
            RouterPolicy::PrefixAffinity => "prefix-affinity".to_string(),
        }
    }
}

/// What work a replica accepts in a (possibly disaggregated) fleet.
///
/// The paper's central claim is that fusing prefill and decode *inside one
/// GPU* (POD-Attention on colocated replicas) beats splitting them across
/// replicas; these roles make the strongest alternative — disaggregated
/// prefill/decode serving with KV-cache migration, as in Splitwise and
/// DistServe — representable, so the comparison can actually be run
/// (`fig19_disaggregation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Serves the full request lifecycle (prefill and decode) locally — the
    /// historical behavior and the default.
    Colocated,
    /// Accepts fresh prompts, runs their chunked prefill, mints the first
    /// token, then ships the KV chain to a decode replica
    /// ([`ServingEngine::take_ready_handoffs`]).
    PrefillOnly,
    /// Never routed fresh prompts; resumes migrated requests' decodes after
    /// adopting their KV chains ([`ServingEngine::import_handoff`]).
    DecodeOnly,
}

impl ReplicaRole {
    /// Human-readable name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaRole::Colocated => "colocated",
            ReplicaRole::PrefillOnly => "prefill",
            ReplicaRole::DecodeOnly => "decode",
        }
    }

    /// Whether fresh prompts may be routed here.
    fn accepts_prompts(&self) -> bool {
        !matches!(self, ReplicaRole::DecodeOnly)
    }
}

/// Cost model of a prefill→decode KV-cache migration: per-token transfer
/// over a configurable link, a fixed per-handoff latency, and optional
/// compute/communication overlap à la ISO (arXiv:2409.11155), layered on the
/// cluster's virtual clock.
///
/// A handoff of `T` context tokens ships `T × kv_bytes_per_token` bytes (one
/// tensor-parallel shard's KV per link; shards transfer in parallel). The
/// request is unavailable to the decode replica for the resulting *stall*:
///
/// * without overlap: `latency + bytes / bandwidth`;
/// * with overlap: the transfer streams layer-by-layer **during** the
///   chunked prefill that produces the KV, so only the tail that outruns
///   the prefill window remains: `latency + max(0, bytes / bandwidth −
///   prefill_window)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvMigration {
    /// Link bandwidth in GB/s per replica pair (use `f64::INFINITY` for the
    /// zero-cost ideal).
    pub bandwidth_gbps: f64,
    /// Fixed per-handoff latency in seconds (connection setup, control RPCs,
    /// block-table exchange).
    pub latency: f64,
    /// Whether the transfer overlaps with the prefill computation that
    /// produces the KV (ISO-style layer-wise streaming).
    pub overlap: bool,
}

impl KvMigration {
    /// A migration link with the given bandwidth and per-handoff latency,
    /// no compute overlap.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive or the latency is negative or
    /// non-finite.
    pub fn new(bandwidth_gbps: f64, latency: f64) -> Self {
        let m = KvMigration {
            bandwidth_gbps,
            latency,
            overlap: false,
        };
        m.validate();
        m
    }

    /// The zero-cost ideal: infinite bandwidth, zero latency. With ample
    /// replicas this makes disaggregation match colocation — the control
    /// every realistic link is measured against.
    pub fn free() -> Self {
        KvMigration {
            bandwidth_gbps: f64::INFINITY,
            latency: 0.0,
            overlap: false,
        }
    }

    /// A cross-node InfiniBand-class link: 25 GB/s, 2 ms per handoff.
    pub fn infiniband() -> Self {
        KvMigration::new(25.0, 0.002)
    }

    /// A PCIe-bounce / TCP-class link: 2 GB/s, 5 ms per handoff — the regime
    /// where migration stalls dominate TBT.
    pub fn commodity() -> Self {
        KvMigration::new(2.0, 0.005)
    }

    /// The same link with ISO-style compute/communication overlap enabled.
    pub fn with_overlap(mut self) -> Self {
        self.overlap = true;
        self
    }

    fn validate(&self) {
        assert!(
            self.bandwidth_gbps > 0.0,
            "migration bandwidth must be positive (use f64::INFINITY for free)"
        );
        assert!(
            self.latency >= 0.0 && self.latency.is_finite(),
            "migration latency must be non-negative and finite"
        );
    }

    /// Raw wire time for `kv_bytes` bytes, excluding latency.
    fn wire_secs(&self, kv_bytes: f64) -> f64 {
        if self.bandwidth_gbps.is_infinite() {
            0.0
        } else {
            kv_bytes / (self.bandwidth_gbps * 1e9)
        }
    }

    /// End-to-end transfer time for `kv_bytes` bytes (latency + wire).
    fn transfer_secs(&self, kv_bytes: f64) -> f64 {
        self.latency + self.wire_secs(kv_bytes)
    }

    /// Seconds the migrated request is unavailable after its prefill
    /// completes: the whole transfer, minus whatever `overlap_window`
    /// seconds of prefill computation the transfer could stream behind
    /// (only with `overlap` on).
    pub fn stall_secs(&self, kv_bytes: f64, overlap_window: f64) -> f64 {
        if self.overlap {
            self.latency + (self.wire_secs(kv_bytes) - overlap_window.max(0.0)).max(0.0)
        } else {
            self.transfer_secs(kv_bytes)
        }
    }

    /// Human-readable name used in reports.
    pub fn label(&self) -> String {
        if self.bandwidth_gbps.is_infinite() && self.latency == 0.0 {
            return "free".to_string();
        }
        format!(
            "{}GB/s+{:.0}ms{}",
            self.bandwidth_gbps,
            self.latency * 1e3,
            if self.overlap { "+overlap" } else { "" }
        )
    }
}

impl Default for KvMigration {
    fn default() -> Self {
        KvMigration::free()
    }
}

/// Configuration of the cluster autoscaler: when to grow or shrink the
/// fleet on the shared virtual clock.
///
/// The autoscaler samples the fleet every `interval` simulated seconds and
/// compares the outstanding-token backlog per active replica against two
/// thresholds. Sustained pressure (`sustain` consecutive over-threshold
/// checks) scales out by one replica; sustained slack drains one replica —
/// it stops receiving new requests, its not-yet-started queue re-routes to
/// the survivors through the fleet's [`RouterPolicy`], and it retires once
/// its in-flight prefills and decodes finish. The `sustain` hysteresis keeps
/// a bursty trace from flapping the fleet size every check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Lower bound on active replicas (never drains below this).
    pub min_replicas: usize,
    /// Upper bound on *active* replicas: scale-out stops at this many.
    /// Draining replicas do not count against it, so while one drains the
    /// fleet can briefly hold more than `max_replicas` replicas.
    pub max_replicas: usize,
    /// Seconds of virtual time between autoscaling checks.
    pub interval: f64,
    /// Outstanding work tokens per active replica above which a check counts
    /// as scale-out pressure.
    pub scale_out_backlog: usize,
    /// Outstanding work tokens per active replica below which a check counts
    /// as scale-in slack.
    pub scale_in_backlog: usize,
    /// Consecutive pressured (or slack) checks required before acting —
    /// the hysteresis that stops flapping.
    pub sustain: usize,
}

impl AutoscalerConfig {
    /// An autoscaler between `min_replicas` and `max_replicas` with default
    /// cadence and thresholds (5 s checks, scale out above 60K outstanding
    /// tokens per replica — about six seconds of work for the simulated
    /// Llama-3-8B/A100 replica — scale in below 12K, 2-check hysteresis).
    ///
    /// # Panics
    ///
    /// Panics if `min_replicas` is zero or exceeds `max_replicas`.
    pub fn new(min_replicas: usize, max_replicas: usize) -> Self {
        let cfg = AutoscalerConfig {
            min_replicas,
            max_replicas,
            interval: 5.0,
            scale_out_backlog: 60_000,
            scale_in_backlog: 12_000,
            sustain: 2,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(self.min_replicas > 0, "autoscaler needs min_replicas >= 1");
        assert!(
            self.min_replicas <= self.max_replicas,
            "autoscaler bounds inverted: min {} > max {}",
            self.min_replicas,
            self.max_replicas
        );
        assert!(
            self.interval > 0.0 && self.interval.is_finite(),
            "autoscaler interval must be positive and finite"
        );
        assert!(
            self.scale_in_backlog <= self.scale_out_backlog,
            "scale-in threshold must not exceed the scale-out threshold"
        );
        assert!(self.sustain > 0, "sustain must be at least 1 check");
    }
}

/// Lifecycle of one replica under autoscaling.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReplicaState {
    /// Routable: receives new requests.
    Active,
    /// Scale-in target: no new requests; finishing its in-flight work.
    Draining,
    /// Drained and shut down; no longer stepped.
    Retired,
}

/// Per-replica lifecycle bookkeeping (spawn/retire times feed the
/// replica-seconds cost metric).
#[derive(Debug, Clone, Copy)]
struct ReplicaLife {
    state: ReplicaState,
    spawned_at: f64,
    retired_at: Option<f64>,
}

impl ReplicaLife {
    fn new(spawned_at: f64) -> Self {
        ReplicaLife {
            state: ReplicaState::Active,
            spawned_at,
            retired_at: None,
        }
    }
}

/// Configuration of a replica fleet.
///
/// # Builder surface
///
/// Start from [`ClusterConfig::new`] or [`ClusterConfig::disaggregated`]
/// and chain `with_*` methods, mirroring the
/// [`ServingConfig`](crate::ServingConfig) convention:
///
/// * [`ClusterConfig::with_roles`] — mixed / disaggregated fleets
/// * [`ClusterConfig::with_autoscaler`] — backlog-driven fleet sizing
///
/// Per-replica options, multi-tenant fairness among them, are set on `base`
/// (e.g. [`ServingConfig::with_fair_queue`](crate::ServingConfig::with_fair_queue)).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-replica serving configuration (every replica is identical — one
    /// tensor-parallel shard's worth of model and GPU).
    pub base: ServingConfig,
    /// Number of replicas (the *initial* fleet size when an autoscaler is
    /// attached).
    pub replicas: usize,
    /// Routing policy.
    pub router: RouterPolicy,
    /// Optional autoscaler. `None` (the default) pins the fleet at
    /// `replicas` and is bit-for-bit identical to the pre-autoscaler
    /// cluster. Incompatible with disaggregated roles.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Per-replica roles, in replica order (`replicas` entries). All
    /// [`ReplicaRole::Colocated`] — the default — is bit-for-bit identical
    /// to the pre-disaggregation cluster.
    pub roles: Vec<ReplicaRole>,
    /// KV-migration cost model for prefill→decode handoffs (only exercised
    /// when the fleet has [`ReplicaRole::PrefillOnly`] replicas).
    pub migration: KvMigration,
}

impl ClusterConfig {
    /// A fleet of `replicas` identical colocated replicas behind `router`,
    /// with no autoscaler.
    pub fn new(base: ServingConfig, replicas: usize, router: RouterPolicy) -> Self {
        ClusterConfig {
            base,
            replicas,
            router,
            autoscaler: None,
            roles: vec![ReplicaRole::Colocated; replicas],
            migration: KvMigration::free(),
        }
    }

    /// A disaggregated fleet: `prefill` prefill-only replicas followed by
    /// `decode` decode-only replicas, with KV handoffs priced by
    /// `migration`.
    ///
    /// # Panics
    ///
    /// Panics if either side of the fleet is empty.
    pub fn disaggregated(
        base: ServingConfig,
        prefill: usize,
        decode: usize,
        router: RouterPolicy,
        migration: KvMigration,
    ) -> Self {
        let mut roles = vec![ReplicaRole::PrefillOnly; prefill];
        roles.extend(std::iter::repeat(ReplicaRole::DecodeOnly).take(decode));
        ClusterConfig::new(base, prefill + decode, router).with_roles(roles, migration)
    }

    /// The same fleet with explicit per-replica roles (mixed fleets —
    /// colocated replicas alongside a disaggregated pair — are allowed) and
    /// a migration cost model.
    ///
    /// # Panics
    ///
    /// Panics if the role list length disagrees with `replicas`, if no
    /// replica accepts prompts, if prefill-only replicas exist without a
    /// decode-only replica to hand off to (or vice versa), or if an
    /// autoscaler is attached (autoscaling is colocated-only).
    pub fn with_roles(mut self, roles: Vec<ReplicaRole>, migration: KvMigration) -> Self {
        migration.validate();
        self.roles = roles;
        self.migration = migration;
        self.validate_roles();
        self
    }

    /// Whether any replica has a non-colocated role.
    fn is_disaggregated(&self) -> bool {
        self.roles.iter().any(|r| *r != ReplicaRole::Colocated)
    }

    fn validate_roles(&self) {
        assert_eq!(
            self.roles.len(),
            self.replicas,
            "role list ({}) must cover every replica ({})",
            self.roles.len(),
            self.replicas
        );
        let prefill_only = self
            .roles
            .iter()
            .filter(|r| **r == ReplicaRole::PrefillOnly)
            .count();
        let decode_only = self
            .roles
            .iter()
            .filter(|r| **r == ReplicaRole::DecodeOnly)
            .count();
        assert!(
            self.roles.iter().any(|r| r.accepts_prompts()),
            "a fleet needs at least one replica that accepts prompts"
        );
        assert!(
            (prefill_only > 0) == (decode_only > 0),
            "disaggregation needs both sides: {prefill_only} prefill-only vs \
             {decode_only} decode-only replicas"
        );
        assert!(
            !(self.is_disaggregated() && self.autoscaler.is_some()),
            "the autoscaler supports colocated fleets only"
        );
    }

    /// The same fleet with an autoscaler attached (`replicas` becomes the
    /// initial size and is clamped into the autoscaler's bounds).
    ///
    /// # Panics
    ///
    /// Panics on a disaggregated fleet (autoscaling is colocated-only).
    pub fn with_autoscaler(mut self, autoscaler: AutoscalerConfig) -> Self {
        autoscaler.validate();
        assert!(
            !self.is_disaggregated(),
            "the autoscaler supports colocated fleets only"
        );
        self.replicas = self
            .replicas
            .clamp(autoscaler.min_replicas, autoscaler.max_replicas);
        self.roles = vec![ReplicaRole::Colocated; self.replicas];
        self.autoscaler = Some(autoscaler);
        self
    }
}

/// A fleet of step-able serving engines on a shared virtual clock.
///
/// # Examples
///
/// ```
/// use gpu_sim::GpuConfig;
/// use llm_serving::{
///     Cluster, ClusterConfig, ModelConfig, RouterPolicy, ServingConfig, Workload,
/// };
///
/// let base = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024);
/// let mut cluster = Cluster::new(ClusterConfig::new(base, 2, RouterPolicy::decode_aware()));
/// let report = cluster.run(Workload::internal().generate(16, 1.5, 7));
/// assert_eq!(report.aggregate.completed, 16);
/// assert_eq!(report.assigned_per_replica.iter().sum::<usize>(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The fleet as configured; every run rebuilds the state below from it
    /// ([`Cluster::build`]).
    config: ClusterConfig,
    replicas: Vec<ServingEngine>,
    /// Per-replica roles (parallel to `replicas`; autoscaler-spawned
    /// replicas are always colocated).
    roles: Vec<ReplicaRole>,
    rr_next: usize,
    assigned: Vec<usize>,
    lifecycle: Vec<ReplicaLife>,
    scale_out_events: usize,
    scale_in_events: usize,
    peak_active: usize,
    /// Scale-pressure streaks (consecutive over/under-threshold checks).
    out_streak: usize,
    in_streak: usize,
    /// Worker threads for parallel replica advancement between barriers
    /// (see [`Cluster::set_advance_workers`]).
    advance_workers: usize,
    /// Host-side barrier counters of the last run (see
    /// [`Cluster::advance_profile`]).
    advance_profile: AdvanceProfile,
    /// Fleet-level trace recorder (autoscaler events), present iff the base
    /// config carries a [`crate::TraceConfig`]. Per-request events live in
    /// the replicas' own recorders; [`Cluster::flight_recording`] merges
    /// both in replica-index order.
    tracer: Option<TraceRecorder>,
}

/// Default worker count for the parallel drain: the machine's available
/// parallelism. Barriers run on the calling thread at every worker count,
/// so more workers are never slower than one.
fn default_advance_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host-side cost of the event-driven core's barriers during the last
/// [`Cluster::run`] (see [`Cluster::advance_profile`]).
///
/// A barrier is one advance of a non-empty side of the fleet to a routing,
/// delivery or autoscaler instant (a colocated fleet has one side, so one
/// barrier per arrival or check); barriers always run on the calling
/// thread. The final drain, the one parallel dispatch, is counted apart.
/// These are wall-clock host numbers, so they vary run to run and are kept
/// out of [`ClusterReport`], which is bit-identical at every worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceProfile {
    /// Barriers advanced.
    pub barriers: u64,
    /// Host ns spent advancing replicas at barriers.
    pub barrier_ns: u64,
    /// Host ns spent draining the fleet after the last arrival.
    pub drain_ns: u64,
}

impl AdvanceProfile {
    fn merge(self, other: AdvanceProfile) -> AdvanceProfile {
        AdvanceProfile {
            barriers: self.barriers + other.barriers,
            barrier_ns: self.barrier_ns + other.barrier_ns,
            drain_ns: self.drain_ns + other.drain_ns,
        }
    }

    /// The profile as a JSON object (host ns and barrier counts).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("barriers", JsonValue::Num(self.barriers as f64)),
            ("barrier_ns", JsonValue::Num(self.barrier_ns as f64)),
            ("drain_ns", JsonValue::Num(self.drain_ns as f64)),
        ])
    }
}

/// A host duration in whole ns.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An entry of one of the fleet's min-heaps (under [`Reverse`]): `item`
/// due at time `at`, ordered by `(at, tie)` in a total order (no NaNs reach
/// a heap). The replica event queue keys each replica's epoch by replica
/// index; the delivery queue keys each in-flight KV chain by export order.
#[derive(Debug, Clone, Copy)]
struct Timed<T> {
    at: f64,
    tie: usize,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl<T> Eq for Timed<T> {}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.total_cmp(&other.at).then(self.tie.cmp(&other.tie))
    }
}

/// Min-heap over per-replica next-event times with lazy deletion (the same
/// idiom as the block pool's eviction drain heap): each replica carries an
/// epoch counter, [`ReplicaHeap::refresh`] bumps it and pushes a fresh
/// entry, and stale entries — older epochs — are discarded on pop. At most
/// one **live** entry per replica exists at any time.
#[derive(Debug)]
struct ReplicaHeap {
    /// `(next event, replica)` entries carrying the replica's epoch.
    heap: BinaryHeap<Reverse<Timed<u64>>>,
    epochs: Vec<u64>,
}

impl ReplicaHeap {
    fn new(replicas: usize) -> Self {
        ReplicaHeap {
            heap: BinaryHeap::new(),
            epochs: vec![0; replicas],
        }
    }

    /// Invalidate any live entry for `idx` and, when the replica has a
    /// pending event, enqueue it at that time.
    fn refresh(&mut self, idx: usize, next_event: Option<f64>) {
        while self.epochs.len() <= idx {
            self.epochs.push(0);
        }
        self.epochs[idx] += 1;
        if let Some(at) = next_event {
            debug_assert!(!at.is_nan(), "event times are never NaN");
            self.heap.push(Reverse(Timed {
                at,
                tie: idx,
                item: self.epochs[idx],
            }));
        }
    }

    /// Pop every replica whose next event is strictly before `t` into
    /// `due`, ascending by index. Entries at exactly `t` stay queued: an
    /// engine whose next event is at `t` treats `advance_to(t)` as a no-op,
    /// so popping them would only waste a step.
    fn drain_due(&mut self, t: f64, due: &mut Vec<usize>) {
        due.clear();
        while let Some(&Reverse(top)) = self.heap.peek() {
            if top.at >= t {
                break;
            }
            self.heap.pop();
            if self.epochs[top.tie] == top.item {
                // Live entry: retire it (the caller re-refreshes after
                // advancing) so duplicates are impossible.
                self.epochs[top.tie] += 1;
                due.push(top.tie);
            }
        }
        due.sort_unstable();
    }
}

/// Advances a subset of the fleet to barrier times, in one of two modes:
///
/// * **lockstep** (`heap: None`) — sweep every member sequentially, exactly
///   as the pre-event-driven cluster did; the differential oracle.
/// * **event-driven** (`heap: Some`) — pop only the members whose next
///   event is due from the [`ReplicaHeap`] and advance those. Replicas
///   interact only at barriers (routing, autoscaler checks, migration
///   deliveries), so advancing just the due set is deterministic and
///   bit-identical to the sweep: skipped replicas would have been state
///   no-ops (see [`ServingEngine::next_event_time`]).
///
/// Barriers run on the calling thread in both modes. A barrier's due set
/// is a few replicas with a few microseconds of work between them, far
/// less than a thread hand-off costs, so only the final drain — every
/// member's whole remaining queue — is spread across worker threads.
#[derive(Debug)]
struct Advancer {
    members: Vec<usize>,
    heap: Option<ReplicaHeap>,
    /// Scratch for the due set (reused across barriers).
    due: Vec<usize>,
    profile: AdvanceProfile,
}

impl Advancer {
    /// An advancer over `members` (ascending replica indices).
    fn new(members: Vec<usize>, event_driven: bool, replicas: &[ServingEngine]) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let heap = event_driven.then(|| {
            let mut heap = ReplicaHeap::new(replicas.len());
            for &i in &members {
                heap.refresh(i, replicas[i].next_event_time());
            }
            heap
        });
        Advancer {
            members,
            heap,
            due: Vec::new(),
            profile: AdvanceProfile::default(),
        }
    }

    /// Track a replica spawned mid-run (autoscaler scale-out).
    fn add_member(&mut self, idx: usize, replicas: &[ServingEngine]) {
        self.members.push(idx);
        if let Some(heap) = &mut self.heap {
            heap.refresh(idx, replicas[idx].next_event_time());
        }
    }

    /// Re-read a member's next event after the cluster mutated it
    /// (submit, handoff import, queue reclaim).
    fn notify(&mut self, idx: usize, replicas: &[ServingEngine]) {
        debug_assert!(self.members.contains(&idx), "notify on a non-member");
        if let Some(heap) = &mut self.heap {
            heap.refresh(idx, replicas[idx].next_event_time());
        }
    }

    /// Advance members to barrier time `t`: all of them (lockstep) or just
    /// the due set (event-driven), recording the barrier in the profile. An
    /// advancer without members records nothing.
    fn advance(&mut self, replicas: &mut [ServingEngine], t: f64) {
        if self.members.is_empty() {
            return;
        }
        let start = Instant::now();
        match &mut self.heap {
            None => {
                for &i in &self.members {
                    replicas[i].advance_to(t);
                }
            }
            Some(heap) => {
                heap.drain_due(t, &mut self.due);
                for &i in &self.due {
                    replicas[i].advance_to(t);
                    heap.refresh(i, replicas[i].next_event_time());
                }
            }
        }
        self.profile.barriers += 1;
        self.profile.barrier_ns += nanos(start.elapsed());
    }

    /// Run every member until drained — in one parallel dispatch across
    /// `workers` threads in event-driven mode (the engines are
    /// independent), sequentially in lockstep.
    fn drain(&mut self, replicas: &mut [ServingEngine], workers: usize) {
        if self.members.is_empty() {
            return;
        }
        let start = Instant::now();
        match &mut self.heap {
            None => {
                for &i in &self.members {
                    replicas[i].run_until_drained();
                }
            }
            Some(heap) => {
                par_for_each(select_muts(replicas, &self.members), workers, |r| {
                    r.run_until_drained()
                });
                for &i in &self.members {
                    heap.refresh(i, replicas[i].next_event_time());
                }
            }
        }
        self.profile.drain_ns += nanos(start.elapsed());
    }
}

/// One run's moving parts. The prompt side (colocated and prefill-only
/// replicas) and the decode side (decode-only replicas) advance
/// independently between barriers, so each has its own [`Advancer`];
/// completed prefills cross from one to the other as deliveries. A
/// colocated or autoscaled fleet is one whose decode side is empty and
/// which exports nothing.
#[derive(Debug)]
struct Fleet {
    prompt: Advancer,
    decode: Advancer,
    /// Prefill-only replicas: the only ones whose prefills export.
    exporters: Vec<usize>,
    /// KV chains in flight, each due at its export time plus migration
    /// stall; ties break in export order.
    deliveries: BinaryHeap<Reverse<Timed<PrefillHandoff>>>,
    /// Handoffs exported so far (the next delivery's tiebreak).
    exported: usize,
}

impl Fleet {
    fn new(replicas: &[ServingEngine], roles: &[ReplicaRole], event_driven: bool) -> Self {
        let having = |keep: fn(&ReplicaRole) -> bool| -> Vec<usize> {
            (0..roles.len()).filter(|&i| keep(&roles[i])).collect()
        };
        Fleet {
            prompt: Advancer::new(having(ReplicaRole::accepts_prompts), event_driven, replicas),
            decode: Advancer::new(
                having(|r| *r == ReplicaRole::DecodeOnly),
                event_driven,
                replicas,
            ),
            exporters: having(|r| *r == ReplicaRole::PrefillOnly),
            deliveries: BinaryHeap::new(),
            exported: 0,
        }
    }
}

/// Mutable references to `replicas[i]` for each `i` in the strictly
/// ascending index list `idxs`.
fn select_muts<'a>(
    replicas: &'a mut [ServingEngine],
    idxs: &[usize],
) -> Vec<&'a mut ServingEngine> {
    let mut out = Vec::with_capacity(idxs.len());
    let mut rest = replicas;
    let mut base = 0usize;
    for &i in idxs {
        let (_, tail) = rest.split_at_mut(i - base);
        let (head, tail) = tail.split_at_mut(1);
        out.push(&mut head[0]);
        rest = tail;
        base = i + 1;
    }
    out
}

/// Apply `f` to every item, spreading the work across up to `workers`
/// scoped threads through an atomic work queue (the bench harness's
/// `par_map` worker-pool idiom). The items are independent, so the result
/// is identical for every worker count; with one worker (or one item) it
/// runs inline with no thread overhead.
fn par_for_each<T, F>(items: Vec<&mut T>, workers: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let slots: Vec<Mutex<Option<&mut T>>> =
        items.into_iter().map(|r| Mutex::new(Some(r))).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                // Each index is claimed exactly once (fetch_add), so the
                // slot is always still full; the mutex only makes the
                // `&mut` hand-off to this thread safe.
                if let Some(item) = slots[i].lock().expect("work slot lock").take() {
                    f(item);
                }
            });
        }
    });
}

impl Cluster {
    /// Build a fleet from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.replicas > 0, "a cluster needs at least one replica");
        config.validate_roles();
        Cluster::build(config, default_advance_workers())
    }

    /// A fresh fleet for `config`: new engines, router cursor, lifecycle
    /// and autoscaler counters. Construction and every run's reset both
    /// start here.
    fn build(config: ClusterConfig, advance_workers: usize) -> Self {
        let replicas = config
            .roles
            .iter()
            .map(|role| {
                let mut engine = ServingEngine::new(config.base.clone());
                engine.set_export_prefills(*role == ReplicaRole::PrefillOnly);
                engine
            })
            .collect();
        Cluster {
            replicas,
            roles: config.roles.clone(),
            rr_next: 0,
            assigned: vec![0; config.replicas],
            lifecycle: vec![ReplicaLife::new(0.0); config.replicas],
            scale_out_events: 0,
            scale_in_events: 0,
            peak_active: config.replicas,
            out_streak: 0,
            in_streak: 0,
            advance_workers,
            advance_profile: AdvanceProfile::default(),
            tracer: config
                .base
                .tracing
                .as_ref()
                .map(|cfg| TraceRecorder::new(cfg.clone())),
            config,
        }
    }

    /// Per-replica roles, in replica order.
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.roles
    }

    /// The replica engines (inspectable mid-run or after). Under autoscaling
    /// this includes retired replicas — their reports still carry the
    /// requests they served.
    pub fn replicas(&self) -> &[ServingEngine] {
        &self.replicas
    }

    /// Collect the fleet's flight recording: each replica's trace ring in
    /// replica-index order, then the cluster-level recorder (autoscaler
    /// events). `None` unless the base config enabled tracing via
    /// [`ServingConfig::with_tracing`]. The index-order merge mirrors the
    /// streaming-metrics accumulator merge, so the recording is bit-for-bit
    /// identical at every worker count.
    pub fn flight_recording(&self) -> Option<FlightRecording> {
        self.tracer.as_ref()?;
        let mut recording = FlightRecording::new();
        for replica in &self.replicas {
            recording.push_replica(
                replica
                    .trace_recorder()
                    .expect("traced clusters build every replica with a recorder"),
            );
        }
        if let Some(tracer) = &self.tracer {
            recording.set_cluster(tracer);
        }
        Some(recording)
    }

    /// Set the number of worker threads that drain the fleet after the
    /// last arrival (clamped to at least 1). Defaults to the machine's
    /// available parallelism. Barriers always advance their due replicas
    /// on the calling thread: their work is far lighter than a thread
    /// hand-off, so extra workers never slow them. Replicas interact only at
    /// barriers, so every worker count produces bit-identical results —
    /// pinned by tests; this only changes wall-clock.
    pub fn set_advance_workers(&mut self, workers: usize) {
        self.advance_workers = workers.max(1);
    }

    /// Host-side barrier counters of the last [`Cluster::run`] (or
    /// [`Cluster::run_lockstep`]): barriers advanced and the host ns they
    /// and the final drain took. Wall-clock numbers, so they are not part
    /// of the [`ClusterReport`].
    pub fn advance_profile(&self) -> AdvanceProfile {
        self.advance_profile
    }

    /// Indices of replicas currently accepting new requests.
    fn active_indices(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&i| self.lifecycle[i].state == ReplicaState::Active)
            .collect()
    }

    /// Pick the replica for `spec` given current replica state, without
    /// submitting it. This **advances router state** (the round-robin
    /// cursor): call it once per request, exactly as [`Cluster::run`] does,
    /// not as a side-effect-free preview. Only active replicas that accept
    /// prompts are candidates: draining, retired and decode-only replicas
    /// are never picked.
    fn route(&mut self, spec: &RequestSpec) -> usize {
        let (lifecycle, roles) = (&self.lifecycle, &self.roles);
        let routable = (0..self.replicas.len()).filter(move |&i| {
            lifecycle[i].state == ReplicaState::Active && roles[i].accepts_prompts()
        });
        let router = self.config.router;
        route_among(router, &self.replicas, &mut self.rr_next, routable, spec)
    }

    /// Reset the fleet to its initial state (fresh engines, router cursor,
    /// lifecycle and autoscaler counters).
    fn reset(&mut self) {
        *self = Cluster::build(self.config.clone(), self.advance_workers);
    }

    /// Serve `specs` to completion: route every request at its arrival time
    /// (advancing replicas with due work to that instant first, so routing
    /// sees live state), then drain the fleet. With an autoscaler attached,
    /// scaling checks interleave with arrivals on the same virtual clock.
    ///
    /// The run loop is **event-driven**: a min-heap of per-replica
    /// next-event times ([`ServingEngine::next_event_time`]) is interleaved
    /// with arrivals, migration deliveries and autoscaler checks, so only
    /// replicas with work due before a barrier are stepped, on the calling
    /// thread. The final drain is one parallel dispatch across
    /// [`Cluster::set_advance_workers`] threads.
    /// Outcomes are bit-for-bit identical to the sequential full-sweep loop
    /// ([`Cluster::run_lockstep`]) for every worker count: the event queue
    /// changes when host work happens, never what virtual time things
    /// happen at.
    ///
    /// Each call starts from a fresh fleet — replica engines, router cursor
    /// and assignment counts are reset first — so repeated `run`s on one
    /// `Cluster` are independent, mirroring [`ServingEngine::run`].
    ///
    /// # Panics
    ///
    /// Panics if a single request can never fit in a replica's KV cache.
    pub fn run(&mut self, specs: Vec<RequestSpec>) -> ClusterReport {
        self.run_inner(specs, true)
    }

    /// [`Cluster::run`] with the event queue and worker pool disabled:
    /// every replica is swept sequentially to every barrier time, exactly
    /// as the pre-event-driven cluster did. Kept as the differential oracle
    /// — the fuzz harness asserts `run` and `run_lockstep` produce
    /// identical reports for every generated configuration.
    ///
    /// # Panics
    ///
    /// Panics if a single request can never fit in a replica's KV cache.
    pub fn run_lockstep(&mut self, specs: Vec<RequestSpec>) -> ClusterReport {
        self.run_inner(specs, false)
    }

    /// The one serving loop for every fleet shape: each arrival (and, with
    /// an autoscaler, each check before it) is a [`Cluster::barrier`], then
    /// the request is routed and submitted; after the last arrival the
    /// fleet drains.
    fn run_inner(&mut self, specs: Vec<RequestSpec>, event_driven: bool) -> ClusterReport {
        self.reset();

        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| {
            specs[a]
                .arrival
                .partial_cmp(&specs[b].arrival)
                .expect("arrival times must not be NaN")
        });

        let mut fleet = Fleet::new(&self.replicas, &self.roles, event_driven);
        let scaler = self.config.autoscaler;
        let mut next_check = scaler.map_or(0.0, |s| s.interval);
        for &i in &order {
            let spec = specs[i];
            if let Some(scaler) = &scaler {
                while next_check <= spec.arrival {
                    self.autoscale_check(next_check, scaler, true, &mut fleet);
                    next_check += scaler.interval;
                }
            }
            self.barrier(spec.arrival, &mut fleet);
            let target = self.route(&spec);
            self.assign(target, spec, &mut fleet.prompt);
        }

        match &scaler {
            // Keep checking so slack scale-ins retire replicas (the
            // replica-seconds cost metric depends on *when* they retire).
            // Every pass advances the clock by one interval, so this
            // terminates once the backlog is served. Scale-out is
            // suppressed here: the closed world knows no further arrivals
            // exist, and a replica spawned now could never receive work
            // (routing happens at arrival or drain reclaim) — it would only
            // idle and inflate replica_seconds.
            Some(scaler) => {
                while (0..self.replicas.len()).any(|i| {
                    self.lifecycle[i].state != ReplicaState::Retired
                        && !self.replicas[i].is_drained()
                }) {
                    self.autoscale_check(next_check, scaler, false, &mut fleet);
                    next_check += scaler.interval;
                }
            }
            // The prompt side receives no further work, and deliveries
            // create decode-side work only, so one parallel pass drains the
            // prompt side and surfaces every remaining export. The
            // deliveries then land in time order, each with the decode side
            // advanced to its instant, and the decode side drains.
            None => {
                fleet.prompt.drain(&mut self.replicas, self.advance_workers);
                self.collect_exports(&mut fleet);
                self.deliver_due(f64::INFINITY, &mut fleet);
                fleet.decode.drain(&mut self.replicas, self.advance_workers);
            }
        }
        self.advance_profile = fleet.prompt.profile.merge(fleet.decode.profile);
        self.report()
    }

    /// Advance the fleet to simulated time `t`, moving any KV chains whose
    /// prefill completed along the way: the prompt side advances first
    /// (producing exports), then every delivery due by `t` lands on a
    /// decode replica at its delivery instant, then the decode side catches
    /// up to `t`. With an empty decode side this is one prompt-side advance.
    fn barrier(&mut self, t: f64, fleet: &mut Fleet) {
        fleet.prompt.advance(&mut self.replicas, t);
        self.collect_exports(fleet);
        self.deliver_due(t, fleet);
        fleet.decode.advance(&mut self.replicas, t);
    }

    /// Submit `spec` to replica `target` and re-read its next event.
    fn assign(&mut self, target: usize, spec: RequestSpec, side: &mut Advancer) {
        self.replicas[target].submit(spec);
        self.assigned[target] += 1;
        side.notify(target, &self.replicas);
    }

    /// Pull completed prefills off every prefill-only replica and schedule
    /// their deliveries: a handoff of `T` tokens arrives `stall` seconds
    /// after its export, per the [`KvMigration`] model.
    fn collect_exports(&mut self, fleet: &mut Fleet) {
        for &i in &fleet.exporters {
            for handoff in self.replicas[i].take_ready_handoffs() {
                let bytes_per_token = self.config.base.model.attention.kv_bytes_per_token();
                let kv_bytes = handoff.chain.tokens as f64 * bytes_per_token as f64;
                let stall = self
                    .config
                    .migration
                    .stall_secs(kv_bytes, handoff.prefill_window);
                fleet.deliveries.push(Reverse(Timed {
                    at: handoff.export_time + stall,
                    tie: fleet.exported,
                    item: handoff,
                }));
                fleet.exported += 1;
            }
        }
    }

    /// Land every delivery due by `t`, earliest first (export order breaking
    /// ties), each on the least-loaded decode replica with the decode side
    /// advanced to the delivery instant.
    fn deliver_due(&mut self, t: f64, fleet: &mut Fleet) {
        while let Some(top) = fleet.deliveries.peek_mut().filter(|d| d.0.at <= t) {
            let Reverse(d) = PeekMut::pop(top);
            fleet.decode.advance(&mut self.replicas, d.at);
            let target = *fleet
                .decode
                .members
                .iter()
                .min_by_key(|&&j| (self.replicas[j].outstanding_tokens(), j))
                .expect("validated fleets have a decode replica for every prefill replica");
            self.replicas[target].import_handoff(d.item, d.at);
            fleet.decode.notify(target, &self.replicas);
        }
    }

    /// One autoscaling decision at time `now`: a barrier, then retire
    /// drained replicas, update the pressure streaks, and scale out/in if a
    /// streak sustained. `allow_scale_out` is false during the post-arrival
    /// drain, where a new replica could never be routed any work.
    fn autoscale_check(
        &mut self,
        now: f64,
        scaler: &AutoscalerConfig,
        allow_scale_out: bool,
        fleet: &mut Fleet,
    ) {
        self.barrier(now, fleet);
        // Draining replicas whose in-flight work finished retire now.
        for i in 0..self.replicas.len() {
            if self.lifecycle[i].state == ReplicaState::Draining && self.replicas[i].is_drained() {
                self.lifecycle[i].state = ReplicaState::Retired;
                // Its engine clock is when work actually stopped; a replica
                // never costs less than zero seconds.
                self.lifecycle[i].retired_at =
                    Some(self.replicas[i].clock().max(self.lifecycle[i].spawned_at));
            }
        }

        let active = self.active_indices();
        let backlog: usize = active
            .iter()
            .map(|&i| self.replicas[i].outstanding_tokens())
            .sum();
        let per_replica = backlog / active.len().max(1);
        if per_replica > scaler.scale_out_backlog {
            self.out_streak += 1;
            self.in_streak = 0;
        } else if per_replica < scaler.scale_in_backlog {
            self.in_streak += 1;
            self.out_streak = 0;
        } else {
            self.out_streak = 0;
            self.in_streak = 0;
        }

        if allow_scale_out
            && self.out_streak >= scaler.sustain
            && active.len() < scaler.max_replicas
        {
            self.replicas
                .push(ServingEngine::new(self.config.base.clone()));
            self.roles.push(ReplicaRole::Colocated);
            self.lifecycle.push(ReplicaLife::new(now));
            self.assigned.push(0);
            self.scale_out_events += 1;
            if let Some(rec) = self.tracer.as_mut() {
                rec.record(
                    now,
                    TraceEventKind::ScaleOut {
                        replicas: self.replicas.len(),
                    },
                );
            }
            self.peak_active = self.peak_active.max(active.len() + 1);
            self.out_streak = 0;
            self.in_streak = 0;
            fleet
                .prompt
                .add_member(self.replicas.len() - 1, &self.replicas);
        } else if self.in_streak >= scaler.sustain && active.len() > scaler.min_replicas {
            // Drain the least-loaded active replica; ties prefer the newest
            // (highest index), keeping the original fleet core stable.
            let victim = *active
                .iter()
                .min_by_key(|&&i| (self.replicas[i].outstanding_tokens(), std::cmp::Reverse(i)))
                .expect("active set is non-empty");
            self.lifecycle[victim].state = ReplicaState::Draining;
            self.scale_in_events += 1;
            if let Some(rec) = self.tracer.as_mut() {
                rec.record(now, TraceEventKind::ScaleIn { replica: victim });
            }
            self.in_streak = 0;
            self.out_streak = 0;
            // Its not-yet-started requests re-route through the normal
            // router over the surviving active replicas; in-flight prefills
            // and decodes finish where they are.
            let reclaimed = self.replicas[victim].reclaim_unstarted();
            fleet.prompt.notify(victim, &self.replicas);
            let survivors = self.active_indices();
            for spec in reclaimed {
                let router = self.config.router;
                let candidates = survivors.iter().copied();
                let target =
                    route_among(router, &self.replicas, &mut self.rr_next, candidates, &spec);
                self.assign(target, spec, &mut fleet.prompt);
            }
        }
    }

    /// Aggregate the given replicas' work into one [`ServingReport`]:
    /// latency statistics over every request they served, engine counters
    /// summed, makespan = the last of them to finish. Either way it is one
    /// [`ReportAccumulator`] fed in replica-index order.
    ///
    /// By default the replicas' request records are graded straight into an
    /// exact accumulator, in list order within each replica, with no record
    /// copied. With streaming metrics ([`ServingConfig::streaming_metrics`])
    /// the replicas' quantile-sketch accumulators are merged instead:
    /// constant memory, and bit-identical for every advancement interleaving
    /// or worker count because sketch merge is bucket-count addition.
    fn aggregate_over(&self, idxs: &[usize]) -> ServingReport {
        let mut makespan = 0.0f64;
        let mut counters = ServingCounters::default();
        for &i in idxs {
            makespan = makespan.max(self.replicas[i].clock());
            counters += self.replicas[i].counters();
        }
        let acc = if self.replicas[0].config().streaming_metrics {
            let mut acc = ReportAccumulator::sketch();
            for &i in idxs {
                acc.merge(
                    self.replicas[i]
                        .accumulator()
                        .expect("streaming replicas carry accumulators"),
                );
            }
            acc
        } else {
            ReportAccumulator::exact(idxs.iter().flat_map(|&i| self.replicas[i].requests()))
        };
        let label = self.replicas[0].config().system_label();
        acc.finalize(&label, makespan, &counters)
    }

    /// Aggregate what the fleet has served so far into a [`ClusterReport`].
    pub fn report(&self) -> ClusterReport {
        let per_replica: Vec<ServingReport> = self.replicas.iter().map(|r| r.report()).collect();
        let all: Vec<usize> = (0..self.replicas.len()).collect();
        let aggregate = self.aggregate_over(&all);

        // Per-role breakdown, in role-declaration order of first appearance
        // (deterministic for a fixed fleet). One entry per role present.
        let mut per_role: Vec<RoleReport> = Vec::new();
        for role in [
            ReplicaRole::Colocated,
            ReplicaRole::PrefillOnly,
            ReplicaRole::DecodeOnly,
        ] {
            let idxs: Vec<usize> = (0..self.replicas.len())
                .filter(|&i| self.roles[i] == role)
                .collect();
            if idxs.is_empty() {
                continue;
            }
            per_role.push(RoleReport {
                role: role.label().to_string(),
                replicas: idxs.len(),
                report: self.aggregate_over(&idxs),
            });
        }

        let max_busy = per_replica.iter().map(|r| r.busy_time).fold(0.0, f64::max);
        let mean_busy = aggregate.busy_time / per_replica.len() as f64;
        let busy_imbalance = if mean_busy > 0.0 {
            max_busy / mean_busy
        } else {
            1.0
        };

        // Replica-seconds: the fleet's capacity cost. A replica is paid for
        // from its spawn until it retires (autoscaled drain) or until the
        // fleet finishes (still-active replicas).
        let fleet_end = aggregate.makespan;
        let replica_seconds = self
            .lifecycle
            .iter()
            .map(|l| {
                let end = l.retired_at.unwrap_or(fleet_end).max(l.spawned_at);
                end - l.spawned_at
            })
            .sum();

        ClusterReport {
            router: self.config.router.label(),
            busy_imbalance,
            assigned_per_replica: self.assigned.clone(),
            roles: self.roles.iter().map(|r| r.label().to_string()).collect(),
            migration: self.config.migration.label(),
            per_role,
            per_replica,
            aggregate,
            scale_out_events: self.scale_out_events,
            scale_in_events: self.scale_in_events,
            peak_replicas: self.peak_active,
            replica_seconds,
        }
    }
}

/// Route `spec` among `candidates` (replica indices in ascending order,
/// walked without collecting them) under `router`, advancing the
/// round-robin cursor `rr_next`.
fn route_among(
    router: RouterPolicy,
    replicas: &[ServingEngine],
    rr_next: &mut usize,
    candidates: impl Iterator<Item = usize> + Clone,
    spec: &RequestSpec,
) -> usize {
    match router {
        RouterPolicy::RoundRobin => {
            let n = candidates.clone().count();
            assert!(n > 0, "no active replica to route to");
            let idx = candidates
                .clone()
                .nth(*rr_next % n)
                .expect("the cursor is below the candidate count");
            *rr_next = (*rr_next + 1) % n;
            idx
        }
        RouterPolicy::LeastOutstandingTokens => {
            argmin_by_key(replicas, candidates, |r| (r.outstanding_tokens(), 0usize))
        }
        RouterPolicy::DecodeAware {
            long_prefill_tokens,
        } => {
            if spec.prompt_tokens >= long_prefill_tokens {
                // A heavy prompt queues behind the existing prefill backlog;
                // among equally clear queues it lands where it disturbs the
                // fewest generation streams.
                argmin_by_key(replicas, candidates, |r| {
                    (r.queued_prefill_tokens(), r.running_decodes())
                })
            } else {
                argmin_by_key(replicas, candidates, |r| {
                    (r.outstanding_tokens(), r.queued_prefill_tokens())
                })
            }
        }
        RouterPolicy::PrefixAffinity => {
            // Longest cached prefix wins; ties (notably the all-cold case)
            // fall back to least outstanding work.
            argmin_by_key(replicas, candidates, |r| {
                (
                    std::cmp::Reverse(r.cached_prefix_tokens_for(spec)),
                    r.outstanding_tokens(),
                )
            })
        }
    }
}

/// Index (among `candidates`) of the replica minimizing `key` (first wins
/// ties, so routing is deterministic).
fn argmin_by_key<K: Ord>(
    replicas: &[ServingEngine],
    candidates: impl Iterator<Item = usize>,
    key: impl Fn(&ServingEngine) -> K,
) -> usize {
    candidates
        .min_by_key(|&i| key(&replicas[i]))
        .expect("cluster has at least one active replica")
}

/// One role's share of a fleet's work (colocated / prefill / decode).
#[derive(Debug, Clone, PartialEq)]
pub struct RoleReport {
    /// Role label ([`ReplicaRole::label`]).
    pub role: String,
    /// Replicas holding this role.
    pub replicas: usize,
    /// Aggregate over those replicas: for prefill-only replicas the latency
    /// stats are empty (their requests migrate out before finishing) but
    /// busy time, iterations and `migrated_tokens` show the prefill side's
    /// work; decode-only replicas carry the end-to-end latency stats of
    /// every migrated request.
    pub report: ServingReport,
}

impl RoleReport {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("role", JsonValue::str(&self.role)),
            ("replicas", JsonValue::Num(self.replicas as f64)),
            ("report", self.report.to_json()),
        ])
    }
}

/// Fleet-level results of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Router policy label.
    pub router: String,
    /// Fleet-wide metrics: latency percentiles over every request served by
    /// any replica, makespan = the last replica to finish, iteration and
    /// busy-time totals summed across replicas.
    pub aggregate: ServingReport,
    /// Each replica's own report, in replica order.
    pub per_replica: Vec<ServingReport>,
    /// Requests assigned to each replica, in replica order.
    pub assigned_per_replica: Vec<usize>,
    /// Each replica's role label, in replica order.
    pub roles: Vec<String>,
    /// Migration cost-model label ([`KvMigration::label`]; `"free"` for
    /// colocated fleets, which never migrate).
    pub migration: String,
    /// Per-role aggregation (one entry per role present in the fleet; a
    /// single `"colocated"` entry for classic fleets).
    pub per_role: Vec<RoleReport>,
    /// Max-over-mean replica busy time: 1.0 is a perfectly balanced fleet,
    /// N means one replica did all the work of N.
    pub busy_imbalance: f64,
    /// Autoscaler scale-out actions taken during the run (0 without an
    /// autoscaler).
    pub scale_out_events: usize,
    /// Autoscaler scale-in (drain) actions taken during the run.
    pub scale_in_events: usize,
    /// Largest number of simultaneously active replicas.
    pub peak_replicas: usize,
    /// Total replica-seconds paid for: each replica from spawn to retirement
    /// (or fleet completion). The capacity-cost denominator for
    /// goodput-per-replica-second comparisons; `replicas × makespan` for a
    /// fixed fleet.
    pub replica_seconds: f64,
}

impl ClusterReport {
    /// Number of replicas in the fleet.
    pub fn num_replicas(&self) -> usize {
        self.per_replica.len()
    }

    /// Fleet throughput in completed requests per minute of makespan.
    pub fn requests_per_minute(&self) -> f64 {
        self.aggregate.requests_per_minute()
    }

    /// Serialize the full cluster report (aggregate + per-replica) as JSON,
    /// in the same format family as [`ServingReport::to_json`].
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("router", JsonValue::str(&self.router)),
            ("replicas", JsonValue::Num(self.num_replicas() as f64)),
            ("busy_imbalance", JsonValue::Num(self.busy_imbalance)),
            (
                "roles",
                JsonValue::Arr(self.roles.iter().map(|r| JsonValue::str(r)).collect()),
            ),
            ("migration", JsonValue::str(&self.migration)),
            (
                "per_role",
                JsonValue::Arr(self.per_role.iter().map(|r| r.to_json()).collect()),
            ),
            (
                "autoscaler",
                JsonValue::obj(vec![
                    (
                        "scale_out_events",
                        JsonValue::Num(self.scale_out_events as f64),
                    ),
                    (
                        "scale_in_events",
                        JsonValue::Num(self.scale_in_events as f64),
                    ),
                    ("peak_replicas", JsonValue::Num(self.peak_replicas as f64)),
                    ("replica_seconds", JsonValue::Num(self.replica_seconds)),
                ]),
            ),
            (
                "assigned_per_replica",
                JsonValue::Arr(
                    self.assigned_per_replica
                        .iter()
                        .map(|&n| JsonValue::Num(n as f64))
                        .collect(),
                ),
            ),
            ("aggregate", self.aggregate.to_json()),
            (
                "per_replica",
                JsonValue::Arr(self.per_replica.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{RateSchedule, Workload};
    use crate::{AdmissionPolicy, ModelConfig, Request, ServingConfig, TenantId};
    use gpu_sim::GpuConfig;

    fn base() -> ServingConfig {
        ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024)
    }

    #[test]
    fn single_replica_cluster_matches_the_plain_engine_exactly() {
        let specs = Workload::internal().generate(24, 1.2, 31);
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstandingTokens,
            RouterPolicy::decode_aware(),
        ] {
            let plain = ServingEngine::new(base()).run(specs.clone());
            let report = Cluster::new(ClusterConfig::new(base(), 1, router)).run(specs.clone());
            assert_eq!(
                report.per_replica[0],
                plain,
                "router {} must not change single-replica results",
                router.label()
            );
            assert_eq!(report.aggregate.makespan, plain.makespan);
            assert_eq!(report.aggregate.completed, plain.completed);
        }
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let specs = Workload::internal().generate(24, 1.0, 5);
        let report =
            Cluster::new(ClusterConfig::new(base(), 4, RouterPolicy::RoundRobin)).run(specs);
        assert_eq!(report.assigned_per_replica, vec![6, 6, 6, 6]);
        assert_eq!(report.aggregate.completed, 24);
    }

    #[test]
    fn least_outstanding_prefers_the_idle_replica() {
        let mut cluster = Cluster::new(ClusterConfig::new(
            base(),
            2,
            RouterPolicy::LeastOutstandingTokens,
        ));
        // Load replica 0 by hand, then route: the idle replica must win.
        cluster.replicas[0].submit(RequestSpec::new(0.0, 16 * 1024, 256));
        let spec = RequestSpec::new(0.0, 2048, 64);
        assert_eq!(cluster.route(&spec), 1);
    }

    #[test]
    fn decode_aware_routes_long_prefills_away_from_decode_heavy_replicas() {
        let mut cluster = Cluster::new(ClusterConfig::new(base(), 3, RouterPolicy::decode_aware()));
        // Replica 0: deep into decode — small prompts, long generations,
        // advanced past their prefills. No prefill backlog, many decodes.
        cluster.replicas[0].submit(RequestSpec::new(0.0, 512, 2048));
        cluster.replicas[0].submit(RequestSpec::new(0.0, 512, 2048));
        cluster.replicas[0].advance_to(5.0);
        assert!(cluster.replicas[0].running_decodes() > 0);
        assert_eq!(cluster.replicas[0].queued_prefill_tokens(), 0);
        // Replica 1: a heavy prompt queued (not yet stepped) — large prefill
        // backlog, no decodes.
        cluster.replicas[1].submit(RequestSpec::new(0.0, 16 * 1024, 64));
        assert_eq!(cluster.replicas[1].queued_prefill_tokens(), 16 * 1024);
        // Replica 2: idle.
        // A long prefill avoids both the backlogged replica 1 and the
        // decode-heavy replica 0.
        assert_eq!(cluster.route(&RequestSpec::new(5.0, 12 * 1024, 64)), 2);
        // With the idle replica removed from contention (say it just took
        // that prompt), a long prefill prefers the clear-queue decode-heavy
        // replica over queueing behind 16K tokens of prompt.
        cluster.replicas[2].submit(RequestSpec::new(5.0, 12 * 1024, 64));
        assert_eq!(cluster.route(&RequestSpec::new(5.0, 10 * 1024, 64)), 0);
    }

    #[test]
    fn decode_aware_spreads_simultaneous_long_prefills() {
        // A flash crowd of identical long prefills arriving at the same
        // instant must fan out across the fleet, not dogpile one replica:
        // routing sees each prior assignment as backlog even though no
        // engine step has run in between.
        let specs = vec![RequestSpec::new(0.0, 16 * 1024, 64); 4];
        let report =
            Cluster::new(ClusterConfig::new(base(), 4, RouterPolicy::decode_aware())).run(specs);
        assert_eq!(report.assigned_per_replica, vec![1, 1, 1, 1]);
        assert_eq!(report.aggregate.completed, 4);
    }

    #[test]
    fn repeated_runs_on_one_cluster_are_independent() {
        let specs = Workload::internal().generate(12, 1.0, 19);
        let mut cluster = Cluster::new(ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin));
        let first = cluster.run(specs.clone());
        let second = cluster.run(specs);
        assert_eq!(first, second, "run() must reset fleet state between calls");
        assert_eq!(second.aggregate.completed, 12);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let schedule = RateSchedule::bursty(0.5, 6.0, 40.0, 10.0);
        let specs = Workload::internal().generate_trace(48, &schedule, 77);
        let a = Cluster::new(ClusterConfig::new(base(), 3, RouterPolicy::decode_aware()))
            .run(specs.clone());
        let b =
            Cluster::new(ClusterConfig::new(base(), 3, RouterPolicy::decode_aware())).run(specs);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn more_replicas_cut_latency_under_load() {
        let specs = Workload::internal().generate(40, 2.5, 11);
        let one = Cluster::new(ClusterConfig::new(
            base(),
            1,
            RouterPolicy::LeastOutstandingTokens,
        ))
        .run(specs.clone());
        let four = Cluster::new(ClusterConfig::new(
            base(),
            4,
            RouterPolicy::LeastOutstandingTokens,
        ))
        .run(specs);
        assert_eq!(one.aggregate.completed, 40);
        assert_eq!(four.aggregate.completed, 40);
        assert!(
            four.aggregate.request_latency.p50 < one.aggregate.request_latency.p50,
            "4 replicas {} vs 1 replica {}",
            four.aggregate.request_latency.p50,
            one.aggregate.request_latency.p50
        );
        assert!(four.aggregate.makespan <= one.aggregate.makespan);
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let specs = Workload::arxiv().generate(16, 1.5, 3);
        let report =
            Cluster::new(ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin)).run(specs);
        assert_eq!(report.num_replicas(), 2);
        assert_eq!(
            report.aggregate.iterations,
            report
                .per_replica
                .iter()
                .map(|r| r.iterations)
                .sum::<usize>()
        );
        assert!(report.busy_imbalance >= 1.0);
        assert!(report.requests_per_minute() > 0.0);
        let parsed = JsonValue::parse(&report.to_json().to_string_pretty()).expect("JSON parses");
        assert_eq!(
            parsed.get_path("replicas").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get_path("aggregate.completed")
                .and_then(JsonValue::as_f64),
            Some(16.0)
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = Cluster::new(ClusterConfig::new(base(), 0, RouterPolicy::RoundRobin));
    }

    /// A saturating trace for the autoscaler tests: a burst far beyond what
    /// the starting fleet can absorb, then silence.
    fn pressure_trace(count: usize, seed: u64) -> Vec<RequestSpec> {
        let schedule = RateSchedule::bursty(8.0, 0.2, 30.0, 90.0);
        crate::workload::SloMix::interactive_batch().apply(
            Workload::internal().generate_trace(count, &schedule, seed),
            seed,
        )
    }

    #[test]
    fn pinned_autoscaler_is_bit_for_bit_inert() {
        // min == max: no scaling action is possible, and the autoscaled
        // serving loop (interleaved checks and all) must reproduce the
        // plain fixed-fleet loop exactly — same reports, same JSON.
        let specs = pressure_trace(48, 21);
        for router in [RouterPolicy::RoundRobin, RouterPolicy::decode_aware()] {
            let plain = Cluster::new(ClusterConfig::new(base(), 3, router)).run(specs.clone());
            let pinned = Cluster::new(
                ClusterConfig::new(base(), 3, router).with_autoscaler(AutoscalerConfig::new(3, 3)),
            )
            .run(specs.clone());
            assert_eq!(
                plain.aggregate,
                pinned.aggregate,
                "{}: pinned autoscaler must not change results",
                router.label()
            );
            assert_eq!(plain.per_replica, pinned.per_replica);
            assert_eq!(plain.assigned_per_replica, pinned.assigned_per_replica);
            assert_eq!(
                plain.to_json().to_string_pretty(),
                pinned.to_json().to_string_pretty()
            );
            assert_eq!(pinned.scale_out_events, 0);
            assert_eq!(pinned.scale_in_events, 0);
        }
    }

    #[test]
    fn sustained_pressure_scales_out_and_slack_drains_back() {
        let specs = pressure_trace(100, 33);
        let fixed = Cluster::new(ClusterConfig::new(
            base(),
            1,
            RouterPolicy::LeastOutstandingTokens,
        ))
        .run(specs.clone());
        let mut scaled_cluster = Cluster::new(
            ClusterConfig::new(base(), 1, RouterPolicy::LeastOutstandingTokens)
                .with_autoscaler(AutoscalerConfig::new(1, 6)),
        );
        let scaled = scaled_cluster.run(specs.clone());
        assert!(scaled.scale_out_events > 0, "the burst must trigger growth");
        assert!(scaled.peak_replicas > 1);
        assert!(
            scaled.scale_in_events > 0,
            "the calm tail must drain replicas"
        );
        assert_eq!(
            scaled.aggregate.completed + scaled.aggregate.shed_requests,
            100
        );
        // Scaling out must actually help the SLO under this burst.
        assert!(
            scaled.aggregate.slo_attainment() > fixed.aggregate.slo_attainment(),
            "scaled attainment {} vs fixed {}",
            scaled.aggregate.slo_attainment(),
            fixed.aggregate.slo_attainment()
        );
        // And cost less than pinning the fleet at max the whole time.
        let max_fixed = Cluster::new(ClusterConfig::new(
            base(),
            6,
            RouterPolicy::LeastOutstandingTokens,
        ))
        .run(specs);
        assert!(
            scaled.replica_seconds < max_fixed.replica_seconds,
            "autoscaled {} replica-seconds vs max-pinned {}",
            scaled.replica_seconds,
            max_fixed.replica_seconds
        );
        // Deterministic.
        let again = scaled_cluster.run(pressure_trace(100, 33));
        assert_eq!(scaled, again);
    }

    #[test]
    fn draining_reroutes_queued_requests_and_finishes_inflight_work() {
        // Aggressive scale-in: a tiny slack threshold would never trigger,
        // so use a huge one with min 1 and start at 3 — the fleet must
        // shrink, yet every request completes exactly once.
        let specs = Workload::internal().generate(40, 1.0, 13);
        let scaler = AutoscalerConfig {
            min_replicas: 1,
            max_replicas: 3,
            interval: 4.0,
            scale_out_backlog: usize::MAX / 2,
            scale_in_backlog: 50_000,
            sustain: 1,
        };
        let report = Cluster::new(
            ClusterConfig::new(base(), 3, RouterPolicy::RoundRobin).with_autoscaler(scaler),
        )
        .run(specs);
        assert!(report.scale_in_events > 0, "slack must drain replicas");
        assert_eq!(report.scale_out_events, 0);
        assert_eq!(
            report.aggregate.completed, 40,
            "every request finishes exactly once despite re-routing"
        );
        assert!(report.replica_seconds < 3.0 * report.aggregate.makespan);
    }

    #[test]
    fn autoscaler_respects_bounds() {
        let specs = pressure_trace(60, 5);
        let report = Cluster::new(
            ClusterConfig::new(base(), 2, RouterPolicy::LeastOutstandingTokens).with_autoscaler(
                AutoscalerConfig {
                    max_replicas: 3,
                    ..AutoscalerConfig::new(2, 3)
                },
            ),
        )
        .run(specs);
        assert!(report.peak_replicas <= 3, "never more than max active");
        assert_eq!(report.aggregate.completed, 60);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_autoscaler_bounds_rejected() {
        let _ = AutoscalerConfig::new(4, 2);
    }

    // ----- disaggregated prefill/decode serving -----

    #[test]
    fn decode_only_replicas_never_receive_fresh_prompts() {
        let config = ClusterConfig::disaggregated(
            base(),
            2,
            2,
            RouterPolicy::LeastOutstandingTokens,
            KvMigration::free(),
        );
        let mut cluster = Cluster::new(config);
        for _ in 0..8 {
            let target = cluster.route(&RequestSpec::new(0.0, 4096, 64));
            assert!(target < 2, "prompt routed to decode-only replica {target}");
            cluster.replicas[target].submit(RequestSpec::new(0.0, 4096, 64));
        }
    }

    #[test]
    fn disaggregated_fleet_serves_every_request_exactly_once() {
        let specs = Workload::internal().generate(24, 1.5, 41);
        let report = Cluster::new(ClusterConfig::disaggregated(
            base(),
            2,
            2,
            RouterPolicy::decode_aware(),
            KvMigration::infiniband(),
        ))
        .run(specs.clone());
        assert_eq!(report.aggregate.completed, 24);
        // Every multi-token request migrated exactly once; single-token
        // outputs finish at prefill and never migrate.
        let expect_migrations = specs.iter().filter(|s| s.output_tokens > 1).count();
        assert_eq!(report.aggregate.migrated_out_requests, expect_migrations);
        assert_eq!(report.aggregate.migrated_in_requests, expect_migrations);
        assert!(report.aggregate.migrated_tokens > 0);
        assert!(report.aggregate.migration_stall_time > 0.0);
        // Per-role breakdown: prefill side completed nothing locally, decode
        // side carries the completions.
        assert_eq!(report.per_role.len(), 2);
        let prefill = &report.per_role[0];
        let decode = &report.per_role[1];
        assert_eq!(prefill.role, "prefill");
        assert_eq!(decode.role, "decode");
        assert_eq!(
            prefill.report.completed,
            specs.len() - expect_migrations,
            "prefill side completes only single-token outputs"
        );
        assert_eq!(decode.report.completed, expect_migrations);
        assert!(prefill.report.busy_time > 0.0);
        assert!(decode.report.busy_time > 0.0);
    }

    #[test]
    fn disaggregated_runs_are_deterministic_and_resettable() {
        let specs = Workload::internal().generate(20, 2.0, 9);
        let mut cluster = Cluster::new(ClusterConfig::disaggregated(
            base(),
            1,
            1,
            RouterPolicy::RoundRobin,
            KvMigration::commodity(),
        ));
        let a = cluster.run(specs.clone());
        let b = cluster.run(specs);
        assert_eq!(a, b, "repeated disaggregated runs must be independent");
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn colocated_roles_are_bit_for_bit_inert() {
        // An explicit all-colocated role list (with a non-free migration
        // model that can never be exercised) must reproduce the classic
        // cluster exactly.
        let specs = Workload::internal().generate(16, 1.2, 23);
        let plain = Cluster::new(ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin))
            .run(specs.clone());
        let roled = Cluster::new(
            ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin)
                .with_roles(vec![ReplicaRole::Colocated; 2], KvMigration::infiniband()),
        )
        .run(specs);
        assert_eq!(plain.aggregate, roled.aggregate);
        assert_eq!(plain.per_replica, roled.per_replica);
        assert_eq!(plain.assigned_per_replica, roled.assigned_per_replica);
        assert_eq!(roled.aggregate.migrated_out_requests, 0);
    }

    #[test]
    fn slower_migration_links_stall_decodes_longer() {
        let specs = Workload::internal().generate(16, 1.5, 37);
        let run_with = |migration: KvMigration| {
            Cluster::new(ClusterConfig::disaggregated(
                base(),
                1,
                1,
                RouterPolicy::RoundRobin,
                migration,
            ))
            .run(specs.clone())
        };
        let free = run_with(KvMigration::free());
        let fast = run_with(KvMigration::infiniband());
        let slow = run_with(KvMigration::commodity());
        // Even a free link accrues some stall: the decode replica may be
        // mid-iteration when a chain lands, and that residency queueing is
        // migration-induced too. But a real link must stall strictly more.
        assert!(
            free.aggregate.migration_stall_time < fast.aggregate.migration_stall_time,
            "a 25 GB/s link must stall more than a free one ({} vs {})",
            fast.aggregate.migration_stall_time,
            free.aggregate.migration_stall_time
        );
        assert!(
            slow.aggregate.migration_stall_time > fast.aggregate.migration_stall_time,
            "2 GB/s must stall more than 25 GB/s ({} vs {})",
            slow.aggregate.migration_stall_time,
            fast.aggregate.migration_stall_time
        );
        // The stall lands in the decode gap after the first token.
        assert!(slow.aggregate.tbt.max >= fast.aggregate.tbt.max);
    }

    #[test]
    fn overlap_hides_part_of_the_transfer() {
        let specs = Workload::internal().generate(16, 1.5, 37);
        let run_with = |migration: KvMigration| {
            Cluster::new(ClusterConfig::disaggregated(
                base(),
                1,
                1,
                RouterPolicy::RoundRobin,
                migration,
            ))
            .run(specs.clone())
        };
        let serial = run_with(KvMigration::commodity());
        let overlapped = run_with(KvMigration::commodity().with_overlap());
        assert!(
            overlapped.aggregate.migration_stall_time < serial.aggregate.migration_stall_time,
            "ISO-style overlap must hide transfer time behind the prefill \
             ({} vs {})",
            overlapped.aggregate.migration_stall_time,
            serial.aggregate.migration_stall_time
        );
    }

    #[test]
    fn migration_cost_model_arithmetic() {
        let m = KvMigration::new(10.0, 0.5);
        // 20 GB at 10 GB/s = 2 s wire + 0.5 s latency.
        assert!((m.transfer_secs(20e9) - 2.5).abs() < 1e-9);
        assert_eq!(m.stall_secs(20e9, 100.0), m.transfer_secs(20e9));
        let o = m.with_overlap();
        // A 1.5 s prefill window hides 1.5 s of the 2 s wire time.
        assert!((o.stall_secs(20e9, 1.5) - 1.0).abs() < 1e-9);
        // A window longer than the wire time leaves only the latency.
        assert!((o.stall_secs(20e9, 10.0) - 0.5).abs() < 1e-9);
        assert_eq!(KvMigration::free().transfer_secs(1e12), 0.0);
        assert_eq!(KvMigration::free().label(), "free");
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn prefill_only_without_decode_only_rejected() {
        let _ = Cluster::new(
            ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin).with_roles(
                vec![ReplicaRole::PrefillOnly, ReplicaRole::Colocated],
                KvMigration::free(),
            ),
        );
    }

    #[test]
    #[should_panic(expected = "accepts prompts")]
    fn all_decode_fleet_rejected() {
        let _ = Cluster::new(
            ClusterConfig::new(base(), 1, RouterPolicy::RoundRobin)
                .with_roles(vec![ReplicaRole::DecodeOnly], KvMigration::free()),
        );
    }

    // ----- event-driven core -----

    #[test]
    fn event_driven_run_matches_lockstep_oracle_in_every_mode() {
        let schedule = RateSchedule::bursty(0.5, 6.0, 40.0, 10.0);
        let specs = Workload::internal().generate_trace(48, &schedule, 77);

        // Colocated.
        let mut colocated =
            Cluster::new(ClusterConfig::new(base(), 3, RouterPolicy::decode_aware()));
        let event = colocated.run(specs.clone());
        let lock = colocated.run_lockstep(specs.clone());
        assert_eq!(event, lock, "colocated event-driven != lockstep");
        assert_eq!(
            event.to_json().to_string_pretty(),
            lock.to_json().to_string_pretty()
        );

        // Disaggregated, with a link slow enough that deliveries interleave
        // with arrivals.
        let mut disagg = Cluster::new(ClusterConfig::disaggregated(
            base(),
            2,
            2,
            RouterPolicy::decode_aware(),
            KvMigration::commodity(),
        ));
        let event = disagg.run(specs.clone());
        let lock = disagg.run_lockstep(specs);
        assert_eq!(event, lock, "disaggregated event-driven != lockstep");

        // Autoscaled: scale-out, queue reclaim and retirement all notify
        // the event queue.
        let burst = pressure_trace(80, 33);
        let mut scaled = Cluster::new(
            ClusterConfig::new(base(), 1, RouterPolicy::LeastOutstandingTokens)
                .with_autoscaler(AutoscalerConfig::new(1, 5)),
        );
        let event = scaled.run(burst.clone());
        let lock = scaled.run_lockstep(burst);
        assert_eq!(event, lock, "autoscaled event-driven != lockstep");
        assert!(
            event.scale_out_events > 0,
            "the burst must exercise scaling"
        );
    }

    #[test]
    fn advance_worker_count_never_changes_results() {
        let schedule = RateSchedule::bursty(0.6, 5.0, 35.0, 10.0);
        let specs = Workload::internal().generate_trace(40, &schedule, 91);
        let mut cluster = Cluster::new(ClusterConfig::new(
            base(),
            4,
            RouterPolicy::LeastOutstandingTokens,
        ));
        cluster.set_advance_workers(1);
        let serial = cluster.run(specs.clone());
        for workers in [2, 3, 8] {
            cluster.set_advance_workers(workers);
            let parallel = cluster.run(specs.clone());
            assert_eq!(parallel, serial, "{workers} workers changed the report");
            assert_eq!(
                parallel.to_json().to_string_pretty(),
                serial.to_json().to_string_pretty()
            );
        }

        // Streaming metrics must be thread-count independent too: sketch
        // merge order is fixed by replica index, not completion order.
        let mut streaming = Cluster::new(ClusterConfig::new(
            base().with_streaming_metrics(true),
            4,
            RouterPolicy::LeastOutstandingTokens,
        ));
        streaming.set_advance_workers(1);
        let serial = streaming.run(specs.clone());
        streaming.set_advance_workers(7);
        let parallel = streaming.run(specs);
        assert_eq!(parallel, serial);
        assert_eq!(
            parallel.to_json().to_string_pretty(),
            serial.to_json().to_string_pretty()
        );
    }

    #[test]
    fn advance_profile_counts_every_barrier_and_resets_per_run() {
        let specs = Workload::internal().generate(12, 1.0, 5);
        let mut cluster = Cluster::new(ClusterConfig::new(
            base(),
            3,
            RouterPolicy::LeastOutstandingTokens,
        ));
        assert_eq!(cluster.advance_profile(), AdvanceProfile::default());
        // One barrier per arrival: a colocated fleet's decode side is empty
        // and never counts one. Counted once per run rather than
        // accumulated across runs, at every worker count.
        for workers in [1, 4, 4] {
            cluster.set_advance_workers(workers);
            cluster.run(specs.clone());
            let profile = cluster.advance_profile();
            assert_eq!(profile.barriers, specs.len() as u64, "{workers} workers");
            assert!(profile.drain_ns > 0);
        }
        cluster.run_lockstep(specs.clone());
        assert_eq!(cluster.advance_profile().barriers, specs.len() as u64);
    }

    /// The exact-mode fleet fold equals the batch grade it replaced: one
    /// `from_requests` over the replicas' concatenated records, with the
    /// counter fields summed from `per_replica`, for the aggregate and for
    /// every role (class order included).
    #[test]
    fn exact_cluster_fold_matches_concatenated_records() {
        let schedule = RateSchedule::bursty(1.0, 8.0, 20.0, 10.0);
        let specs: Vec<RequestSpec> = crate::workload::SloMix::interactive_batch()
            .apply(Workload::internal().generate_trace(72, &schedule, 61), 61)
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.with_tenant(TenantId(i as u32 % 2)))
            .collect();
        let mut cluster = Cluster::new(ClusterConfig::disaggregated(
            base().with_admission(AdmissionPolicy::DeadlineShed),
            1,
            2,
            RouterPolicy::decode_aware(),
            KvMigration::commodity(),
        ));
        let report = cluster.run(specs);
        let agg = &report.aggregate;
        assert!(agg.shed_requests > 0, "the burst must shed");
        assert_eq!((agg.slo_classes.len(), agg.tenants.len()), (2, 2));

        let reference = |idxs: &[usize]| {
            let records: Vec<Request> = idxs
                .iter()
                .flat_map(|&i| cluster.replicas[i].requests().iter().cloned())
                .collect();
            let subset: Vec<&ServingReport> =
                idxs.iter().map(|&i| &report.per_replica[i]).collect();
            let mut r = ServingReport::from_requests(
                &cluster.replicas[0].config().system_label(),
                &records,
                subset.iter().map(|r| r.makespan).fold(0.0, f64::max),
                subset.iter().map(|r| r.iterations).sum(),
                subset.iter().map(|r| r.hybrid_iterations).sum(),
            );
            macro_rules! sum_fields {
                ($($f:ident),*) => { $(r.$f = subset.iter().map(|s| s.$f).sum();)* };
            }
            sum_fields! {
                price_cache_hits, price_cache_misses, busy_time, prefill_tokens_scheduled,
                cached_prefix_tokens, blocks_reused, cow_copies, decode_kv_tokens_deduped,
                spec_rounds, draft_tokens_accepted, draft_tokens_rejected, preemptions,
                blocks_evicted, migrated_out_requests, migrated_in_requests, migrated_tokens,
                migration_stall_time
            }
            r
        };
        assert_eq!(*agg, reference(&[0, 1, 2]));
        assert_eq!(report.per_role.len(), 2);
        assert_eq!(report.per_role[0].report, reference(&[0]));
        assert_eq!(report.per_role[1].report, reference(&[1, 2]));
    }

    #[test]
    fn streaming_cluster_matches_exact_counters_within_sketch_bound() {
        let schedule = RateSchedule::bursty(0.8, 5.0, 30.0, 12.0);
        let specs = crate::workload::SloMix::interactive_batch()
            .apply(Workload::internal().generate_trace(64, &schedule, 51), 51);

        let mut exact_cluster =
            Cluster::new(ClusterConfig::new(base(), 3, RouterPolicy::decode_aware()));
        let exact = exact_cluster.run(specs.clone());
        let mut streaming_cluster = Cluster::new(ClusterConfig::new(
            base().with_streaming_metrics(true),
            3,
            RouterPolicy::decode_aware(),
        ));
        let streaming = streaming_cluster.run(specs);

        // The simulation itself is untouched: identical routing, identical
        // virtual-time outcomes, identical exact counters.
        assert_eq!(streaming.assigned_per_replica, exact.assigned_per_replica);
        assert_eq!(streaming.aggregate.completed, exact.aggregate.completed);
        assert_eq!(
            streaming.aggregate.shed_requests,
            exact.aggregate.shed_requests
        );
        assert_eq!(streaming.aggregate.iterations, exact.aggregate.iterations);
        assert_eq!(
            streaming.aggregate.makespan.to_bits(),
            exact.aggregate.makespan.to_bits()
        );
        assert_eq!(
            streaming.aggregate.busy_time.to_bits(),
            exact.aggregate.busy_time.to_bits()
        );
        assert_eq!(streaming.aggregate.slo_classes, exact.aggregate.slo_classes);

        // Sketch percentiles stay within the documented relative-error
        // bound of the adjacent-rank order statistic they summarize.
        let mut latencies: Vec<f64> = exact_cluster
            .replicas()
            .iter()
            .flat_map(|r| r.requests().iter())
            .filter_map(|r| r.latency())
            .collect();
        latencies.sort_by(f64::total_cmp);
        for (q, got) in [
            (0.50, streaming.aggregate.request_latency.p50),
            (0.99, streaming.aggregate.request_latency.p99),
        ] {
            let rank = (q * (latencies.len() - 1) as f64).round() as usize;
            let want = latencies[rank];
            assert!(
                (got - want).abs() <= 0.0101 * want.abs() + 1e-9,
                "latency q{q}: sketch {got} too far from rank statistic {want}"
            );
        }
        assert!(
            (streaming.aggregate.request_latency.mean - exact.aggregate.request_latency.mean).abs()
                <= 1e-9 * exact.aggregate.request_latency.mean.abs(),
            "streaming mean drifted"
        );

        // Constant-memory reporting: finished requests drop their sample
        // buffers, so the streaming fleet's resident sample high-water mark
        // is strictly below the exact fleet's keep-everything total.
        let peak =
            |c: &Cluster| -> usize { c.replicas().iter().map(|r| r.peak_token_samples()).sum() };
        assert!(
            peak(&streaming_cluster) < peak(&exact_cluster),
            "streaming peak {} must undercut exact peak {}",
            peak(&streaming_cluster),
            peak(&exact_cluster)
        );
    }

    #[test]
    #[should_panic(expected = "colocated fleets only")]
    fn autoscaled_disaggregation_rejected() {
        let mut config = ClusterConfig::disaggregated(
            base(),
            1,
            1,
            RouterPolicy::RoundRobin,
            KvMigration::free(),
        );
        config.autoscaler = Some(AutoscalerConfig::new(1, 2));
        config.validate_roles();
    }
}

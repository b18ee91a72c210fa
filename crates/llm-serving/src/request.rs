//! Request lifecycle tracking for the serving simulator.

use crate::rng::mix64;

/// Identity of a request's token stream, used by the prefix-sharing paged KV
/// cache ([`crate::BlockPool`]) to decide which blocks two requests may
/// share.
///
/// The simulator never materializes real token ids; instead a request's
/// stream is *defined* by deterministic 64-bit fingerprints. Two requests
/// produce the same fingerprint at the same position exactly when their
/// workloads declare the tokens identical: a shared system prompt (same
/// `prefix_tag` over the first `prefix_tokens` positions) or a multi-turn
/// conversation (same `lineage_tag` for everything after — including the
/// decode region, so a follow-up turn whose prompt embeds the previous
/// response matches the blocks that response left in the cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PromptContent {
    /// No token identity: the request can never share KV-cache blocks. The
    /// default, and the only content the conservative KV policy ever sees.
    Opaque,
    /// A deterministic synthetic token stream.
    Tokens {
        /// Tag of the shared prefix region (e.g. a system-prompt group).
        prefix_tag: u64,
        /// Length of the shared prefix region in tokens.
        prefix_tokens: usize,
        /// Tag of everything after the shared prefix: the conversation
        /// lineage. Positions beyond `prefix_tokens` — later prompt tokens
        /// *and* generated tokens — fingerprint under this tag, so turns of
        /// one conversation form one continuous stream.
        lineage_tag: u64,
    },
}

impl PromptContent {
    /// Content for a stream that shares nothing: a unique lineage and no
    /// prefix region.
    pub fn unique(lineage_tag: u64) -> Self {
        PromptContent::Tokens {
            prefix_tag: 0,
            prefix_tokens: 0,
            lineage_tag,
        }
    }

    /// Content with a shared prefix region (system prompt) followed by a
    /// conversation-private stream.
    pub fn shared(prefix_tag: u64, prefix_tokens: usize, lineage_tag: u64) -> Self {
        PromptContent::Tokens {
            prefix_tag,
            prefix_tokens,
            lineage_tag,
        }
    }

    /// Whether this content participates in prefix sharing at all.
    pub fn is_shareable(&self) -> bool {
        matches!(self, PromptContent::Tokens { .. })
    }

    /// Fingerprint of the token at stream position `position`, or `None` for
    /// [`PromptContent::Opaque`].
    pub fn token_at(&self, position: usize) -> Option<u64> {
        match *self {
            PromptContent::Opaque => None,
            PromptContent::Tokens {
                prefix_tag,
                prefix_tokens,
                lineage_tag,
            } => {
                let tag = if position < prefix_tokens {
                    prefix_tag
                } else {
                    lineage_tag
                };
                Some(mix64(
                    tag ^ (position as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ))
            }
        }
    }
}

/// A request's latency service-level objective: the deadlines the serving
/// system is *graded* against, in the goodput framing of Sarathi-Serve and
/// §5 of the POD-Attention paper. A request **meets its SLO** when its TTFT
/// is within `ttft_deadline` of arrival *and* no decode gap exceeds
/// `tbt_target` (the stall-free TBT criterion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Class label for per-class attainment breakdowns (e.g. `"interactive"`,
    /// `"batch"`). Reports group violations by this name.
    pub class: &'static str,
    /// Maximum acceptable time-to-first-token, in seconds from arrival.
    pub ttft_deadline: f64,
    /// Maximum acceptable gap between consecutive output tokens, in seconds.
    pub tbt_target: f64,
}

impl SloSpec {
    /// An SLO with the given class label and targets.
    ///
    /// # Panics
    ///
    /// Panics if either target is not positive and finite.
    pub fn new(class: &'static str, ttft_deadline: f64, tbt_target: f64) -> Self {
        assert!(
            ttft_deadline > 0.0 && ttft_deadline.is_finite(),
            "ttft_deadline must be positive and finite"
        );
        assert!(
            tbt_target > 0.0 && tbt_target.is_finite(),
            "tbt_target must be positive and finite"
        );
        SloSpec {
            class,
            ttft_deadline,
            tbt_target,
        }
    }
}

/// Identity of the tenant a request belongs to, for fair queueing and
/// per-tenant reporting.
///
/// Tenant 0 is the **default tenant**: workloads that never mention tenancy
/// put every request there, and a trace where every request lands on one
/// tenant behaves bit-for-bit like a tenant-free trace (fair queueing over a
/// single tenant degenerates to FCFS). The id doubles as the deterministic
/// tie-break in the fair queue, so reports order tenants by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant every untagged request belongs to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Scheduling priority class of a request. Ordered: a request of a strictly
/// higher class may **preempt** a running decode of a lower class through the
/// paged preemption path when the fair-queueing layer is enabled and KV
/// memory is the bottleneck ([`crate::FairQueueConfig::preempt_priorities`]).
///
/// Priority is orthogonal to [`SloSpec`]: the SLO says how a request is
/// *graded*, the priority says who yields KV residency under contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Throughput traffic; first to be preempted.
    Low,
    /// The default class for untagged requests.
    #[default]
    Normal,
    /// Latency-critical traffic; may preempt `Low`/`Normal` decodes.
    High,
}

impl Priority {
    /// Class label used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Specification of a request as generated by a workload: when it arrives and
/// how many prompt/output tokens it has.
///
/// Construct one with [`RequestSpec::new`] and chain the `with_*` setters
/// for optional attributes.
///
/// # `Copy` audit
///
/// `RequestSpec` stays `Copy` on purpose: every field is a plain scalar or a
/// `Copy` enum ([`PromptContent`], [`SloSpec`], [`TenantId`], [`Priority`]),
/// and hot paths rely on implicit copies — the engine's
/// `reclaim_unstarted` returns specs by value out of live request records,
/// and traces are built with `vec![spec; n]` repetition. A copy is always a
/// *full* copy with no shared state; cloning a spec can never alias another
/// request. (The execution-side [`Request`] is deliberately `Clone` but not
/// `Copy`: its `token_times` buffer is heap-allocated, and cloning one is an
/// explicit, intentional act — e.g. serializing a migration handoff.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Arrival time in seconds (0 for offline workloads).
    pub arrival: f64,
    /// Number of prompt (prefill) tokens.
    pub prompt_tokens: usize,
    /// Number of output (decode) tokens to generate.
    pub output_tokens: usize,
    /// Token-stream identity for prefix sharing (defaults to
    /// [`PromptContent::Opaque`]: no sharing).
    pub content: PromptContent,
    /// Latency objective this request is graded against (defaults to `None`:
    /// the request always counts toward goodput once it completes).
    pub slo: Option<SloSpec>,
    /// Tenant this request bills its prefill work to (defaults to
    /// [`TenantId::DEFAULT`]).
    pub tenant: TenantId,
    /// Scheduling priority class (defaults to [`Priority::Normal`]).
    pub priority: Priority,
}

impl RequestSpec {
    /// A new request specification with every optional attribute at its
    /// default. Optional attributes chain:
    ///
    /// ```
    /// use llm_serving::{Priority, RequestSpec, SloSpec, TenantId};
    ///
    /// let spec = RequestSpec::new(0.5, 4096, 128)
    ///     .with_slo(SloSpec::new("interactive", 2.0, 0.2))
    ///     .with_tenant(TenantId(3))
    ///     .with_priority(Priority::High);
    /// assert_eq!(spec.tenant, TenantId(3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the prompt or output length is zero.
    pub fn new(arrival: f64, prompt_tokens: usize, output_tokens: usize) -> Self {
        assert!(
            prompt_tokens > 0,
            "a request needs at least one prompt token"
        );
        assert!(
            output_tokens > 0,
            "a request needs at least one output token"
        );
        RequestSpec {
            arrival,
            prompt_tokens,
            output_tokens,
            content: PromptContent::Opaque,
            slo: None,
            tenant: TenantId::DEFAULT,
            priority: Priority::Normal,
        }
    }

    /// The same specification with an explicit token-stream identity for
    /// prefix sharing.
    pub fn with_content(mut self, content: PromptContent) -> Self {
        self.content = content;
        self
    }

    /// The same specification with a latency SLO attached.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// The same specification billed to `tenant` (its prefill work counts
    /// against that tenant's fair share).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same specification at scheduling priority class `priority`.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Prompt-to-decode token ratio (the paper's P:D ratio).
    pub fn pd_ratio(&self) -> f64 {
        self.prompt_tokens as f64 / self.output_tokens as f64
    }

    /// Total tokens (prompt + output) this request will occupy in the KV
    /// cache when it finishes.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }
}

/// Execution phase of a request inside the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting in the queue; no tokens processed yet.
    Queued,
    /// Some prompt tokens processed (chunked prefill in progress).
    Prefilling,
    /// Prompt complete; generating output tokens.
    Decoding,
    /// All output tokens generated.
    Finished,
}

/// A request being served, with its progress and latency bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Stable identifier (index in the workload).
    pub id: usize,
    /// The originating specification.
    pub spec: RequestSpec,
    /// Prompt tokens already prefilled.
    pub prefilled: usize,
    /// Output tokens already generated.
    pub generated: usize,
    /// Time the first output token became available (TTFT reference).
    pub first_token_time: Option<f64>,
    /// Completion times of every generated token (including the first).
    /// Sized for the whole output when the first token is stamped, and
    /// never longer.
    pub token_times: Vec<f64>,
    /// Time all output tokens were generated.
    pub finish_time: Option<f64>,
    /// Prompt tokens whose KV was taken from the prefix cache instead of
    /// being prefilled (cumulative across restarts).
    pub cached_prompt_tokens: usize,
    /// Generated tokens whose KV must be recomputed before decoding resumes,
    /// set when the request is preempted (its blocks were reclaimed).
    pub recompute_tokens: usize,
    /// How many times this request was preempted and restarted — the
    /// preemptions this request **suffered**, whatever the trigger (KV
    /// memory pressure or a higher-priority admission).
    pub restarts: usize,
    /// How many preemptions this request **inflicted** on lower-priority
    /// decodes: incremented on the *admitted* request when its priority
    /// class evicted a victim to make room. Memory-pressure preemptions
    /// (decode growth against a full block pool) have no single inflictor
    /// and are attributed to nobody.
    pub preemptions_inflicted: usize,
    /// Time the admission policy shed this request (dropped it unserved
    /// because its TTFT deadline was already blown), if it did. A shed
    /// request never finishes and is excluded from latency statistics.
    pub shed_time: Option<f64>,
    /// Whether the cluster autoscaler pulled this not-yet-started request
    /// out of a draining replica and re-routed it elsewhere. The record
    /// stays on the old replica for id stability but is excluded from every
    /// metric; the re-routed copy (on another replica) carries the latency
    /// accounting.
    pub reassigned: bool,
    /// Time the first prefill chunk of the current residency was computed —
    /// the start of the window a layer-wise-streaming KV migration can
    /// overlap with (ISO-style compute/communication overlap). Reset on
    /// preemption along with the prefill progress.
    pub prefill_start_time: Option<f64>,
    /// Whether this request finished its prefill here and was handed off to
    /// a decode replica (disaggregated serving). Like `reassigned`, the
    /// record stays on the prefill replica for id stability but is excluded
    /// from every metric; the migrated copy carries the latency accounting
    /// (including the TTFT already stamped here).
    pub migrated_out: bool,
    /// Whether this request arrived via KV migration from a prefill replica
    /// (its prompt was computed elsewhere; only decode happens here).
    pub migrated_in: bool,
    /// Seconds between first token (prefill completion on the source
    /// replica) and decode admission on this replica, for migrated-in
    /// requests: the KV transfer plus any queueing for residency. Shows up
    /// in the TBT samples as the gap before the second token.
    pub migration_stall: f64,
    /// Speculative draft-then-verify rounds this request has executed.
    /// Doubles as the deterministic round index for
    /// [`crate::AcceptanceModel`] draws: the draw for round `n` is a pure
    /// function of `(seed, id, n)`, so replays and different worker counts
    /// see identical acceptance outcomes.
    pub spec_rounds: usize,
    /// Draft tokens this request's verify steps accepted (cumulative).
    pub draft_accepted: usize,
    /// Draft tokens this request's verify steps rejected and rolled back
    /// (cumulative).
    pub draft_rejected: usize,
}

impl Request {
    /// Wrap a specification for execution.
    pub fn new(id: usize, spec: RequestSpec) -> Self {
        Request {
            id,
            spec,
            prefilled: 0,
            generated: 0,
            first_token_time: None,
            token_times: Vec::new(),
            finish_time: None,
            cached_prompt_tokens: 0,
            recompute_tokens: 0,
            restarts: 0,
            preemptions_inflicted: 0,
            shed_time: None,
            reassigned: false,
            prefill_start_time: None,
            migrated_out: false,
            migrated_in: false,
            migration_stall: 0.0,
            spec_rounds: 0,
            draft_accepted: 0,
            draft_rejected: 0,
        }
    }

    /// Tokens that must be prefilled before (more) decoding can happen: the
    /// prompt, plus — after a preemption — the KV of already-generated tokens
    /// that was reclaimed and must be recomputed.
    pub fn target_prefill(&self) -> usize {
        self.spec.prompt_tokens + self.recompute_tokens
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        if self.finish_time.is_some() {
            Phase::Finished
        } else if self.prefilled >= self.target_prefill() {
            Phase::Decoding
        } else if self.prefilled > 0 {
            Phase::Prefilling
        } else {
            Phase::Queued
        }
    }

    /// Prompt (plus post-preemption recompute) tokens still to prefill.
    pub fn remaining_prompt(&self) -> usize {
        self.target_prefill() - self.prefilled
    }

    /// Context length (tokens in the KV cache) the request has right now,
    /// counting the token being generated this iteration.
    pub fn context_len(&self) -> usize {
        if self.prefilled >= self.target_prefill() {
            self.spec.prompt_tokens + self.generated
        } else {
            self.prefilled
        }
    }

    /// Tokens of work (prompt + output) still to be processed. The load
    /// signal cluster routers sum over a replica's unfinished requests.
    pub fn remaining_tokens(&self) -> usize {
        self.remaining_prompt() + self.spec.output_tokens.saturating_sub(self.generated)
    }

    /// Record that `tokens` prompt tokens were prefilled, completing at
    /// `time`. If this completes the prompt, the first output token is
    /// produced and TTFT is recorded. After a preemption the same path
    /// recomputes the reclaimed KV instead; reaching the target then simply
    /// resumes decoding (the first token was already produced).
    pub fn record_prefill(&mut self, tokens: usize, time: f64) {
        debug_assert!(tokens <= self.remaining_prompt());
        if self.prefill_start_time.is_none() {
            self.prefill_start_time = Some(time);
        }
        self.prefilled += tokens;
        if self.prefilled >= self.target_prefill() && self.first_token_time.is_none() {
            self.first_token_time = Some(time);
            self.generated = 1;
            self.token_times.reserve_exact(self.spec.output_tokens);
            self.token_times.push(time);
            self.check_finished(time);
        }
    }

    /// Record that `tokens` leading prompt tokens were satisfied from the
    /// prefix cache at admission: they advance prefill progress without ever
    /// being scheduled. The cap of one-less-than-the-target is the caller's
    /// job (the engine's admission caps its prefix match there), so at least
    /// one token is always computed and TTFT stays well defined.
    pub fn note_cached_prefix(&mut self, tokens: usize) {
        debug_assert!(self.prefilled + tokens < self.target_prefill());
        self.prefilled += tokens;
        self.cached_prompt_tokens += tokens;
    }

    /// Preempt a decoding request: its KV blocks were reclaimed, so before it
    /// can decode again it must re-prefill the prompt *and* recompute the KV
    /// of every token it has generated so far. Latency bookkeeping
    /// (`token_times`, TTFT) is untouched — the preemption shows up as a long
    /// inter-token gap, exactly as it would on a real replica.
    pub fn preempt(&mut self) {
        debug_assert_eq!(self.phase(), Phase::Decoding);
        self.recompute_tokens = self.generated;
        self.prefilled = 0;
        self.prefill_start_time = None;
        self.restarts += 1;
    }

    /// Record that one decode token completed at `time`.
    pub fn record_decode_token(&mut self, time: f64) {
        debug_assert_eq!(self.phase(), Phase::Decoding);
        self.generated += 1;
        self.token_times.push(time);
        debug_assert!(self.token_times.len() <= self.spec.output_tokens);
        self.check_finished(time);
    }

    fn check_finished(&mut self, time: f64) {
        if self.generated >= self.spec.output_tokens {
            self.finish_time = Some(time);
        }
    }

    /// Width of this request's next speculative round at depth `k`: how many
    /// tokens the round drafts and verifies. A request never drafts past its
    /// remaining output budget, and every round carries at least its one
    /// mandatory decode token.
    pub fn spec_width(&self, k: usize) -> usize {
        k.min(self.spec.output_tokens.saturating_sub(self.generated))
            .max(1)
    }

    /// Un-mint the last `n` generated tokens: the rejected suffix of a
    /// speculative round. Progress, the per-token latency samples and any
    /// finish stamped by the optimistic mint are rolled back together, so a
    /// request that speculated past its end is indistinguishable from one
    /// that never did. The KV-side truncation (releasing now-unused tail
    /// blocks) is the engine's job.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the rollback stays within this round's mint (the
    /// first token, produced by prefill, is never rolled back).
    pub fn rollback(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        debug_assert!(
            n < self.generated,
            "rollback({n}) of a request with {} generated tokens",
            self.generated
        );
        self.generated -= n;
        self.token_times.truncate(self.token_times.len() - n);
        if self.generated < self.spec.output_tokens {
            self.finish_time = None;
        }
    }

    /// Time to first token, if the first token has been produced.
    pub fn ttft(&self) -> Option<f64> {
        self.first_token_time.map(|t| t - self.spec.arrival)
    }

    /// End-to-end request latency, if finished.
    pub fn latency(&self) -> Option<f64> {
        self.finish_time.map(|t| t - self.spec.arrival)
    }

    /// TTFT slack against this request's SLO: deadline minus achieved TTFT
    /// (positive = met with room to spare). `None` when the request has no
    /// SLO or no first token yet.
    pub fn ttft_slack(&self) -> Option<f64> {
        let slo = self.spec.slo?;
        Some(slo.ttft_deadline - self.ttft()?)
    }

    /// Whether the first token arrived within the TTFT deadline. Vacuously
    /// true for requests without an SLO; false if no first token yet (a shed
    /// request never meets its deadline).
    pub fn meets_ttft(&self) -> bool {
        match self.spec.slo {
            None => true,
            Some(slo) => self.ttft().is_some_and(|t| t <= slo.ttft_deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_phases() {
        let mut r = Request::new(0, RequestSpec::new(1.0, 100, 3));
        assert_eq!(r.phase(), Phase::Queued);
        r.record_prefill(60, 2.0);
        assert_eq!(r.phase(), Phase::Prefilling);
        assert_eq!(r.remaining_prompt(), 40);
        r.record_prefill(40, 3.0);
        assert_eq!(r.phase(), Phase::Decoding);
        assert_eq!(r.ttft(), Some(2.0));
        assert_eq!(r.generated, 1);
        r.record_decode_token(3.5);
        r.record_decode_token(4.5);
        assert_eq!(r.phase(), Phase::Finished);
        assert_eq!(r.latency(), Some(3.5));
        assert_eq!(r.token_times, vec![3.0, 3.5, 4.5]);
    }

    /// A decode gap is a stall once it exceeds the threshold: the report
    /// grader reads it from the request's token times.
    #[test]
    fn stall_detection() {
        let slo = SloSpec::new("interactive", 10.0, 2.0);
        let mut r = Request::new(0, RequestSpec::new(0.0, 10, 3).with_slo(slo));
        r.record_prefill(10, 1.0);
        r.record_decode_token(1.1);
        r.record_decode_token(2.5); // gap 1.4: a stall at 0.5 s, not at 2 s
        let report = crate::metrics::ServingReport::from_requests("t", &[r], 3.0, 3, 0);
        assert_eq!(report.stall_fraction_500ms, 1.0);
        assert_eq!(report.slo_tbt_violations, 0);
    }

    #[test]
    fn context_length_tracks_progress() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 8, 4));
        assert_eq!(r.context_len(), 0);
        r.record_prefill(8, 1.0);
        assert_eq!(r.context_len(), 9);
        r.record_decode_token(1.2);
        assert_eq!(r.context_len(), 10);
    }

    #[test]
    fn remaining_tokens_counts_down_to_zero() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 8, 3));
        assert_eq!(r.remaining_tokens(), 11);
        r.record_prefill(4, 0.5);
        assert_eq!(r.remaining_tokens(), 7);
        r.record_prefill(4, 1.0); // prompt done, first token produced
        assert_eq!(r.remaining_tokens(), 2);
        r.record_decode_token(1.1);
        r.record_decode_token(1.2);
        assert_eq!(r.phase(), Phase::Finished);
        assert_eq!(r.remaining_tokens(), 0);
    }

    #[test]
    fn pd_ratio_and_totals() {
        let s = RequestSpec::new(0.0, 1500, 100);
        assert!((s.pd_ratio() - 15.0).abs() < 1e-12);
        assert_eq!(s.total_tokens(), 1600);
    }

    #[test]
    #[should_panic(expected = "at least one prompt token")]
    fn zero_prompt_rejected() {
        let _ = RequestSpec::new(0.0, 0, 1);
    }

    #[test]
    fn preemption_forces_recompute_before_decoding_resumes() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 32, 8));
        r.record_prefill(32, 1.0);
        r.record_decode_token(1.1);
        r.record_decode_token(1.2);
        assert_eq!(r.generated, 3);
        assert_eq!(r.context_len(), 35);

        r.preempt();
        assert_eq!(r.phase(), Phase::Queued);
        assert_eq!(r.restarts, 1);
        // Prompt plus the three generated tokens must be re-prefilled.
        assert_eq!(r.remaining_prompt(), 35);
        assert_eq!(r.context_len(), 0);

        // Restore: partial recompute, then completion resumes decode without
        // minting a duplicate first token.
        r.record_prefill(20, 2.0);
        assert_eq!(r.phase(), Phase::Prefilling);
        r.record_prefill(15, 2.5);
        assert_eq!(r.phase(), Phase::Decoding);
        assert_eq!(r.generated, 3, "restore must not re-produce tokens");
        assert_eq!(r.context_len(), 35);
        r.record_decode_token(2.6);
        assert_eq!(r.generated, 4);
        // The preemption gap is visible in the TBT samples.
        assert!(r.token_times.windows(2).any(|w| w[1] - w[0] > 1.0));
        assert_eq!(r.ttft(), Some(1.0), "TTFT is from the first residency");
    }

    #[test]
    fn cached_prefix_advances_prefill_without_scheduling() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 100, 4));
        r.note_cached_prefix(64);
        assert_eq!(r.phase(), Phase::Prefilling);
        assert_eq!(r.remaining_prompt(), 36);
        assert_eq!(r.cached_prompt_tokens, 64);
        r.record_prefill(36, 1.0);
        assert_eq!(r.phase(), Phase::Decoding);
        assert_eq!(r.ttft(), Some(1.0));
    }

    #[test]
    fn token_fingerprints_define_sharing() {
        let a = PromptContent::shared(7, 32, 100);
        let b = PromptContent::shared(7, 32, 200);
        let c = PromptContent::unique(100);
        // Same system-prompt group: identical inside the prefix region.
        assert_eq!(a.token_at(0), b.token_at(0));
        assert_eq!(a.token_at(31), b.token_at(31));
        // Different lineages diverge after it.
        assert_ne!(a.token_at(32), b.token_at(32));
        // Same lineage, no prefix region: matches `a` beyond the prefix.
        assert_eq!(a.token_at(32), c.token_at(32));
        // Position matters.
        assert_ne!(a.token_at(0), a.token_at(1));
        // Opaque has no identity at all.
        assert_eq!(PromptContent::Opaque.token_at(0), None);
        assert!(!PromptContent::Opaque.is_shareable());
        assert!(a.is_shareable());
    }

    #[test]
    fn slo_compliance_is_graded_per_target() {
        let slo = SloSpec::new("interactive", 2.0, 0.3);
        let mut r = Request::new(0, RequestSpec::new(1.0, 10, 3).with_slo(slo));
        // No first token yet: TTFT unmet.
        assert!(!r.meets_ttft());
        assert!(r.ttft_slack().is_none());
        r.record_prefill(10, 2.5); // TTFT = 1.5 <= 2.0
        assert!(r.meets_ttft());
        assert!((r.ttft_slack().unwrap() - 0.5).abs() < 1e-12);

        // Without an SLO the deadline is vacuously met.
        let mut plain = Request::new(1, RequestSpec::new(0.0, 10, 2));
        plain.record_prefill(10, 100.0);
        assert!(plain.meets_ttft());
        assert!(plain.ttft_slack().is_none());
    }

    #[test]
    fn late_first_token_misses_the_deadline() {
        let slo = SloSpec::new("interactive", 1.0, 10.0);
        let mut r = Request::new(0, RequestSpec::new(0.0, 10, 2).with_slo(slo));
        r.record_prefill(10, 1.5);
        r.record_decode_token(1.6);
        assert!(!r.meets_ttft());
        assert!(r.ttft_slack().unwrap() < 0.0);
    }

    #[test]
    #[should_panic(expected = "ttft_deadline must be positive")]
    fn zero_ttft_deadline_rejected() {
        let _ = SloSpec::new("x", 0.0, 1.0);
    }

    #[test]
    fn with_setters_set_one_attribute_each() {
        let slo = SloSpec::new("interactive", 2.0, 0.3);
        let content = PromptContent::shared(7, 32, 100);
        let spec = RequestSpec::new(1.5, 4096, 128)
            .with_content(content)
            .with_slo(slo);
        assert_eq!(spec.content, content);
        assert_eq!(spec.slo, Some(slo));
        assert_eq!((spec.arrival, spec.prompt_tokens), (1.5, 4096));
        // Defaults: the default tenant at normal priority.
        assert_eq!(spec.tenant, TenantId::DEFAULT);
        assert_eq!(spec.priority, Priority::Normal);
        // The tenancy attributes change nothing else.
        let a = RequestSpec::new(0.0, 10, 2)
            .with_tenant(TenantId(9))
            .with_priority(Priority::High);
        assert_eq!(a.tenant, TenantId(9));
        assert_eq!(a.priority, Priority::High);
        assert_eq!(
            RequestSpec {
                tenant: TenantId::DEFAULT,
                priority: Priority::Normal,
                ..a
            },
            RequestSpec::new(0.0, 10, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least one output token")]
    fn zero_output_rejected() {
        let _ = RequestSpec::new(0.0, 10, 0);
    }

    #[test]
    fn priority_classes_are_ordered() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::High.as_str(), "high");
        assert_eq!(TenantId::default(), TenantId(0));
        assert_eq!(TenantId(3).to_string(), "tenant-3");
    }

    #[test]
    fn spec_width_caps_at_remaining_output() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 8, 5));
        r.record_prefill(8, 1.0); // generated = 1, remaining = 4
        assert_eq!(r.spec_width(3), 3);
        assert_eq!(r.spec_width(8), 4);
        r.record_decode_token(1.1);
        r.record_decode_token(1.2);
        r.record_decode_token(1.3); // generated = 4, remaining = 1
        assert_eq!(r.spec_width(8), 1);
        // Width never drops below the mandatory decode token.
        assert_eq!(r.spec_width(0), 1);
    }

    #[test]
    fn rollback_unminds_tokens_and_clears_optimistic_finish() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 8, 4));
        r.record_prefill(8, 1.0);
        // Optimistically mint the remaining three tokens (a k=3 round)...
        r.record_decode_token(1.1);
        r.record_decode_token(1.1);
        r.record_decode_token(1.1);
        assert_eq!(r.phase(), Phase::Finished);
        assert_eq!(r.token_times.len(), 4);
        // ...then verification rejects the last two.
        r.rollback(2);
        assert_eq!(r.generated, 2);
        assert_eq!(r.token_times.len(), 2);
        assert_eq!(r.phase(), Phase::Decoding, "optimistic finish is undone");
        assert_eq!(r.finish_time, None);
        assert_eq!(r.context_len(), 10);
        // A zero rollback (fully accepted round) changes nothing.
        let before = r.clone();
        r.rollback(0);
        assert_eq!(r, before);
        // Finishing again after the rollback sticks.
        r.record_decode_token(2.0);
        r.record_decode_token(2.5);
        assert_eq!(r.phase(), Phase::Finished);
        assert_eq!(r.latency(), Some(2.5));
    }

    #[test]
    fn single_output_token_finishes_at_prefill() {
        let mut r = Request::new(0, RequestSpec::new(0.0, 4, 1));
        r.record_prefill(4, 2.0);
        assert_eq!(r.phase(), Phase::Finished);
        assert_eq!(r.latency(), Some(2.0));
        assert_eq!(r.token_times, vec![2.0]);
    }
}

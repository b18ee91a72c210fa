//! Workload generators for the paper's offline and online experiments.
//!
//! The paper's two online traces (an internal enterprise workload and one
//! derived from arXiv-Summarization) are not available, so we generate
//! synthetic traces matched to their published statistics: mean context
//! length (10.5K / 9.5K tokens), prefill-to-decode token ratio ranges
//! (0–40 / 0–50) and mean decode length (331 / 470 tokens), with Poisson
//! arrivals at a configurable queries-per-second rate.

use crate::request::{Priority, PromptContent, RequestSpec, SloSpec, TenantId};
use crate::rng::SplitMix64;

/// Named workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable name used in reports.
    pub name: String,
    /// Mean total context length (prompt + output tokens).
    pub mean_context: f64,
    /// Minimum / maximum total context length.
    pub context_range: (usize, usize),
    /// Mean number of decode (output) tokens.
    pub mean_decode: f64,
    /// Minimum decode tokens.
    pub min_decode: usize,
}

impl Workload {
    /// The internal enterprise workload of §5: mean context 10.5K tokens,
    /// mean 331 decode tokens, P:D ratios up to ~40.
    pub fn internal() -> Self {
        Workload {
            name: "internal".to_string(),
            mean_context: 10_500.0,
            context_range: (4 * 1024, 32 * 1024),
            mean_decode: 331.0,
            min_decode: 32,
        }
    }

    /// The arXiv-Summarization-based workload of §5: mean context 9.5K
    /// tokens, mean 470 decode tokens (42 % more decodes than the internal
    /// workload), P:D ratios up to ~50.
    pub fn arxiv() -> Self {
        Workload {
            name: "arxiv".to_string(),
            mean_context: 9_500.0,
            context_range: (4 * 1024, 32 * 1024),
            mean_decode: 470.0,
            min_decode: 48,
        }
    }

    /// Generate `count` requests with Poisson arrivals at `qps` queries per
    /// second, deterministically from `seed`.
    pub fn generate(&self, count: usize, qps: f64, seed: u64) -> Vec<RequestSpec> {
        assert!(qps > 0.0, "queries-per-second must be positive");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut arrival = 0.0_f64;
        let mut requests = Vec::with_capacity(count);
        for _ in 0..count {
            // Exponential inter-arrival times give a Poisson process.
            let u: f64 = rng.next_f64().max(1e-12);
            arrival += -u.ln() / qps;
            requests.push(self.sample_request(arrival, &mut rng));
        }
        requests
    }

    /// Generate `count` requests whose arrivals follow a **time-varying**
    /// Poisson process with the piecewise-constant rate of `schedule`
    /// (repeating cyclically), deterministically from `seed`. With a
    /// single-segment schedule this reproduces [`Workload::generate`]
    /// exactly.
    ///
    /// This is the trace generator for the cluster experiments: bursty and
    /// diurnal load is exactly the regime where routing policy and
    /// prefill-decode overlap interact.
    pub fn generate_trace(
        &self,
        count: usize,
        schedule: &RateSchedule,
        seed: u64,
    ) -> Vec<RequestSpec> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut t = 0.0_f64;
        let mut requests = Vec::with_capacity(count);
        for _ in 0..count {
            // Draw a unit-rate exponential "area" and integrate the rate
            // function until it is consumed — the standard exact method for
            // piecewise-constant non-homogeneous Poisson processes.
            let u: f64 = rng.next_f64().max(1e-12);
            let mut area = -u.ln();
            loop {
                let (rate, to_boundary) = schedule.rate_and_boundary(t);
                if rate <= 0.0 {
                    t += to_boundary;
                    continue;
                }
                let segment_area = rate * to_boundary;
                if area <= segment_area {
                    t += area / rate;
                    break;
                }
                area -= segment_area;
                t += to_boundary;
            }
            requests.push(self.sample_request(t, &mut rng));
        }
        requests
    }

    fn sample_request(&self, arrival: f64, rng: &mut SplitMix64) -> RequestSpec {
        // Context length: log-normal-ish around the mean, clamped to the
        // published range.
        let (lo, hi) = self.context_range;
        let spread = 0.45;
        let z: f64 = standard_normal(rng);
        let context = (self.mean_context * (spread * z).exp())
            .clamp(lo as f64, hi as f64)
            .round() as usize;
        // Decode length: exponential around the mean, at least min_decode,
        // and at most the context itself (P:D >= ~1).
        let u: f64 = rng.next_f64().max(1e-12);
        let decode = ((-u.ln() * self.mean_decode) as usize)
            .max(self.min_decode)
            .min(context / 2);
        let prompt = context.saturating_sub(decode).max(1);
        RequestSpec::new(arrival, prompt, decode)
    }
}

/// A workload whose requests share token prefixes: system-prompt groups
/// (agent fleets, chat products where every request opens with the same
/// instructions) and multi-turn conversations that re-submit their whole
/// history as the next prompt.
///
/// Built on top of a base [`Workload`] for sizes and arrivals; this layer
/// only decides each request's [`PromptContent`] — which is what the
/// prefix-sharing paged KV cache and the prefix-affinity router act on. With
/// `share_ratio = 0` the generated sizes are identical to the base workload
/// and every stream is unique, so prefix caching finds nothing to share.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedPrefixWorkload {
    /// Base generator for arrivals and request sizes.
    pub base: Workload,
    /// Number of distinct system-prompt groups.
    pub groups: usize,
    /// Length of each group's shared system prompt, in tokens.
    pub prefix_tokens: usize,
    /// Fraction of requests that belong to a system-prompt group (the rest
    /// have fully unique prompts).
    pub share_ratio: f64,
    /// Among shared requests, the probability of being a *follow-up turn* of
    /// an existing conversation: its prompt embeds the full prior context
    /// (including the previous response), so a prefix cache can skip
    /// everything but the new user turn.
    pub followup_ratio: f64,
    /// Cap on follow-up prompt growth; a conversation that would exceed it
    /// starts over as a new one (keeps multi-turn traces within the KV
    /// capacities the benches configure).
    pub max_prompt_tokens: usize,
}

impl SharedPrefixWorkload {
    /// A shared-prefix workload over `base`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero, `prefix_tokens` is zero, or either ratio
    /// is outside `[0, 1]`.
    pub fn new(
        base: Workload,
        groups: usize,
        prefix_tokens: usize,
        share_ratio: f64,
        followup_ratio: f64,
    ) -> Self {
        assert!(groups > 0, "need at least one system-prompt group");
        assert!(
            prefix_tokens > 0,
            "a shared prefix needs at least one token"
        );
        assert!(
            (0.0..=1.0).contains(&share_ratio),
            "share_ratio must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&followup_ratio),
            "followup_ratio must be in [0, 1]"
        );
        SharedPrefixWorkload {
            base,
            groups,
            prefix_tokens,
            share_ratio,
            followup_ratio,
            max_prompt_tokens: 24 * 1024,
        }
    }

    /// Generate `count` requests with Poisson arrivals at `qps` queries per
    /// second, deterministically from `seed`. Sizes and arrivals come from
    /// the base workload; this pass assigns content identities and stretches
    /// follow-up prompts to embed their conversation history.
    pub fn generate(&self, count: usize, qps: f64, seed: u64) -> Vec<RequestSpec> {
        let specs = self.base.generate(count, qps, seed);
        self.assign_content(specs, seed)
    }

    fn assign_content(&self, specs: Vec<RequestSpec>, seed: u64) -> Vec<RequestSpec> {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EED_50F1_C5A7);
        // Live conversations: (lineage tag, group, context tokens so far).
        let mut convs: Vec<(u64, usize, usize)> = Vec::new();
        let mut lineage_counter = 0u64;
        let mut fresh_lineage = |rng: &mut SplitMix64| {
            lineage_counter += 1;
            // Mix the seed in so different traces never collide by lineage.
            seed ^ rng.next_u64() ^ lineage_counter.rotate_left(32)
        };
        specs
            .into_iter()
            .map(|spec| {
                let shared = rng.next_f64() < self.share_ratio;
                if !shared {
                    let lineage = fresh_lineage(&mut rng);
                    return spec.with_content(PromptContent::unique(lineage));
                }
                let followup = !convs.is_empty() && rng.next_f64() < self.followup_ratio;
                let mut retired = None;
                if followup {
                    let idx = rng.next_usize(convs.len());
                    let (lineage, group, history) = convs[idx];
                    // New user turn appended to the full prior context.
                    let turn = 64 + rng.next_usize(448);
                    let prompt = history + turn;
                    if prompt <= self.max_prompt_tokens {
                        convs[idx].2 = prompt + spec.output_tokens;
                        return RequestSpec::new(spec.arrival, prompt, spec.output_tokens)
                            .with_content(PromptContent::shared(
                                self.group_tag(seed, group),
                                self.prefix_tokens,
                                lineage,
                            ));
                    }
                    // Conversation too long: retire it (its slot is reused by
                    // the fresh conversation below) so dead entries do not
                    // accumulate and dilute the realized follow-up ratio.
                    retired = Some(idx);
                }
                let group = rng.next_usize(self.groups);
                let lineage = fresh_lineage(&mut rng);
                // First turn: the system prompt plus the base prompt body.
                let prompt = spec.prompt_tokens.max(self.prefix_tokens + 64);
                let conv = (lineage, group, prompt + spec.output_tokens);
                match retired {
                    Some(idx) => convs[idx] = conv,
                    None => convs.push(conv),
                }
                RequestSpec::new(spec.arrival, prompt, spec.output_tokens).with_content(
                    PromptContent::shared(self.group_tag(seed, group), self.prefix_tokens, lineage),
                )
            })
            .collect()
    }

    /// Tag of a system-prompt group (trace-scoped: different seeds get
    /// different system prompts).
    fn group_tag(&self, seed: u64, group: usize) -> u64 {
        (seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(group as u64 + 1)
    }
}

/// A mix of SLO classes to stamp onto a generated trace: each request draws
/// a class by weight (e.g. 70% `"interactive"` with tight deadlines, 30%
/// `"batch"` with loose ones), deterministically from a seed.
///
/// Layered *after* size/arrival generation — it never changes a request's
/// tokens or timing, only its [`SloSpec`] — so the same base trace is
/// directly comparable with and without SLOs, and across mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct SloMix {
    /// `(weight, slo)` pairs; weights are relative (not necessarily summing
    /// to 1). A `None` slo entry leaves that share of requests SLO-free.
    entries: Vec<(f64, Option<SloSpec>)>,
    total_weight: f64,
}

impl SloMix {
    /// A mix from `(weight, slo)` entries. `None` entries leave their share
    /// of the trace SLO-free (best-effort traffic).
    ///
    /// # Panics
    ///
    /// Panics if no entry is given or any weight is not positive and finite.
    pub fn new(entries: Vec<(f64, Option<SloSpec>)>) -> Self {
        assert!(!entries.is_empty(), "an SLO mix needs at least one class");
        for (w, _) in &entries {
            assert!(
                *w > 0.0 && w.is_finite(),
                "SLO mix weights must be positive and finite"
            );
        }
        let total_weight = entries.iter().map(|(w, _)| w).sum();
        SloMix {
            entries,
            total_weight,
        }
    }

    /// The canonical two-class mix the SLO benches use: 70% `"interactive"`
    /// traffic with tight targets and 30% `"batch"` traffic with loose ones.
    /// Targets are calibrated to the simulated Llama-3-8B/A100 replica
    /// (TTFT p50 ~0.5 s, TBT p99 ~0.05 s unloaded): an unloaded replica
    /// holds them easily, a saturated one does not.
    pub fn interactive_batch() -> Self {
        SloMix::new(vec![
            (0.7, Some(SloSpec::new("interactive", 2.0, 0.2))),
            (0.3, Some(SloSpec::new("batch", 30.0, 1.0))),
        ])
    }

    /// Stamp each request of `specs` with a class drawn by weight,
    /// deterministically from `seed`. Sizes, arrivals and content are
    /// untouched.
    pub fn apply(&self, specs: Vec<RequestSpec>, seed: u64) -> Vec<RequestSpec> {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0051_0C1A_55E5);
        specs
            .into_iter()
            .map(|spec| {
                let mut draw = rng.next_f64() * self.total_weight;
                for (w, slo) in &self.entries {
                    if draw < *w {
                        return match slo {
                            Some(s) => spec.with_slo(*s),
                            None => spec,
                        };
                    }
                    draw -= w;
                }
                // Floating-point edge: the draw landed exactly on the total.
                let last = &self.entries[self.entries.len() - 1];
                match last.1 {
                    Some(s) => spec.with_slo(s),
                    None => spec,
                }
            })
            .collect()
    }
}

/// One tenant's traffic stream within a [`TenantMix`]: its own request
/// shape, arrival schedule, volume, priority class and SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTraffic {
    /// The tenant every request of this stream is stamped with.
    pub tenant: TenantId,
    /// Size/shape generator for this tenant's requests.
    pub workload: Workload,
    /// Arrival-rate schedule for this tenant's requests.
    pub schedule: RateSchedule,
    /// Number of requests this tenant submits.
    pub count: usize,
    /// Priority class stamped onto every request of this stream.
    pub priority: Priority,
    /// SLO stamped onto every request (`None` = best-effort).
    pub slo: Option<SloSpec>,
}

/// Multi-tenant trace generator: each tenant is an independent
/// [`TenantTraffic`] stream, and the mix interleaves the streams by arrival
/// time into one trace.
///
/// The property the fairness benches build on: each tenant's stream is
/// drawn from its *own* seed (derived from the trace seed and the tenant
/// id), so [`TenantMix::solo`] — one tenant's stream alone, the isolation
/// baseline — is request-for-request identical to that tenant's share of
/// the full [`TenantMix::generate`] trace. Comparing a tenant's goodput
/// solo vs. mixed therefore measures interference and nothing else.
///
/// The named constructors build the adversarial scenarios of
/// `fig20_fairness`: [`TenantMix::noisy_neighbor`],
/// [`TenantMix::prompt_bomb`] and [`TenantMix::priority_inversion`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    tenants: Vec<TenantTraffic>,
}

impl TenantMix {
    /// A mix from explicit per-tenant streams.
    ///
    /// # Panics
    ///
    /// Panics if no stream is given, a stream is empty, or two streams
    /// share a tenant id.
    pub fn new(tenants: Vec<TenantTraffic>) -> Self {
        assert!(
            !tenants.is_empty(),
            "a tenant mix needs at least one tenant"
        );
        for t in &tenants {
            assert!(
                t.count > 0,
                "every tenant stream needs at least one request"
            );
        }
        let mut ids: Vec<TenantId> = tenants.iter().map(|t| t.tenant).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(
            ids.len(),
            tenants.len(),
            "tenant ids must be unique within a mix"
        );
        TenantMix { tenants }
    }

    /// The per-tenant streams of this mix.
    pub fn tenants(&self) -> &[TenantTraffic] {
        &self.tenants
    }

    /// The noisy-neighbor scenario: `well_behaved` tenants each send
    /// `count_each` interactive requests at a steady `qps_each`, while one
    /// extra tenant (the highest id) sends `3 * count_each` requests with
    /// 4x-heavier prompts in flash-crowd bursts at `burst_qps`. Under FCFS
    /// the bursts monopolize the chunked-prefill slots; fair queueing is
    /// supposed to contain the damage to the noisy tenant itself.
    pub fn noisy_neighbor(
        well_behaved: usize,
        qps_each: f64,
        burst_qps: f64,
        count_each: usize,
    ) -> Self {
        assert!(well_behaved > 0, "need at least one well-behaved tenant");
        let mut tenants: Vec<TenantTraffic> = (0..well_behaved)
            .map(|i| TenantTraffic {
                tenant: TenantId(i as u32),
                workload: fair_bench_workload(1.0),
                schedule: RateSchedule::constant(qps_each),
                count: count_each,
                priority: Priority::Normal,
                slo: Some(interactive_slo()),
            })
            .collect();
        tenants.push(TenantTraffic {
            tenant: TenantId(well_behaved as u32),
            workload: fair_bench_workload(4.0),
            schedule: RateSchedule::bursty(qps_each, burst_qps, 5.0, 15.0),
            count: 3 * count_each,
            priority: Priority::Normal,
            slo: Some(interactive_slo()),
        });
        TenantMix::new(tenants)
    }

    /// The prompt-bomb scenario: `well_behaved` steady interactive tenants
    /// plus one tenant (the highest id) that submits a trickle of enormous
    /// prompts — each one a multi-iteration prefill that, under FCFS,
    /// stalls every queue position behind it.
    pub fn prompt_bomb(well_behaved: usize, qps_each: f64, count_each: usize) -> Self {
        assert!(well_behaved > 0, "need at least one well-behaved tenant");
        let mut tenants: Vec<TenantTraffic> = (0..well_behaved)
            .map(|i| TenantTraffic {
                tenant: TenantId(i as u32),
                workload: fair_bench_workload(1.0),
                schedule: RateSchedule::constant(qps_each),
                count: count_each,
                priority: Priority::Normal,
                slo: Some(interactive_slo()),
            })
            .collect();
        tenants.push(TenantTraffic {
            tenant: TenantId(well_behaved as u32),
            workload: fair_bench_workload(12.0),
            schedule: RateSchedule::constant((qps_each / 4.0).max(0.05)),
            count: (count_each / 4).max(1),
            priority: Priority::Normal,
            slo: None,
        });
        TenantMix::new(tenants)
    }

    /// The priority-inversion scenario: tenant 0 is a high-priority
    /// interactive trickle, tenant 1 a low-priority bulk flood with
    /// 6x-heavier prompts and four times the volume. Without priority
    /// preemption the bulk tenant's queued prefills and resident decodes
    /// invert the priorities — the high-priority tenant waits behind work
    /// the operator declared less important.
    pub fn priority_inversion(qps_each: f64, count_each: usize) -> Self {
        TenantMix::new(vec![
            TenantTraffic {
                tenant: TenantId(0),
                workload: fair_bench_workload(1.0),
                schedule: RateSchedule::constant(qps_each),
                count: count_each,
                priority: Priority::High,
                slo: Some(interactive_slo()),
            },
            TenantTraffic {
                tenant: TenantId(1),
                workload: fair_bench_workload(6.0),
                schedule: RateSchedule::constant(4.0 * qps_each),
                count: 4 * count_each,
                priority: Priority::Low,
                slo: None,
            },
        ])
    }

    /// Generate the full mixed trace: every tenant's stream, interleaved by
    /// arrival time (ties broken by tenant id; within a tenant, stream
    /// order). Each stream draws from its own tenant-derived seed, so the
    /// result is request-for-request the union of the [`TenantMix::solo`]
    /// traces.
    pub fn generate(&self, seed: u64) -> Vec<RequestSpec> {
        let mut all: Vec<RequestSpec> = Vec::new();
        for t in &self.tenants {
            all.extend(stream(t, seed));
        }
        all.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.tenant.cmp(&b.tenant))
        });
        all
    }

    /// One tenant's stream alone — the solo baseline an isolation claim
    /// compares against.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not part of this mix.
    pub fn solo(&self, tenant: TenantId, seed: u64) -> Vec<RequestSpec> {
        let t = self
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .unwrap_or_else(|| panic!("{tenant} is not part of this mix"));
        stream(t, seed)
    }
}

/// One tenant's stamped stream, from its own tenant-derived seed.
fn stream(t: &TenantTraffic, seed: u64) -> Vec<RequestSpec> {
    let stream_seed = seed ^ (u64::from(t.tenant.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    t.workload
        .generate_trace(t.count, &t.schedule, stream_seed)
        .into_iter()
        .map(|spec| {
            let spec = spec.with_tenant(t.tenant).with_priority(t.priority);
            match t.slo {
                Some(s) => spec.with_slo(s),
                None => spec,
            }
        })
        .collect()
}

/// The request shape the fairness scenarios use: small enough that a quick
/// sweep stays fast, with `scale` stretching the prompt side for the heavy
/// (noisy / bombing / bulk) tenants.
fn fair_bench_workload(scale: f64) -> Workload {
    Workload {
        name: "fair".to_string(),
        mean_context: 1_536.0 * scale,
        context_range: (256, (6_144.0 * scale) as usize),
        mean_decode: 96.0,
        min_decode: 16,
    }
}

/// The deadline the fairness scenarios grade against (loose enough for an
/// unloaded replica, tight enough that queueing behind a flash crowd blows
/// it).
fn interactive_slo() -> SloSpec {
    SloSpec::new("interactive", 2.5, 0.5)
}

/// One segment of a piecewise-constant arrival-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// How long this segment lasts, in seconds.
    pub duration: f64,
    /// Arrival rate during the segment, in queries per second (may be zero).
    pub qps: f64,
}

/// A piecewise-constant arrival-rate schedule that repeats cyclically —
/// the rate function of a non-homogeneous Poisson arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    segments: Vec<RateSegment>,
    cycle: f64,
}

impl RateSchedule {
    /// A schedule from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if no segment is given, a duration is not positive and finite,
    /// a rate is negative, or every rate is zero (arrivals would never occur).
    pub fn new(segments: Vec<RateSegment>) -> Self {
        assert!(
            !segments.is_empty(),
            "a schedule needs at least one segment"
        );
        for s in &segments {
            assert!(
                s.duration > 0.0 && s.duration.is_finite(),
                "segment durations must be positive and finite"
            );
            assert!(s.qps >= 0.0, "segment rates must not be negative");
        }
        assert!(
            segments.iter().any(|s| s.qps > 0.0),
            "at least one segment must have a positive rate"
        );
        let cycle = segments.iter().map(|s| s.duration).sum();
        RateSchedule { segments, cycle }
    }

    /// A constant-rate schedule: [`Workload::generate_trace`] with this
    /// schedule reproduces [`Workload::generate`] exactly.
    pub fn constant(qps: f64) -> Self {
        assert!(qps > 0.0, "queries-per-second must be positive");
        RateSchedule::new(vec![RateSegment { duration: 1.0, qps }])
    }

    /// A bursty schedule: `calm_secs` at `base_qps`, then `burst_secs` at
    /// `burst_qps`, repeating. The shape of flash-crowd traffic against a
    /// fleet.
    pub fn bursty(base_qps: f64, burst_qps: f64, calm_secs: f64, burst_secs: f64) -> Self {
        RateSchedule::new(vec![
            RateSegment {
                duration: calm_secs,
                qps: base_qps,
            },
            RateSegment {
                duration: burst_secs,
                qps: burst_qps,
            },
        ])
    }

    /// A diurnal schedule: a sinusoid between `trough_qps` and `peak_qps`
    /// over `period_secs`, discretized into `steps` piecewise-constant
    /// segments.
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2` (the sinusoid would degenerate to a constant).
    pub fn diurnal(trough_qps: f64, peak_qps: f64, period_secs: f64, steps: usize) -> Self {
        assert!(steps >= 2, "a diurnal schedule needs at least two steps");
        let segments = (0..steps)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / steps as f64;
                RateSegment {
                    duration: period_secs / steps as f64,
                    qps: trough_qps + (peak_qps - trough_qps) * 0.5 * (1.0 - phase.cos()),
                }
            })
            .collect();
        RateSchedule::new(segments)
    }

    /// The rate at `t` and the time remaining until the next segment
    /// boundary.
    fn rate_and_boundary(&self, t: f64) -> (f64, f64) {
        let mut pos = t % self.cycle;
        if pos < 0.0 {
            pos += self.cycle;
        }
        for s in &self.segments {
            if pos < s.duration {
                return (s.qps, s.duration - pos);
            }
            pos -= s.duration;
        }
        // Floating-point edge: `pos` landed exactly on the cycle boundary.
        let first = &self.segments[0];
        (first.qps, first.duration)
    }
}

/// Offline workload used by Figure 12: `count` identical long-context
/// requests (16K prompt tokens, model-specific output length), all arriving
/// at time zero.
pub fn offline_long_context(
    count: usize,
    prompt_tokens: usize,
    output_tokens: usize,
) -> Vec<RequestSpec> {
    (0..count)
        .map(|_| RequestSpec::new(0.0, prompt_tokens, output_tokens))
        .collect()
}

/// The Figure 15 workload: `count` requests of ~16.5K total tokens each with
/// a fixed prefill-to-decode token ratio.
pub fn pd_ratio_workload(count: usize, total_tokens: usize, pd_ratio: f64) -> Vec<RequestSpec> {
    assert!(pd_ratio > 0.0, "P:D ratio must be positive");
    let decode = ((total_tokens as f64) / (1.0 + pd_ratio)).round().max(1.0) as usize;
    let prompt = total_tokens.saturating_sub(decode).max(1);
    (0..count)
        .map(|_| RequestSpec::new(0.0, prompt, decode))
        .collect()
}

/// Sample a standard normal variate using the Box-Muller transform.
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    let u1: f64 = rng.next_f64().max(1e-12);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_workloads_match_published_statistics() {
        for (w, mean_ctx, mean_dec) in [
            (Workload::internal(), 10_500.0, 331.0),
            (Workload::arxiv(), 9_500.0, 470.0),
        ] {
            let reqs = w.generate(2000, 1.0, 42);
            let avg_ctx: f64 =
                reqs.iter().map(|r| r.total_tokens() as f64).sum::<f64>() / reqs.len() as f64;
            let avg_dec: f64 =
                reqs.iter().map(|r| r.output_tokens as f64).sum::<f64>() / reqs.len() as f64;
            assert!(
                (avg_ctx - mean_ctx).abs() / mean_ctx < 0.25,
                "{}: mean context {avg_ctx} vs target {mean_ctx}",
                w.name
            );
            assert!(
                (avg_dec - mean_dec).abs() / mean_dec < 0.35,
                "{}: mean decode {avg_dec} vs target {mean_dec}",
                w.name
            );
        }
    }

    #[test]
    fn arxiv_has_more_decode_tokens_than_internal() {
        let internal = Workload::internal().generate(1000, 1.0, 7);
        let arxiv = Workload::arxiv().generate(1000, 1.0, 7);
        let mean = |rs: &[RequestSpec]| {
            rs.iter().map(|r| r.output_tokens as f64).sum::<f64>() / rs.len() as f64
        };
        assert!(mean(&arxiv) > 1.2 * mean(&internal));
    }

    #[test]
    fn poisson_arrivals_have_the_right_rate() {
        let reqs = Workload::internal().generate(4000, 2.0, 3);
        let duration = reqs.last().unwrap().arrival;
        let rate = reqs.len() as f64 / duration;
        assert!((rate - 2.0).abs() < 0.2, "observed rate {rate}");
        // Arrivals are sorted by construction.
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Workload::internal().generate(50, 1.0, 9);
        let b = Workload::internal().generate(50, 1.0, 9);
        let c = Workload::internal().generate(50, 1.0, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offline_workload_is_uniform() {
        let reqs = offline_long_context(10, 16 * 1024, 1024);
        assert_eq!(reqs.len(), 10);
        assert!(reqs.iter().all(|r| r.arrival == 0.0));
        assert!(reqs.iter().all(|r| r.prompt_tokens == 16 * 1024));
    }

    #[test]
    fn pd_ratio_workload_hits_the_ratio() {
        for ratio in [8.0, 16.0, 24.0] {
            let reqs = pd_ratio_workload(5, 16_500, ratio);
            let r = &reqs[0];
            assert!(
                (r.pd_ratio() - ratio).abs() / ratio < 0.05,
                "requested {ratio}, got {}",
                r.pd_ratio()
            );
            assert!((r.total_tokens() as i64 - 16_500).abs() <= 1);
        }
    }

    #[test]
    fn constant_schedule_reproduces_the_homogeneous_generator() {
        let w = Workload::internal();
        let plain = w.generate(200, 1.5, 21);
        let traced = w.generate_trace(200, &RateSchedule::constant(1.5), 21);
        assert_eq!(plain, traced);
    }

    #[test]
    fn bursty_schedule_concentrates_arrivals_in_bursts() {
        let schedule = RateSchedule::bursty(0.2, 8.0, 50.0, 10.0);
        let reqs = Workload::internal().generate_trace(600, &schedule, 4);
        // Arrivals are nondecreasing.
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Most arrivals land inside the 10-second burst windows even though
        // they cover only 1/6 of each cycle.
        let in_burst = reqs.iter().filter(|r| (r.arrival % 60.0) >= 50.0).count() as f64;
        let frac = in_burst / reqs.len() as f64;
        assert!(
            frac > 0.75,
            "expected most arrivals inside bursts, got {frac:.2}"
        );
        // The empirical rate inside bursts is far above the base rate.
        assert!(schedule.rate_and_boundary(55.0).0 > schedule.rate_and_boundary(5.0).0 * 10.0);
        assert_eq!(schedule.cycle, 60.0);
    }

    #[test]
    fn zero_rate_segments_produce_no_arrivals() {
        let schedule = RateSchedule::new(vec![
            RateSegment {
                duration: 30.0,
                qps: 0.0,
            },
            RateSegment {
                duration: 30.0,
                qps: 2.0,
            },
        ]);
        let reqs = Workload::internal().generate_trace(300, &schedule, 9);
        assert!(reqs.iter().all(|r| (r.arrival % 60.0) >= 30.0));
    }

    #[test]
    fn diurnal_schedule_peaks_mid_cycle() {
        let schedule = RateSchedule::diurnal(0.5, 4.0, 3600.0, 24);
        // Trough at the cycle edges, peak half-way through.
        assert!(schedule.rate_and_boundary(10.0).0 < 1.0);
        assert!(schedule.rate_and_boundary(1800.0).0 > 3.5);
        let reqs = Workload::arxiv().generate_trace(500, &schedule, 13);
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Deterministic per seed.
        assert_eq!(reqs, Workload::arxiv().generate_trace(500, &schedule, 13));
        assert_ne!(reqs, Workload::arxiv().generate_trace(500, &schedule, 14));
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn all_zero_schedule_is_rejected() {
        let _ = RateSchedule::new(vec![RateSegment {
            duration: 1.0,
            qps: 0.0,
        }]);
    }

    #[test]
    fn shared_prefix_workload_marks_groups_and_followups() {
        let w = SharedPrefixWorkload::new(Workload::internal(), 3, 2048, 0.7, 0.4);
        let reqs = w.generate(400, 1.0, 11);
        assert_eq!(reqs.len(), 400);
        let shared: Vec<_> = reqs
            .iter()
            .filter_map(|r| match r.content {
                PromptContent::Tokens {
                    prefix_tag,
                    prefix_tokens,
                    lineage_tag,
                } if prefix_tokens > 0 => Some((prefix_tag, lineage_tag)),
                _ => None,
            })
            .collect();
        let frac = shared.len() as f64 / reqs.len() as f64;
        assert!(
            (frac - 0.7).abs() < 0.1,
            "share ratio {frac} should be near 0.7"
        );
        // At most three distinct system-prompt tags.
        let mut tags: Vec<u64> = shared.iter().map(|&(t, _)| t).collect();
        tags.sort_unstable();
        tags.dedup();
        assert!(tags.len() <= 3 && !tags.is_empty());
        // Follow-up turns exist: some lineage appears more than once.
        let mut lineages: Vec<u64> = shared.iter().map(|&(_, l)| l).collect();
        lineages.sort_unstable();
        let repeats = lineages.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 0, "expected multi-turn re-submissions");
        // Every shared prompt is long enough to contain its system prompt.
        assert!(reqs
            .iter()
            .filter(
                |r| matches!(r.content, PromptContent::Tokens { prefix_tokens: p, .. } if p > 0)
            )
            .all(|r| r.prompt_tokens > 2048));
        // Deterministic per seed.
        assert_eq!(reqs, w.generate(400, 1.0, 11));
        assert_ne!(reqs, w.generate(400, 1.0, 12));
    }

    #[test]
    fn followup_prompts_embed_their_history() {
        let w = SharedPrefixWorkload::new(Workload::internal(), 1, 1024, 1.0, 1.0);
        let reqs = w.generate(20, 1.0, 3);
        // With followup_ratio 1, every request after the first extends the
        // single conversation (until the length cap): prompts grow.
        let mut by_lineage: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for r in &reqs {
            if let PromptContent::Tokens { lineage_tag, .. } = r.content {
                by_lineage
                    .entry(lineage_tag)
                    .or_default()
                    .push(r.prompt_tokens);
            }
        }
        let longest = by_lineage.values().map(|v| v.len()).max().unwrap();
        assert!(longest >= 3, "expected a conversation with several turns");
        let chain = by_lineage.values().find(|v| v.len() == longest).unwrap();
        assert!(
            chain.windows(2).all(|w| w[1] > w[0]),
            "follow-up prompts must strictly grow: {chain:?}"
        );
        assert!(chain.iter().all(|&p| p <= w.max_prompt_tokens));
    }

    #[test]
    fn zero_share_ratio_reproduces_base_sizes_with_unique_streams() {
        let base = Workload::internal();
        let w = SharedPrefixWorkload::new(base.clone(), 4, 2048, 0.0, 0.5);
        let plain = base.generate(100, 1.2, 9);
        let traced = w.generate(100, 1.2, 9);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.output_tokens, b.output_tokens);
            assert!(matches!(
                b.content,
                PromptContent::Tokens {
                    prefix_tokens: 0,
                    ..
                }
            ));
        }
        // All lineages distinct: nothing to share.
        let mut lineages: Vec<u64> = traced
            .iter()
            .filter_map(|r| match r.content {
                PromptContent::Tokens { lineage_tag, .. } => Some(lineage_tag),
                _ => None,
            })
            .collect();
        let n = lineages.len();
        lineages.sort_unstable();
        lineages.dedup();
        assert_eq!(lineages.len(), n);
    }

    #[test]
    fn slo_mix_stamps_classes_without_touching_sizes() {
        let base = Workload::internal().generate(400, 1.0, 3);
        let mix = SloMix::interactive_batch();
        let tagged = mix.apply(base.clone(), 3);
        assert_eq!(tagged.len(), base.len());
        for (a, b) in base.iter().zip(&tagged) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.output_tokens, b.output_tokens);
            assert_eq!(a.content, b.content);
        }
        // The realized class shares match the 70/30 weights.
        let interactive = tagged
            .iter()
            .filter(|r| r.slo.is_some_and(|s| s.class == "interactive"))
            .count();
        let batch = tagged
            .iter()
            .filter(|r| r.slo.is_some_and(|s| s.class == "batch"))
            .count();
        assert_eq!(interactive + batch, tagged.len(), "every request tagged");
        let frac = interactive as f64 / tagged.len() as f64;
        assert!((frac - 0.7).abs() < 0.08, "interactive share {frac}");
        // Deterministic per seed.
        assert_eq!(tagged, mix.apply(base.clone(), 3));
        assert_ne!(tagged, mix.apply(base, 4));
    }

    #[test]
    fn slo_mix_supports_slo_free_shares() {
        use crate::request::SloSpec;
        let mix = SloMix::new(vec![
            (1.0, Some(SloSpec::new("strict", 1.0, 0.1))),
            (1.0, None),
        ]);
        let tagged = mix.apply(Workload::arxiv().generate(300, 2.0, 8), 8);
        let with = tagged.iter().filter(|r| r.slo.is_some()).count();
        assert!(with > 100 && with < 200, "roughly half tagged: {with}");
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_slo_mix_rejected() {
        let _ = SloMix::new(Vec::new());
    }

    /// The isolation-baseline property `fig20_fairness` builds on: a
    /// tenant's solo trace is request-for-request identical to its share of
    /// the mixed trace — only the interleaving with other tenants differs.
    #[test]
    fn tenant_mix_solo_matches_the_tenants_share_of_the_mixed_trace() {
        let mix = TenantMix::noisy_neighbor(3, 0.5, 8.0, 40);
        let full = mix.generate(11);
        let total: usize = mix.tenants().iter().map(|t| t.count).sum();
        assert_eq!(full.len(), total);
        assert!(
            full.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "mixed trace must be sorted by arrival"
        );
        for t in mix.tenants() {
            let solo = mix.solo(t.tenant, 11);
            assert_eq!(solo.len(), t.count);
            let share: Vec<&RequestSpec> = full.iter().filter(|r| r.tenant == t.tenant).collect();
            assert_eq!(share.len(), solo.len());
            for (a, b) in solo.iter().zip(share) {
                assert_eq!(a, b);
            }
        }
        // Deterministic per seed, distinct across seeds.
        assert_eq!(full, mix.generate(11));
        assert_ne!(full, mix.generate(12));
    }

    #[test]
    fn tenant_mix_scenarios_stamp_tenancy_priorities_and_slos() {
        let noisy = TenantMix::noisy_neighbor(2, 0.5, 6.0, 30).generate(5);
        assert!(noisy.iter().all(|r| r.priority == Priority::Normal));
        assert!(noisy.iter().any(|r| r.tenant == TenantId(2)));
        let noisy_share = noisy.iter().filter(|r| r.tenant == TenantId(2)).count();
        assert_eq!(noisy_share, 90, "the noisy tenant sends 3x volume");

        let bomb = TenantMix::prompt_bomb(2, 0.5, 40);
        let bombs = bomb.solo(TenantId(2), 5);
        let polite = bomb.solo(TenantId(0), 5);
        let mean = |v: &[RequestSpec]| {
            v.iter().map(|r| r.prompt_tokens).sum::<usize>() as f64 / v.len() as f64
        };
        assert!(
            mean(&bombs) > 4.0 * mean(&polite),
            "bomb prompts ({}) must dwarf polite prompts ({})",
            mean(&bombs),
            mean(&polite)
        );

        let inverted = TenantMix::priority_inversion(0.4, 25).generate(5);
        assert!(inverted
            .iter()
            .all(|r| (r.tenant == TenantId(0)) == (r.priority == Priority::High)));
        assert!(inverted
            .iter()
            .filter(|r| r.tenant == TenantId(1))
            .all(|r| r.priority == Priority::Low && r.slo.is_none()));
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn tenant_mix_rejects_duplicate_tenants() {
        let t = TenantTraffic {
            tenant: TenantId(1),
            workload: Workload::internal(),
            schedule: RateSchedule::constant(1.0),
            count: 5,
            priority: Priority::Normal,
            slo: None,
        };
        let _ = TenantMix::new(vec![t.clone(), t]);
    }

    #[test]
    fn context_lengths_stay_in_range() {
        let reqs = Workload::internal().generate(500, 1.0, 11);
        assert!(reqs
            .iter()
            .all(|r| r.total_tokens() >= 4 * 1024 && r.total_tokens() <= 32 * 1024 + 1));
    }
}

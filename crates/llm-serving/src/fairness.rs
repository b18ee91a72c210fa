//! Multi-tenant fairness: which waiting request gets the iteration's one
//! prefill-chunk slot, what scheduling it costs its tenant, and whose
//! decodes leave the pool when a higher priority class needs room.
//!
//! A hybrid batch carries at most one prefill chunk, so the chunk slot is
//! what tenants compete for. [`FairQueueConfig`] is the public knob. The
//! engine holds one crate-private [`FairQueue`] built from it, calls
//! [`FairQueue::select`] before planning and [`FairQueue::bill`] after the
//! batch runs, and picks each priority-preemption eviction with [`victim`].

use crate::request::{Priority, TenantId};

/// Multi-tenant fair-queueing configuration: virtual-time weighted fair
/// queueing over queued prefill work, plus (optionally) priority preemption.
///
/// When attached to a config via
/// [`ServingConfig::with_fair_queue`](crate::ServingConfig::with_fair_queue),
/// the engine keeps a **virtual-token counter per tenant**: every prefill
/// token scheduled for a tenant's request advances that tenant's counter by
/// `1 / weight`. Each iteration the waiting-queue slot after any admitted
/// (mid-prefill) prefix goes to the candidate of the highest [`Priority`];
/// among equal classes the tenant with the smallest counter wins, then the
/// smallest [`TenantId`], then queue order. Heavy tenants thus accumulate
/// virtual time fast and yield the chunked-prefill slot. A tenant that was
/// idle re-enters at the current virtual floor (the smallest counter among
/// the last selection's competitors), so credit cannot be banked while away.
///
/// With a single tenant and one priority class (or when no config is
/// attached) the selection degenerates to plain FCFS and the engine's
/// behavior is **bit-for-bit identical** to a fairness-free run — the
/// inertness pin the golden tests and `fig20_fairness` rely on.
///
/// `preempt_priorities` additionally lets a strictly higher-[`Priority`]
/// request at the queue front evict lower-priority running decodes through
/// the existing paged preemption path (swap-out + recompute) when the block
/// pool is what blocks its admission. Requires
/// [`KvCachePolicy::Paged`](crate::KvCachePolicy::Paged); under the
/// conservative policy the flag is ignored (there is no preemption path to
/// reuse). The **admitted** request records each eviction it caused in
/// [`Request::preemptions_inflicted`](crate::Request::preemptions_inflicted);
/// memory-pressure preemptions (decode growth against a full pool) have no
/// single inflictor and are attributed to nobody.
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
}

/// One replica's fair-queue state: the configuration, the per-tenant
/// virtual-token counters and the monotone virtual floor.
#[derive(Debug, Clone)]
pub(crate) struct FairQueue {
    config: FairQueueConfig,
    /// Virtual-token counters, sorted by tenant id; a tenant appears on
    /// first selection or first bill, at the floor of that moment.
    vtime: Vec<(TenantId, f64)>,
    /// The smallest counter among the tenants competing at the most recent
    /// selection (never decreasing). Tenants activating — first request, or
    /// back from idle — are lifted to it.
    floor: f64,
}

impl FairQueue {
    pub(crate) fn new(config: FairQueueConfig) -> Self {
        FairQueue {
            config,
            vtime: Vec::new(),
            floor: 0.0,
        }
    }

    /// Whether higher-priority selections may evict lower-priority decodes.
    pub(crate) fn preempts_priorities(&self) -> bool {
        self.config.preempt_priorities
    }

    /// Mutable counter of `tenant`, created at the current floor on first
    /// sight.
    fn counter(&mut self, tenant: TenantId) -> &mut f64 {
        let i = match self.vtime.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => i,
            Err(i) => {
                self.vtime.insert(i, (tenant, self.floor));
                i
            }
        };
        &mut self.vtime[i].1
    }

    /// The position of the winning candidate among `candidates` (each a
    /// waiting request's `(priority, tenant)`, in queue order): highest
    /// priority, then smallest counter, then smallest tenant id, then
    /// earliest. Every competing tenant is first lifted to the floor, and
    /// the floor then ratchets up to the smallest competing counter. Fewer
    /// than two candidates are no contest: position 0, state untouched.
    pub(crate) fn select<I>(&mut self, candidates: I) -> usize
    where
        I: ExactSizeIterator<Item = (Priority, TenantId)>,
    {
        if candidates.len() < 2 {
            return 0;
        }
        // Every lift uses the floor from before this selection, so lifting,
        // the floor's minimum and the comparison share one pass.
        let floor = self.floor;
        let mut min_active = f64::INFINITY;
        let mut best: Option<(usize, Priority, f64, TenantId)> = None;
        for (pos, (priority, tenant)) in candidates.enumerate() {
            let v = self.counter(tenant);
            *v = v.max(floor);
            let v = *v;
            min_active = min_active.min(v);
            let wins = match best {
                None => true,
                Some((_, bp, bv, bt)) => {
                    priority > bp || (priority == bp && (v < bv || (v == bv && tenant < bt)))
                }
            };
            if wins {
                best = Some((pos, priority, v, tenant));
            }
        }
        self.floor = floor.max(min_active);
        best.map_or(0, |(pos, ..)| pos)
    }

    /// Charge `tokens` scheduled prefill tokens to `tenant`'s counter,
    /// scaled by `1 / weight`. Cached-prefix tokens were never scheduled and
    /// are free; decode tokens are not billed — the chunk budget is what
    /// tenants compete for.
    pub(crate) fn bill(&mut self, tenant: TenantId, tokens: usize) {
        if tokens > 0 {
            let weight = self.config.weight(tenant);
            *self.counter(tenant) += tokens as f64 / weight;
        }
    }
}

/// The priority-preemption victim among `running` decodes (`(request,
/// priority)` in start order) for a candidate of class `below`: only
/// strictly lower classes qualify; the lowest class goes first, and the
/// most recently started among equals — it loses the least recomputation.
pub(crate) fn victim<I>(running: I, below: Priority) -> Option<usize>
where
    I: DoubleEndedIterator<Item = (usize, Priority)>,
{
    running
        .rev()
        .filter(|&(_, p)| p < below)
        .min_by_key(|&(_, p)| p)
        .map(|(rid, _)| rid)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOW: Priority = Priority::Low;
    const NORMAL: Priority = Priority::Normal;
    const HIGH: Priority = Priority::High;

    fn fair() -> FairQueue {
        FairQueue::new(FairQueueConfig::new())
    }

    fn counter_of(q: &FairQueue, tenant: u32) -> Option<f64> {
        q.vtime
            .iter()
            .find(|&&(t, _)| t == TenantId(tenant))
            .map(|&(_, v)| v)
    }

    #[test]
    fn select_breaks_ties_by_priority_then_counter_then_tenant_then_order() {
        let mut q = fair();
        q.bill(TenantId(1), 100);
        q.bill(TenantId(2), 100);
        q.bill(TenantId(3), 50);
        // Priority outranks a smaller counter.
        let c = [(NORMAL, TenantId(3)), (HIGH, TenantId(1))];
        assert_eq!(q.select(c.into_iter()), 1);
        // Equal class: the smallest counter wins.
        let c = [(NORMAL, TenantId(1)), (NORMAL, TenantId(3))];
        assert_eq!(q.select(c.into_iter()), 1);
        // Equal class and counter: the smallest tenant id wins.
        let c = [(NORMAL, TenantId(2)), (NORMAL, TenantId(1))];
        assert_eq!(q.select(c.into_iter()), 1);
        // Same tenant throughout: queue order (FIFO).
        let c = [(NORMAL, TenantId(2)), (NORMAL, TenantId(2))];
        assert_eq!(q.select(c.into_iter()), 0);
    }

    #[test]
    fn select_lifts_newcomers_and_idle_tenants_to_the_floor() {
        let mut q = FairQueue::new(FairQueueConfig::new().with_weight(TenantId(0), 2.0));
        q.bill(TenantId(0), 100); // 50 virtual tokens at weight 2
        q.bill(TenantId(1), 10);
        q.bill(TenantId(2), 300);
        q.bill(TenantId(3), 200);
        assert_eq!(counter_of(&q, 0), Some(50.0));
        // Tenants 0 and 1 sit idle; the floor moves only at a selection, to
        // the smallest competing counter.
        let c = [(NORMAL, TenantId(2)), (NORMAL, TenantId(3))];
        assert_eq!(q.select(c.into_iter()), 1);
        assert_eq!(q.floor, 200.0);
        // Back from idle, both are lifted to the floor, so tenant 1's
        // smaller counter is no credit: the tie goes to tenant 0.
        let c = [(NORMAL, TenantId(0)), (NORMAL, TenantId(1))];
        assert_eq!(q.select(c.into_iter()), 0);
        assert_eq!(counter_of(&q, 0), Some(200.0));
        assert_eq!(counter_of(&q, 1), Some(200.0));
        // A newcomer enters at the floor, not at zero, so it ties tenant 3;
        // a tenant above the floor keeps its counter.
        let c = [(NORMAL, TenantId(3)), (NORMAL, TenantId(5))];
        assert_eq!(q.select(c.into_iter()), 0);
        assert_eq!(counter_of(&q, 5), Some(200.0));
        assert_eq!(counter_of(&q, 2), Some(300.0));
    }

    #[test]
    fn select_without_contest_touches_nothing() {
        let mut q = fair();
        assert_eq!(q.select(std::iter::empty()), 0);
        assert_eq!(q.select([(LOW, TenantId(4))].into_iter()), 0);
        assert!(q.vtime.is_empty());
        assert_eq!(q.floor, 0.0);
        // Billing an unseen tenant creates it at the floor first.
        q.floor = 7.0;
        q.bill(TenantId(4), 3);
        q.bill(TenantId(6), 0);
        assert_eq!(counter_of(&q, 4), Some(10.0));
        assert_eq!(counter_of(&q, 6), None);
    }

    #[test]
    fn victim_is_the_newest_decode_of_the_lowest_class_below_the_candidate() {
        let running = [(10, NORMAL), (11, LOW), (12, HIGH), (13, LOW), (14, NORMAL)];
        assert_eq!(victim(running.into_iter(), HIGH), Some(13));
        assert_eq!(victim(running.into_iter(), NORMAL), Some(13));
        assert_eq!(victim(running.into_iter(), LOW), None);
        let running = [(10, NORMAL), (14, NORMAL), (12, HIGH)];
        assert_eq!(victim(running.into_iter(), HIGH), Some(14));
        assert_eq!(victim(std::iter::empty(), HIGH), None);
    }
}

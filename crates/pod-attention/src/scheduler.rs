//! SM-aware CTA scheduling: runtime operation binding (Figure 9 of the paper).
//!
//! The fused kernel is launched with `prefill_ctas + decode_ctas` identical
//! CTA slots. Which operation a slot performs is decided only after the
//! hardware scheduler has placed it on an SM: a leader thread reads the SM id
//! (`%smid`), takes a ticket from that SM's counter, and the ticket — compared
//! against the configured prefill:decode ratio — selects the operation. If the
//! selected operation has already consumed all of its CTAs, the slot falls
//! through to the other operation. This guarantees that, as long as both
//! operations have work left, every SM runs a mix of prefill and decode CTAs,
//! which is what lets compute-bound prefill and memory-bound decode overlap.
//!
//! In the simulator the same algorithm runs inside a [`gpu_sim::CtaDispatcher`]:
//! the engine tells the dispatcher which SM the next CTA landed on, mirroring
//! the `%smid` read. Each operation's work is held as [`UnitRuns`]: a prefill
//! CTA takes the next prefill unit, a decode slot the next
//! [`with_decode_units_per_cta`](SmAwareScheduler::with_decode_units_per_cta)
//! decode units (so a slot may straddle two requests), and building the
//! scheduler costs O(runs), not O(CTAs).

use gpu_sim::{CtaDispatcher, UnitRuns, WorkUnit};

/// Which operation a CTA slot was bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundOp {
    Prefill,
    Decode,
}

/// The SM-aware CTA scheduler of POD-Attention.
///
/// Implements [`CtaDispatcher`]: the simulated hardware scheduler calls
/// [`dispatch`](CtaDispatcher::dispatch) with an SM id every time it places
/// one of the fused kernel's CTAs, and receives the work that CTA should
/// perform.
#[derive(Debug, Clone)]
pub struct SmAwareScheduler {
    /// Prefill units, one per CTA.
    prefill_work: UnitRuns,
    /// Decode units, `decode_units_per_cta` per CTA slot.
    decode_work: UnitRuns,
    decode_units_per_cta: usize,
    /// Per-SM ticket counters (`sm_ctr` in Figure 9).
    sm_counters: Vec<usize>,
    /// Interleaving ratio from the scheduling policy.
    prefill_ratio: usize,
    decode_ratio: usize,
    /// Per-SM `(prefill, decode)` counts of *executed* operations. Always
    /// maintained — O(num_sms) memory regardless of grid size.
    bound_counts: Vec<(usize, usize)>,
    /// Count of dispatches where the ticket-selected operation was exhausted
    /// and the slot fell through to the other operation.
    fallthroughs: usize,
}

impl SmAwareScheduler {
    /// Create a scheduler over the prefill and decode work units, one unit
    /// per CTA on each side, with the interleave ratio
    /// `(prefill_ratio, decode_ratio)` (see
    /// [`crate::SchedulingPolicy::ratios`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_sms` is zero or both ratios are zero while both work
    /// lists are non-empty.
    pub fn new(
        prefill_work: UnitRuns,
        decode_work: UnitRuns,
        num_sms: usize,
        prefill_ratio: usize,
        decode_ratio: usize,
    ) -> Self {
        assert!(num_sms > 0, "scheduler needs at least one SM");
        if !prefill_work.is_empty() && !decode_work.is_empty() {
            assert!(
                prefill_ratio + decode_ratio > 0,
                "at least one of the scheduling ratios must be non-zero"
            );
        }
        SmAwareScheduler {
            prefill_work,
            decode_work,
            decode_units_per_cta: 1,
            sm_counters: vec![0; num_sms],
            prefill_ratio,
            decode_ratio,
            bound_counts: vec![(0, 0); num_sms],
            fallthroughs: 0,
        }
    }

    /// Pack `units` decode units into each decode CTA slot (POD's virtual
    /// decode CTAs, [`crate::CtasPerSm::virtual_decode_factor`]). The last
    /// slot takes whatever is left.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn with_decode_units_per_cta(mut self, units: usize) -> Self {
        assert!(units > 0, "a decode CTA slot packs at least one unit");
        self.decode_units_per_cta = units;
        self
    }

    /// Per-SM `(prefill, decode)` counts of executed operations.
    pub fn bound_counts(&self) -> &[(usize, usize)] {
        &self.bound_counts
    }

    /// Dispatches whose ticket-selected operation was exhausted, so the slot
    /// fell through to the other operation (lines 10–18 of Figure 9).
    pub fn fallthroughs(&self) -> usize {
        self.fallthroughs
    }

    /// The ticket test of Figure 9 (lines 5–8): which operation does this
    /// ticket select?
    ///
    /// The minority operation is scheduled first within each period (Figure 9
    /// places prefill first, and in hybrid serving batches the prefill chunk
    /// is the minority operation). Putting the minority operation at the
    /// front guarantees that the very first CTAs landing on an SM already mix
    /// both operations, so overlap starts from the first wave even when one
    /// operation needs many more CTAs than the other.
    fn op_for_ticket(&self, ticket: usize) -> BoundOp {
        let period = self.prefill_ratio + self.decode_ratio;
        if period == 0 {
            // Only one operation present; pick whichever has work.
            return if self.prefill_work.is_empty() {
                BoundOp::Decode
            } else {
                BoundOp::Prefill
            };
        }
        let slot = ticket % period;
        if self.prefill_ratio <= self.decode_ratio {
            if slot < self.prefill_ratio {
                BoundOp::Prefill
            } else {
                BoundOp::Decode
            }
        } else if slot < self.decode_ratio {
            BoundOp::Decode
        } else {
            BoundOp::Prefill
        }
    }
}

impl CtaDispatcher for SmAwareScheduler {
    fn remaining(&self) -> usize {
        self.prefill_work.len() + self.decode_work.len().div_ceil(self.decode_units_per_cta)
    }

    fn dispatch(&mut self, sm_id: usize, units: &mut Vec<WorkUnit>) {
        let sm = sm_id % self.sm_counters.len();
        // Lines 2–6 of Figure 9: read %smid, take a ticket.
        let ticket = self.sm_counters[sm];
        self.sm_counters[sm] += 1;
        let chosen = self.op_for_ticket(ticket);
        // Lines 10–18: if the chosen operation is exhausted, switch. All
        // bookkeeping below records the *executed* operation, so the counts
        // and the dispatched work always agree.
        let op = match chosen {
            BoundOp::Prefill if self.prefill_work.is_empty() => BoundOp::Decode,
            BoundOp::Decode if self.decode_work.is_empty() => BoundOp::Prefill,
            other => other,
        };
        if op != chosen {
            self.fallthroughs += 1;
        }
        let (work, per_cta) = match op {
            BoundOp::Prefill => {
                self.bound_counts[sm].0 += 1;
                (&mut self.prefill_work, 1)
            }
            BoundOp::Decode => {
                self.bound_counts[sm].1 += 1;
                (&mut self.decode_work, self.decode_units_per_cta)
            }
        };
        assert!(!work.is_empty(), "dispatch called with no remaining work");
        work.take_into(per_cta, units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::OpClass;

    fn runs(op: OpClass, n: usize) -> UnitRuns {
        let mut runs = UnitRuns::new();
        let (flops, bytes) = match op {
            OpClass::Prefill => (1e6, 1e3),
            _ => (1e3, 1e6),
        };
        runs.push(WorkUnit::new(op, flops, bytes), n);
        runs
    }

    fn prefill(n: usize) -> UnitRuns {
        runs(OpClass::Prefill, n)
    }

    fn decode(n: usize) -> UnitRuns {
        runs(OpClass::Decode, n)
    }

    /// Dispatch one CTA onto `sm` and return the operation of its units.
    fn dispatch_op(s: &mut SmAwareScheduler, sm: usize) -> BoundOp {
        let mut units = Vec::new();
        s.dispatch(sm, &mut units);
        assert_eq!(units.len(), 1);
        match units[0].op {
            OpClass::Prefill => BoundOp::Prefill,
            OpClass::Decode => BoundOp::Decode,
            other => panic!("unexpected op class {other}"),
        }
    }

    #[test]
    fn fifty_fifty_alternates_per_sm() {
        let mut s = SmAwareScheduler::new(prefill(4), decode(4), 2, 1, 1);
        // Four CTAs land on SM 0, four on SM 1.
        let mut per_sm = vec![Vec::new(); 2];
        for i in 0..8 {
            per_sm[i % 2].push(dispatch_op(&mut s, i % 2));
        }
        // Each SM alternates prefill, decode, prefill, decode.
        for ops in &per_sm {
            assert_eq!(
                *ops,
                vec![
                    BoundOp::Prefill,
                    BoundOp::Decode,
                    BoundOp::Prefill,
                    BoundOp::Decode
                ]
            );
        }
    }

    #[test]
    fn proportional_ratio_is_respected() {
        let mut s = SmAwareScheduler::new(prefill(2), decode(6), 1, 1, 3);
        let seq: Vec<BoundOp> = (0..8).map(|_| dispatch_op(&mut s, 0)).collect();
        assert_eq!(
            seq,
            vec![
                BoundOp::Prefill,
                BoundOp::Decode,
                BoundOp::Decode,
                BoundOp::Decode,
                BoundOp::Prefill,
                BoundOp::Decode,
                BoundOp::Decode,
                BoundOp::Decode,
            ]
        );
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn exhausted_operation_falls_through_to_the_other() {
        let mut s = SmAwareScheduler::new(prefill(1), decode(5), 1, 1, 1);
        let mut prefill_seen = 0;
        let mut decode_seen = 0;
        for _ in 0..6 {
            match dispatch_op(&mut s, 0) {
                BoundOp::Prefill => prefill_seen += 1,
                BoundOp::Decode => decode_seen += 1,
            }
        }
        assert_eq!(prefill_seen, 1);
        assert_eq!(decode_seen, 5);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn every_sm_gets_both_operations() {
        let num_sms = 8;
        let mut s = SmAwareScheduler::new(prefill(16), decode(16), num_sms, 1, 1);
        // Round-robin placement across SMs, 4 CTAs each.
        let mut per_sm = vec![Vec::new(); num_sms];
        for i in 0..32 {
            per_sm[i % num_sms].push(dispatch_op(&mut s, i % num_sms));
        }
        for (sm, ops) in per_sm.iter().enumerate() {
            assert!(ops.contains(&BoundOp::Prefill), "SM {sm} never ran prefill");
            assert!(ops.contains(&BoundOp::Decode), "SM {sm} never ran decode");
        }
    }

    #[test]
    fn decode_only_launch_never_asks_for_prefill() {
        let mut s = SmAwareScheduler::new(UnitRuns::new(), decode(3), 4, 0, 1);
        for i in 0..3 {
            assert_eq!(dispatch_op(&mut s, i), BoundOp::Decode);
        }
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "no remaining work")]
    fn dispatch_past_the_end_panics() {
        let mut s = SmAwareScheduler::new(prefill(1), UnitRuns::new(), 1, 1, 0);
        dispatch_op(&mut s, 0);
        dispatch_op(&mut s, 0);
    }

    #[test]
    fn out_of_range_sm_ids_wrap() {
        let mut s = SmAwareScheduler::new(prefill(2), decode(2), 2, 1, 1);
        // SM id 5 wraps to SM 1.
        dispatch_op(&mut s, 5);
        assert_eq!(s.bound_counts(), [(0, 0), (1, 0)]);
    }

    /// The per-SM counts always reflect the operation that actually executed
    /// — also across fall-throughs.
    #[test]
    fn counts_track_executed_ops_across_fallthroughs() {
        let mut s = SmAwareScheduler::new(prefill(2), decode(6), 1, 1, 1);
        for _ in 0..8 {
            dispatch_op(&mut s, 0);
        }
        assert_eq!(s.bound_counts()[0], (2, 6));
        // 50:50 tickets would have selected prefill 4 times, but only 2
        // prefill CTAs exist: two dispatches fell through to decode.
        assert_eq!(s.fallthroughs(), 2);
        assert_eq!(s.remaining(), 0);
    }

    /// Packed decode slots take their units front to back across runs, and
    /// the last slot takes what is left.
    #[test]
    fn packed_decode_slots_straddle_runs() {
        let a = WorkUnit::new(OpClass::Decode, 1.0, 4.0);
        let b = WorkUnit::new(OpClass::Decode, 1.0, 2.0);
        let mut decode = UnitRuns::new();
        decode.push(a, 3);
        decode.push(b, 4);
        let mut s =
            SmAwareScheduler::new(UnitRuns::new(), decode, 1, 0, 1).with_decode_units_per_cta(2);
        assert_eq!(s.remaining(), 4);
        let mut slots = Vec::new();
        while s.remaining() > 0 {
            let mut units = Vec::new();
            s.dispatch(0, &mut units);
            slots.push(units);
        }
        assert_eq!(slots, [vec![a, a], vec![a, b], vec![b, b], vec![b]]);
        assert_eq!(s.bound_counts()[0], (0, 4));
    }
}

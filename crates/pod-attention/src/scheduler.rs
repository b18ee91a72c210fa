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
//! the `%smid` read.

use gpu_sim::{CtaDispatcher, CtaWork};
use std::collections::VecDeque;

/// Which operation a CTA slot was bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundOp {
    /// The slot executed prefill work.
    Prefill,
    /// The slot executed decode work.
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
    prefill_work: VecDeque<CtaWork>,
    decode_work: VecDeque<CtaWork>,
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
    /// Full per-SM op log, kept only when [`with_binding_log`] enabled it.
    /// Unbounded in the grid size, so it is off on the hot path.
    ///
    /// [`with_binding_log`]: SmAwareScheduler::with_binding_log
    binding_log: Option<Vec<Vec<BoundOp>>>,
}

impl SmAwareScheduler {
    /// Create a scheduler over the prefill and decode CTA work lists with the
    /// interleave ratio `(prefill_ratio, decode_ratio)` (see
    /// [`crate::SchedulingPolicy::ratios`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_sms` is zero or both ratios are zero while both work
    /// lists are non-empty.
    pub fn new(
        prefill_work: Vec<CtaWork>,
        decode_work: Vec<CtaWork>,
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
            prefill_work: prefill_work.into(),
            decode_work: decode_work.into(),
            sm_counters: vec![0; num_sms],
            prefill_ratio,
            decode_ratio,
            bound_counts: vec![(0, 0); num_sms],
            fallthroughs: 0,
            binding_log: None,
        }
    }

    /// Enable the full per-SM op log (used by tests and co-location
    /// analyses). The log grows with the grid, so it is opt-in; the cheap
    /// [`bound_counts`](SmAwareScheduler::bound_counts) are always available.
    pub fn with_binding_log(mut self) -> Self {
        self.binding_log = Some(vec![Vec::new(); self.sm_counters.len()]);
        self
    }

    /// Operations bound on each SM so far, in dispatch order. Empty unless
    /// the scheduler was built with
    /// [`with_binding_log`](SmAwareScheduler::with_binding_log).
    pub fn bindings(&self) -> &[Vec<BoundOp>] {
        self.binding_log.as_deref().unwrap_or(&[])
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
        self.prefill_work.len() + self.decode_work.len()
    }

    fn dispatch(&mut self, sm_id: usize) -> CtaWork {
        let sm = sm_id % self.sm_counters.len();
        // Lines 2–6 of Figure 9: read %smid, take a ticket.
        let ticket = self.sm_counters[sm];
        self.sm_counters[sm] += 1;
        let chosen = self.op_for_ticket(ticket);
        // Lines 10–18: if the chosen operation is exhausted, switch. All
        // bookkeeping below records the *executed* operation, so counts, log
        // and the returned work always agree.
        let op = match chosen {
            BoundOp::Prefill if self.prefill_work.is_empty() => BoundOp::Decode,
            BoundOp::Decode if self.decode_work.is_empty() => BoundOp::Prefill,
            other => other,
        };
        if op != chosen {
            self.fallthroughs += 1;
        }
        let work = match op {
            BoundOp::Prefill => {
                self.bound_counts[sm].0 += 1;
                self.prefill_work.pop_front()
            }
            BoundOp::Decode => {
                self.bound_counts[sm].1 += 1;
                self.decode_work.pop_front()
            }
        };
        let work = work.expect("dispatch called with no remaining work");
        if let Some(log) = &mut self.binding_log {
            log[sm].push(op);
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::OpClass;

    fn prefill_cta() -> CtaWork {
        CtaWork::single(OpClass::Prefill, 1e6, 1e3)
    }

    fn decode_cta() -> CtaWork {
        CtaWork::single(OpClass::Decode, 1e3, 1e6)
    }

    #[test]
    fn fifty_fifty_alternates_per_sm() {
        let mut s = SmAwareScheduler::new(vec![prefill_cta(); 4], vec![decode_cta(); 4], 2, 1, 1)
            .with_binding_log();
        // Four CTAs land on SM 0, four on SM 1.
        let ops: Vec<BoundOp> = (0..8)
            .map(|i| {
                let w = s.dispatch(i % 2);
                if w.dominant_op() == OpClass::Prefill {
                    BoundOp::Prefill
                } else {
                    BoundOp::Decode
                }
            })
            .collect();
        // Each SM alternates prefill, decode, prefill, decode.
        assert_eq!(
            s.bindings()[0],
            vec![
                BoundOp::Prefill,
                BoundOp::Decode,
                BoundOp::Prefill,
                BoundOp::Decode
            ]
        );
        assert_eq!(
            s.bindings()[1],
            vec![
                BoundOp::Prefill,
                BoundOp::Decode,
                BoundOp::Prefill,
                BoundOp::Decode
            ]
        );
        assert_eq!(ops.iter().filter(|o| **o == BoundOp::Prefill).count(), 4);
    }

    #[test]
    fn proportional_ratio_is_respected() {
        let mut s = SmAwareScheduler::new(vec![prefill_cta(); 2], vec![decode_cta(); 6], 1, 1, 3);
        let seq: Vec<BoundOp> = (0..8)
            .map(|_| {
                let w = s.dispatch(0);
                if w.dominant_op() == OpClass::Prefill {
                    BoundOp::Prefill
                } else {
                    BoundOp::Decode
                }
            })
            .collect();
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
        let mut s = SmAwareScheduler::new(vec![prefill_cta(); 1], vec![decode_cta(); 5], 1, 1, 1);
        let mut prefill_seen = 0;
        let mut decode_seen = 0;
        for _ in 0..6 {
            match s.dispatch(0).dominant_op() {
                OpClass::Prefill => prefill_seen += 1,
                OpClass::Decode => decode_seen += 1,
                _ => unreachable!(),
            }
        }
        assert_eq!(prefill_seen, 1);
        assert_eq!(decode_seen, 5);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn every_sm_gets_both_operations() {
        let num_sms = 8;
        let mut s = SmAwareScheduler::new(
            vec![prefill_cta(); 16],
            vec![decode_cta(); 16],
            num_sms,
            1,
            1,
        )
        .with_binding_log();
        // Round-robin placement across SMs, 4 CTAs each.
        for i in 0..32 {
            let _ = s.dispatch(i % num_sms);
        }
        for sm in 0..num_sms {
            let ops = &s.bindings()[sm];
            assert!(ops.contains(&BoundOp::Prefill), "SM {sm} never ran prefill");
            assert!(ops.contains(&BoundOp::Decode), "SM {sm} never ran decode");
        }
    }

    #[test]
    fn decode_only_launch_never_asks_for_prefill() {
        let mut s = SmAwareScheduler::new(vec![], vec![decode_cta(); 3], 4, 0, 1);
        for i in 0..3 {
            assert_eq!(s.dispatch(i).dominant_op(), OpClass::Decode);
        }
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "no remaining work")]
    fn dispatch_past_the_end_panics() {
        let mut s = SmAwareScheduler::new(vec![prefill_cta()], vec![], 1, 1, 0);
        let _ = s.dispatch(0);
        let _ = s.dispatch(0);
    }

    #[test]
    fn out_of_range_sm_ids_wrap() {
        let mut s = SmAwareScheduler::new(vec![prefill_cta(); 2], vec![decode_cta(); 2], 2, 1, 1)
            .with_binding_log();
        // SM id 5 wraps to SM 1.
        let _ = s.dispatch(5);
        assert_eq!(s.bindings()[1].len(), 1);
        assert_eq!(s.bound_counts()[1].0 + s.bound_counts()[1].1, 1);
    }

    /// Without the opt-in log the scheduler keeps only O(num_sms) counts, and
    /// the counts always reflect the operation that actually executed — also
    /// across fall-throughs.
    #[test]
    fn counts_track_executed_ops_across_fallthroughs() {
        let mut s = SmAwareScheduler::new(vec![prefill_cta(); 2], vec![decode_cta(); 6], 1, 1, 1);
        for _ in 0..8 {
            let _ = s.dispatch(0);
        }
        assert!(s.bindings().is_empty(), "log must be off by default");
        assert_eq!(s.bound_counts()[0], (2, 6));
        // 50:50 tickets would have selected prefill 4 times, but only 2
        // prefill CTAs exist: two dispatches fell through to decode.
        assert_eq!(s.fallthroughs(), 2);
        assert_eq!(s.remaining(), 0);
    }
}

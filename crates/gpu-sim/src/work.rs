//! Work descriptors: the unit of execution the simulator schedules.
//!
//! A [`CtaWork`] describes everything the contention engine needs to know
//! about one Cooperative Thread Array: how many tensor-core FLOPs it issues,
//! how many bytes it moves to/from HBM, and which logical operation class it
//! belongs to (prefill attention, decode attention, a synthetic kernel, ...).
//!
//! A CTA may contain several [`WorkUnit`]s. All units of a CTA execute
//! concurrently (they model independent warps inside the CTA, as in
//! warp-parallel/HFuse fusion), and the CTA only releases its SM resources
//! when *every* unit has finished — which is exactly the straggler behaviour
//! the paper describes for warp-parallel fusion (§3.1).

/// Logical class of work a CTA (or work unit) performs.
///
/// The scheduler in POD-Attention and the utilization metrics both need to
/// distinguish prefill from decode work; the synthetic classes are used by
/// the §3.3 micro-benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Prefill (chunked prompt) attention.
    Prefill,
    /// Decode (auto-regressive) attention.
    Decode,
    /// Synthetic compute-bound kernel (Figure 7 micro-benchmark).
    ComputeBound,
    /// Synthetic memory-bound kernel (Figure 7 micro-benchmark).
    MemoryBound,
    /// Anything else (linear layers, reductions, ...).
    Other,
}

impl OpClass {
    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Prefill => "prefill",
            OpClass::Decode => "decode",
            OpClass::ComputeBound => "compute",
            OpClass::MemoryBound => "memory",
            OpClass::Other => "other",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One independent stream of work inside a CTA.
///
/// Compute (`flops`) and memory (`bytes`) drain concurrently — the engine
/// models a well-pipelined kernel (double-buffered loads overlapping tensor
/// ops), so a unit finishes when *both* its compute and its memory work have
/// drained. `serial_fraction` models synchronization barriers that prevent
/// part of the shorter resource stream from being hidden behind the longer
/// one (used by the intra-thread fusion model of §3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkUnit {
    /// Tensor-core FLOPs this unit issues.
    pub flops: f64,
    /// Bytes this unit moves to or from HBM.
    pub bytes: f64,
    /// Operation class, for metrics and runtime operation binding.
    pub op: OpClass,
    /// Fraction (0.0..=1.0) of the *shorter* resource stream that cannot be
    /// overlapped with the longer one due to CTA-level barriers. 0.0 means a
    /// perfectly pipelined kernel; 1.0 means compute and memory strictly
    /// serialize.
    pub serial_fraction: f64,
}

impl WorkUnit {
    /// A new fully-pipelined work unit.
    ///
    /// # Panics
    ///
    /// Panics if `flops` or `bytes` is negative or not finite.
    pub fn new(op: OpClass, flops: f64, bytes: f64) -> Self {
        assert!(
            flops.is_finite() && flops >= 0.0,
            "flops must be non-negative"
        );
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "bytes must be non-negative"
        );
        WorkUnit {
            flops,
            bytes,
            op,
            serial_fraction: 0.0,
        }
    }

    /// Set the serial (non-overlappable) fraction, clamped to `[0, 1]`.
    pub fn with_serial_fraction(mut self, f: f64) -> Self {
        self.serial_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// True if this unit has no work at all.
    pub fn is_empty(&self) -> bool {
        self.flops <= 0.0 && self.bytes <= 0.0
    }

    /// True if every field of `other` has the same bits as this unit's.
    fn same_bits(&self, other: &WorkUnit) -> bool {
        self.op == other.op
            && self.flops.to_bits() == other.flops.to_bits()
            && self.bytes.to_bits() == other.bytes.to_bits()
            && self.serial_fraction.to_bits() == other.serial_fraction.to_bits()
    }
}

/// The operation class contributing the most combined work among `units`,
/// used for per-class reporting. Ties resolve to the earliest unit's class.
///
/// # Panics
///
/// Panics if `units` is empty.
pub(crate) fn dominant_op(units: &[WorkUnit]) -> OpClass {
    let mut best = units[0].op;
    let mut best_score = f64::MIN;
    for u in units {
        let score = u.flops + u.bytes;
        if score > best_score {
            best_score = score;
            best = u.op;
        }
    }
    best
}

/// A kernel grid's work units as run-length `(unit, count)` runs, consumed
/// front to back.
///
/// Attention grids repeat one unit many times in a row: every KV split of a
/// (head, query tile) prefill unit, every (KV head, split) CTA of a decode
/// request. Holding each such stretch as one run lets a kernel model build
/// its launch in O(runs) instead of O(CTAs), and lets a dispatcher hand the
/// engine the next CTA's units without allocating. [`UnitRuns::push`] merges
/// a run into the previous one when their units are bit-equal, so no two
/// adjacent runs of a list hold bit-equal units.
///
/// # Examples
///
/// ```
/// use gpu_sim::{OpClass, UnitRuns, WorkUnit};
///
/// let a = WorkUnit::new(OpClass::Decode, 1e3, 4e6);
/// let b = WorkUnit::new(OpClass::Decode, 1e3, 2e6);
/// let mut runs = UnitRuns::new();
/// runs.push(a, 3);
/// runs.push(a, 1); // merges: still one run of 4
/// runs.push(b, 4);
/// assert_eq!(runs.runs(), &[(a, 4), (b, 4)]);
///
/// // A CTA packing three units takes them from the front, straddling runs.
/// let mut cta = Vec::new();
/// runs.take_into(3, &mut cta);
/// runs.take_into(3, &mut cta);
/// assert_eq!(cta, vec![a, a, a, a, b, b]);
/// assert_eq!(runs.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitRuns {
    /// Runs in order; those before `head` are fully consumed and the run at
    /// `head` holds only its unconsumed count.
    runs: Vec<(WorkUnit, usize)>,
    /// Index of the first run with units left.
    head: usize,
    /// Units not yet consumed.
    len: usize,
}

impl UnitRuns {
    /// An empty run list.
    pub fn new() -> Self {
        UnitRuns::default()
    }

    /// Append `count` copies of `unit`, merging them into the last run when
    /// its unit is bit-equal. A `count` of zero appends nothing.
    pub fn push(&mut self, unit: WorkUnit, count: usize) {
        if count == 0 {
            return;
        }
        self.len += count;
        match self.runs[self.head..].last_mut() {
            Some((last, n)) if last.same_bits(&unit) => *n += count,
            _ => self.runs.push((unit, count)),
        }
    }

    /// Units not yet consumed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True once every unit has been consumed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs not yet consumed, the first holding its remaining count.
    pub fn runs(&self) -> &[(WorkUnit, usize)] {
        &self.runs[self.head..]
    }

    /// The units not yet consumed, expanded, in order.
    pub fn iter(&self) -> impl Iterator<Item = WorkUnit> + '_ {
        self.runs()
            .iter()
            .flat_map(|&(u, n)| std::iter::repeat(u).take(n))
    }

    /// Move the next `n` units (fewer if fewer are left) onto `out`, front
    /// to back: the units of one CTA that packs `n` of them.
    pub fn take_into(&mut self, n: usize, out: &mut Vec<WorkUnit>) {
        let mut want = n.min(self.len);
        self.len -= want;
        while want > 0 {
            let (unit, count) = &mut self.runs[self.head];
            let k = want.min(*count);
            out.extend(std::iter::repeat(*unit).take(k));
            *count -= k;
            want -= k;
            if *count == 0 {
                self.head += 1;
            }
        }
    }
}

impl FromIterator<WorkUnit> for UnitRuns {
    fn from_iter<I: IntoIterator<Item = WorkUnit>>(units: I) -> Self {
        let mut runs = UnitRuns::new();
        for u in units {
            runs.push(u, 1);
        }
        runs
    }
}

/// Resource footprint of a CTA: what the hardware CTA scheduler must reserve
/// on an SM before the CTA can begin executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Threads per CTA.
    pub threads: usize,
    /// Shared memory (bytes) per CTA.
    pub shared_mem: usize,
    /// Registers per thread.
    pub registers_per_thread: usize,
}

impl Footprint {
    /// A new footprint with the given thread count and shared-memory size and
    /// a typical register usage of 64 registers per thread.
    pub fn new(threads: usize, shared_mem: usize) -> Self {
        Footprint {
            threads,
            shared_mem,
            registers_per_thread: 64,
        }
    }
}

impl Default for Footprint {
    fn default() -> Self {
        Footprint::new(128, 48 * 1024)
    }
}

/// The work performed by one CTA.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CtaWork, OpClass, WorkUnit};
///
/// // A prefill attention CTA: 50 MFLOP of tensor work, 1 MiB of HBM traffic.
/// let cta = CtaWork::single(OpClass::Prefill, 50e6, 1.0 * 1024.0 * 1024.0);
/// assert_eq!(cta.total_flops(), 50e6);
/// assert_eq!(cta.dominant_op(), OpClass::Prefill);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CtaWork {
    /// Independent work units (warp groups) executing inside this CTA.
    pub units: Vec<WorkUnit>,
}

impl CtaWork {
    /// A CTA with a single work unit.
    pub fn single(op: OpClass, flops: f64, bytes: f64) -> Self {
        CtaWork {
            units: vec![WorkUnit::new(op, flops, bytes)],
        }
    }

    /// A CTA composed of several concurrently-executing units (e.g. an HFuse
    /// CTA with prefill warps and decode warps).
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty.
    pub fn fused(units: Vec<WorkUnit>) -> Self {
        assert!(
            !units.is_empty(),
            "a CTA must contain at least one work unit"
        );
        CtaWork { units }
    }

    /// An empty CTA that finishes immediately (useful as a no-op filler).
    pub fn empty(op: OpClass) -> Self {
        CtaWork::single(op, 0.0, 0.0)
    }

    /// Sum of tensor FLOPs across all units.
    pub fn total_flops(&self) -> f64 {
        self.units.iter().map(|u| u.flops).sum()
    }

    /// Sum of HBM bytes across all units.
    pub fn total_bytes(&self) -> f64 {
        self.units.iter().map(|u| u.bytes).sum()
    }

    /// The operation class contributing the most combined work, used for
    /// per-class reporting. Ties resolve to the first unit's class.
    pub fn dominant_op(&self) -> OpClass {
        dominant_op(&self.units)
    }

    /// Lower bound on this CTA's execution time (seconds) if it had exclusive
    /// access to one SM's compute and an equal per-SM share of HBM bandwidth.
    pub fn isolated_time(&self, sm_flops: f64, sm_bandwidth: f64) -> f64 {
        self.units
            .iter()
            .map(|u| {
                let tc = u.flops / sm_flops;
                let tm = u.bytes / sm_bandwidth;
                tc.max(tm) + u.serial_fraction * tc.min(tm)
            })
            .fold(0.0_f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_totals() {
        let cta = CtaWork::single(OpClass::Decode, 1e6, 2e6);
        assert_eq!(cta.total_flops(), 1e6);
        assert_eq!(cta.total_bytes(), 2e6);
        assert_eq!(cta.dominant_op(), OpClass::Decode);
    }

    #[test]
    fn fused_totals_and_dominant_op() {
        let cta = CtaWork::fused(vec![
            WorkUnit::new(OpClass::Prefill, 10e6, 1e3),
            WorkUnit::new(OpClass::Decode, 1e3, 1e6),
        ]);
        assert!((cta.total_flops() - 10.001e6).abs() < 1.0);
        assert_eq!(cta.dominant_op(), OpClass::Prefill);
    }

    #[test]
    #[should_panic(expected = "at least one work unit")]
    fn fused_rejects_empty() {
        let _ = CtaWork::fused(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn unit_rejects_negative_flops() {
        let _ = WorkUnit::new(OpClass::Other, -1.0, 0.0);
    }

    #[test]
    fn serial_fraction_is_clamped() {
        let u = WorkUnit::new(OpClass::Other, 1.0, 1.0).with_serial_fraction(3.0);
        assert_eq!(u.serial_fraction, 1.0);
        let u = WorkUnit::new(OpClass::Other, 1.0, 1.0).with_serial_fraction(-1.0);
        assert_eq!(u.serial_fraction, 0.0);
    }

    #[test]
    fn isolated_time_is_roofline() {
        let cta = CtaWork::single(OpClass::Prefill, 100.0, 10.0);
        // compute-bound: 100 flops at 10 flop/s = 10 s vs 10 bytes at 10 B/s = 1 s.
        assert!((cta.isolated_time(10.0, 10.0) - 10.0).abs() < 1e-12);
        // serial fraction adds the hidden part back.
        let cta2 = CtaWork {
            units: vec![WorkUnit::new(OpClass::Prefill, 100.0, 10.0).with_serial_fraction(1.0)],
        };
        assert!((cta2.isolated_time(10.0, 10.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn op_class_labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            OpClass::Prefill,
            OpClass::Decode,
            OpClass::ComputeBound,
            OpClass::MemoryBound,
            OpClass::Other,
        ]
        .iter()
        .map(|o| o.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn unit_runs_merge_only_bit_equal_neighbours() {
        let a = WorkUnit::new(OpClass::Prefill, 2.0, 1.0);
        let b = WorkUnit::new(OpClass::Decode, 2.0, 1.0);
        let mut runs = UnitRuns::new();
        runs.push(a, 2);
        runs.push(b, 0);
        runs.push(a.with_serial_fraction(0.5), 1);
        runs.push(b, 1);
        runs.push(b, 2);
        assert_eq!(
            runs.runs(),
            &[(a, 2), (a.with_serial_fraction(0.5), 1), (b, 3)]
        );
        assert_eq!(runs.len(), 6);
        let collected: UnitRuns = runs.iter().collect();
        assert_eq!(collected, runs);
    }

    #[test]
    fn unit_runs_drain_front_to_back_across_runs() {
        let a = WorkUnit::new(OpClass::Decode, 1.0, 8.0);
        let b = WorkUnit::new(OpClass::Decode, 1.0, 4.0);
        let mut runs = UnitRuns::new();
        runs.push(a, 3);
        runs.push(b, 2);
        let mut out = Vec::new();
        runs.take_into(2, &mut out);
        assert_eq!(out, vec![a, a]);
        assert_eq!(runs.runs(), &[(a, 1), (b, 2)]);
        out.clear();
        runs.take_into(2, &mut out);
        assert_eq!(out, vec![a, b]);
        // A unit pushed after the front run drained opens a run of its own
        // rather than reviving the consumed one.
        out.clear();
        runs.take_into(1, &mut out);
        runs.push(b, 1);
        assert_eq!(runs.runs(), &[(b, 1)]);
        runs.take_into(4, &mut out);
        assert_eq!(out, vec![b, b]);
        assert!(runs.is_empty());
        runs.take_into(1, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn dominant_op_of_a_slice_prefers_the_larger_unit() {
        let units = [
            WorkUnit::new(OpClass::Decode, 1.0, 1.0),
            WorkUnit::new(OpClass::Prefill, 5.0, 0.0),
            WorkUnit::new(OpClass::Other, 5.0, 0.0),
        ];
        assert_eq!(dominant_op(&units), OpClass::Prefill);
        assert_eq!(dominant_op(&units[..1]), OpClass::Decode);
    }

    #[test]
    fn empty_cta_is_empty() {
        let cta = CtaWork::empty(OpClass::Other);
        assert_eq!(cta.total_flops(), 0.0);
        assert!(cta.units[0].is_empty());
    }
}

//! The discrete-event contention engine.
//!
//! The engine advances simulated time in variable-length intervals. During
//! each interval the resource shares of every resident CTA are constant:
//!
//! * each SM's tensor-core throughput is divided equally among the resident
//!   work units on that SM that still have compute work (capped by
//!   [`MAX_CTA_COMPUTE_FRACTION`], modelling the fact that a
//!   single CTA cannot fully saturate an SM's tensor pipes);
//! * device HBM bandwidth is divided equally among all resident work units
//!   that still have memory work (capped by
//!   [`MAX_CTA_BANDWIDTH_FRACTION`], modelling per-SM
//!   load/store throughput limits).
//!
//! An interval ends when some unit drains one of its resource streams (which
//! changes everyone's shares) or a CTA completes and frees SM resources so
//! the hardware CTA scheduler can place queued CTAs. Wave quantization,
//! stragglers and the benefit of SM-level co-location all emerge from these
//! mechanics rather than being hard-coded.
//!
//! # The incremental active-set design
//!
//! Because every memory-hungry unit receives the *same* global bandwidth
//! share and every compute-hungry unit on one SM receives the *same* share of
//! that SM's tensor throughput, the drain order within a resource pool never
//! changes while the pool's membership is fixed. The engine exploits this:
//! each pool keeps a running "work drained per member" accumulator, and every
//! active stream is entered into a min-heap keyed by
//! `accumulator-at-entry + remaining-work`. The stream with the smallest key
//! is always the next to drain, so finding the end of an interval is a peek
//! into one global memory heap, one heap per SM with compute demand, and a
//! heap of pending barrier tails — instead of the full rescan of every
//! resident unit that a naive implementation performs four times per
//! interval. Per-unit work is attributed to kernels and op-classes once, at
//! drain time, which is exact because shares are piecewise constant.
//!
//! An SM's share, its total FLOP rate and its heap-top key change only when
//! its heap is pushed (a CTA lands) or popped (a stream drains), so each SM
//! keeps them in a flat `SmPool` refreshed at exactly those points, and a
//! bitset marks the SMs whose heap is non-empty. An interval walks only those
//! busy SMs, in ascending SM order, and touches an SM's heap only when its
//! cached top says something drains there. Skipping an idle SM skips no
//! arithmetic, and the busy SMs are visited in the order a scan of all SMs
//! would visit them, so the interval-`flops` sum, every accumulator and
//! every report field stay bit-identical to that scan. Op-class totals live
//! in a fixed array and become the report's map once, at the end of the run.
//!
//! # Run-length drain heaps
//!
//! Attention grids place long stretches of identical units in one fill: at
//! one instant every such unit gets the same memory key `mem_drained +
//! bytes`, and the units of a packed decode CTA share one compute key on
//! their SM. So each heap entry is a run, `(Key(key, first_uid), len)`: the
//! `len` consecutive unit ids from `first_uid`, all draining at `key`. Each
//! pool's demand (how many units share it) is a counter kept beside its
//! heap, no longer the heap's length.
//!
//! A unit extends the open run only if its id is the run's next id and its
//! key is bit-equal; otherwise the open run is pushed and a new one opens.
//! The open memory run is pushed before `fill` returns, and a CTA's open
//! compute run before `add_cta` returns, so the heaps are complete whenever
//! an interval reads them. A run's ids are therefore contiguous, and since a
//! unit enters each heap once, no other entry's ids fall inside a run. Two
//! units in the same run have the same key, and no entry sorts between
//! them, so popping runs in `(key, first_uid)` order and walking each run's
//! ids in ascending order visits units exactly in the `(key, uid)` order of
//! one entry per unit. Every per-unit update (`busy_*`, the kernel and
//! op-class sums, `maybe_finish_unit`) still runs once per unit, in that
//! order, so every report field is unchanged.
//!
//! # Incremental placement
//!
//! The CTA scheduler runs before every interval, but most intervals retire
//! no CTA. A kernel's placement loop in one fill stops only when it has
//! dispatched every CTA or a whole pass over the SMs placed nothing, so a
//! kernel still placing at the next fill was blocked on *every* SM when its
//! loop ended. Each test is `used + needed > limit` for threads, shared
//! memory, registers, the resident-CTA limit and the kernel's own cap, and
//! between two fills an SM's usage only grows, except on the SMs where
//! `retire_complete` released a CTA. Every other SM therefore still
//! rejects the kernel, and the fill tests only the released SMs for it. A
//! kernel activated in this fill has never been tested and sees every SM.
//! Both walk their candidates in the same rotated order from the cursor and
//! advance it once per pass, so every placement, every
//! [`CtaDispatcher::dispatch`](crate::CtaDispatcher::dispatch) call and the
//! cursor match a scan of all SMs exactly.

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::kernel::KernelLaunch;
use crate::metrics::{EnergyModel, ExecutionReport, KernelReport, OpClassReport};
use crate::sm::SmState;
use crate::stream::Stream;
use crate::work::{dominant_op, Footprint, OpClass, WorkUnit};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Work threshold below which remaining FLOPs/bytes are treated as drained.
const WORK_EPS: f64 = 1e-6;
/// Time threshold below which a tail delay is treated as elapsed.
const TIME_EPS: f64 = 1e-15;
/// Relative slack added to [`WORK_EPS`] when comparing against the running
/// drained-work accumulators, absorbing the rounding error the accumulators
/// pick up over many intervals. At the largest per-unit work the kernels
/// produce (~1e11) this is a tenth of a byte / FLOP — physically negligible.
const ACC_REL_EPS: f64 = 1e-12;

/// Maximum fraction of one SM's peak tensor throughput a single work unit
/// can consume. Models the issue-rate limit of one CTA.
pub const MAX_CTA_COMPUTE_FRACTION: f64 = 0.9;

/// Maximum fraction of device HBM bandwidth a single work unit can consume.
/// Models per-SM load/store and memory-level-parallelism limits.
pub const MAX_CTA_BANDWIDTH_FRACTION: f64 = 0.02;

/// Min-heap key: an `(f64, unit-id)` pair with a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64, usize);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// A drain-heap entry: the `len` consecutive unit ids from `key.1`, all
/// draining at `key.0` (see "Run-length drain heaps" in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Run {
    key: Key,
    len: usize,
}

/// Enter unit `uid`, draining at `tok`, into `open` if it directly follows
/// that run at a bit-equal key; otherwise push the open run onto `heap` and
/// open a new one.
fn enter_run(open: &mut Option<Run>, heap: &mut BinaryHeap<Reverse<Run>>, tok: f64, uid: usize) {
    if let Some(run) = open
        .as_mut()
        .filter(|r| r.key.0.to_bits() == tok.to_bits() && r.key.1 + r.len == uid)
    {
        run.len += 1;
    } else if let Some(done) = open.replace(Run {
        key: Key(tok, uid),
        len: 1,
    }) {
        heap.push(Reverse(done));
    }
}

/// One work unit resident on the device.
#[derive(Debug, Clone)]
struct UnitRec {
    cta: usize,
    op: OpClass,
    flops: f64,
    bytes: f64,
    serial_fraction: f64,
    start: f64,
    busy_compute: f64,
    busy_memory: f64,
    compute_pending: bool,
    mem_pending: bool,
    tail_scheduled: bool,
    done: bool,
}

/// Per-op-class totals in a flat array indexed by `OpClass as usize`, one
/// slot per variant; a class enters the report once anything is charged to
/// it.
#[derive(Debug, Default)]
struct OpTotals([Option<(OpClass, OpClassReport)>; 5]);

impl OpTotals {
    fn at(&mut self, op: OpClass) -> &mut OpClassReport {
        &mut self.0[op as usize]
            .get_or_insert((op, OpClassReport::default()))
            .1
    }

    fn into_map(self) -> BTreeMap<OpClass, OpClassReport> {
        self.0.into_iter().flatten().collect()
    }
}

/// One SM's compute pool: its drained-work accumulator, plus the per-unit
/// share, total FLOP rate and smallest pending drain key that hold until its
/// heap is next pushed or popped.
#[derive(Debug, Clone, Copy, Default)]
struct SmPool {
    /// FLOPs drained per compute-active unit on this SM.
    drained: f64,
    /// Compute-active units on this SM: the run lengths in its heap.
    demand: usize,
    /// `Shares::compute_share(demand)`.
    share: f64,
    /// `demand * share`.
    rate: f64,
    /// Key at the top of the SM's compute heap.
    top: f64,
}

/// One CTA resident on (or retired from) the device.
#[derive(Debug, Clone)]
struct CtaRec {
    kernel_id: usize,
    sm: usize,
    footprint: Footprint,
    dominant_op: OpClass,
    live_units: usize,
    retired: bool,
}

/// Incrementally-maintained state of everything currently executing: unit and
/// CTA slabs, per-pool drained-work accumulators, the drain-event heaps and
/// the per-op-class totals.
#[derive(Debug)]
struct ActiveSet {
    shares: Shares,
    units: Vec<UnitRec>,
    ctas: Vec<CtaRec>,
    /// Bytes drained per memory-active unit since the start of the run.
    mem_drained: f64,
    /// Per-SM compute pools, kept current by [`ActiveSet::sync_sm`].
    pools: Vec<SmPool>,
    /// Bitset of SMs with compute demand (a non-empty compute heap).
    busy: Vec<u64>,
    /// Pending compute drain runs per SM.
    compute_heaps: Vec<BinaryHeap<Reverse<Run>>>,
    /// Pending memory drain runs.
    mem_heap: BinaryHeap<Reverse<Run>>,
    /// Memory-active units device-wide: the run lengths in `mem_heap` and
    /// `mem_open`.
    mem_demand: usize,
    /// The memory run still growing in the current fill; pushed onto
    /// `mem_heap` by [`ActiveSet::close_mem_run`] before the fill returns.
    mem_open: Option<Run>,
    /// Pending barrier-tail expiries, keyed by absolute time.
    tail_heap: BinaryHeap<Reverse<Key>>,
    /// CTAs whose last unit finished, awaiting resource release.
    retire_queue: Vec<usize>,
    /// Dispatched but not yet retired CTAs.
    live_ctas: usize,
    op_classes: OpTotals,
}

/// The set bits of word `w` of a bitset, as ascending indices. The word is
/// copied, so the bitset may change while the bits are walked.
fn set_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

impl ActiveSet {
    fn new(num_sms: usize, shares: Shares) -> Self {
        ActiveSet {
            shares,
            units: Vec::new(),
            ctas: Vec::new(),
            mem_drained: 0.0,
            pools: vec![SmPool::default(); num_sms],
            busy: vec![0; num_sms.div_ceil(64)],
            compute_heaps: (0..num_sms).map(|_| BinaryHeap::new()).collect(),
            mem_heap: BinaryHeap::new(),
            mem_demand: 0,
            mem_open: None,
            tail_heap: BinaryHeap::new(),
            retire_queue: Vec::new(),
            live_ctas: 0,
            op_classes: OpTotals::default(),
        }
    }

    /// Refresh `sm`'s pool and busy bit after its compute heap changed.
    fn sync_sm(&mut self, sm: usize) {
        let bit = 1u64 << (sm % 64);
        match self.compute_heaps[sm].peek() {
            Some(&Reverse(Run {
                key: Key(tok, _), ..
            })) => {
                let pool = &mut self.pools[sm];
                pool.share = self.shares.compute_share(pool.demand);
                pool.rate = pool.demand as f64 * pool.share;
                pool.top = tok;
                self.busy[sm / 64] |= bit;
            }
            None => self.busy[sm / 64] &= !bit,
        }
    }

    /// Enter a freshly-dispatched CTA, performing `units`, into the active
    /// set. Its compute run is closed before returning; the memory run stays
    /// open for the next CTA of this fill.
    fn add_cta(
        &mut self,
        units: &[WorkUnit],
        kernel_id: usize,
        sm: usize,
        footprint: Footprint,
        dominant_op: OpClass,
        now: f64,
    ) {
        let cta_id = self.ctas.len();
        self.ctas.push(CtaRec {
            kernel_id,
            sm,
            footprint,
            dominant_op,
            live_units: units.len(),
            retired: false,
        });
        self.live_ctas += 1;
        self.op_classes.at(dominant_op).ctas += 1;
        let mut compute_open = None;
        for u in units {
            let uid = self.units.len();
            let mut rec = UnitRec {
                cta: cta_id,
                op: u.op,
                flops: u.flops,
                bytes: u.bytes,
                serial_fraction: u.serial_fraction,
                start: now,
                busy_compute: 0.0,
                busy_memory: 0.0,
                compute_pending: false,
                mem_pending: false,
                tail_scheduled: false,
                done: false,
            };
            if u.flops > WORK_EPS {
                rec.compute_pending = true;
                let pool = &mut self.pools[sm];
                pool.demand += 1;
                let tok = pool.drained + u.flops;
                enter_run(&mut compute_open, &mut self.compute_heaps[sm], tok, uid);
            }
            if u.bytes > WORK_EPS {
                rec.mem_pending = true;
                self.mem_demand += 1;
                let tok = self.mem_drained + u.bytes;
                enter_run(&mut self.mem_open, &mut self.mem_heap, tok, uid);
            }
            self.units.push(rec);
            self.maybe_finish_unit(uid, now);
        }
        if let Some(run) = compute_open {
            self.compute_heaps[sm].push(Reverse(run));
        }
        self.sync_sm(sm);
    }

    /// Push the open memory run onto the heap; called before a fill returns.
    fn close_mem_run(&mut self) {
        if let Some(run) = self.mem_open.take() {
            self.mem_heap.push(Reverse(run));
        }
    }

    /// If both resource streams of `uid` have drained, charge the
    /// barrier-induced serial tail; once it elapses the unit is done.
    fn maybe_finish_unit(&mut self, uid: usize, now: f64) {
        let u = &mut self.units[uid];
        if u.done || u.compute_pending || u.mem_pending || u.tail_scheduled {
            return;
        }
        let tail = u.serial_fraction * u.busy_compute.min(u.busy_memory);
        if tail <= TIME_EPS {
            u.done = true;
            let cta = u.cta;
            let c = &mut self.ctas[cta];
            c.live_units -= 1;
            if c.live_units == 0 {
                self.retire_queue.push(cta);
            }
        } else {
            u.tail_scheduled = true;
            self.tail_heap.push(Reverse(Key(now + tail, uid)));
        }
    }

    /// Time until the next drain/expiry event given the current shares, or
    /// `0.0` if nothing is pending (only instantly-complete CTAs remain).
    fn next_event_dt(&self, now: f64) -> f64 {
        debug_assert!(self.mem_open.is_none(), "memory run left open by the fill");
        let mut dt = f64::INFINITY;
        if let Some(&Reverse(Run {
            key: Key(tok, _), ..
        })) = self.mem_heap.peek()
        {
            let share = self.shares.mem_share(self.mem_demand);
            dt = dt.min((tok - self.mem_drained).max(0.0) / share);
        }
        for (w, &word) in self.busy.iter().enumerate() {
            for sm in set_bits(w, word) {
                let p = &self.pools[sm];
                dt = dt.min((p.top - p.drained).max(0.0) / p.share);
            }
        }
        if let Some(&Reverse(Key(t, _))) = self.tail_heap.peek() {
            dt = dt.min((t - now).max(0.0));
        }
        if dt.is_finite() {
            dt
        } else {
            0.0
        }
    }

    /// Advance all drained-work accumulators by `dt`, pop every stream/tail
    /// that drained by `now` (attributing the finished work to its kernel and
    /// op-class), and return the `(flops, bytes)` moved during the interval.
    ///
    /// One pass over the busy SMs, ascending: each SM's accumulator advances
    /// just before its heap is settled. Settling an SM touches no other SM's
    /// heap, so every share, and the SM-ordered `flops` sum, is what separate
    /// advance and settle passes over all SMs would compute.
    fn advance(&mut self, dt: f64, now: f64, kernels: &mut [KernelState]) -> (f64, f64) {
        let mut flops = 0.0;
        let mut bytes = 0.0;
        let m = self.mem_demand;
        if m > 0 {
            let share = self.shares.mem_share(m);
            self.mem_drained += share * dt;
            bytes = m as f64 * share * dt;
        }
        let mem_eps = WORK_EPS + self.mem_drained.abs() * ACC_REL_EPS;
        while let Some(&Reverse(Run {
            key: Key(tok, first),
            len,
        })) = self.mem_heap.peek()
        {
            if tok - self.mem_drained > mem_eps {
                break;
            }
            self.mem_heap.pop();
            self.mem_demand -= len;
            for uid in first..first + len {
                let u = &mut self.units[uid];
                u.mem_pending = false;
                u.busy_memory = now - u.start;
                kernels[self.ctas[u.cta].kernel_id].bytes += u.bytes;
                self.op_classes.at(u.op).bytes += u.bytes;
                self.maybe_finish_unit(uid, now);
            }
        }
        for w in 0..self.busy.len() {
            for sm in set_bits(w, self.busy[w]) {
                let p = &mut self.pools[sm];
                p.drained += p.share * dt;
                flops += p.rate * dt;
                let drained = p.drained;
                let eps = WORK_EPS + drained.abs() * ACC_REL_EPS;
                if p.top - drained > eps {
                    continue;
                }
                while let Some(&Reverse(Run {
                    key: Key(tok, first),
                    len,
                })) = self.compute_heaps[sm].peek()
                {
                    if tok - drained > eps {
                        break;
                    }
                    self.compute_heaps[sm].pop();
                    self.pools[sm].demand -= len;
                    for uid in first..first + len {
                        let u = &mut self.units[uid];
                        u.compute_pending = false;
                        u.busy_compute = now - u.start;
                        kernels[self.ctas[u.cta].kernel_id].flops += u.flops;
                        self.op_classes.at(u.op).flops += u.flops;
                        self.maybe_finish_unit(uid, now);
                    }
                }
                self.sync_sm(sm);
            }
        }
        while let Some(&Reverse(Key(t, uid))) = self.tail_heap.peek() {
            if t - now > TIME_EPS {
                break;
            }
            self.tail_heap.pop();
            let u = &mut self.units[uid];
            u.tail_scheduled = false;
            debug_assert!(!u.compute_pending && !u.mem_pending);
            u.done = true;
            let cta = u.cta;
            let c = &mut self.ctas[cta];
            c.live_units -= 1;
            if c.live_units == 0 {
                self.retire_queue.push(cta);
            }
        }
        (flops, bytes)
    }

    /// Release the resources of every CTA whose last unit finished.
    fn retire_complete(
        &mut self,
        now: f64,
        placement: &mut Placement,
        kernels: &mut [KernelState],
    ) {
        while let Some(cid) = self.retire_queue.pop() {
            let c = &mut self.ctas[cid];
            if c.retired {
                continue;
            }
            c.retired = true;
            placement.release(c.sm, &c.footprint, c.kernel_id);
            let ks = &mut kernels[c.kernel_id];
            ks.completed += 1;
            ks.end = now;
            let class = self.op_classes.at(c.dominant_op);
            class.finish_time = class.finish_time.max(now);
            self.live_ctas -= 1;
        }
    }
}

/// The hardware CTA scheduler's view of the device: what each SM holds, where
/// the next placement pass starts, and which SMs freed resources since the
/// last [`Engine::fill`].
#[derive(Debug)]
struct Placement {
    sms: Vec<SmState>,
    /// SM at which the next placement pass starts; advances by one per pass.
    cursor: usize,
    /// Every SM id, ascending: where a kernel activated in this `fill` may fit.
    all: Vec<usize>,
    /// SMs that released a CTA since the last `fill` (ascending and
    /// deduplicated once `fill` starts placing): the only SMs where a kernel
    /// that was already blocked can fit now.
    released: Vec<usize>,
    /// The units of the CTA being dispatched, reused for every CTA.
    units: Vec<WorkUnit>,
}

impl Placement {
    fn new(num_sms: usize) -> Self {
        Placement {
            sms: vec![SmState::default(); num_sms],
            cursor: 0,
            all: (0..num_sms).collect(),
            released: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Return one CTA's resources to `sm` and mark the SM for the next fill.
    fn release(&mut self, sm: usize, footprint: &Footprint, kernel_id: usize) {
        self.sms[sm].release(footprint, kernel_id);
        self.released.push(sm);
    }
}

/// Resource shares in effect for one interval, derived from the device peaks
/// and the per-unit caps.
#[derive(Debug, Clone, Copy)]
struct Shares {
    sm_peak: f64,
    compute_cap: f64,
    hbm: f64,
    mem_cap: f64,
}

impl Shares {
    fn compute_share(&self, demand: usize) -> f64 {
        (self.sm_peak / demand as f64).min(self.compute_cap)
    }

    fn mem_share(&self, demand: usize) -> f64 {
        (self.hbm / demand as f64).min(self.mem_cap)
    }
}

#[derive(Debug)]
struct KernelState {
    /// Interned kernel id; cloned cheaply wherever the engine needs the name.
    name: Arc<str>,
    footprint: Footprint,
    cap: Option<usize>,
    dispatched: usize,
    completed: usize,
    fully_dispatched: bool,
    start: Option<f64>,
    end: f64,
    flops: f64,
    bytes: f64,
}

/// The GPU simulator.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CtaWork, Engine, Footprint, GpuConfig, KernelLaunch, OpClass};
///
/// let gpu = GpuConfig::a100_80gb();
/// // A compute-heavy kernel: one wave of CTAs, 1 GFLOP each.
/// let kernel = KernelLaunch::from_ctas(
///     "compute",
///     Footprint::new(128, 64 * 1024),
///     vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e3); 216],
/// );
/// let report = Engine::new(gpu).run_kernel(kernel)?;
/// assert!(report.compute_utilization() > 0.5);
/// assert!(report.memory_utilization() < 0.05);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    gpu: GpuConfig,
}

impl Engine {
    /// Create an engine for the given device.
    pub fn new(gpu: GpuConfig) -> Self {
        Engine { gpu }
    }

    /// The device this engine simulates.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Convenience: run a single kernel on its own stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the kernel cannot be scheduled (see
    /// [`Engine::run`]).
    pub fn run_kernel(&self, kernel: KernelLaunch) -> Result<ExecutionReport, SimError> {
        self.run(vec![Stream::with_kernel("stream0", kernel)])
    }

    /// Convenience: run kernels back-to-back on one stream (serial execution).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any kernel cannot be scheduled.
    pub fn run_serial(&self, kernels: Vec<KernelLaunch>) -> Result<ExecutionReport, SimError> {
        let mut s = Stream::new("serial");
        for k in kernels {
            s.push(k);
        }
        self.run(vec![s])
    }

    /// Convenience: run each kernel on its own stream (kernel-parallel
    /// execution via CUDA streams).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any kernel cannot be scheduled.
    pub fn run_concurrent(&self, kernels: Vec<KernelLaunch>) -> Result<ExecutionReport, SimError> {
        let streams = kernels
            .into_iter()
            .enumerate()
            .map(|(i, k)| Stream::with_kernel(&format!("stream{i}"), k))
            .collect();
        self.run(streams)
    }

    /// Simulate the execution of the given streams to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CtaTooLarge`] if a kernel's per-CTA footprint
    /// exceeds one SM, or [`SimError::Stalled`] if a launch configuration
    /// (e.g. a per-SM CTA cap of zero) prevents any progress.
    pub fn run(&self, streams: Vec<Stream>) -> Result<ExecutionReport, SimError> {
        let mut streams = streams;
        let num_sms = self.gpu.num_sms;
        let mut placement = Placement::new(num_sms);
        let mut kernels: Vec<KernelState> = Vec::new();
        let mut head_kernel: Vec<Option<usize>> = vec![None; streams.len()];
        let mut time = 0.0_f64;

        let energy_model = EnergyModel::new(&self.gpu);
        let mut energy = 0.0_f64;
        let mut total_flops = 0.0_f64;
        let mut total_bytes = 0.0_f64;
        let mut total_ctas = 0usize;
        let mut intervals = 0usize;

        let shares = Shares {
            sm_peak: self.gpu.sm_compute_flops(),
            compute_cap: MAX_CTA_COMPUTE_FRACTION * self.gpu.sm_compute_flops(),
            hbm: self.gpu.hbm_bandwidth,
            mem_cap: MAX_CTA_BANDWIDTH_FRACTION * self.gpu.hbm_bandwidth,
        };
        let mut active = ActiveSet::new(num_sms, shares);

        loop {
            self.fill(
                &mut streams,
                &mut head_kernel,
                &mut kernels,
                &mut placement,
                &mut active,
                &mut total_ctas,
                time,
            )?;

            // Kernels with zero CTAs (or whose CTAs were all instantly
            // complete) finish without ever executing; pop them so the next
            // kernel in their stream can start.
            if Self::pop_finished(&mut streams, &mut head_kernel, &kernels) {
                continue;
            }

            if active.live_ctas == 0 {
                if streams.iter().all(Stream::is_empty) {
                    break;
                }
                // Work remains but nothing could be placed and nothing is
                // running: the configuration can never make progress.
                let name = streams
                    .iter()
                    .find_map(|s| s.head().map(|k| k.name.clone()))
                    .unwrap_or_else(|| "<unknown>".to_string());
                return Err(SimError::Stalled { kernel: name });
            }

            // --- advance to the next drain/expiry event, settle drained
            // streams and expired tails, release completed CTAs ---
            let dt = active.next_event_dt(time);
            time += dt;
            let (interval_flops, interval_bytes) = active.advance(dt, time, &mut kernels);
            intervals += 1;
            energy += energy_model.interval_energy(dt, interval_flops, interval_bytes);
            total_flops += interval_flops;
            total_bytes += interval_bytes;
            active.retire_complete(time, &mut placement, &mut kernels);

            // --- pop finished kernels off their streams ---
            Self::pop_finished(&mut streams, &mut head_kernel, &kernels);
        }
        debug_assert!(
            active.mem_demand == 0 && active.pools.iter().all(|p| p.demand == 0),
            "drain demand left after the last interval"
        );

        let kernel_reports = kernels
            .into_iter()
            .map(|k| KernelReport {
                name: k.name.as_ref().to_owned(),
                start: k.start.unwrap_or(0.0),
                end: k.end,
                ctas: k.dispatched,
                flops: k.flops,
                bytes: k.bytes,
            })
            .collect();

        Ok(ExecutionReport {
            makespan: time,
            total_flops,
            total_bytes,
            energy_joules: energy,
            kernels: kernel_reports,
            op_classes: active.op_classes.into_map(),
            peak_flops: self.gpu.tensor_flops,
            peak_bandwidth: self.gpu.hbm_bandwidth,
            total_ctas,
            intervals,
        })
    }

    /// Pop every stream whose head kernel has fully dispatched and completed
    /// all of its CTAs. Returns true if any kernel was popped.
    fn pop_finished(
        streams: &mut [Stream],
        head_kernel: &mut [Option<usize>],
        kernels: &[KernelState],
    ) -> bool {
        let mut popped = false;
        for (si, stream) in streams.iter_mut().enumerate() {
            if let Some(kid) = head_kernel[si] {
                let ks = &kernels[kid];
                if ks.fully_dispatched && ks.completed == ks.dispatched {
                    stream.pop_head();
                    head_kernel[si] = None;
                    popped = true;
                }
            }
        }
        popped
    }

    /// Activate stream heads and place as many pending CTAs as fit, in
    /// submission-priority order, breadth-first across SMs.
    ///
    /// A kernel activated here tests every SM; a kernel that was already
    /// placing at the previous fill tests only the SMs released since then
    /// (see "Incremental placement" in the module docs).
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
        streams: &mut [Stream],
        head_kernel: &mut [Option<usize>],
        kernels: &mut Vec<KernelState>,
        placement: &mut Placement,
        active: &mut ActiveSet,
        total_ctas: &mut usize,
        time: f64,
    ) -> Result<(), SimError> {
        let num_sms = self.gpu.num_sms;
        let first_new = kernels.len();

        // Activate the head kernel of every stream that does not have one.
        for si in 0..streams.len() {
            if head_kernel[si].is_some() {
                continue;
            }
            if let Some(head) = streams[si].head() {
                if self
                    .gpu
                    .occupancy(head.footprint.shared_mem, head.footprint.threads)
                    == 0
                {
                    return Err(SimError::CtaTooLarge {
                        kernel: head.name.clone(),
                        shared_mem: head.footprint.shared_mem,
                        threads: head.footprint.threads,
                    });
                }
                if head.max_ctas_per_sm == Some(0) && head.remaining() > 0 {
                    return Err(SimError::Stalled {
                        kernel: head.name.clone(),
                    });
                }
                kernels.push(KernelState {
                    name: Arc::from(head.name.as_str()),
                    footprint: head.footprint,
                    cap: head.max_ctas_per_sm,
                    dispatched: 0,
                    completed: 0,
                    fully_dispatched: head.remaining() == 0,
                    start: None,
                    end: time,
                    flops: 0.0,
                    bytes: 0.0,
                });
                head_kernel[si] = Some(kernels.len() - 1);
            }
        }

        // Placement: streams are visited in submission order and each head
        // kernel places as many CTAs as currently fit — breadth-first across
        // SMs, one per SM per pass — before the next stream gets a chance.
        // This mirrors the hardware CTA scheduler's launch-order priority:
        // a later kernel only receives SMs the earlier kernels left idle,
        // which is why CUDA streams alone do not guarantee SM-level
        // co-location (§3.1 of the paper).
        placement.released.sort_unstable();
        placement.released.dedup();
        for si in 0..streams.len() {
            let Some(kid) = head_kernel[si] else { continue };
            if kernels[kid].fully_dispatched {
                continue;
            }
            let footprint = kernels[kid].footprint;
            let cap = kernels[kid].cap;
            let head = streams[si]
                .head_mut()
                .expect("active head kernel missing from stream");
            let candidates = if kid >= first_new {
                &placement.all
            } else {
                &placement.released
            };
            loop {
                let mut placed_any = false;
                // The candidates from the cursor up, then wrapping around.
                let split = candidates.partition_point(|&sm| sm < placement.cursor);
                for &sm_id in candidates[split..].iter().chain(&candidates[..split]) {
                    if head.remaining() == 0 {
                        break;
                    }
                    let sm = &mut placement.sms[sm_id];
                    if sm.can_fit(&self.gpu, &footprint, kid, cap) {
                        placement.units.clear();
                        head.dispatcher.dispatch(sm_id, &mut placement.units);
                        sm.allocate(&footprint, kid);
                        let units = &placement.units;
                        active.add_cta(units, kid, sm_id, footprint, dominant_op(units), time);
                        let ks = &mut kernels[kid];
                        ks.dispatched += 1;
                        *total_ctas += 1;
                        if ks.start.is_none() {
                            ks.start = Some(time);
                        }
                        placed_any = true;
                    }
                }
                placement.cursor = (placement.cursor + 1) % num_sms;
                if head.remaining() == 0 {
                    kernels[kid].fully_dispatched = true;
                    break;
                }
                if !placed_any {
                    break;
                }
            }
        }
        active.close_mem_run();
        placement.released.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::CtaWork;

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    /// One wave of purely compute-bound CTAs should run at high compute
    /// utilization and take roughly total_flops / peak.
    #[test]
    fn compute_bound_kernel_saturates_compute() {
        let g = gpu();
        let per_cta = 1e9;
        let n = 216; // two CTAs per SM
        let kernel = KernelLaunch::from_ctas(
            "compute",
            Footprint::new(128, 64 * 1024),
            vec![CtaWork::single(OpClass::ComputeBound, per_cta, 1e3); n],
        );
        let report = Engine::new(g.clone()).run_kernel(kernel).unwrap();
        let ideal = n as f64 * per_cta / g.tensor_flops;
        assert!(report.makespan >= ideal);
        assert!(
            report.makespan < ideal * 1.3,
            "makespan {} vs ideal {}",
            report.makespan,
            ideal
        );
        assert!(report.compute_utilization() > 0.75);
        assert!(report.memory_utilization() < 0.05);
    }

    /// A memory-bound kernel with plenty of CTAs should saturate bandwidth.
    #[test]
    fn memory_bound_kernel_saturates_bandwidth() {
        let g = gpu();
        let per_cta_bytes = 20e6;
        let n = 216;
        let kernel = KernelLaunch::from_ctas(
            "memory",
            Footprint::new(128, 64 * 1024),
            vec![CtaWork::single(OpClass::MemoryBound, 1e3, per_cta_bytes); n],
        );
        let report = Engine::new(g.clone()).run_kernel(kernel).unwrap();
        let ideal = n as f64 * per_cta_bytes / g.hbm_bandwidth;
        assert!(report.makespan >= ideal);
        assert!(report.makespan < ideal * 1.3);
        assert!(report.memory_utilization() > 0.75);
        assert!(report.compute_utilization() < 0.05);
    }

    /// Serial execution of a compute-bound and a memory-bound kernel takes
    /// roughly the sum; running them fused with SM co-location approaches the
    /// max. This is the core premise of the paper.
    #[test]
    fn colocated_fusion_beats_serial() {
        let g = gpu();
        let compute_ctas = vec![CtaWork::single(OpClass::ComputeBound, 2e9, 1e3); 108];
        let memory_ctas = vec![CtaWork::single(OpClass::MemoryBound, 1e3, 40e6); 108];
        let fp = Footprint::new(128, 64 * 1024);

        let engine = Engine::new(g);
        let serial = engine
            .run_serial(vec![
                KernelLaunch::from_ctas("c", fp, compute_ctas.clone()),
                KernelLaunch::from_ctas("m", fp, memory_ctas.clone()),
            ])
            .unwrap();

        // Fused: all compute CTAs followed by all memory CTAs in one kernel.
        // Breadth-first placement then gives every SM one CTA of each kind,
        // i.e. guaranteed SM-level co-location.
        let mut fused = Vec::new();
        fused.extend(compute_ctas.iter().cloned());
        fused.extend(memory_ctas.iter().cloned());
        let fused_report = engine
            .run_kernel(KernelLaunch::from_ctas("fused", fp, fused))
            .unwrap();

        assert!(
            fused_report.makespan < serial.makespan * 0.8,
            "fused {} vs serial {}",
            fused_report.makespan,
            serial.makespan
        );
    }

    /// Wave quantization: 217 CTAs at 2 CTAs/SM occupancy on 108 SMs needs a
    /// third wave for the single leftover CTA, so it takes measurably longer
    /// than 216 CTAs even though the extra work is negligible.
    #[test]
    fn wave_quantization_emerges() {
        let g = gpu();
        let fp = Footprint::new(128, 80 * 1024); // occupancy 2
        let make = |n: usize| {
            KernelLaunch::from_ctas(
                "k",
                fp,
                vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e3); n],
            )
        };
        let engine = Engine::new(g);
        let t216 = engine.run_kernel(make(216)).unwrap().makespan;
        let t217 = engine.run_kernel(make(217)).unwrap().makespan;
        assert!(
            t217 > t216 * 1.3,
            "expected wave quantization penalty: {t216} vs {t217}"
        );
    }

    /// Streams only overlap kernels when the first leaves SMs idle.
    #[test]
    fn streams_overlap_at_the_tail() {
        let g = gpu();
        let fp = Footprint::new(128, 80 * 1024);
        let a = vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e3); 220];
        let b = vec![CtaWork::single(OpClass::MemoryBound, 1e3, 30e6); 220];
        let engine = Engine::new(g);
        let serial = engine
            .run_serial(vec![
                KernelLaunch::from_ctas("a", fp, a.clone()),
                KernelLaunch::from_ctas("b", fp, b.clone()),
            ])
            .unwrap()
            .makespan;
        let streams = engine
            .run_concurrent(vec![
                KernelLaunch::from_ctas("a", fp, a),
                KernelLaunch::from_ctas("b", fp, b),
            ])
            .unwrap()
            .makespan;
        assert!(streams <= serial);
        // But the overlap is limited: far from the ideal max().
        assert!(streams > serial * 0.55);
    }

    /// A fused (multi-unit) CTA holds its resources until the slowest unit
    /// finishes — the straggler problem of warp-parallel fusion.
    #[test]
    fn fused_cta_straggler_holds_resources() {
        let g = gpu();
        let fp = Footprint::new(256, 100 * 1024); // occupancy 1
                                                  // 108 fused CTAs: a fast memory unit + a slow compute unit.
        let fused: Vec<CtaWork> = (0..108)
            .map(|_| {
                CtaWork::fused(vec![
                    WorkUnit::new(OpClass::Prefill, 5e9, 1e3),
                    WorkUnit::new(OpClass::Decode, 1e3, 1e6),
                ])
            })
            .collect();
        // Followed by another compute kernel that must wait for stragglers.
        let tail = vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e3); 108];
        let engine = Engine::new(g.clone());
        let report = engine
            .run_serial(vec![
                KernelLaunch::from_ctas("fused", fp, fused),
                KernelLaunch::from_ctas("tail", fp, tail),
            ])
            .unwrap();
        // The fused kernel's duration is governed by the slow compute unit.
        let fused_k = report.kernel("fused").unwrap();
        let min_compute = 5e9 / (g.sm_compute_flops() * 0.9);
        assert!(fused_k.duration() >= min_compute * 0.99);
    }

    #[test]
    fn too_large_cta_is_an_error() {
        let g = gpu();
        let kernel = KernelLaunch::from_ctas(
            "huge",
            Footprint::new(128, 512 * 1024),
            vec![CtaWork::single(OpClass::Other, 1.0, 1.0)],
        );
        let err = Engine::new(g).run_kernel(kernel).unwrap_err();
        assert!(matches!(err, SimError::CtaTooLarge { .. }));
    }

    #[test]
    fn zero_cap_is_a_stall_error() {
        let g = gpu();
        let kernel = KernelLaunch::from_ctas(
            "capped",
            Footprint::new(128, 1024),
            vec![CtaWork::single(OpClass::Other, 1.0, 1.0)],
        )
        .limit_ctas_per_sm(0);
        let err = Engine::new(g).run_kernel(kernel).unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }));
    }

    #[test]
    fn empty_submission_finishes_instantly() {
        let g = gpu();
        let report = Engine::new(g).run(vec![Stream::new("empty")]).unwrap();
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.total_ctas, 0);
        assert_eq!(report.intervals, 0);
    }

    #[test]
    fn kernel_with_no_ctas_completes() {
        let g = gpu();
        let report = Engine::new(g)
            .run_kernel(KernelLaunch::from_ctas(
                "noop",
                Footprint::default(),
                vec![],
            ))
            .unwrap();
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.kernels.len(), 1);
    }

    #[test]
    fn work_is_conserved() {
        let g = gpu();
        let ctas = vec![CtaWork::single(OpClass::Prefill, 3e8, 4e5); 50];
        let expected_flops: f64 = ctas.iter().map(CtaWork::total_flops).sum();
        let expected_bytes: f64 = ctas.iter().map(CtaWork::total_bytes).sum();
        let report = Engine::new(g)
            .run_kernel(KernelLaunch::from_ctas("k", Footprint::default(), ctas))
            .unwrap();
        assert!((report.total_flops - expected_flops).abs() / expected_flops < 1e-6);
        assert!((report.total_bytes - expected_bytes).abs() / expected_bytes < 1e-6);
        assert_eq!(report.total_ctas, 50);
    }

    /// Per-kernel and per-op-class attributions also conserve work.
    #[test]
    fn attribution_is_conserved_per_kernel_and_class() {
        let g = gpu();
        let prefill = vec![CtaWork::single(OpClass::Prefill, 3e8, 4e5); 40];
        let decode = vec![CtaWork::single(OpClass::Decode, 1e5, 2e6); 60];
        let fp = Footprint::default();
        let report = Engine::new(g)
            .run_serial(vec![
                KernelLaunch::from_ctas("p", fp, prefill),
                KernelLaunch::from_ctas("d", fp, decode),
            ])
            .unwrap();
        let p = report.kernel("p").unwrap();
        let d = report.kernel("d").unwrap();
        assert!((p.flops - 40.0 * 3e8).abs() / (40.0 * 3e8) < 1e-9);
        assert!((d.bytes - 60.0 * 2e6).abs() / (60.0 * 2e6) < 1e-9);
        let pc = report.op_class(OpClass::Prefill).unwrap();
        assert!((pc.bytes - 40.0 * 4e5).abs() / (40.0 * 4e5) < 1e-9);
        assert_eq!(pc.ctas, 40);
        assert!(report.intervals > 0);
    }

    #[test]
    fn per_kernel_cap_reduces_concurrency() {
        let g = gpu();
        let fp = Footprint::new(128, 16 * 1024); // occupancy 10
        let ctas = vec![CtaWork::single(OpClass::ComputeBound, 1e9, 1e3); 216];
        let engine = Engine::new(g);
        let free = engine
            .run_kernel(KernelLaunch::from_ctas("free", fp, ctas.clone()))
            .unwrap()
            .makespan;
        let capped = engine
            .run_kernel(KernelLaunch::from_ctas("capped", fp, ctas).limit_ctas_per_sm(1))
            .unwrap()
            .makespan;
        // With a cap of 1 CTA/SM and a per-CTA compute cap below 100%, the
        // kernel cannot use the full SM, so it is slower.
        assert!(capped > free * 1.05);
    }

    #[test]
    fn serial_fraction_adds_tail_latency() {
        let g = gpu();
        let fp = Footprint::new(128, 64 * 1024);
        let pipelined = vec![CtaWork::single(OpClass::Other, 2e9, 20e6); 108];
        let serialized: Vec<CtaWork> = (0..108)
            .map(|_| CtaWork {
                units: vec![WorkUnit::new(OpClass::Other, 2e9, 20e6).with_serial_fraction(1.0)],
            })
            .collect();
        let engine = Engine::new(g);
        let t_pipe = engine
            .run_kernel(KernelLaunch::from_ctas("p", fp, pipelined))
            .unwrap()
            .makespan;
        let t_serial = engine
            .run_kernel(KernelLaunch::from_ctas("s", fp, serialized))
            .unwrap()
            .makespan;
        assert!(t_serial > t_pipe * 1.1, "{t_serial} vs {t_pipe}");
    }

    /// Two streams whose units tie on one key: in the first fill kernel `a`
    /// places one two-unit CTA per SM, then `b` one one-unit CTA per SM, all
    /// units alike. Every SM's heap holds `a`'s two-unit run and `b`'s unit
    /// at one compute key, and the memory heap one run across both kernels'
    /// interleaved id ranges. Each SM splits its tensor throughput three
    /// ways, HBM is split 324 ways, and every unit finishes when the slower
    /// side drains.
    #[test]
    fn tied_runs_from_two_streams_match_the_hand_worked_case() {
        let g = gpu();
        let flops = (1u64 << 30) as f64;
        let bytes = (1u64 << 22) as f64;
        let unit = WorkUnit::new(OpClass::Other, flops, bytes);
        let fp = Footprint::new(128, 48 * 1024);
        let n = g.num_sms;
        let a = KernelLaunch::from_ctas("a", fp, vec![CtaWork::fused(vec![unit; 2]); n])
            .limit_ctas_per_sm(1);
        let b = KernelLaunch::from_ctas("b", fp, vec![CtaWork::fused(vec![unit]); n])
            .limit_ctas_per_sm(1);
        let report = Engine::new(g.clone()).run_concurrent(vec![a, b]).unwrap();

        let compute_share =
            (g.sm_compute_flops() / 3.0).min(MAX_CTA_COMPUTE_FRACTION * g.sm_compute_flops());
        let mem_share =
            (g.hbm_bandwidth / (3 * n) as f64).min(MAX_CTA_BANDWIDTH_FRACTION * g.hbm_bandwidth);
        let end = (flops / compute_share).max(bytes / mem_share);
        for (name, units) in [("a", 2 * n), ("b", n)] {
            let k = report.kernel(name).unwrap();
            assert_eq!(k.flops, units as f64 * flops, "{name} flops");
            assert_eq!(k.bytes, units as f64 * bytes, "{name} bytes");
            assert!(
                (k.end - end).abs() <= end * 1e-12,
                "{name} end {} vs {end}",
                k.end
            );
            assert_eq!(k.ctas, n);
        }
        assert_eq!(report.intervals, 2);
    }

    fn active_set() -> ActiveSet {
        let g = gpu();
        ActiveSet::new(
            g.num_sms,
            Shares {
                sm_peak: g.sm_compute_flops(),
                compute_cap: MAX_CTA_COMPUTE_FRACTION * g.sm_compute_flops(),
                hbm: g.hbm_bandwidth,
                mem_cap: MAX_CTA_BANDWIDTH_FRACTION * g.hbm_bandwidth,
            },
        )
    }

    fn mem_runs(active: &ActiveSet) -> Vec<(usize, usize)> {
        let mut runs: Vec<_> = active
            .mem_heap
            .iter()
            .map(|Reverse(r)| (r.key.1, r.len))
            .collect();
        runs.sort_unstable();
        runs
    }

    /// Units extend a run only with the next id at a bit-equal key; a
    /// packed CTA's units form one compute run; and the memory run is
    /// closed at the end of a fill, so a unit with the same key and the
    /// next id in the next fill opens a run of its own.
    #[test]
    fn runs_extend_only_within_a_fill() {
        let mut active = active_set();
        let unit = WorkUnit::new(OpClass::Decode, 1e3, 1e6);
        let other = WorkUnit::new(OpClass::Decode, 1e3, 2e6);
        let fp = Footprint::default();
        active.add_cta(&[unit, unit], 0, 0, fp, OpClass::Decode, 0.0);
        active.add_cta(&[unit], 0, 1, fp, OpClass::Decode, 0.0);
        active.add_cta(&[other], 0, 2, fp, OpClass::Decode, 0.0);
        active.add_cta(&[unit], 0, 3, fp, OpClass::Decode, 0.0);
        // Until the fill closes it, the open run is not in the heap.
        assert_eq!(mem_runs(&active), [(0, 3), (3, 1)]);
        assert_eq!(active.mem_demand, 5);
        active.close_mem_run();
        assert_eq!(mem_runs(&active), [(0, 3), (3, 1), (4, 1)]);
        // The next fill: same key, next id, new run.
        active.add_cta(&[unit], 0, 4, fp, OpClass::Decode, 0.0);
        active.close_mem_run();
        assert_eq!(mem_runs(&active), [(0, 3), (3, 1), (4, 1), (5, 1)]);
        assert_eq!(active.mem_demand, 6);
        // SM 0 holds one compute run of the packed CTA's two units.
        let sm0: Vec<_> = active.compute_heaps[0]
            .iter()
            .map(|Reverse(r)| r.len)
            .collect();
        assert_eq!(sm0, [2]);
        assert_eq!(active.pools[0].demand, 2);
    }

    #[test]
    fn energy_increases_with_runtime() {
        let g = gpu();
        let fp = Footprint::default();
        let small = vec![CtaWork::single(OpClass::ComputeBound, 1e8, 1e3); 108];
        let large = vec![CtaWork::single(OpClass::ComputeBound, 1e10, 1e3); 108];
        let engine = Engine::new(g);
        let e_small = engine
            .run_kernel(KernelLaunch::from_ctas("s", fp, small))
            .unwrap()
            .energy_joules;
        let e_large = engine
            .run_kernel(KernelLaunch::from_ctas("l", fp, large))
            .unwrap()
            .energy_joules;
        assert!(e_large > e_small);
    }
}

//! A reference CTA simulator, run against `gpu_sim::Engine` on random
//! launches.
//!
//! [`Reference`] is the engine's model written the obvious way, from the
//! public API alone. Every interval it scans every SM, advances the
//! drained-work accumulator of every busy pool (one per SM for tensor
//! throughput, one for HBM) and tests every pending unit, each pool keeping a
//! plain `Vec` of `(key, unit)` entries. It places CTAs with the same
//! rotating-cursor scan, over every SM for every kernel, settles units with
//! the same work-space epsilon rule, and takes its totals from drained
//! units. It has none of the engine's host optimizations: no incremental
//! placement, cached shares, run-length heaps, lazy per-SM clocks or reused
//! run state.
//!
//! Each case builds its launches twice with one builder, one copy per
//! simulator, and wraps every dispatcher so both sides log each
//! `(launch, SM)` dispatch. Dispatch logs, errors and integer fields must be
//! equal, and every float within 1e-12 relative: the engine's lazy clocks
//! associate the same sums differently, and units whose drain keys tie to
//! within rounding may drain in either order, which moves work totals in
//! the last bits.

use attn_kernels::{
    AttentionConfig, AttentionStrategy, BatchedPrefillKernel, DecodeKernel, DecodeRequest,
    HybridBatch, PrefillChunk, PrefillKernel,
};
use fusion_lab::{fuse_operations_warp_parallel, HybridAttentionRunner, Operation};
use gpu_sim::{
    CtaDispatcher, CtaWork, Engine, ExecutionReport, Footprint, GpuConfig, KernelLaunch,
    KernelReport, OpClass, OpClassReport, SimError, Stream, UnitRuns, WorkUnit,
    MAX_CTA_BANDWIDTH_FRACTION, MAX_CTA_COMPUTE_FRACTION,
};
use llm_serving::SplitMix64;
use pod_attention::PodAttention;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Remaining work at or below this is drained.
const WORK_EPS: f64 = 1e-6;
/// A tail at or below this has elapsed.
const TIME_EPS: f64 = 1e-15;
/// Relative slack on [`WORK_EPS`], scaled by the pool's accumulator.
const ACC_REL_EPS: f64 = 1e-12;
/// Bound on the relative difference of every time and energy field.
const REL: f64 = 1e-12;

/// One work unit: what it does, where it stands and when it started.
struct Unit {
    kernel: usize,
    cta: usize,
    work: WorkUnit,
    start: f64,
    busy_compute: f64,
    busy_memory: f64,
    compute_pending: bool,
    mem_pending: bool,
    tail_scheduled: bool,
    done: bool,
}

struct Cta {
    kernel: usize,
    sm: usize,
    op: OpClass,
    live_units: usize,
}

/// One resource pool: the work drained per member, and each member's drain
/// key (the accumulator when it entered plus its work).
#[derive(Default)]
struct Pool {
    drained: f64,
    entries: Vec<(f64, usize)>,
}

impl Pool {
    /// Advance the accumulator by one interval at `share` per member.
    fn advance(&mut self, share: impl Fn(usize) -> f64, dt: f64) {
        if !self.entries.is_empty() {
            self.drained += share(self.entries.len()) * dt;
        }
    }

    /// The time until the first member drains at `share` per member.
    fn next_drain(&self, share: impl Fn(usize) -> f64) -> f64 {
        let top = self
            .entries
            .iter()
            .map(|e| e.0)
            .fold(f64::INFINITY, f64::min);
        (top - self.drained).max(0.0) / share(self.entries.len())
    }

    /// Remove and return the drained members in `(key, unit)` order.
    fn take_drained(&mut self) -> Vec<usize> {
        let eps = WORK_EPS + self.drained.abs() * ACC_REL_EPS;
        let drained = self.drained;
        if self.entries.iter().all(|e| e.0 - drained > eps) {
            return Vec::new();
        }
        let (mut out, keep): (Vec<_>, Vec<_>) =
            self.entries.iter().partition(|e| e.0 - drained <= eps);
        self.entries = keep;
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.into_iter().map(|e| e.1).collect()
    }
}

/// What one SM holds.
#[derive(Default)]
struct Sm {
    threads: usize,
    shared_mem: usize,
    registers: usize,
    resident: usize,
    /// Resident CTAs per kernel id.
    per_kernel: Vec<usize>,
}

struct Kernel {
    name: String,
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

/// The reference simulator's state for one run.
struct Reference {
    gpu: GpuConfig,
    kernels: Vec<Kernel>,
    units: Vec<Unit>,
    ctas: Vec<Cta>,
    /// The CTAs not yet retired.
    live: Vec<usize>,
    sms: Vec<Sm>,
    compute: Vec<Pool>,
    memory: Pool,
    /// `(end, unit)` for every serial tail still running.
    tails: Vec<(f64, usize)>,
    op_classes: BTreeMap<OpClass, OpClassReport>,
    cursor: usize,
    total_ctas: usize,
}

/// Each compute-active unit's share of one SM's tensor throughput.
fn compute_share(gpu: &GpuConfig, demand: usize) -> f64 {
    let peak = gpu.sm_compute_flops();
    (peak / demand as f64).min(MAX_CTA_COMPUTE_FRACTION * peak)
}

/// Each memory-active unit's share of HBM bandwidth.
fn mem_share(gpu: &GpuConfig, demand: usize) -> f64 {
    let hbm = gpu.hbm_bandwidth;
    (hbm / demand as f64).min(MAX_CTA_BANDWIDTH_FRACTION * hbm)
}

impl Reference {
    /// Simulate `streams`, each an in-order list of launches.
    fn run(gpu: &GpuConfig, streams: Vec<Vec<KernelLaunch>>) -> Result<ExecutionReport, SimError> {
        let mut sim = Reference {
            gpu: gpu.clone(),
            kernels: Vec::new(),
            units: Vec::new(),
            ctas: Vec::new(),
            live: Vec::new(),
            sms: (0..gpu.num_sms).map(|_| Sm::default()).collect(),
            compute: (0..gpu.num_sms).map(|_| Pool::default()).collect(),
            memory: Pool::default(),
            tails: Vec::new(),
            op_classes: BTreeMap::new(),
            cursor: 0,
            total_ctas: 0,
        };
        let mut streams: Vec<VecDeque<KernelLaunch>> =
            streams.into_iter().map(VecDeque::from).collect();
        let mut heads: Vec<Option<usize>> = vec![None; streams.len()];
        let (mut time, mut intervals) = (0.0, 0);
        loop {
            sim.fill(&mut streams, &mut heads, time)?;
            if sim.pop_finished(&mut streams, &mut heads) {
                continue;
            }
            if sim.live.is_empty() {
                if streams.iter().all(VecDeque::is_empty) {
                    break;
                }
                let head = streams.iter().find_map(VecDeque::front).unwrap();
                return Err(SimError::Stalled {
                    kernel: head.name.clone(),
                });
            }
            let dt = sim.next_interval(time);
            time += dt;
            sim.advance(dt, time);
            intervals += 1;
            sim.retire(time);
            sim.pop_finished(&mut streams, &mut heads);
        }
        let kernels: Vec<KernelReport> = sim
            .kernels
            .into_iter()
            .map(|k| KernelReport {
                name: k.name,
                start: k.start.unwrap_or(0.0),
                end: k.end,
                ctas: k.dispatched,
                flops: k.flops,
                bytes: k.bytes,
            })
            .collect();
        let total_flops = kernels.iter().fold(0.0, |sum, k| sum + k.flops);
        let total_bytes = kernels.iter().fold(0.0, |sum, k| sum + k.bytes);
        Ok(ExecutionReport {
            makespan: time,
            total_flops,
            total_bytes,
            energy_joules: gpu.static_power_w * time
                + gpu.compute_power_w * total_flops / gpu.tensor_flops
                + gpu.memory_power_w * total_bytes / gpu.hbm_bandwidth,
            kernels,
            op_classes: sim.op_classes,
            peak_flops: gpu.tensor_flops,
            peak_bandwidth: gpu.hbm_bandwidth,
            total_ctas: sim.total_ctas,
            intervals,
        })
    }

    /// Activate every stream's head kernel, then let each stream's head, in
    /// stream order, place CTAs breadth-first: one pass over every SM from
    /// the cursor, the cursor advancing one SM per pass, until the kernel
    /// has no CTA left or a pass places nothing.
    fn fill(
        &mut self,
        streams: &mut [VecDeque<KernelLaunch>],
        heads: &mut [Option<usize>],
        time: f64,
    ) -> Result<(), SimError> {
        for (stream, head) in streams.iter().zip(heads.iter_mut()) {
            let Some(launch) = stream.front().filter(|_| head.is_none()) else {
                continue;
            };
            let fp = launch.footprint;
            if self.gpu.occupancy(fp.shared_mem, fp.threads) == 0
                || fp.threads * fp.registers_per_thread > self.gpu.registers_per_sm
            {
                return Err(SimError::CtaTooLarge {
                    kernel: launch.name.clone(),
                    shared_mem: fp.shared_mem,
                    threads: fp.threads,
                });
            }
            if launch.max_ctas_per_sm == Some(0) && launch.remaining() > 0 {
                return Err(SimError::Stalled {
                    kernel: launch.name.clone(),
                });
            }
            self.kernels.push(Kernel {
                name: launch.name.clone(),
                footprint: fp,
                cap: launch.max_ctas_per_sm,
                dispatched: 0,
                completed: 0,
                fully_dispatched: launch.remaining() == 0,
                start: None,
                end: time,
                flops: 0.0,
                bytes: 0.0,
            });
            *head = Some(self.kernels.len() - 1);
        }
        let n = self.gpu.num_sms;
        for (stream, head) in streams.iter_mut().zip(heads.iter()) {
            let Some(kid) = *head else { continue };
            if self.kernels[kid].fully_dispatched {
                continue;
            }
            let launch = stream.front_mut().unwrap();
            loop {
                let mut placed_any = false;
                let cursor = self.cursor;
                for sm in (0..n).map(|i| (cursor + i) % n) {
                    if launch.remaining() == 0 {
                        break;
                    }
                    if self.fits(sm, kid) {
                        let mut units = Vec::new();
                        launch.dispatcher.dispatch(sm, &mut units);
                        self.add_cta(kid, sm, &units, time);
                        placed_any = true;
                    }
                }
                self.cursor = (self.cursor + 1) % n;
                if launch.remaining() == 0 {
                    self.kernels[kid].fully_dispatched = true;
                    break;
                }
                if !placed_any {
                    break;
                }
            }
        }
        Ok(())
    }

    fn fits(&self, sm: usize, kid: usize) -> bool {
        let (s, g, k) = (&self.sms[sm], &self.gpu, &self.kernels[kid]);
        let fp = k.footprint;
        s.resident < g.max_ctas_per_sm
            && s.threads + fp.threads <= g.max_threads_per_sm
            && s.shared_mem + fp.shared_mem <= g.shared_mem_per_sm
            && s.registers + fp.threads * fp.registers_per_thread <= g.registers_per_sm
            && k.cap
                .map_or(true, |cap| s.per_kernel.get(kid).map_or(0, |&r| r) < cap)
    }

    fn add_cta(&mut self, kid: usize, sm: usize, units: &[WorkUnit], now: f64) {
        let fp = self.kernels[kid].footprint;
        let s = &mut self.sms[sm];
        s.threads += fp.threads;
        s.shared_mem += fp.shared_mem;
        s.registers += fp.threads * fp.registers_per_thread;
        s.resident += 1;
        if s.per_kernel.len() <= kid {
            s.per_kernel.resize(kid + 1, 0);
        }
        s.per_kernel[kid] += 1;
        let k = &mut self.kernels[kid];
        k.dispatched += 1;
        k.start.get_or_insert(now);
        self.total_ctas += 1;

        let cta = self.ctas.len();
        let op = CtaWork {
            units: units.to_vec(),
        }
        .dominant_op();
        self.op_classes.entry(op).or_default().ctas += 1;
        self.live.push(cta);
        self.ctas.push(Cta {
            kernel: kid,
            sm,
            op,
            live_units: units.len(),
        });
        for &work in units {
            let uid = self.units.len();
            let (compute_pending, mem_pending) = (work.flops > WORK_EPS, work.bytes > WORK_EPS);
            if compute_pending {
                let pool = &mut self.compute[sm];
                pool.entries.push((pool.drained + work.flops, uid));
            }
            if mem_pending {
                let pool = &mut self.memory;
                pool.entries.push((pool.drained + work.bytes, uid));
            }
            self.units.push(Unit {
                kernel: kid,
                cta,
                work,
                start: now,
                busy_compute: 0.0,
                busy_memory: 0.0,
                compute_pending,
                mem_pending,
                tail_scheduled: false,
                done: false,
            });
            self.maybe_finish(uid, now);
        }
    }

    /// Once both of a unit's streams have drained, start its serial tail, or
    /// finish it if the tail is negligible.
    fn maybe_finish(&mut self, uid: usize, now: f64) {
        let u = &mut self.units[uid];
        if u.done || u.compute_pending || u.mem_pending || u.tail_scheduled {
            return;
        }
        let tail = u.work.serial_fraction * u.busy_compute.min(u.busy_memory);
        if tail <= TIME_EPS {
            self.finish(uid);
        } else {
            u.tail_scheduled = true;
            self.tails.push((now + tail, uid));
        }
    }

    fn finish(&mut self, uid: usize) {
        let u = &mut self.units[uid];
        u.done = true;
        self.ctas[u.cta].live_units -= 1;
    }

    /// The length of the next interval: until the first pool member drains
    /// or the first tail ends; zero if nothing is pending.
    fn next_interval(&self, now: f64) -> f64 {
        let gpu = &self.gpu;
        let mut dt = f64::INFINITY;
        if !self.memory.entries.is_empty() {
            dt = dt.min(self.memory.next_drain(|m| mem_share(gpu, m)));
        }
        for pool in self.compute.iter().filter(|p| !p.entries.is_empty()) {
            dt = dt.min(pool.next_drain(|d| compute_share(gpu, d)));
        }
        for &(end, _) in &self.tails {
            dt = dt.min((end - now).max(0.0));
        }
        if dt.is_finite() {
            dt
        } else {
            0.0
        }
    }

    /// Advance every busy pool by `dt`, then settle what drained by `now`:
    /// memory first, then each SM in ascending order, then ended tails.
    fn advance(&mut self, dt: f64, now: f64) {
        let gpu = &self.gpu;
        self.memory.advance(|m| mem_share(gpu, m), dt);
        for pool in &mut self.compute {
            pool.advance(|d| compute_share(gpu, d), dt);
        }
        for uid in self.memory.take_drained() {
            let u = &mut self.units[uid];
            u.mem_pending = false;
            u.busy_memory = now - u.start;
            let (bytes, op) = (u.work.bytes, u.work.op);
            self.kernels[u.kernel].bytes += bytes;
            self.op_classes.entry(op).or_default().bytes += bytes;
            self.maybe_finish(uid, now);
        }
        for sm in 0..self.compute.len() {
            for uid in self.compute[sm].take_drained() {
                let u = &mut self.units[uid];
                u.compute_pending = false;
                u.busy_compute = now - u.start;
                let (flops, op) = (u.work.flops, u.work.op);
                self.kernels[u.kernel].flops += flops;
                self.op_classes.entry(op).or_default().flops += flops;
                self.maybe_finish(uid, now);
            }
        }
        let (ended, running): (Vec<_>, Vec<_>) = std::mem::take(&mut self.tails)
            .into_iter()
            .partition(|t| t.0 - now <= TIME_EPS);
        self.tails = running;
        for (_, uid) in ended {
            self.finish(uid);
        }
    }

    /// Release every CTA whose units have all finished.
    fn retire(&mut self, now: f64) {
        let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut self.live)
            .into_iter()
            .partition(|&c| self.ctas[c].live_units == 0);
        self.live = live;
        for c in done {
            let c = &self.ctas[c];
            let fp = self.kernels[c.kernel].footprint;
            let s = &mut self.sms[c.sm];
            s.threads -= fp.threads;
            s.shared_mem -= fp.shared_mem;
            s.registers -= fp.threads * fp.registers_per_thread;
            s.resident -= 1;
            s.per_kernel[c.kernel] -= 1;
            let k = &mut self.kernels[c.kernel];
            k.completed += 1;
            k.end = now;
            let class = self.op_classes.get_mut(&c.op).unwrap();
            class.finish_time = class.finish_time.max(now);
        }
    }

    /// Pop each stream whose head kernel dispatched and completed every CTA.
    fn pop_finished(
        &mut self,
        streams: &mut [VecDeque<KernelLaunch>],
        heads: &mut [Option<usize>],
    ) -> bool {
        let mut popped = false;
        for (stream, head) in streams.iter_mut().zip(heads.iter_mut()) {
            let Some(kid) = *head else { continue };
            let k = &self.kernels[kid];
            if k.fully_dispatched && k.completed == k.dispatched {
                stream.pop_front();
                *head = None;
                popped = true;
            }
        }
        popped
    }
}

/// Every `(launch, SM)` dispatch of one run, in order.
type DispatchLog = Rc<RefCell<Vec<(usize, usize)>>>;

/// A dispatcher that logs each dispatch before passing it on.
struct Recording {
    inner: Box<dyn CtaDispatcher>,
    launch: usize,
    log: DispatchLog,
}

impl CtaDispatcher for Recording {
    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn dispatch(&mut self, sm_id: usize, units: &mut Vec<WorkUnit>) {
        self.log.borrow_mut().push((self.launch, sm_id));
        self.inner.dispatch(sm_id, units);
    }
}

/// Wrap every launch's dispatcher to log into `log`, numbering the launches
/// in stream order.
fn record(streams: Vec<Vec<KernelLaunch>>, log: &DispatchLog) -> Vec<Vec<KernelLaunch>> {
    let mut next = 0;
    streams
        .into_iter()
        .map(|launches| {
            launches
                .into_iter()
                .map(|k| {
                    next += 1;
                    KernelLaunch {
                        dispatcher: Box::new(Recording {
                            inner: k.dispatcher,
                            launch: next - 1,
                            log: Rc::clone(log),
                        }),
                        ..k
                    }
                })
                .collect()
        })
        .collect()
}

/// Assert `got` is within [`REL`] of `want`, relative.
fn assert_close(what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= want.abs() * REL,
        "{what}: engine {got:e} vs reference {want:e}"
    );
}

/// Compare an engine report with the reference's, field by field.
fn assert_agree(case: &str, got: &ExecutionReport, want: &ExecutionReport) {
    assert_eq!(
        (
            got.intervals,
            got.total_ctas,
            got.peak_flops,
            got.peak_bandwidth
        ),
        (
            want.intervals,
            want.total_ctas,
            want.peak_flops,
            want.peak_bandwidth
        ),
        "{case}: intervals, CTAs and peaks"
    );
    assert_close(
        &format!("{case}: total_flops"),
        got.total_flops,
        want.total_flops,
    );
    assert_close(
        &format!("{case}: total_bytes"),
        got.total_bytes,
        want.total_bytes,
    );
    assert_close(&format!("{case}: makespan"), got.makespan, want.makespan);
    assert_close(
        &format!("{case}: energy"),
        got.energy_joules,
        want.energy_joules,
    );
    assert_eq!(got.kernels.len(), want.kernels.len(), "{case}: kernels");
    for (g, w) in got.kernels.iter().zip(&want.kernels) {
        let what = |field| format!("{case}: kernel {} {field}", w.name);
        assert_eq!((&g.name, g.ctas), (&w.name, w.ctas), "{}", what("ctas"));
        assert_close(&what("flops"), g.flops, w.flops);
        assert_close(&what("bytes"), g.bytes, w.bytes);
        assert_close(&what("start"), g.start, w.start);
        assert_close(&what("end"), g.end, w.end);
    }
    let classes = |r: &ExecutionReport| r.op_classes.keys().copied().collect::<Vec<_>>();
    assert_eq!(classes(got), classes(want), "{case}: op classes");
    for (op, w) in &want.op_classes {
        let (g, what) = (&got.op_classes[op], |field| format!("{case}: {op} {field}"));
        assert_eq!(g.ctas, w.ctas, "{}", what("ctas"));
        assert_close(&what("flops"), g.flops, w.flops);
        assert_close(&what("bytes"), g.bytes, w.bytes);
        assert_close(&what("finish"), g.finish_time, w.finish_time);
    }
}

/// Run the launches `build` makes on the engine and on the reference, each
/// from its own call, and assert that they agree. Returns the engine's
/// result.
fn check(
    case: &str,
    gpu: &GpuConfig,
    build: impl Fn() -> Vec<Vec<KernelLaunch>>,
) -> Result<ExecutionReport, SimError> {
    let (engine_log, reference_log) = (DispatchLog::default(), DispatchLog::default());
    let streams = record(build(), &engine_log)
        .into_iter()
        .enumerate()
        .map(|(i, launches)| {
            let mut stream = Stream::new(&format!("s{i}"));
            launches.into_iter().for_each(|k| stream.push(k));
            stream
        })
        .collect();
    let got = Engine::new(gpu.clone()).run(streams);
    let want = Reference::run(gpu, record(build(), &reference_log));
    assert_eq!(
        *engine_log.borrow(),
        *reference_log.borrow(),
        "{case}: dispatch logs"
    );
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_agree(case, g, w),
        _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{case}: errors"),
    }
    got
}

fn arb_config(rng: &mut SplitMix64) -> AttentionConfig {
    [
        AttentionConfig::yi_6b(),
        AttentionConfig::llama2_7b(),
        AttentionConfig::llama3_8b(),
    ][rng.next_usize(3)]
}

/// A hybrid batch shaped like `proptest_invariants`' `arb_batch`.
fn arb_batch(rng: &mut SplitMix64) -> HybridBatch {
    let chunk = 1 + rng.next_usize(2048);
    let prior = rng.next_usize(16 * 1024 + 1);
    let decode_bs = rng.next_usize(97);
    let decode_ctx = 64 + rng.next_usize(16 * 1024 - 63);
    HybridBatch {
        prefill: Some(PrefillChunk::new(chunk, prior)),
        decodes: vec![DecodeRequest::new(decode_ctx); decode_bs],
        kv_dedup_tokens: 0,
        spec_verify_tokens: 0,
    }
}

/// The streams `strategy` launches for `batch`, built through the public
/// launch builders.
fn strategy_launches(
    strategy: AttentionStrategy,
    batch: &HybridBatch,
    cfg: &AttentionConfig,
    gpu: &GpuConfig,
) -> Vec<Vec<KernelLaunch>> {
    let fa = (
        PrefillKernel::flash_attention(),
        DecodeKernel::flash_attention(),
    );
    let fa_names = ("fa2_prefill", "fa_decode");
    match strategy {
        AttentionStrategy::FaSerial => vec![batch.two_kernel_launches(fa, fa_names, cfg, gpu)],
        AttentionStrategy::FaStreams => batch
            .two_kernel_launches(fa, fa_names, cfg, gpu)
            .into_iter()
            .map(|k| vec![k])
            .collect(),
        AttentionStrategy::FiSerial => vec![batch.two_kernel_launches(
            (PrefillKernel::flashinfer(), DecodeKernel::flashinfer()),
            ("fi_prefill", "fi_decode"),
            cfg,
            gpu,
        )],
        AttentionStrategy::FiBatched => vec![vec![BatchedPrefillKernel::flashinfer().launch(
            "fi_batched",
            batch,
            cfg,
            gpu,
        )]],
        AttentionStrategy::FaHFuse => {
            let one_unit_ctas =
                |units: Vec<WorkUnit>| units.into_iter().map(|u| CtaWork::fused(vec![u])).collect();
            let prefill = Operation::new(
                "prefill",
                fa.0.footprint(cfg),
                one_unit_ctas(match &batch.prefill {
                    Some(chunk) => fa.0.build_units(chunk, cfg, gpu),
                    None => Vec::new(),
                }),
            );
            let decode = Operation::new(
                "decode",
                fa.1.footprint(cfg),
                one_unit_ctas(fa.1.build_units(&batch.decodes, cfg, gpu)),
            );
            vec![vec![fuse_operations_warp_parallel(&prefill, &decode)]]
        }
        AttentionStrategy::Pod => vec![vec![
            PodAttention::new(*cfg, gpu.clone()).build_launch(batch)
        ]],
    }
}

/// Every strategy on random hybrid batches: 6 x 50 = 300 launches.
#[test]
fn attention_strategies_match_the_reference() {
    let gpu = GpuConfig::a100_80gb();
    let mut rng = SplitMix64::seed_from_u64(0x0AC1E);
    for case in 0..50 {
        let cfg = arb_config(&mut rng);
        let batch = arb_batch(&mut rng);
        let runner = HybridAttentionRunner::new(cfg, gpu.clone());
        for strategy in AttentionStrategy::all() {
            let got = check(&format!("case {case} {strategy:?}"), &gpu, || {
                strategy_launches(strategy, &batch, &cfg, &gpu)
            })
            .unwrap_or_else(|e| panic!("case {case} {strategy:?}: {e}"));
            // The builders above are the launches the runner times.
            let timed = runner.execute(&batch, strategy).unwrap();
            assert_eq!(
                got.makespan.to_bits(),
                timed.makespan.to_bits(),
                "case {case} {strategy:?}: builder differs from the runner"
            );
        }
    }
}

/// A random multi-stream launch: up to three streams of up to two kernels,
/// fused CTAs of up to three units with serial tails, some units with no
/// compute or no memory work, some kernels of one repeated unit, random
/// footprints and per-SM caps, on a random SM count.
fn random_launches(rng: &mut SplitMix64) -> (GpuConfig, Vec<Vec<KernelLaunch>>) {
    let gpu = GpuConfig {
        num_sms: if rng.next_f64() < 0.5 {
            108
        } else {
            1 + rng.next_usize(140)
        },
        ..GpuConfig::a100_80gb()
    };
    let ops = [OpClass::Prefill, OpClass::Decode, OpClass::Other];
    let unit = |rng: &mut SplitMix64| {
        let flops = if rng.next_f64() < 0.1 {
            0.0
        } else {
            rng.next_f64() * 2.0e9
        };
        let bytes = if rng.next_f64() < 0.1 {
            0.0
        } else {
            rng.next_f64() * 2.0e7
        };
        WorkUnit::new(ops[rng.next_usize(3)], flops, bytes)
            .with_serial_fraction(rng.next_f64() * 0.5)
    };
    let streams = (0..1 + rng.next_usize(3))
        .map(|s| {
            (0..1 + rng.next_usize(2))
                .map(|k| {
                    let name = format!("s{s}k{k}");
                    let n = rng.next_usize(200);
                    let fp = Footprint::new(
                        32 * (1 + rng.next_usize(16)),
                        (1 + rng.next_usize(64)) * 1024,
                    );
                    let mut launch = if rng.next_f64() < 0.3 {
                        let mut runs = UnitRuns::new();
                        runs.push(unit(rng), n);
                        KernelLaunch::from_runs(&name, fp, runs)
                    } else {
                        let ctas = (0..n)
                            .map(|_| {
                                CtaWork::fused(
                                    (0..1 + rng.next_usize(3)).map(|_| unit(rng)).collect(),
                                )
                            })
                            .collect();
                        KernelLaunch::from_ctas(&name, fp, ctas)
                    };
                    if rng.next_f64() < 0.5 {
                        launch = launch.limit_ctas_per_sm(1 + rng.next_usize(4));
                    }
                    launch
                })
                .collect()
        })
        .collect();
    (gpu, streams)
}

/// 150 random multi-stream launches.
#[test]
fn random_multi_stream_launches_match_the_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    for case in 0..150 {
        let seed = rng.next_u64();
        let build = || random_launches(&mut SplitMix64::seed_from_u64(seed));
        let gpu = build().0;
        check(&format!("case {case}"), &gpu, || build().1)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Launches the engine refuses, before and after other work ran, fail the
/// same way in the reference.
#[test]
fn errors_match_the_reference() {
    let gpu = GpuConfig::a100_80gb();
    let launch = |name, fp, cap: Option<usize>| {
        let ctas = vec![CtaWork::single(OpClass::Other, 1e8, 1e6); 300];
        let k = KernelLaunch::from_ctas(name, fp, ctas);
        match cap {
            Some(cap) => k.limit_ctas_per_sm(cap),
            None => k,
        }
    };
    let fp = Footprint::default();
    for (name, bad_fp, cap) in [
        ("capped", fp, Some(0)),
        ("huge", Footprint::new(128, 512 * 1024), None),
        (
            "regs",
            Footprint {
                threads: 1024,
                shared_mem: 1024,
                registers_per_thread: 128,
            },
            None,
        ),
    ] {
        let err = check(name, &gpu, || {
            vec![
                vec![launch("long", fp, None)],
                vec![launch("short", fp, None), launch(name, bad_fp, cap)],
            ]
        });
        assert!(err.is_err(), "{name}");
    }
}

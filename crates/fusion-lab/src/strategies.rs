//! Generic concurrent-execution strategies over two heterogeneous operations
//! (§3 of the paper, Table 2 and Figure 7).
//!
//! Each strategy takes two operations — each described by a CTA work list and
//! a per-CTA footprint — and executes them on the simulated GPU:
//!
//! | Strategy | Guarantees co-location | Reduces wave quantization |
//! |---|---|---|
//! | Serial | – | – |
//! | Streams (kernel-parallel) | no | yes |
//! | CTA-parallel | no | yes |
//! | Warp-parallel (HFuse) | yes | no (stragglers) |
//! | Intra-thread | yes | no (barriers) |
//! | SM-aware CTA (ours) | yes | yes |

use gpu_sim::{
    CtaWork, Engine, ExecutionReport, Footprint, GpuConfig, KernelLaunch, SimError, UnitRuns,
    WorkUnit,
};
use pod_attention::SmAwareScheduler;

/// One of the two operations being fused: a CTA work list plus the per-CTA
/// resources those CTAs need.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Name used in reports.
    pub name: String,
    /// Per-CTA resource footprint.
    pub footprint: Footprint,
    /// The CTAs of the operation.
    pub ctas: Vec<CtaWork>,
}

impl Operation {
    /// Create an operation.
    pub fn new(name: &str, footprint: Footprint, ctas: Vec<CtaWork>) -> Self {
        Operation {
            name: name.to_string(),
            footprint,
            ctas,
        }
    }

    fn launch(&self) -> KernelLaunch {
        KernelLaunch::from_ctas(&self.name, self.footprint, self.ctas.clone())
    }

    fn total_flops(&self) -> f64 {
        self.ctas.iter().map(CtaWork::total_flops).sum()
    }

    fn total_bytes(&self) -> f64 {
        self.ctas.iter().map(CtaWork::total_bytes).sum()
    }

    /// The CTAs' units as runs, one unit per CTA: the form the SM-aware
    /// scheduler binds.
    ///
    /// # Panics
    ///
    /// Panics if a CTA holds more than one unit.
    fn unit_runs(&self) -> UnitRuns {
        self.ctas
            .iter()
            .map(|cta| match cta.units[..] {
                [unit] => unit,
                _ => panic!(
                    "SM-aware CTA fusion binds one-unit CTAs; `{}` has a CTA of {} units",
                    self.name,
                    cta.units.len()
                ),
            })
            .collect()
    }
}

/// The concurrent-execution methods compared in the paper's case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionStrategy {
    /// Launch the two kernels back-to-back on one stream.
    Serial,
    /// Launch the two kernels on different CUDA streams.
    Streams,
    /// Fuse into one kernel whose CTAs are statically split between the two
    /// operations (no control over which SM runs what).
    CtaParallel,
    /// Fuse warp-parallel (HFuse): each fused CTA contains warps of both
    /// operations and holds its resources until the slower half finishes.
    WarpParallel,
    /// Fuse intra-thread: each thread interleaves instructions of both
    /// operations; CTA-level barriers limit how much can overlap.
    IntraThread,
    /// CTA-parallel fusion plus SM-aware CTA scheduling (POD-Attention's
    /// method): each CTA binds to an operation after placement, guaranteeing
    /// every SM runs a mix of both. Each operation's CTAs must hold one unit.
    SmAwareCta,
}

impl FusionStrategy {
    /// All strategies in presentation order.
    pub fn all() -> [FusionStrategy; 6] {
        [
            FusionStrategy::Serial,
            FusionStrategy::Streams,
            FusionStrategy::CtaParallel,
            FusionStrategy::WarpParallel,
            FusionStrategy::IntraThread,
            FusionStrategy::SmAwareCta,
        ]
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FusionStrategy::Serial => "Serial",
            FusionStrategy::Streams => "Streams",
            FusionStrategy::CtaParallel => "CTA",
            FusionStrategy::WarpParallel => "Warp (HFuse)",
            FusionStrategy::IntraThread => "Intra-thread",
            FusionStrategy::SmAwareCta => "SM-aware CTA",
        }
    }
}

impl std::fmt::Display for FusionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fraction of the shorter resource stream that CTA-level barriers prevent
/// intra-thread fusion from overlapping (§3.3: barriers between every
/// operation leave only part of the iteration free to overlap).
const INTRA_THREAD_SERIAL_FRACTION: f64 = 0.7;

/// Executes two operations under a chosen fusion strategy.
#[derive(Debug, Clone)]
pub struct FusionExecutor {
    engine: Engine,
}

impl FusionExecutor {
    /// Create an executor for the given device.
    pub fn new(gpu: GpuConfig) -> Self {
        FusionExecutor {
            engine: Engine::new(gpu),
        }
    }

    /// The device this executor simulates.
    pub fn gpu(&self) -> &GpuConfig {
        self.engine.gpu()
    }

    /// Run operations `a` and `b` under `strategy` and return the execution
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a launch cannot be scheduled (e.g. a fused
    /// footprint that exceeds one SM).
    pub fn run(
        &self,
        a: &Operation,
        b: &Operation,
        strategy: FusionStrategy,
    ) -> Result<ExecutionReport, SimError> {
        match strategy {
            FusionStrategy::Serial => self.engine.run_serial(vec![a.launch(), b.launch()]),
            FusionStrategy::Streams => self.engine.run_concurrent(vec![a.launch(), b.launch()]),
            FusionStrategy::CtaParallel => {
                let mut ctas = a.ctas.clone();
                ctas.extend(b.ctas.iter().cloned());
                let fp = max_footprint(a.footprint, b.footprint);
                self.engine
                    .run_kernel(KernelLaunch::from_ctas("cta_parallel", fp, ctas))
            }
            FusionStrategy::WarpParallel => {
                let fused = fuse_operations_warp_parallel(a, b);
                self.engine.run_kernel(fused)
            }
            FusionStrategy::IntraThread => {
                let fused = fuse_intra_thread(a, b);
                self.engine.run_kernel(fused)
            }
            FusionStrategy::SmAwareCta => {
                let fp = max_footprint(a.footprint, b.footprint);
                let scheduler = SmAwareScheduler::new(
                    a.unit_runs(),
                    b.unit_runs(),
                    self.engine.gpu().num_sms,
                    1,
                    1,
                );
                self.engine.run_kernel(KernelLaunch::with_dispatcher(
                    "sm_aware_cta",
                    fp,
                    Box::new(scheduler),
                ))
            }
        }
    }

    /// Runtime (seconds) of the two operations under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a launch cannot be scheduled.
    pub fn runtime(
        &self,
        a: &Operation,
        b: &Operation,
        strategy: FusionStrategy,
    ) -> Result<f64, SimError> {
        Ok(self.run(a, b, strategy)?.makespan)
    }

    /// The perfect-overlap oracle runtime: all compute at the device's peak,
    /// all memory at full bandwidth, whichever dominates.
    pub fn oracle(&self, a: &Operation, b: &Operation) -> f64 {
        let gpu = self.engine.gpu();
        let flops = a.total_flops() + b.total_flops();
        let bytes = a.total_bytes() + b.total_bytes();
        (flops / gpu.tensor_flops).max(bytes / gpu.hbm_bandwidth)
    }
}

fn max_footprint(a: Footprint, b: Footprint) -> Footprint {
    Footprint {
        threads: a.threads.max(b.threads),
        shared_mem: a.shared_mem.max(b.shared_mem),
        registers_per_thread: a.registers_per_thread.max(b.registers_per_thread),
    }
}

/// HFuse-style warp-parallel fusion: pair the i-th CTA of each operation into
/// one fused CTA whose resources are the *sum* of both and which completes
/// only when both halves finish.
pub fn fuse_operations_warp_parallel(a: &Operation, b: &Operation) -> KernelLaunch {
    let n = a.ctas.len().max(b.ctas.len());
    let mut fused = Vec::with_capacity(n);
    for i in 0..n {
        let mut units: Vec<WorkUnit> = Vec::new();
        if let Some(cta) = a.ctas.get(i) {
            units.extend(cta.units.iter().copied());
        }
        if let Some(cta) = b.ctas.get(i) {
            units.extend(cta.units.iter().copied());
        }
        fused.push(CtaWork::fused(units));
    }
    let fp = Footprint {
        threads: a.footprint.threads + b.footprint.threads,
        shared_mem: a.footprint.shared_mem + b.footprint.shared_mem,
        registers_per_thread: a
            .footprint
            .registers_per_thread
            .max(b.footprint.registers_per_thread),
    };
    KernelLaunch::from_ctas("hfuse", fp, fused)
}

/// Intra-thread fusion: each fused CTA interleaves the instructions of both
/// operations in every thread; barriers after each step serialize a large
/// fraction of the shorter resource stream.
fn fuse_intra_thread(a: &Operation, b: &Operation) -> KernelLaunch {
    let n = a.ctas.len().max(b.ctas.len());
    let mut fused = Vec::with_capacity(n);
    for i in 0..n {
        let mut flops = 0.0;
        let mut bytes = 0.0;
        let mut op = gpu_sim::OpClass::Other;
        if let Some(cta) = a.ctas.get(i) {
            flops += cta.total_flops();
            bytes += cta.total_bytes();
            op = cta.dominant_op();
        }
        if let Some(cta) = b.ctas.get(i) {
            flops += cta.total_flops();
            bytes += cta.total_bytes();
        }
        fused.push(CtaWork {
            units: vec![
                WorkUnit::new(op, flops, bytes).with_serial_fraction(INTRA_THREAD_SERIAL_FRACTION)
            ],
        });
    }
    let fp = max_footprint(a.footprint, b.footprint);
    KernelLaunch::from_ctas("intra_thread", fp, fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{ComputeKernel, MemoryKernel};

    fn ops(compute_iters: usize) -> (Operation, Operation, FusionExecutor) {
        let gpu = GpuConfig::a100_80gb();
        let c = ComputeKernel::figure7(compute_iters, &gpu);
        let m = MemoryKernel::figure7(&gpu);
        (
            Operation::new("compute", c.footprint(), c.ctas()),
            Operation::new("memory", m.footprint(), m.ctas()),
            FusionExecutor::new(gpu),
        )
    }

    #[test]
    fn sm_aware_beats_serial_and_approaches_oracle() {
        let (a, b, exec) = ops(100);
        let serial = exec.runtime(&a, &b, FusionStrategy::Serial).unwrap();
        let sm_aware = exec.runtime(&a, &b, FusionStrategy::SmAwareCta).unwrap();
        let oracle = exec.oracle(&a, &b);
        assert!(
            sm_aware < serial * 0.8,
            "sm-aware {sm_aware} vs serial {serial}"
        );
        assert!(
            sm_aware >= oracle * 0.95,
            "sm-aware {sm_aware} below oracle {oracle}"
        );
        assert!(
            sm_aware < oracle * 1.6,
            "sm-aware {sm_aware} far from oracle {oracle}"
        );
    }

    #[test]
    fn strategy_ordering_matches_the_paper() {
        // At the balanced point, the methods that guarantee co-location
        // (SM-aware) should clearly beat those that do not (serial, CTA).
        let (a, b, exec) = ops(100);
        let serial = exec.runtime(&a, &b, FusionStrategy::Serial).unwrap();
        let cta = exec.runtime(&a, &b, FusionStrategy::CtaParallel).unwrap();
        let intra = exec.runtime(&a, &b, FusionStrategy::IntraThread).unwrap();
        let sm_aware = exec.runtime(&a, &b, FusionStrategy::SmAwareCta).unwrap();
        assert!(cta <= serial * 1.02);
        assert!(intra < serial);
        assert!(sm_aware < intra);
        assert!(sm_aware < cta);
    }

    #[test]
    fn streams_help_mainly_via_idle_sm_filling() {
        let (a, b, exec) = ops(100);
        let serial = exec.runtime(&a, &b, FusionStrategy::Serial).unwrap();
        let streams = exec.runtime(&a, &b, FusionStrategy::Streams).unwrap();
        assert!(streams <= serial);
        // The gain is limited compared to guaranteed co-location.
        let sm_aware = exec.runtime(&a, &b, FusionStrategy::SmAwareCta).unwrap();
        assert!(sm_aware <= streams);
    }

    #[test]
    fn warp_parallel_suffers_from_stragglers_when_imbalanced() {
        // Strongly compute-heavy mix: the memory halves finish early but the
        // fused CTAs keep their resources until the compute halves are done.
        let (a, b, exec) = ops(200);
        let hfuse = exec.runtime(&a, &b, FusionStrategy::WarpParallel).unwrap();
        let sm_aware = exec.runtime(&a, &b, FusionStrategy::SmAwareCta).unwrap();
        assert!(
            sm_aware <= hfuse * 1.02,
            "sm-aware {sm_aware} should not lose to hfuse {hfuse}"
        );
    }

    #[test]
    fn all_strategies_run_and_report_positive_time() {
        let (a, b, exec) = ops(60);
        for strategy in FusionStrategy::all() {
            let t = exec.runtime(&a, &b, strategy).unwrap();
            assert!(t > 0.0, "{strategy} returned non-positive runtime");
        }
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = FusionStrategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}

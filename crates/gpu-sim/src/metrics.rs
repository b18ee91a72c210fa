//! Execution reports: runtime, utilization, energy and per-kernel breakdowns.

use crate::config::GpuConfig;
use crate::work::OpClass;
use std::collections::BTreeMap;

/// Summary of one kernel launch inside an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name as given at launch.
    pub name: String,
    /// Simulation time at which the first CTA of the kernel started.
    pub start: f64,
    /// Simulation time at which the last CTA of the kernel finished.
    pub end: f64,
    /// Number of CTAs executed.
    pub ctas: usize,
    /// Total tensor FLOPs performed by the kernel.
    pub flops: f64,
    /// Total HBM bytes moved by the kernel.
    pub bytes: f64,
}

impl KernelReport {
    /// Wall-clock duration of the kernel (first CTA start to last CTA end).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-operation-class aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpClassReport {
    /// Tensor FLOPs performed by work units of this class.
    pub flops: f64,
    /// HBM bytes moved by work units of this class.
    pub bytes: f64,
    /// Number of CTAs whose dominant class this is.
    pub ctas: usize,
    /// Time at which the last unit of this class finished.
    pub finish_time: f64,
}

/// Result of simulating one submission of streams on the GPU.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CtaWork, Engine, Footprint, GpuConfig, KernelLaunch, OpClass, Stream};
///
/// let gpu = GpuConfig::a100_80gb();
/// let kernel = KernelLaunch::from_ctas(
///     "toy",
///     Footprint::new(128, 32 * 1024),
///     vec![CtaWork::single(OpClass::Other, 1e9, 1e6); 108],
/// );
/// let report = Engine::new(gpu).run(vec![Stream::with_kernel("s0", kernel)])?;
/// assert!(report.makespan > 0.0);
/// assert!(report.compute_utilization() <= 1.0);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Total simulated wall-clock time (seconds).
    pub makespan: f64,
    /// Total tensor FLOPs performed: the kernels' `flops` summed in kernel
    /// order.
    pub total_flops: f64,
    /// Total HBM bytes moved: the kernels' `bytes` summed in kernel order.
    pub total_bytes: f64,
    /// Estimated energy consumed (joules) under the activity-based model:
    /// `static_power_w * makespan + compute_power_w * total_flops /
    /// peak_flops + memory_power_w * total_bytes / peak_bandwidth`, with the
    /// powers from the device's [`GpuConfig`].
    pub energy_joules: f64,
    /// Per-kernel summaries, in completion order.
    pub kernels: Vec<KernelReport>,
    /// Per-operation-class aggregates.
    pub op_classes: BTreeMap<OpClass, OpClassReport>,
    /// Peak tensor throughput of the device this ran on (FLOP/s).
    pub peak_flops: f64,
    /// Peak HBM bandwidth of the device this ran on (bytes/s).
    pub peak_bandwidth: f64,
    /// Total CTAs executed.
    pub total_ctas: usize,
    /// Number of variable-length simulation intervals the contention engine
    /// advanced through. The engine micro-benchmarks divide this by the
    /// wall-clock simulation time to report intervals/second.
    pub intervals: usize,
}

impl ExecutionReport {
    /// Average tensor-core utilization over the whole execution, in `[0, 1]`.
    pub fn compute_utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.total_flops / (self.makespan * self.peak_flops)
    }

    /// Average HBM bandwidth utilization over the whole execution, in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.total_bytes / (self.makespan * self.peak_bandwidth)
    }

    /// Look up a kernel report by name (first match).
    pub fn kernel(&self, name: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Energy (joules) of a run under the activity-based power model used for
/// the §5.1 energy results: static power over the whole makespan, plus each
/// resource's dynamic power for the time its work takes at that resource's
/// peak (`flops / peak_flops` seconds of full tensor activity, `bytes /
/// peak_bandwidth` seconds of full HBM activity).
pub(crate) fn energy_joules(gpu: &GpuConfig, makespan: f64, flops: f64, bytes: f64) -> f64 {
    gpu.static_power_w * makespan
        + gpu.compute_power_w * flops / gpu.tensor_flops
        + gpu.memory_power_w * bytes / gpu.hbm_bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            makespan: 2.0,
            total_flops: 312e12,
            total_bytes: 2.039e12,
            energy_joules: 500.0,
            kernels: vec![KernelReport {
                name: "k".into(),
                start: 0.0,
                end: 2.0,
                ctas: 10,
                flops: 312e12,
                bytes: 2.039e12,
            }],
            op_classes: BTreeMap::new(),
            peak_flops: 312e12,
            peak_bandwidth: 2.039e12,
            total_ctas: 10,
            intervals: 3,
        }
    }

    #[test]
    fn utilization_is_fraction_of_peak() {
        let r = report();
        assert!((r.compute_utilization() - 0.5).abs() < 1e-12);
        assert!((r.memory_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_lookup_by_name() {
        let r = report();
        assert!(r.kernel("k").is_some());
        assert!(r.kernel("missing").is_none());
        assert!((r.kernel("k").unwrap().duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_makespan_yields_zero_utilization() {
        let mut r = report();
        r.makespan = 0.0;
        assert_eq!(r.compute_utilization(), 0.0);
        assert_eq!(r.memory_utilization(), 0.0);
    }

    #[test]
    fn energy_is_static_power_plus_work_at_peak() {
        let gpu = GpuConfig::a100_80gb();
        // An idle run: static power for the whole makespan.
        let idle = energy_joules(&gpu, 2.5, 0.0, 0.0);
        assert!((idle - 2.5 * gpu.static_power_w).abs() < 1e-9);
        // One second at full tensor and HBM activity: all three powers.
        let busy = energy_joules(&gpu, 1.0, gpu.tensor_flops, gpu.hbm_bandwidth);
        let expected = gpu.static_power_w + gpu.compute_power_w + gpu.memory_power_w;
        assert!((busy - expected).abs() < 1e-9);
    }
}

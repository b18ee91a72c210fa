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
    /// Total tensor FLOPs performed.
    pub total_flops: f64,
    /// Total HBM bytes moved.
    pub total_bytes: f64,
    /// Estimated energy consumed (joules) using the activity-based model.
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

/// Activity-based energy model (used for the §5.1 energy results).
///
/// Energy is integrated per simulation interval as
/// `static + compute_power * compute_activity + memory_power * memory_activity`,
/// where the activities are the fraction of peak FLOPs / bandwidth actually
/// used during that interval.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    compute_power_w: f64,
    memory_power_w: f64,
    static_power_w: f64,
    peak_flops: f64,
    peak_bandwidth: f64,
}

impl EnergyModel {
    /// Build the energy model for a device.
    pub fn new(gpu: &GpuConfig) -> Self {
        EnergyModel {
            compute_power_w: gpu.compute_power_w,
            memory_power_w: gpu.memory_power_w,
            static_power_w: gpu.static_power_w,
            peak_flops: gpu.tensor_flops,
            peak_bandwidth: gpu.hbm_bandwidth,
        }
    }

    /// Energy (joules) consumed during an interval of `dt` seconds in which
    /// `flops` tensor FLOPs were executed and `bytes` HBM bytes moved.
    pub fn interval_energy(&self, dt: f64, flops: f64, bytes: f64) -> f64 {
        if dt <= 0.0 {
            return 0.0;
        }
        let compute_activity = (flops / (self.peak_flops * dt)).min(1.0);
        let memory_activity = (bytes / (self.peak_bandwidth * dt)).min(1.0);
        dt * (self.static_power_w
            + self.compute_power_w * compute_activity
            + self.memory_power_w * memory_activity)
    }
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
    fn energy_model_static_plus_dynamic() {
        let gpu = GpuConfig::a100_80gb();
        let m = EnergyModel::new(&gpu);
        // Idle interval: only static power.
        let idle = m.interval_energy(1.0, 0.0, 0.0);
        assert!((idle - gpu.static_power_w).abs() < 1e-9);
        // Fully busy interval: static + compute + memory.
        let busy = m.interval_energy(1.0, gpu.tensor_flops, gpu.hbm_bandwidth);
        let expected = gpu.static_power_w + gpu.compute_power_w + gpu.memory_power_w;
        assert!((busy - expected).abs() < 1e-9);
        // Zero-length interval consumes nothing.
        assert_eq!(m.interval_energy(0.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn energy_model_clamps_activity() {
        let gpu = GpuConfig::a100_80gb();
        let m = EnergyModel::new(&gpu);
        let over = m.interval_energy(1.0, gpu.tensor_flops * 10.0, gpu.hbm_bandwidth * 10.0);
        let expected = gpu.static_power_w + gpu.compute_power_w + gpu.memory_power_w;
        assert!((over - expected).abs() < 1e-9);
    }
}

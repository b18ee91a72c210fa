//! Device configurations for the simulated GPU.
//!
//! The simulator is parameterized by a [`GpuConfig`] describing the
//! resources the paper's evaluation hardware (NVIDIA A100-80GB) exposes to a
//! kernel: number of streaming multiprocessors (SMs), peak tensor-core
//! throughput, HBM bandwidth, per-SM shared memory and thread/CTA occupancy
//! limits, plus a simple activity-based power model used for the energy
//! results in §5.1 of the paper.

/// Static description of a simulated GPU device.
///
/// Construct one with [`GpuConfig::a100_80gb`] (the paper's hardware); build
/// a custom device with struct-update syntax over it.
///
/// # Examples
///
/// ```
/// use gpu_sim::GpuConfig;
///
/// let gpu = GpuConfig::a100_80gb();
/// assert_eq!(gpu.num_sms, 108);
/// assert!(gpu.sm_compute_flops() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Peak FP16 tensor-core throughput for the whole device, in FLOP/s.
    pub tensor_flops: f64,
    /// Peak HBM bandwidth in bytes/s.
    pub hbm_bandwidth: f64,
    /// L2 cache capacity in bytes (used by kernel models to decide how much
    /// re-read traffic actually reaches HBM).
    pub l2_cache_bytes: usize,
    /// Usable shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: usize,
    /// HBM capacity in bytes (used by the serving layer for KV-cache sizing).
    pub hbm_capacity: usize,
    /// Dynamic power drawn when the tensor pipelines are fully busy (watts).
    pub compute_power_w: f64,
    /// Dynamic power drawn when HBM is fully busy (watts).
    pub memory_power_w: f64,
    /// Static/idle power (watts).
    pub static_power_w: f64,
}

impl GpuConfig {
    /// The NVIDIA A100-80GB SXM configuration used throughout the paper.
    pub fn a100_80gb() -> Self {
        GpuConfig {
            name: "A100-80GB".to_string(),
            num_sms: 108,
            tensor_flops: 312e12,
            hbm_bandwidth: 2.039e12,
            l2_cache_bytes: 40 * 1024 * 1024,
            shared_mem_per_sm: 164 * 1024,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            registers_per_sm: 65536,
            hbm_capacity: 80 * 1024 * 1024 * 1024,
            // Activity-based power model: A100 SXM boards draw a large
            // baseline power (clocks, caches, HBM refresh) even when the
            // tensor pipes or DRAM are not fully busy, plus dynamic power
            // roughly proportional to tensor-core and HBM activity. These
            // splits reproduce the paper's observation that attention energy
            // savings track the runtime reduction of the fused kernel.
            compute_power_w: 160.0,
            memory_power_w: 80.0,
            static_power_w: 180.0,
        }
    }

    /// Peak tensor-core throughput of a single SM, in FLOP/s.
    pub fn sm_compute_flops(&self) -> f64 {
        self.tensor_flops / self.num_sms as f64
    }

    /// Maximum number of CTAs with the given footprint that can be resident
    /// on one SM simultaneously.
    ///
    /// Occupancy is the minimum over the shared-memory, thread and CTA-count
    /// limits; a CTA that does not fit at all yields zero.
    pub fn occupancy(&self, shared_mem: usize, threads: usize) -> usize {
        let by_smem = self
            .shared_mem_per_sm
            .checked_div(shared_mem)
            .unwrap_or(self.max_ctas_per_sm);
        let by_threads = self
            .max_threads_per_sm
            .checked_div(threads)
            .unwrap_or(self.max_ctas_per_sm);
        by_smem.min(by_threads).min(self.max_ctas_per_sm)
    }

    /// Total number of CTAs with the given footprint that can be resident on
    /// the whole device at once (one "wave" of CTA scheduling).
    pub fn wave_size(&self, shared_mem: usize, threads: usize) -> usize {
        self.occupancy(shared_mem, threads) * self.num_sms
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::a100_80gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_has_expected_resources() {
        let gpu = GpuConfig::a100_80gb();
        assert_eq!(gpu.num_sms, 108);
        assert!((gpu.tensor_flops - 312e12).abs() < 1e6);
        assert!(gpu.shared_mem_per_sm >= 160 * 1024);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let gpu = GpuConfig::a100_80gb();
        // 80 KiB CTAs: exactly two fit in 164 KiB.
        assert_eq!(gpu.occupancy(80 * 1024, 128), 2);
        // 40 KiB CTAs: four fit.
        assert_eq!(gpu.occupancy(40 * 1024, 128), 4);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let gpu = GpuConfig::a100_80gb();
        assert_eq!(gpu.occupancy(1024, 1024), 2);
    }

    #[test]
    fn occupancy_zero_when_cta_does_not_fit() {
        let gpu = GpuConfig::a100_80gb();
        assert_eq!(gpu.occupancy(200 * 1024, 128), 0);
    }

    #[test]
    fn wave_size_scales_with_sms() {
        let gpu = GpuConfig {
            num_sms: 10,
            ..GpuConfig::a100_80gb()
        };
        assert_eq!(gpu.wave_size(80 * 1024, 128), 20);
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(GpuConfig::default(), GpuConfig::a100_80gb());
    }
}

//! Per-SM resource bookkeeping used by the simulated hardware CTA scheduler.

use crate::config::GpuConfig;
use crate::work::Footprint;

/// Tracks the resources currently reserved on one streaming multiprocessor.
#[derive(Debug, Clone, Default)]
pub(crate) struct SmState {
    /// Threads reserved by resident CTAs.
    pub used_threads: usize,
    /// Shared memory (bytes) reserved by resident CTAs.
    pub used_shared_mem: usize,
    /// Registers reserved by resident CTAs.
    pub used_registers: usize,
    /// Total resident CTAs.
    pub resident: usize,
    /// `(kernel id, resident CTAs)` for each kernel with a CTA here (for
    /// per-kernel occupancy caps). An SM hosts a handful of kernels at most,
    /// so a linear scan beats hashing.
    pub per_kernel: Vec<(usize, usize)>,
}

impl SmState {
    /// Whether a CTA with footprint `fp` belonging to `kernel_id` (with an
    /// optional per-kernel residency cap) fits on this SM right now.
    pub fn can_fit(
        &self,
        gpu: &GpuConfig,
        fp: &Footprint,
        kernel_id: usize,
        kernel_cap: Option<usize>,
    ) -> bool {
        if self.resident + 1 > gpu.max_ctas_per_sm {
            return false;
        }
        if self.used_threads + fp.threads > gpu.max_threads_per_sm {
            return false;
        }
        if self.used_shared_mem + fp.shared_mem > gpu.shared_mem_per_sm {
            return false;
        }
        let regs = fp.threads * fp.registers_per_thread;
        if self.used_registers + regs > gpu.registers_per_sm {
            return false;
        }
        if let Some(cap) = kernel_cap {
            if self.resident_of(kernel_id) + 1 > cap {
                return false;
            }
        }
        true
    }

    /// CTAs of `kernel_id` resident on this SM.
    fn resident_of(&self, kernel_id: usize) -> usize {
        self.per_kernel
            .iter()
            .find(|&&(k, _)| k == kernel_id)
            .map_or(0, |&(_, n)| n)
    }

    /// Reserve resources for one CTA of `kernel_id`.
    pub fn allocate(&mut self, fp: &Footprint, kernel_id: usize) {
        self.used_threads += fp.threads;
        self.used_shared_mem += fp.shared_mem;
        self.used_registers += fp.threads * fp.registers_per_thread;
        self.resident += 1;
        match self.per_kernel.iter_mut().find(|(k, _)| *k == kernel_id) {
            Some((_, n)) => *n += 1,
            None => self.per_kernel.push((kernel_id, 1)),
        }
    }

    /// Release resources held by one CTA of `kernel_id`.
    ///
    /// # Panics
    ///
    /// Panics if the SM does not actually hold a CTA of that kernel (which
    /// would indicate a bookkeeping bug in the engine).
    pub fn release(&mut self, fp: &Footprint, kernel_id: usize) {
        assert!(self.resident > 0, "releasing a CTA from an empty SM");
        self.used_threads -= fp.threads;
        self.used_shared_mem -= fp.shared_mem;
        self.used_registers -= fp.threads * fp.registers_per_thread;
        self.resident -= 1;
        let i = self
            .per_kernel
            .iter()
            .position(|&(k, _)| k == kernel_id)
            .expect("releasing a CTA of a kernel not resident on this SM");
        self.per_kernel[i].1 -= 1;
        if self.per_kernel[i].1 == 0 {
            self.per_kernel.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuConfig {
        GpuConfig::a100_80gb()
    }

    #[test]
    fn fits_until_shared_memory_exhausted() {
        let g = gpu();
        let fp = Footprint::new(128, 80 * 1024);
        let mut sm = SmState::default();
        assert!(sm.can_fit(&g, &fp, 0, None));
        sm.allocate(&fp, 0);
        assert!(sm.can_fit(&g, &fp, 0, None));
        sm.allocate(&fp, 0);
        // 2 * 80 KiB = 160 KiB used; a third 80 KiB CTA does not fit in 164 KiB.
        assert!(!sm.can_fit(&g, &fp, 0, None));
    }

    #[test]
    fn per_kernel_cap_is_enforced() {
        let g = gpu();
        let fp = Footprint::new(128, 16 * 1024);
        let mut sm = SmState::default();
        sm.allocate(&fp, 3);
        assert!(!sm.can_fit(&g, &fp, 3, Some(1)));
        // A different kernel is not affected by kernel 3's cap.
        assert!(sm.can_fit(&g, &fp, 4, Some(1)));
    }

    #[test]
    fn release_restores_capacity() {
        let g = gpu();
        let fp = Footprint::new(256, 80 * 1024);
        let mut sm = SmState::default();
        sm.allocate(&fp, 0);
        sm.allocate(&fp, 0);
        assert!(!sm.can_fit(&g, &fp, 0, None));
        sm.release(&fp, 0);
        assert!(sm.can_fit(&g, &fp, 0, None));
        sm.release(&fp, 0);
        assert_eq!(sm.resident, 0);
        assert_eq!(sm.used_shared_mem, 0);
        assert_eq!(sm.used_threads, 0);
        assert!(sm.per_kernel.is_empty());
    }

    #[test]
    fn thread_limit_is_enforced() {
        let g = gpu();
        let fp = Footprint::new(1024, 1024);
        let mut sm = SmState::default();
        sm.allocate(&fp, 0);
        sm.allocate(&fp, 0);
        // 2048 threads used, no more fit.
        assert!(!sm.can_fit(&g, &fp, 0, None));
    }

    #[test]
    #[should_panic(expected = "empty SM")]
    fn release_on_empty_sm_panics() {
        let mut sm = SmState::default();
        sm.release(&Footprint::new(128, 1024), 0);
    }
}

//! Executing the attention of a hybrid batch under every strategy the paper
//! compares (FA_Serial, FA_Streams, FA_HFuse, FI_Serial, FI_Batched, POD),
//! using the CTA-level simulator. This is the entry point used by the
//! Figure 1, Figure 6 and Figure 11 harnesses.

use crate::strategies::Operation;
use attn_kernels::{
    AttentionConfig, AttentionStrategy, BatchedPrefillKernel, DecodeKernel, HybridBatch,
    PrefillKernel, KERNEL_LAUNCH_OVERHEAD,
};
use gpu_sim::{CtaWork, Engine, ExecutionReport, GpuConfig, KernelLaunch, SimError, WorkUnit};
use pod_attention::PodAttention;

/// Runs hybrid-batch attention under a chosen [`AttentionStrategy`] on the
/// CTA-level simulator.
///
/// # Examples
///
/// ```
/// use attn_kernels::{AttentionConfig, AttentionStrategy, HybridBatch};
/// use fusion_lab::HybridAttentionRunner;
/// use gpu_sim::GpuConfig;
///
/// let runner = HybridAttentionRunner::new(AttentionConfig::yi_6b(), GpuConfig::a100_80gb());
/// let batch = HybridBatch::uniform(512, 8 * 1024, 54, 16 * 1024);
/// let serial = runner.time(&batch, AttentionStrategy::FaSerial)?;
/// let pod = runner.time(&batch, AttentionStrategy::Pod)?;
/// assert!(pod <= serial);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridAttentionRunner {
    cfg: AttentionConfig,
    gpu: GpuConfig,
    engine: Engine,
    pod: PodAttention,
}

impl HybridAttentionRunner {
    /// Create a runner for a model/device pair.
    pub fn new(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        HybridAttentionRunner {
            cfg,
            gpu: gpu.clone(),
            engine: Engine::new(gpu.clone()),
            pod: PodAttention::new(cfg, gpu),
        }
    }

    /// The attention configuration.
    pub fn config(&self) -> &AttentionConfig {
        &self.cfg
    }

    /// The device configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The POD-Attention instance used for [`AttentionStrategy::Pod`].
    pub fn pod(&self) -> &PodAttention {
        &self.pod
    }

    /// Execute the batch's attention under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a launch cannot be scheduled.
    pub fn execute(
        &self,
        batch: &HybridBatch,
        strategy: AttentionStrategy,
    ) -> Result<ExecutionReport, SimError> {
        match strategy {
            AttentionStrategy::FaSerial => self.engine.run_serial(self.fa_launches(batch)),
            AttentionStrategy::FaStreams => self.engine.run_concurrent(self.fa_launches(batch)),
            AttentionStrategy::FiSerial => self.engine.run_serial(batch.two_kernel_launches(
                (PrefillKernel::flashinfer(), DecodeKernel::flashinfer()),
                ("fi_prefill", "fi_decode"),
                &self.cfg,
                &self.gpu,
            )),
            AttentionStrategy::FiBatched => {
                self.engine
                    .run_kernel(BatchedPrefillKernel::flashinfer().launch(
                        "fi_batched",
                        batch,
                        &self.cfg,
                        &self.gpu,
                    ))
            }
            AttentionStrategy::FaHFuse => self.engine.run_kernel(self.hfuse_launch(batch)),
            AttentionStrategy::Pod => self.pod.execute(batch),
        }
    }

    /// Attention runtime (seconds) under `strategy`, including kernel launch
    /// overheads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a launch cannot be scheduled.
    pub fn time(&self, batch: &HybridBatch, strategy: AttentionStrategy) -> Result<f64, SimError> {
        let launches = self.launch_count(batch, strategy);
        Ok(self.execute(batch, strategy)?.makespan + launches as f64 * KERNEL_LAUNCH_OVERHEAD)
    }

    /// Speedup of `strategy` over FA_Serial for this batch (>1 means faster).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a launch cannot be scheduled.
    pub fn speedup_over_fa_serial(
        &self,
        batch: &HybridBatch,
        strategy: AttentionStrategy,
    ) -> Result<f64, SimError> {
        let base = self.time(batch, AttentionStrategy::FaSerial)?;
        let t = self.time(batch, strategy)?;
        Ok(base / t)
    }

    fn launch_count(&self, batch: &HybridBatch, strategy: AttentionStrategy) -> usize {
        let both = batch.has_prefill() as usize + batch.has_decode() as usize;
        match strategy {
            AttentionStrategy::FaSerial | AttentionStrategy::FiSerial => both,
            AttentionStrategy::FaStreams => both,
            AttentionStrategy::FaHFuse | AttentionStrategy::FiBatched | AttentionStrategy::Pod => {
                both.min(1)
            }
        }
    }

    fn fa_launches(&self, batch: &HybridBatch) -> Vec<KernelLaunch> {
        batch.two_kernel_launches(
            (
                PrefillKernel::flash_attention(),
                DecodeKernel::flash_attention(),
            ),
            ("fa2_prefill", "fa_decode"),
            &self.cfg,
            &self.gpu,
        )
    }

    /// Build the HFuse (warp-parallel fused) launch: the i-th prefill CTA and
    /// the i-th decode CTA share one fused CTA whose footprint is the sum of
    /// both, exactly as the HFuse source-to-source tool would emit.
    fn hfuse_launch(&self, batch: &HybridBatch) -> KernelLaunch {
        let prefill_kernel = PrefillKernel::flash_attention();
        let decode_kernel = DecodeKernel::flash_attention();
        let prefill_units: Vec<WorkUnit> = match &batch.prefill {
            Some(chunk) => prefill_kernel.build_units(chunk, &self.cfg, &self.gpu),
            None => Vec::new(),
        };
        let decode_units: Vec<WorkUnit> =
            decode_kernel.build_units(&batch.decodes, &self.cfg, &self.gpu);

        let prefill_op = Operation::new(
            "prefill",
            prefill_kernel.footprint(&self.cfg),
            prefill_units
                .into_iter()
                .map(|u| CtaWork { units: vec![u] })
                .collect(),
        );
        let decode_op = Operation::new(
            "decode",
            decode_kernel.footprint(&self.cfg),
            decode_units
                .into_iter()
                .map(|u| CtaWork { units: vec![u] })
                .collect(),
        );
        crate::strategies::fuse_operations_warp_parallel(&prefill_op, &decode_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> HybridAttentionRunner {
        HybridAttentionRunner::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    #[test]
    fn pod_is_the_fastest_strategy_on_balanced_batches() {
        let r = runner();
        let batch = HybridBatch::uniform(2048, 12 * 1024, 100, 12 * 1024);
        let pod = r.time(&batch, AttentionStrategy::Pod).unwrap();
        for strategy in AttentionStrategy::all() {
            let time = r.time(&batch, strategy).unwrap();
            assert!(
                pod <= time * 1.02,
                "POD ({:.3} ms) slower than {strategy} ({:.3} ms)",
                pod * 1e3,
                time * 1e3
            );
        }
        assert!(r.time(&batch, AttentionStrategy::FaSerial).unwrap() / pod > 1.1);
    }

    #[test]
    fn streams_never_slower_than_serial_by_much() {
        let r = runner();
        let batch = HybridBatch::uniform(1024, 8 * 1024, 55, 16 * 1024);
        let serial = r.time(&batch, AttentionStrategy::FaSerial).unwrap();
        let streams = r.time(&batch, AttentionStrategy::FaStreams).unwrap();
        assert!(streams <= serial * 1.05);
    }

    #[test]
    fn fi_batched_wastes_time_at_long_context() {
        let r = runner();
        let batch = HybridBatch::uniform(512, 16 * 1024, 64, 16 * 1024);
        let serial = r.time(&batch, AttentionStrategy::FaSerial).unwrap();
        let batched = r.time(&batch, AttentionStrategy::FiBatched).unwrap();
        assert!(batched > serial * 0.9);
    }

    #[test]
    fn hfuse_beats_serial_on_balanced_batches() {
        let r = runner();
        let batch = HybridBatch::uniform(2048, 8 * 1024, 128, 8 * 1024);
        let serial = r.time(&batch, AttentionStrategy::FaSerial).unwrap();
        let hfuse = r.time(&batch, AttentionStrategy::FaHFuse).unwrap();
        assert!(hfuse < serial, "hfuse {hfuse} vs serial {serial}");
    }

    #[test]
    fn decode_only_batches_work_for_all_strategies() {
        let r = runner();
        let batch = HybridBatch::decode_only(32, 4096);
        for strategy in AttentionStrategy::all() {
            let t = r.time(&batch, strategy).unwrap();
            assert!(t > 0.0, "{strategy} returned zero time");
        }
    }
}

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
    engine: Engine,
    pod: PodAttention,
}

impl HybridAttentionRunner {
    /// Create a runner for a model/device pair, with POD-Attention at the
    /// paper's recommended options.
    pub fn new(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        HybridAttentionRunner::with_pod(PodAttention::new(cfg, gpu))
    }

    /// Create a runner whose [`AttentionStrategy::Pod`] is `pod` (e.g. built
    /// with non-default [`pod_attention::PodOptions`]), on `pod`'s model and
    /// device.
    pub fn with_pod(pod: PodAttention) -> Self {
        HybridAttentionRunner {
            cfg: *pod.config(),
            engine: Engine::new(pod.gpu().clone()),
            pod,
        }
    }

    /// The attention configuration.
    pub fn config(&self) -> &AttentionConfig {
        &self.cfg
    }

    /// The device configuration.
    pub fn gpu(&self) -> &GpuConfig {
        self.engine.gpu()
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
                self.gpu(),
            )),
            AttentionStrategy::FiBatched => {
                self.engine
                    .run_kernel(BatchedPrefillKernel::flashinfer().launch(
                        "fi_batched",
                        batch,
                        &self.cfg,
                        self.gpu(),
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
    /// A batch with no work takes no time either way, which is 1.0.
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
        Ok(if base == 0.0 && t == 0.0 {
            1.0
        } else {
            base / t
        })
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
            self.gpu(),
        )
    }

    /// Build the HFuse (warp-parallel fused) launch: the i-th prefill CTA and
    /// the i-th decode CTA share one fused CTA whose footprint is the sum of
    /// both, exactly as the HFuse source-to-source tool would emit.
    fn hfuse_launch(&self, batch: &HybridBatch) -> KernelLaunch {
        let prefill_kernel = PrefillKernel::flash_attention();
        let decode_kernel = DecodeKernel::flash_attention();
        let prefill_units: Vec<WorkUnit> = match &batch.prefill {
            Some(chunk) => prefill_kernel.build_units(chunk, &self.cfg, self.gpu()),
            None => Vec::new(),
        };
        let decode_units: Vec<WorkUnit> =
            decode_kernel.build_units(&batch.decodes, &self.cfg, self.gpu());

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
    use attn_kernels::SplitPolicy;
    use pod_attention::{PodOptions, SchedulingPolicy};

    fn runner() -> HybridAttentionRunner {
        HybridAttentionRunner::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    /// POD's attention time for `cfg` on the A100 under `options`.
    fn pod_time(cfg: AttentionConfig, options: PodOptions, batch: &HybridBatch) -> f64 {
        let pod = PodAttention::with_options(cfg, GpuConfig::a100_80gb(), options);
        HybridAttentionRunner::with_pod(pod)
            .time(batch, AttentionStrategy::Pod)
            .unwrap()
    }

    #[test]
    fn pod_beats_serial_on_table1_configs() {
        let r = runner();
        for (name, batch) in [
            ("C0", HybridBatch::config_c0()),
            ("C1", HybridBatch::config_c1()),
            ("C2", HybridBatch::config_c2()),
        ] {
            let speedup = r
                .speedup_over_fa_serial(&batch, AttentionStrategy::Pod)
                .unwrap();
            assert!(
                speedup > 1.1,
                "{name}: expected a clear win, got speedup {speedup:.3}"
            );
            assert!(
                speedup < 2.5,
                "{name}: speedup {speedup:.3} is implausibly large"
            );
        }
    }

    #[test]
    fn pod_never_loses_to_serial() {
        let r = runner();
        let batches = [
            HybridBatch::uniform(512, 4096, 16, 4096),
            HybridBatch::uniform(2048, 16 * 1024, 8, 2048),
            HybridBatch::uniform(1024, 20 * 1024, 200, 16 * 1024),
            HybridBatch::uniform(256, 1024, 4, 1024),
        ];
        for (i, batch) in batches.iter().enumerate() {
            let speedup = r
                .speedup_over_fa_serial(batch, AttentionStrategy::Pod)
                .unwrap();
            assert!(
                speedup > 0.97,
                "batch {i}: POD slower than serial (speedup {speedup:.3})"
            );
        }
    }

    /// Degenerate batches gain nothing but must not lose much either (only
    /// the second launch overhead is saved).
    #[test]
    fn degenerate_batches_gain_little_over_serial() {
        let s = runner()
            .speedup_over_fa_serial(
                &HybridBatch::prefill_only(2048, 2048),
                AttentionStrategy::Pod,
            )
            .unwrap();
        assert!(s > 0.9 && s < 1.3, "speedup {s}");
        // A batch with no prefill and no decodes costs nothing either way.
        let empty = HybridBatch {
            prefill: None,
            decodes: Vec::new(),
            kv_dedup_tokens: 0,
            spec_verify_tokens: 0,
        };
        for strategy in AttentionStrategy::all() {
            let s = runner().speedup_over_fa_serial(&empty, strategy).unwrap();
            assert_eq!(s, 1.0, "{strategy}");
        }
    }

    #[test]
    fn pod_time_is_bounded_below_by_the_oracle() {
        let r = runner();
        for batch in [
            HybridBatch::config_c0(),
            HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024),
        ] {
            let t = r.time(&batch, AttentionStrategy::Pod).unwrap();
            let oracle = r.pod().oracle_time(&batch);
            assert!(t >= oracle * 0.98, "pod {t} below oracle {oracle}");
        }
    }

    #[test]
    fn policies_produce_similar_but_not_identical_times() {
        let cfg = AttentionConfig::yi_6b();
        let batch = HybridBatch::uniform(2048, 8 * 1024, 128, 8 * 1024);
        let with = |policy| pod_time(cfg, PodOptions::recommended().with_policy(policy), &batch);
        let fifty = with(SchedulingPolicy::FiftyFifty);
        let prop = with(SchedulingPolicy::Proportional);
        let ratio = fifty / prop;
        assert!(
            (0.7..1.4).contains(&ratio),
            "50:50 {fifty} vs proportional {prop}"
        );
    }

    #[test]
    fn limited_splits_beat_vanilla_splits_for_small_chunks() {
        let cfg = AttentionConfig::llama3_8b();
        // Last chunk of a 16K prompt with 64 decodes (the Table 8 setup).
        let batch = HybridBatch::uniform(512, 16 * 1024, 64, 16 * 1024);
        let with = |splits| {
            pod_time(
                cfg,
                PodOptions::recommended().with_prefill_splits(splits),
                &batch,
            )
        };
        let limited = with(SplitPolicy::LimitedToTwoWaves);
        let vanilla = with(SplitPolicy::Vanilla);
        assert!(
            limited <= vanilla * 1.02,
            "limited splits {limited} should not be slower than vanilla {vanilla}"
        );
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

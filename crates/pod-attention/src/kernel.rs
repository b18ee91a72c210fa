//! The fused POD-Attention kernel: building and executing it.

use crate::config::{CtasPerSm, PodOptions};
use crate::oracle::oracle_time;
use crate::scheduler::SmAwareScheduler;
use attn_kernels::{AttentionConfig, HybridBatch, PrefillKernel};
use gpu_sim::{Engine, ExecutionReport, Footprint, GpuConfig, KernelLaunch, SimError, UnitRuns};

/// POD-Attention: computes the prefill and decode attention of a hybrid batch
/// in a single fused kernel whose CTAs bind to an operation at runtime, after
/// the hardware scheduler has placed them on an SM.
///
/// `fusion_lab::HybridAttentionRunner::with_pod` times a `PodAttention`
/// against the FA_Serial baseline and the other fusion methods.
///
/// # Examples
///
/// ```
/// use attn_kernels::{AttentionConfig, HybridBatch};
/// use gpu_sim::GpuConfig;
/// use pod_attention::PodAttention;
///
/// let pod = PodAttention::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb());
/// let batch = HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024);
/// let plan = pod.plan(&batch);
/// assert!(plan.prefill_ctas > 0 && plan.decode_slots > 0);
/// let report = pod.execute(&batch)?;
/// assert_eq!(report.total_ctas, plan.prefill_ctas + plan.decode_slots);
/// # Ok::<(), gpu_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PodAttention {
    cfg: AttentionConfig,
    gpu: GpuConfig,
    options: PodOptions,
}

/// Everything known about one fused launch before it executes: CTA counts,
/// the resolved CTAs-per-SM mode and the interleave ratio. Useful for tests,
/// reports and the sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPlan {
    /// Prefill CTAs in the fused grid.
    pub prefill_ctas: usize,
    /// Decode CTA *slots* in the fused grid (each slot packs
    /// [`CtasPerSm::virtual_decode_factor`] virtual decode CTAs).
    pub decode_slots: usize,
    /// Virtual decode CTAs (before packing into slots).
    pub virtual_decode_ctas: usize,
    /// Resolved CTAs-per-SM mode.
    pub ctas_per_sm: CtasPerSm,
    /// Interleave ratio used by the SM-aware scheduler.
    pub ratio: (usize, usize),
}

impl PodAttention {
    /// Create a POD-Attention instance with the paper's recommended options.
    pub fn new(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        PodAttention {
            cfg,
            gpu,
            options: PodOptions::recommended(),
        }
    }

    /// Create a POD-Attention instance with explicit options.
    pub fn with_options(cfg: AttentionConfig, gpu: GpuConfig, options: PodOptions) -> Self {
        PodAttention { cfg, gpu, options }
    }

    /// The options in effect.
    pub fn options(&self) -> PodOptions {
        self.options
    }

    /// The attention configuration.
    pub fn config(&self) -> &AttentionConfig {
        &self.cfg
    }

    /// The device configuration.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The prefill split policy actually used for `batch`.
    ///
    /// Limiting the chunked-prefill KV splits to two waves (§4.2.4) exists to
    /// protect co-running decodes from the extra Q/partial-output traffic.
    /// When the batch has (almost) no decode memory work to protect, the
    /// limit only removes useful prefill parallelism, so POD falls back to
    /// the vanilla split heuristic — part of picking "the most suitable
    /// configuration at runtime".
    ///
    /// The decode side's memory time comes from each request's unit run
    /// (count × unit bytes); only a batch within 1e-9 relative of the limit
    /// is re-summed unit by unit, so the decision is the unit-by-unit one.
    fn effective_split_policy(&self, batch: &HybridBatch) -> attn_kernels::SplitPolicy {
        use attn_kernels::SplitPolicy;
        if self.options.prefill_splits != SplitPolicy::LimitedToTwoWaves {
            return self.options.prefill_splits;
        }
        let Some(limit) = self.split_limit(batch) else {
            return SplitPolicy::Vanilla;
        };
        let mut decode_memory = self.decode_memory(batch, false);
        if (decode_memory - limit).abs() <= 1e-9 * limit {
            decode_memory = self.decode_memory(batch, true);
        }
        if decode_memory < limit {
            SplitPolicy::Vanilla
        } else {
            SplitPolicy::LimitedToTwoWaves
        }
    }

    /// The decode memory time below which POD lifts the split limit: a fifth
    /// of the prefill chunk's compute time. `None` without a prefill chunk.
    fn split_limit(&self, batch: &HybridBatch) -> Option<f64> {
        let chunk = batch.prefill.as_ref()?;
        let prefill_compute = PrefillKernel::flash_attention()
            .total_flops(chunk, &self.cfg, &self.gpu)
            / self.gpu.tensor_flops;
        Some(0.2 * prefill_compute)
    }

    /// HBM time of the decode grid: per request run (count × unit bytes),
    /// or, if `unit_by_unit`, summed over every CTA in launch order.
    fn decode_memory(&self, batch: &HybridBatch, unit_by_unit: bool) -> f64 {
        let kernel = self.options.decode_kernel();
        let bytes = if unit_by_unit {
            kernel.total_bytes(&batch.decodes, &self.cfg, &self.gpu)
        } else {
            kernel
                .unit_runs(&batch.decodes, &self.cfg, &self.gpu)
                .runs()
                .iter()
                .map(|(unit, count)| *count as f64 * unit.bytes)
                .sum()
        };
        bytes / self.gpu.hbm_bandwidth
    }

    /// Compute the launch plan (CTA counts, resolved mode, ratio) for a batch.
    pub fn plan(&self, batch: &HybridBatch) -> LaunchPlan {
        self.resolve(batch).0
    }

    /// The launch plan and the prefill kernel model for the mode it resolved.
    /// The split policy is decided once and shared by both tile shapes.
    fn resolve(&self, batch: &HybridBatch) -> (LaunchPlan, PrefillKernel) {
        let split = self.effective_split_policy(batch);
        let prefill_kernel_for = |mode| self.options.prefill_kernel(mode).with_split_policy(split);
        let prefill_ctas_of = |kernel: &PrefillKernel| {
            batch
                .prefill
                .as_ref()
                .map_or(0, |chunk| kernel.num_ctas(chunk, &self.cfg, &self.gpu))
        };
        // Resolve the CTAs-per-SM mode from the balance of the batch, using
        // the 2-CTA tile as the reference for counting prefill CTAs.
        let probe = prefill_kernel_for(CtasPerSm::Two);
        let probe_prefill = prefill_ctas_of(&probe);
        let virtual_decode = batch.decodes.len() * self.cfg.kv_heads_per_gpu();
        let mode = self
            .options
            .resolve_ctas_per_sm(probe_prefill, virtual_decode);

        let (prefill_kernel, prefill_ctas) = if mode == CtasPerSm::Two {
            (probe, probe_prefill)
        } else {
            let kernel = prefill_kernel_for(mode);
            (kernel, prefill_ctas_of(&kernel))
        };
        let virtual_decode_ctas =
            self.options
                .decode_kernel()
                .num_ctas(&batch.decodes, &self.cfg, &self.gpu);
        let decode_slots = virtual_decode_ctas.div_ceil(mode.virtual_decode_factor().max(1));
        let ratio = self.options.policy.ratios(prefill_ctas, decode_slots);
        let plan = LaunchPlan {
            prefill_ctas,
            decode_slots,
            virtual_decode_ctas,
            ctas_per_sm: mode,
            ratio,
        };
        (plan, prefill_kernel)
    }

    /// Build the fused kernel launch for a hybrid batch.
    ///
    /// For degenerate batches (prefill-only or decode-only) the launch simply
    /// contains the corresponding specialized kernel's CTAs — fusing is a
    /// no-op but the API stays uniform. Its grids are built as
    /// O(heads × query tiles + decode requests) unit runs, not a `Vec` per
    /// CTA.
    pub fn build_launch(&self, batch: &HybridBatch) -> KernelLaunch {
        let (scheduler, plan) = self.scheduler(batch);
        let mode = plan.ctas_per_sm;
        let footprint = Footprint::new(128, self.options.fused_shared_mem(mode, &self.cfg));
        KernelLaunch::with_dispatcher("pod_attention", footprint, Box::new(scheduler))
            .limit_ctas_per_sm(mode.limit())
    }

    /// The fused launch's dispatcher and plan: the prefill grid's runs (one
    /// unit per CTA) and the decode grid's runs, packed
    /// [`CtasPerSm::virtual_decode_factor`] units per CTA slot.
    fn scheduler(&self, batch: &HybridBatch) -> (SmAwareScheduler, LaunchPlan) {
        let (plan, prefill_kernel) = self.resolve(batch);
        let prefill = match &batch.prefill {
            Some(chunk) => prefill_kernel.unit_runs(chunk, &self.cfg, &self.gpu),
            None => UnitRuns::new(),
        };
        let decode = self
            .options
            .decode_kernel()
            .unit_runs(&batch.decodes, &self.cfg, &self.gpu);
        let scheduler = SmAwareScheduler::new(
            prefill,
            decode,
            self.gpu.num_sms,
            plan.ratio.0,
            plan.ratio.1,
        )
        .with_decode_units_per_cta(plan.ctas_per_sm.virtual_decode_factor().max(1));
        (scheduler, plan)
    }

    /// Execute the fused kernel on the simulated GPU and return the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the launch cannot be scheduled (which would
    /// indicate an invalid tile/occupancy configuration).
    pub fn execute(&self, batch: &HybridBatch) -> Result<ExecutionReport, SimError> {
        Engine::new(self.gpu.clone()).run_kernel(self.build_launch(batch))
    }

    /// Perfect-overlap lower bound on this batch's attention time (seconds).
    pub fn oracle_time(&self, batch: &HybridBatch) -> f64 {
        oracle_time(batch, &self.cfg, &self.gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CtaDispatcher, WorkUnit};

    fn pod() -> PodAttention {
        PodAttention::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    /// The closed-form decode memory time decides the split limit exactly
    /// as the unit-by-unit sum does on the whole Figure 11 quick grid.
    #[test]
    fn closed_form_split_decision_matches_the_unit_by_unit_sum() {
        for cfg in [
            AttentionConfig::yi_6b(),
            AttentionConfig::llama2_7b(),
            AttentionConfig::llama3_8b(),
        ] {
            let pod = PodAttention::new(cfg, GpuConfig::a100_80gb());
            for kib in [4, 12, 20] {
                for chunk in [512, 1024, 2048] {
                    for decodes in [16, 48, 96, 160, 224] {
                        let batch = HybridBatch::uniform(chunk, kib * 1024, decodes, kib * 1024);
                        let limit = pod.split_limit(&batch).unwrap();
                        let closed = pod.decode_memory(&batch, false);
                        let exact = pod.decode_memory(&batch, true);
                        assert_eq!(closed < limit, exact < limit, "{cfg:?} {batch:?}");
                        assert!(
                            (closed - exact).abs() <= exact * 1e-12,
                            "{closed} vs {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_chunk_with_prior_context_plans_no_prefill_ctas() {
        let mut batch = HybridBatch::decode_only(4, 1000);
        batch.prefill = Some(attn_kernels::PrefillChunk::new(0, 100));
        let plan = pod().plan(&batch);
        assert_eq!(plan.prefill_ctas, 0);
        assert!(pod().execute(&batch).unwrap().makespan > 0.0);
    }

    #[test]
    fn pod_utilizes_both_resources_on_balanced_batches() {
        let pod = pod();
        let report = pod.execute(&HybridBatch::config_c1()).unwrap();
        assert!(
            report.compute_utilization() > 0.4,
            "compute util {}",
            report.compute_utilization()
        );
        assert!(
            report.memory_utilization() > 0.4,
            "memory util {}",
            report.memory_utilization()
        );
    }

    #[test]
    fn plan_reports_consistent_counts() {
        let pod = pod();
        let batch = HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024);
        let plan = pod.plan(&batch);
        assert!(plan.prefill_ctas > 0);
        assert!(plan.decode_slots > 0);
        assert_eq!(
            plan.decode_slots,
            plan.virtual_decode_ctas
                .div_ceil(plan.ctas_per_sm.virtual_decode_factor())
        );
        assert!(plan.ratio.0 > 0 && plan.ratio.1 > 0);
    }

    #[test]
    fn degenerate_batches_execute() {
        let pod = pod();
        let prefill_only = HybridBatch::prefill_only(2048, 2048);
        let decode_only = HybridBatch::decode_only(32, 4096);
        assert!(pod.execute(&prefill_only).unwrap().makespan > 0.0);
        assert!(pod.execute(&decode_only).unwrap().makespan > 0.0);
    }

    #[test]
    fn empty_batch_executes_instantly() {
        let pod = pod();
        let report = pod.execute(&HybridBatch::new()).unwrap();
        assert_eq!(report.total_ctas, 0);
    }

    #[test]
    fn fixed_cta_modes_are_honored() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let batch = HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024);
        for (mode, limit) in [(CtasPerSm::Two, 2), (CtasPerSm::Four, 4)] {
            let pod = PodAttention::with_options(
                cfg,
                gpu.clone(),
                PodOptions::recommended().with_ctas_per_sm(mode),
            );
            let plan = pod.plan(&batch);
            assert_eq!(plan.ctas_per_sm, mode);
            let launch = pod.build_launch(&batch);
            assert_eq!(launch.max_ctas_per_sm, Some(limit));
        }
    }

    /// The fused grid as it was built before unit runs: one CTA per prefill
    /// unit, decode units packed `factor` per CTA by `chunks`, bound by a
    /// copy of Figure 9's algorithm over the two CTA lists.
    struct ListScheduler {
        prefill: std::collections::VecDeque<gpu_sim::CtaWork>,
        decode: std::collections::VecDeque<gpu_sim::CtaWork>,
        ratio: (usize, usize),
        counters: Vec<usize>,
        bound_counts: Vec<(usize, usize)>,
        fallthroughs: usize,
    }

    impl ListScheduler {
        fn new(pod: &PodAttention, batch: &HybridBatch) -> Self {
            let (plan, prefill_kernel) = pod.resolve(batch);
            let prefill = match &batch.prefill {
                Some(chunk) => prefill_kernel.build_units(chunk, &pod.cfg, &pod.gpu),
                None => Vec::new(),
            };
            let decode =
                pod.options
                    .decode_kernel()
                    .build_units(&batch.decodes, &pod.cfg, &pod.gpu);
            let factor = plan.ctas_per_sm.virtual_decode_factor().max(1);
            ListScheduler {
                prefill: prefill
                    .into_iter()
                    .map(|u| gpu_sim::CtaWork { units: vec![u] })
                    .collect(),
                decode: decode
                    .chunks(factor)
                    .map(|group| gpu_sim::CtaWork::fused(group.to_vec()))
                    .collect(),
                ratio: plan.ratio,
                counters: vec![0; pod.gpu.num_sms],
                bound_counts: vec![(0, 0); pod.gpu.num_sms],
                fallthroughs: 0,
            }
        }

        fn dispatch(&mut self, sm: usize) -> gpu_sim::CtaWork {
            let ticket = self.counters[sm];
            self.counters[sm] += 1;
            let (p, d) = self.ratio;
            let prefill_first = if p + d == 0 {
                !self.prefill.is_empty()
            } else {
                let slot = ticket % (p + d);
                if p <= d {
                    slot < p
                } else {
                    slot >= d
                }
            };
            let prefill = match prefill_first {
                true if self.prefill.is_empty() => false,
                false if self.decode.is_empty() => true,
                chosen => chosen,
            };
            if prefill != prefill_first {
                self.fallthroughs += 1;
            }
            if prefill {
                self.bound_counts[sm].0 += 1;
                self.prefill.pop_front().unwrap()
            } else {
                self.bound_counts[sm].1 += 1;
                self.decode.pop_front().unwrap()
            }
        }
    }

    fn bits(units: &[WorkUnit]) -> Vec<(gpu_sim::OpClass, u64, u64, u64)> {
        units
            .iter()
            .map(|u| {
                (
                    u.op,
                    u.flops.to_bits(),
                    u.bytes.to_bits(),
                    u.serial_fraction.to_bits(),
                )
            })
            .collect()
    }

    /// Drain `pod`'s dispatcher for `batch` and the list-built reference on
    /// one pseudo-random SM sequence; every CTA's units, every SM's bound
    /// counts and the fall-through count must agree. Returns the CTA count.
    fn assert_dispatch_matches_lists(
        pod: &PodAttention,
        batch: &HybridBatch,
        label: &str,
    ) -> usize {
        let (mut runs, plan) = pod.scheduler(batch);
        let mut lists = ListScheduler::new(pod, batch);
        let ctas = runs.remaining();
        assert_eq!(
            ctas,
            lists.prefill.len() + lists.decode.len(),
            "{label}: CTAs"
        );
        assert_eq!(ctas, plan.prefill_ctas + plan.decode_slots, "{label}: plan");
        let mut units = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..ctas {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sm = (x >> 33) as usize % pod.gpu.num_sms;
            units.clear();
            runs.dispatch(sm, &mut units);
            let want = lists.dispatch(sm);
            assert_eq!(
                bits(&units),
                bits(&want.units),
                "{label}: CTA {i} on SM {sm}"
            );
        }
        assert_eq!(runs.remaining(), 0, "{label}");
        assert_eq!(runs.bound_counts(), &lists.bound_counts[..], "{label}");
        assert_eq!(runs.fallthroughs(), lists.fallthroughs, "{label}");
        ctas
    }

    /// Building the fused launch from unit runs dispatches exactly what the
    /// per-CTA construction did: the three models, a model whose decode
    /// slots straddle requests, non-uniform contexts, degenerate batches and
    /// both CTAs/SM modes.
    #[test]
    fn run_dispatch_matches_per_cta_construction() {
        use attn_kernels::DecodeRequest;
        let gpu = GpuConfig::a100_80gb();
        // 3 KV heads per GPU: a request's 3 × splits units are not a
        // multiple of either decode factor, so slots straddle requests.
        let odd = AttentionConfig {
            num_q_heads: 30,
            num_kv_heads: 6,
            head_dim: 128,
            dtype_bytes: 2,
            tensor_parallel: 2,
            num_layers: 32,
        };
        let ragged = |n: usize| HybridBatch {
            prefill: Some(attn_kernels::PrefillChunk::new(768, 5000)),
            decodes: (0..n)
                .map(|i| DecodeRequest::new(300 + 997 * i % 9000))
                .collect(),
            kv_dedup_tokens: 0,
            spec_verify_tokens: 0,
        };
        let batches = [
            HybridBatch::uniform(1024, 12 * 1024, 128, 12 * 1024),
            HybridBatch::uniform(512, 4096, 224, 4096),
            HybridBatch::uniform(2048, 2048, 12, 16 * 1024),
            ragged(37),
            ragged(12),
            HybridBatch::prefill_only(2048, 2048),
            HybridBatch::decode_only(12, 4096),
            HybridBatch::new(),
        ];
        let mut straddled = false;
        for (name, cfg) in [
            ("yi_6b", AttentionConfig::yi_6b()),
            ("llama2_7b", AttentionConfig::llama2_7b()),
            ("llama3_8b", AttentionConfig::llama3_8b()),
            ("odd_kv_heads", odd),
        ] {
            for mode in [CtasPerSm::Two, CtasPerSm::Four] {
                let pod = PodAttention::with_options(
                    cfg,
                    gpu.clone(),
                    PodOptions::recommended().with_ctas_per_sm(mode),
                );
                for (i, batch) in batches.iter().enumerate() {
                    let label = format!("{name} {mode} batch {i}");
                    assert_dispatch_matches_lists(&pod, batch, &label);
                    let plan = pod.plan(batch);
                    let per_request = plan.virtual_decode_ctas / batch.decodes.len().max(1);
                    straddled |= per_request % mode.virtual_decode_factor() != 0;
                }
            }
        }
        assert!(straddled, "no case packed a slot across two requests");
    }
}

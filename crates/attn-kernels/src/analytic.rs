//! Closed-form attention-cost estimator.
//!
//! The end-to-end serving experiments (Figures 12 and 15, Tables 5–7)
//! simulate hundreds of thousands of scheduler iterations, far too many to
//! run each one through the CTA-level contention engine. This module provides
//! a closed-form estimate of the attention time of a hybrid batch under the
//! two strategies serving deploys — FA_Serial (Sarathi) and POD
//! (Sarathi+POD) — derived from the same kernel work-models and the same
//! roofline reasoning the engine applies. The other four strategies of the
//! kernel study (FA_Streams, FA_HFuse, FI_Serial, FI_Batched) are timed only
//! by the CTA simulation (`fusion_lab::HybridAttentionRunner`); the estimator
//! rejects them. The kernel-level figures use the full simulation; the
//! estimator is validated against it in tests.

use crate::batch::{DecodeRequest, HybridBatch};
use crate::config::AttentionConfig;
use crate::cost::KERNEL_LAUNCH_OVERHEAD;
use crate::decode::DecodeKernel;
use crate::prefill::{PrefillKernel, SplitPolicy};
use gpu_sim::{GpuConfig, MAX_CTA_BANDWIDTH_FRACTION, MAX_CTA_COMPUTE_FRACTION};

/// Quantize a token (or CTA) count to ~1.5% relative resolution: 64 steps per
/// power of two, exact below 64. Used to form pricing keys for batch shapes
/// whose cost is smooth in the quantized quantity.
///
/// The step is `g = max(x.next_power_of_two() / 64, 1)`, a power of two, and
/// `x` rounds half up to a multiple of it; both are shifts.
pub fn quantize_tokens(x: usize) -> usize {
    let shift = x.next_power_of_two().trailing_zeros().saturating_sub(6);
    let half = (1usize << shift) >> 1;
    ((x + half) >> shift) << shift
}

/// `(compute time, memory time, flops, bytes)` of one side of a hybrid batch.
type SideCost = (f64, f64, f64, f64);

/// How the attention of a hybrid batch is executed.
///
/// The CTA simulation (`fusion_lab::HybridAttentionRunner`) runs all six
/// strategies; the closed-form [`AttentionEstimator`], and so serving, prices
/// only [`FaSerial`](AttentionStrategy::FaSerial) and
/// [`Pod`](AttentionStrategy::Pod).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionStrategy {
    /// FlashAttention prefill kernel followed by FlashAttention decode kernel.
    FaSerial,
    /// FlashAttention kernels on two CUDA streams (CTA simulation only).
    FaStreams,
    /// FlashAttention kernels fused warp-parallel, HFuse (CTA simulation
    /// only).
    FaHFuse,
    /// FlashInfer prefill kernel followed by FlashInfer decode kernel (CTA
    /// simulation only).
    FiSerial,
    /// Both operations computed by FlashInfer's prefill kernel, FI_Batched
    /// (CTA simulation only).
    FiBatched,
    /// POD-Attention: fused CTA-parallel execution with SM-aware scheduling.
    Pod,
}

impl AttentionStrategy {
    /// All strategies, in the order Figure 11 reports them.
    pub fn all() -> [AttentionStrategy; 6] {
        [
            AttentionStrategy::FaSerial,
            AttentionStrategy::FaStreams,
            AttentionStrategy::FiSerial,
            AttentionStrategy::FiBatched,
            AttentionStrategy::FaHFuse,
            AttentionStrategy::Pod,
        ]
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AttentionStrategy::FaSerial => "FA_Serial",
            AttentionStrategy::FaStreams => "FA_Streams",
            AttentionStrategy::FaHFuse => "FA_HFuse",
            AttentionStrategy::FiSerial => "FI_Serial",
            AttentionStrategy::FiBatched => "FI_Batched",
            AttentionStrategy::Pod => "POD",
        }
    }
}

impl std::fmt::Display for AttentionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Estimated cost of one attention computation (all layers use the same
/// shape, so this is the per-layer cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCost {
    /// Time attributable to the prefill operation alone (seconds).
    pub prefill_time: f64,
    /// Time attributable to the decode operation alone (seconds).
    pub decode_time: f64,
    /// Total attention time for the batch under the chosen strategy.
    pub total_time: f64,
    /// Tensor FLOPs performed.
    pub flops: f64,
    /// HBM bytes moved.
    pub bytes: f64,
}

/// Closed-form estimator of hybrid-batch attention time under FA_Serial and
/// POD, the two strategies serving runs: a pure function of the batch,
/// holding no cache, so one estimator can be shared across threads. The
/// other strategies are timed only by the CTA simulation
/// (`fusion_lab::HybridAttentionRunner`).
///
/// # Examples
///
/// ```
/// use attn_kernels::{AttentionConfig, AttentionEstimator, AttentionStrategy, HybridBatch};
/// use gpu_sim::GpuConfig;
///
/// let est = AttentionEstimator::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb());
/// let batch = HybridBatch::config_c1();
/// let serial = est.estimate(&batch, AttentionStrategy::FaSerial);
/// let pod = est.estimate(&batch, AttentionStrategy::Pod);
/// assert!(pod.total_time < serial.total_time);
/// ```
#[derive(Debug, Clone)]
pub struct AttentionEstimator {
    cfg: AttentionConfig,
    gpu: GpuConfig,
    /// Price the decode side from its quantized aggregate (see
    /// [`AttentionEstimator::new`]) rather than request by request.
    quantized: bool,
}

// Fails to compile if a field ever stops the estimator being shared across
// threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<AttentionEstimator>();
};

impl AttentionEstimator {
    /// Create an estimator for a model/device pair that prices the decode
    /// side in O(1) from its `(count, total context, max context, dedup
    /// tokens)` aggregate, with every token quantity quantized to ~1.5%
    /// resolution (the default; see [`AttentionEstimator::exact`]).
    pub fn new(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        AttentionEstimator {
            cfg,
            gpu,
            quantized: true,
        }
    }

    /// Create an estimator that prices every batch exactly, request by
    /// request, without the decode-side quantization. Used to validate the
    /// quantized fast path and by serving engines whose price cache is off.
    pub fn exact(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        AttentionEstimator {
            quantized: false,
            ..AttentionEstimator::new(cfg, gpu)
        }
    }

    /// Whether the decode side is priced from its quantized aggregate.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Estimate the per-layer attention time of `batch` under `strategy`.
    ///
    /// # Panics
    ///
    /// If `strategy` is not [`AttentionStrategy::FaSerial`] or
    /// [`AttentionStrategy::Pod`]: the other strategies have no closed form
    /// here and are timed by the CTA simulation,
    /// `fusion_lab::HybridAttentionRunner`.
    pub fn estimate(&self, batch: &HybridBatch, strategy: AttentionStrategy) -> AnalyticCost {
        match strategy {
            AttentionStrategy::FaSerial => self.serial(batch),
            AttentionStrategy::Pod => self.pod(batch),
            other => panic!(
                "the attention estimator prices only FA_Serial and POD, not {other}; \
                 time {other} with fusion_lab::HybridAttentionRunner"
            ),
        }
    }

    /// Roofline time of the prefill chunk alone: (compute, memory, flops,
    /// bytes), always exact. POD's prefill limits its KV splits to two waves.
    fn prefill_side(&self, batch: &HybridBatch, pod: bool) -> SideCost {
        let Some(chunk) = &batch.prefill else {
            return (0.0, 0.0, 0.0, 0.0);
        };
        let mut kernel = PrefillKernel::flash_attention();
        if pod {
            kernel = kernel.with_split_policy(SplitPolicy::LimitedToTwoWaves);
        }
        // O(query tiles) aggregate: flops, bytes and the CTA count without
        // materializing the per-CTA unit list.
        let (flops, bytes, ctas) = kernel.aggregate_work(chunk, &self.cfg, &self.gpu);
        let fp = kernel.footprint(&self.cfg);
        let wave = self.gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let tc = flops / self.effective_compute(ctas) * self.quantization_factor(ctas, wave);
        let tm = bytes / self.effective_bandwidth(ctas);
        (tc, tm, flops, bytes)
    }

    /// Roofline time of the decode batch alone: (compute, memory, flops,
    /// bytes), on POD's decode tile when `pod` is set, scaled for any
    /// speculative-verify queries.
    fn decode_side(&self, batch: &HybridBatch, pod: bool) -> SideCost {
        if batch.decodes.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let kernel = if pod {
            DecodeKernel::pod()
        } else {
            DecodeKernel::flash_attention()
        };
        let (flops, bytes, ctas) = self.decode_work(&kernel, batch);
        let fp = kernel.footprint(&self.cfg);
        let wave = self.gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let tc = flops / self.effective_compute(ctas);
        let tm = bytes / self.effective_bandwidth(ctas) * self.quantization_factor(ctas, wave);
        // Speculative-verify queries ride the decode's single pass over KV —
        // memory time and bytes are untouched — but each extra query scores
        // against the same context as the decode it extends, so attention
        // compute grows by `(count + extra) / count`. A batch declaring zero
        // skips the scaling and is bit-for-bit unaffected.
        if batch.spec_verify_tokens == 0 {
            return (tc, tm, flops, bytes);
        }
        let count = batch.decodes.len() as f64;
        let scale = (count + batch.spec_verify_tokens as f64) / count;
        (tc * scale, tm, flops * scale, bytes)
    }

    /// `(flops, bytes, ctas)` of a non-empty decode batch on `kernel`, with
    /// redundant passes over shared-prefix KV elided, bounded by everything
    /// beyond one pass over the largest request.
    ///
    /// When quantized, priced in O(1) from the `(count, quantized total
    /// context, quantized max context, quantized dedup tokens)` aggregate: a
    /// pure function of that key, so equal keys price bit-identically. The
    /// count is kept *exact*: the CTA grid is `count × kv_heads × splits` and
    /// [`quantization_factor`] is a step function in whole waves, so rounding
    /// the count can flip a wave-quantization boundary and mis-price the
    /// batch by the cost of a partial wave (~10%) rather than the ~1.5%
    /// resolution of the token buckets. A batch declaring no sharing has a
    /// dedup bucket of 0. Otherwise priced exactly, request by request.
    ///
    /// [`quantization_factor`]: AttentionEstimator::quantization_factor
    fn decode_work(&self, kernel: &DecodeKernel, batch: &HybridBatch) -> (f64, f64, usize) {
        let (mut total, mut max_ctx) = (0usize, 0usize);
        for d in &batch.decodes {
            total += d.context_len;
            max_ctx = max_ctx.max(d.context_len);
        }
        // Dedup can never elide the one mandatory pass over the largest
        // context; clamping before quantization keeps the key canonical.
        let dedup = batch.kv_dedup_tokens.min(total.saturating_sub(max_ctx));
        if self.quantized {
            let count = batch.decodes.len();
            // The total and max buckets quantize independently (~1/128
            // relative error each), which can push the quantized total just
            // past `count × quantized max` — an aggregate no real batch can
            // produce, and one `aggregate_work` rejects in debug builds.
            // Capping restores consistency within the same resolution.
            let qmax = quantize_tokens(max_ctx);
            let qtotal = quantize_tokens(total).min(count.saturating_mul(qmax));
            let qdedup = quantize_tokens(dedup);
            return kernel.aggregate_work(count, qtotal, qmax, qdedup, &self.cfg, &self.gpu);
        }
        // One walk of the grid serves flops, bytes and the CTA count.
        let (flops, mut bytes, ctas) = kernel.work(&batch.decodes, &self.cfg, &self.gpu);
        if dedup > 0 {
            bytes -= kernel.dedup_bytes_saved(dedup, &self.cfg);
        }
        (flops, bytes, ctas)
    }

    /// Compute throughput achievable by `ctas` concurrent CTAs.
    fn effective_compute(&self, ctas: usize) -> f64 {
        let per_cta = MAX_CTA_COMPUTE_FRACTION * self.gpu.sm_compute_flops();
        (ctas as f64 * per_cta).min(self.gpu.tensor_flops)
    }

    /// HBM bandwidth achievable by `ctas` concurrent CTAs.
    fn effective_bandwidth(&self, ctas: usize) -> f64 {
        let per_cta = MAX_CTA_BANDWIDTH_FRACTION * self.gpu.hbm_bandwidth;
        (ctas as f64 * per_cta).min(self.gpu.hbm_bandwidth)
    }

    /// Slow-down from wave quantization when `ctas` spill into a partial last
    /// wave. A partial wave costs roughly a third of a full wave (its CTAs
    /// run closer to the per-CTA throughput cap because they no longer share
    /// the SM), which matches the ~25 % decode-time increase the paper
    /// observes going from 216 to 220 CTAs.
    fn quantization_factor(&self, ctas: usize, wave: usize) -> f64 {
        if ctas == 0 || wave == 0 || ctas <= wave {
            return 1.0;
        }
        let full_waves = (ctas / wave) as f64;
        let tail = ctas % wave;
        let effective_waves = full_waves + if tail > 0 { 0.3 } else { 0.0 };
        (effective_waves / (ctas as f64 / wave as f64)).max(1.0)
    }

    fn serial(&self, batch: &HybridBatch) -> AnalyticCost {
        let (pc, pm, pf, pb) = self.prefill_side(batch, false);
        let (dc, dm, df, db) = self.decode_side(batch, false);
        let prefill_time = pc.max(pm) + overhead_if(batch.has_prefill());
        let decode_time = dc.max(dm) + overhead_if(batch.has_decode());
        AnalyticCost {
            prefill_time,
            decode_time,
            total_time: prefill_time + decode_time,
            flops: pf + df,
            bytes: pb + db,
        }
    }

    fn pod(&self, batch: &HybridBatch) -> AnalyticCost {
        let serial = self.serial(batch);
        if !batch.has_prefill() || !batch.has_decode() {
            return serial;
        }
        let (pc, pm, pf, pb) = self.prefill_side(batch, true);
        let (dc, dm, df, db) = self.decode_side(batch, true);
        // CTA-parallel fusion with SM-aware scheduling: prefill keeps the
        // tensor pipes busy while decode streams the KV cache, so the fused
        // time approaches max(total compute, total memory). The overlap
        // efficiency accounts for imperfect interleaving at the start/end of
        // the kernel and residual interference on shared resources: POD
        // recovers ~85 % of the time that perfect overlap would hide.
        let overlap_efficiency = 0.85;
        let ideal = (pc + dc).max(pm + dm) + KERNEL_LAUNCH_OVERHEAD;
        let floor = pc.max(pm).max(dc.max(dm)) + KERNEL_LAUNCH_OVERHEAD;
        let saved = (serial.total_time - ideal).max(0.0) * overlap_efficiency;
        // POD never does worse than serial execution (§5.1).
        let total = (serial.total_time - saved)
            .max(floor)
            .min(serial.total_time);
        AnalyticCost {
            prefill_time: serial.prefill_time,
            decode_time: serial.decode_time,
            total_time: total,
            flops: pf + df,
            bytes: pb + db,
        }
    }
}

fn overhead_if(present: bool) -> f64 {
    if present {
        KERNEL_LAUNCH_OVERHEAD
    } else {
        0.0
    }
}

/// The canonical decode set of a `(count, total context, max context)`
/// aggregate: one request carries the maximum context, the rest share the
/// remainder evenly. This is the single definition of the equivalence class
/// shared by [`DecodeKernel::aggregate_work`] (which prices it in closed
/// form) and the serving layer's batch-price memo (which materializes it);
/// for uniform batches it reproduces the original batch exactly.
pub fn canonical_decodes(
    count: usize,
    total_context: usize,
    max_context: usize,
) -> Vec<DecodeRequest> {
    if count == 0 {
        return Vec::new();
    }
    let max_context = max_context.clamp(1, total_context.max(1));
    let mut decodes = Vec::with_capacity(count);
    decodes.push(DecodeRequest::new(max_context));
    if count > 1 {
        let rest = (total_context.saturating_sub(max_context) / (count - 1)).max(1);
        decodes.extend(vec![DecodeRequest::new(rest); count - 1]);
    }
    decodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::HybridBatch;
    use gpu_sim::Engine;

    /// The strategies the estimator prices.
    const SERVED: [AttentionStrategy; 2] = [AttentionStrategy::FaSerial, AttentionStrategy::Pod];

    fn estimator() -> AttentionEstimator {
        AttentionEstimator::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    fn exact_estimator() -> AttentionEstimator {
        AttentionEstimator::exact(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
    }

    /// The quantized estimate of `batch` lies within 3% of the exact one
    /// under every priced strategy.
    fn assert_tracks_exact(batch: &HybridBatch) {
        let (quantized, exact) = (estimator(), exact_estimator());
        for strategy in SERVED {
            let fast = quantized.estimate(batch, strategy).total_time;
            let slow = exact.estimate(batch, strategy).total_time;
            let rel = (fast - slow).abs() / slow.max(1e-12);
            assert!(
                rel < 0.03,
                "{strategy}: quantized {fast} vs exact {slow} ({:.2}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn pod_beats_serial_on_hybrid_batches() {
        let est = estimator();
        for batch in [
            HybridBatch::config_c0(),
            HybridBatch::config_c1(),
            HybridBatch::config_c2(),
        ] {
            let serial = est.estimate(&batch, AttentionStrategy::FaSerial);
            let pod = est.estimate(&batch, AttentionStrategy::Pod);
            assert!(
                pod.total_time < serial.total_time,
                "POD {} vs serial {}",
                pod.total_time,
                serial.total_time
            );
            // Paper: up to 59 % faster, i.e. serial/pod <= ~1.8 and always >= 1.
            let speedup = serial.total_time / pod.total_time;
            assert!((1.0..2.2).contains(&speedup), "speedup {speedup}");
        }
    }

    #[test]
    fn pod_gain_is_largest_for_balanced_batches() {
        let est = estimator();
        let speedup = |b: &HybridBatch| {
            est.estimate(b, AttentionStrategy::FaSerial).total_time
                / est.estimate(b, AttentionStrategy::Pod).total_time
        };
        let balanced = speedup(&HybridBatch::config_c1());
        let decode_heavy = speedup(&HybridBatch::config_c0());
        assert!(
            balanced > decode_heavy,
            "balanced {balanced} vs decode-heavy {decode_heavy}"
        );
    }

    #[test]
    fn prefill_or_decode_only_batches_gain_nothing() {
        let est = estimator();
        let prefill_only = HybridBatch::prefill_only(2048, 8192);
        let decode_only = HybridBatch::decode_only(64, 8192);
        for b in [prefill_only, decode_only] {
            let serial = est.estimate(&b, AttentionStrategy::FaSerial);
            let pod = est.estimate(&b, AttentionStrategy::Pod);
            assert!((serial.total_time - pod.total_time).abs() < 1e-9);
        }
    }

    /// Strategies without a closed form are rejected by name, pointing at the
    /// CTA simulation that times them.
    #[test]
    #[should_panic(expected = "prices only FA_Serial and POD, not FA_HFuse")]
    fn unpriced_strategies_are_rejected() {
        estimator().estimate(&HybridBatch::config_c1(), AttentionStrategy::FaHFuse);
    }

    /// The analytic serial estimate tracks the CTA-level simulation.
    #[test]
    fn analytic_serial_matches_simulation() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let est = AttentionEstimator::new(cfg, gpu.clone());
        let engine = Engine::new(gpu.clone());
        for batch in [
            HybridBatch::uniform(1024, 8 * 1024, 64, 8 * 1024),
            HybridBatch::uniform(2048, 2048, 32, 4 * 1024),
        ] {
            let analytic = est.estimate(&batch, AttentionStrategy::FaSerial).total_time;
            let prefill =
                PrefillKernel::flash_attention().launch("p", &batch.prefill.unwrap(), &cfg, &gpu);
            let decode = DecodeKernel::flash_attention().launch("d", &batch.decodes, &cfg, &gpu);
            let sim = engine.run_serial(vec![prefill, decode]).unwrap().makespan;
            let ratio = analytic / sim;
            assert!(
                (0.6..1.6).contains(&ratio),
                "analytic {analytic} vs simulated {sim} (ratio {ratio})"
            );
        }
    }

    /// The quantized fast path agrees with exact pricing within the decode
    /// quantization resolution, for both priced strategies, including heterogeneous
    /// decode contexts.
    #[test]
    fn memoized_estimates_track_exact_estimates() {
        assert!(estimator().is_quantized());
        assert!(!exact_estimator().is_quantized());
        let mut heterogeneous = HybridBatch::uniform(1024, 9 * 1024, 0, 0);
        for i in 0..70 {
            heterogeneous
                .decodes
                .push(DecodeRequest::new(4 * 1024 + 137 * i));
        }
        for batch in [
            HybridBatch::config_c0(),
            HybridBatch::config_c1(),
            HybridBatch::uniform(512, 5000, 33, 7777),
            heterogeneous,
            // Wave-quantization boundary: 217 decodes x 4 KV heads = 868
            // CTAs, one CTA into a partial wave. Rounding the count to 216
            // (exactly 4 waves) used to mis-price this batch by ~11%; the
            // quantized key keeps the count exact precisely for this case.
            HybridBatch::uniform(512, 4096, 217, 2085),
            HybridBatch::uniform(512, 4096, 216, 2085),
        ] {
            assert_tracks_exact(&batch);
        }
    }

    /// Uniform power-of-two batches quantize exactly, so the quantized path is
    /// bit-identical on the paper's Table 1 configurations.
    #[test]
    fn memoization_is_exact_on_uniform_batches() {
        let (quantized, exact) = (estimator(), exact_estimator());
        let batch = HybridBatch::config_c0();
        for strategy in SERVED {
            let fast = quantized.estimate(&batch, strategy);
            let slow = exact.estimate(&batch, strategy);
            // Identical up to float associativity (the aggregate path
            // multiplies per-unit work by counts instead of summing a grid).
            let rel = (fast.total_time - slow.total_time).abs() / slow.total_time;
            assert!(
                rel < 1e-12,
                "total {} vs {}",
                fast.total_time,
                slow.total_time
            );
            let rel_f = (fast.flops - slow.flops).abs() / slow.flops;
            assert!(rel_f < 1e-12, "flops {} vs {}", fast.flops, slow.flops);
        }
    }

    /// Declaring shared-prefix dedup strictly lowers the estimate of a
    /// memory-bound decode batch under both priced strategies, and declaring
    /// zero leaves every estimate bit-for-bit unchanged.
    #[test]
    fn kv_dedup_lowers_decode_estimates_and_zero_is_inert() {
        let est = estimator();
        let base = HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024);
        // 40 of the 80 decodes share a 4K-token prefix: 39 redundant passes.
        let deduped = HybridBatch {
            kv_dedup_tokens: 39 * 4096,
            ..base.clone()
        };
        for strategy in SERVED {
            let plain = est.estimate(&base, strategy);
            let inert = HybridBatch {
                kv_dedup_tokens: 0,
                ..base.clone()
            };
            let inert = est.estimate(&inert, strategy);
            assert_eq!(plain.total_time.to_bits(), inert.total_time.to_bits());
            assert_eq!(plain.bytes.to_bits(), inert.bytes.to_bits());
            let shared = est.estimate(&deduped, strategy);
            assert_eq!(
                plain.flops.to_bits(),
                shared.flops.to_bits(),
                "{strategy}: dedup must not change FLOPs"
            );
            assert!(
                shared.total_time < plain.total_time,
                "{strategy}: {} !< {}",
                shared.total_time,
                plain.total_time
            );
            assert!(shared.bytes < plain.bytes, "{strategy}");
        }
    }

    /// The quantized fast path tracks exact pricing on dedup-declaring
    /// batches too (the dedup bucket quantizes like the token buckets).
    #[test]
    fn memoized_dedup_estimates_track_exact_estimates() {
        let mut heterogeneous = HybridBatch::uniform(512, 4096, 0, 0);
        for i in 0..48 {
            heterogeneous
                .decodes
                .push(DecodeRequest::new(6 * 1024 + 211 * i));
        }
        for batch in [
            HybridBatch {
                kv_dedup_tokens: 40 * 4096,
                ..HybridBatch::config_c0()
            },
            HybridBatch {
                kv_dedup_tokens: 16 * 2048,
                ..HybridBatch::uniform(512, 5000, 33, 7777)
            },
            HybridBatch {
                kv_dedup_tokens: 24 * 1024,
                ..heterogeneous
            },
        ] {
            assert_tracks_exact(&batch);
        }
    }

    /// Declaring speculative-verify tokens strictly raises decode *compute*
    /// (each verify query scores against the full context) without touching
    /// bytes, under both priced strategies; declaring zero leaves
    /// every estimate bit-for-bit unchanged, and speculation is never priced
    /// cheaper than the plain batch it extends.
    #[test]
    fn spec_verify_raises_decode_compute_and_zero_is_inert() {
        let est = estimator();
        // Compute-sensitive shape: large decode batch at long context.
        let base = HybridBatch::uniform(1024, 12 * 1024, 220, 12 * 1024);
        // 220 decodes each verifying 4 drafts: 3 extra queries per decode.
        let spec = HybridBatch {
            spec_verify_tokens: 220 * 3,
            ..base.clone()
        };
        for strategy in SERVED {
            let plain = est.estimate(&base, strategy);
            let inert = HybridBatch {
                spec_verify_tokens: 0,
                ..base.clone()
            };
            let inert = est.estimate(&inert, strategy);
            assert_eq!(plain.total_time.to_bits(), inert.total_time.to_bits());
            assert_eq!(plain.flops.to_bits(), inert.flops.to_bits());
            let verify = est.estimate(&spec, strategy);
            assert_eq!(
                verify.bytes.to_bits(),
                plain.bytes.to_bits(),
                "{strategy}: verify shares the decode KV pass"
            );
            assert!(
                verify.flops > plain.flops,
                "{strategy}: verify must add compute"
            );
            assert!(
                verify.total_time >= plain.total_time,
                "{strategy}: {} < {}",
                verify.total_time,
                plain.total_time
            );
        }
        // On POD the extra verify compute overlaps with decode's memory
        // streaming, so the fused penalty is smaller than serial's.
        let serial_penalty = est.estimate(&spec, AttentionStrategy::FaSerial).total_time
            - est.estimate(&base, AttentionStrategy::FaSerial).total_time;
        let pod_penalty = est.estimate(&spec, AttentionStrategy::Pod).total_time
            - est.estimate(&base, AttentionStrategy::Pod).total_time;
        assert!(
            pod_penalty <= serial_penalty,
            "POD penalty {pod_penalty} vs serial {serial_penalty}"
        );
    }

    /// Speculative-verify scaling is applied after quantization: quantized
    /// and exact estimates agree on spec-declaring batches, and pricing a
    /// spec batch does not perturb the price of its plain twin.
    #[test]
    fn memoized_spec_estimates_track_exact_estimates() {
        let quantized = estimator();
        let base = HybridBatch::uniform(512, 5000, 33, 7777);
        let spec = HybridBatch {
            spec_verify_tokens: 33 * 5,
            ..base.clone()
        };
        assert_tracks_exact(&spec);
        for strategy in SERVED {
            let before = quantized.estimate(&base, strategy).total_time;
            quantized.estimate(&spec, strategy);
            let after = quantized.estimate(&base, strategy).total_time;
            assert_eq!(before.to_bits(), after.to_bits(), "{strategy}");
        }
    }

    /// The shift form equals the division form it replaced, exhaustively
    /// below `2^20` and on both sides of every power of two up to `2^40`.
    #[test]
    fn quantize_tokens_matches_the_division_form() {
        let by_division = |x: usize| {
            if x == 0 {
                return 0;
            }
            let g = (x.next_power_of_two() / 64).max(1);
            ((x + g / 2) / g) * g
        };
        let edges = (1..=40).flat_map(|k| {
            let p = 1usize << k;
            [p - 1, p, p + 1]
        });
        for x in (0..1usize << 20).chain(edges) {
            assert_eq!(quantize_tokens(x), by_division(x), "x = {x}");
        }
    }

    #[test]
    fn quantize_tokens_resolution() {
        assert_eq!(quantize_tokens(0), 0);
        for x in [
            1usize, 17, 63, 64, 100, 1000, 4096, 12_345, 300_000, 1_500_000,
        ] {
            let q = quantize_tokens(x);
            let rel = (q as f64 - x as f64).abs() / x as f64;
            assert!(rel <= 1.0 / 64.0 + 1e-9, "quantize({x}) = {q}");
        }
        // Exact below 64 and on powers of two.
        assert_eq!(quantize_tokens(63), 63);
        assert_eq!(quantize_tokens(4096), 4096);
    }

    #[test]
    fn strategy_labels_are_unique() {
        use std::collections::HashSet;
        let set: HashSet<_> = AttentionStrategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(set.len(), 6);
        assert_eq!(AttentionStrategy::Pod.to_string(), "POD");
    }
}

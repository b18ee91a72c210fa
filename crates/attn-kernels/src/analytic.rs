//! Closed-form attention-cost estimator.
//!
//! The end-to-end serving experiments (Figures 12 and 15, Tables 5–7)
//! simulate hundreds of thousands of scheduler iterations, far too many to
//! run each one through the CTA-level contention engine. This module provides
//! a closed-form estimate of the attention time of a hybrid batch for each
//! execution strategy, derived from the same kernel work-models and the same
//! roofline reasoning the engine applies. The kernel-level figures use the
//! full simulation; the estimator is validated against it in tests.

use crate::batch::{DecodeRequest, HybridBatch, PrefillChunk};
use crate::batched::BatchedPrefillKernel;
use crate::config::AttentionConfig;
use crate::cost::KERNEL_LAUNCH_OVERHEAD;
use crate::decode::DecodeKernel;
use crate::prefill::{PrefillKernel, SplitPolicy};
use gpu_sim::{GpuConfig, MAX_CTA_BANDWIDTH_FRACTION, MAX_CTA_COMPUTE_FRACTION};
use std::cell::RefCell;
use std::collections::HashMap;

/// Quantize a token (or CTA) count to ~1.5% relative resolution: 64 steps per
/// power of two, exact below 64. Used to form memoization keys for batch
/// shapes whose cost is smooth in the quantized quantity.
pub fn quantize_tokens(x: usize) -> usize {
    if x == 0 {
        return 0;
    }
    let g = (x.next_power_of_two() / 64).max(1);
    ((x + g / 2) / g) * g
}

/// Bound on memo entries per side before the table is cleared (a trivially
/// correct eviction policy; real sweeps stay far below this).
const MEMO_MAX_ENTRIES: usize = 1 << 16;

/// `(compute time, memory time, flops, bytes)` of one side of a hybrid batch.
type SideCost = (f64, f64, f64, f64);

/// Memoized side costs. The prefill key `(chunk_len, prior_len, flashinfer,
/// limited_splits)` is exact — the side cost is a pure function of it. The
/// decode key keeps the request count exact (it determines the CTA grid and
/// therefore wave boundaries) and quantizes the total context, the maximum
/// context and the shared-prefix dedup tokens to ~1.5% resolution, pricing
/// one canonical batch per equivalence class. Batches declaring no sharing
/// quantize to a dedup bucket of 0, so the dedup dimension adds no keys (and
/// changes no prices) for dedup-unaware callers.
#[derive(Debug, Clone, Default)]
struct SideMemo {
    prefill: HashMap<(usize, usize, bool, bool), SideCost>,
    decode: HashMap<(usize, usize, usize, usize, bool, bool), SideCost>,
}

/// How the attention of a hybrid batch is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionStrategy {
    /// FlashAttention prefill kernel followed by FlashAttention decode kernel.
    FaSerial,
    /// FlashAttention kernels on two CUDA streams.
    FaStreams,
    /// FlashAttention kernels fused warp-parallel (HFuse).
    FaHFuse,
    /// FlashInfer prefill kernel followed by FlashInfer decode kernel.
    FiSerial,
    /// Both operations computed by FlashInfer's prefill kernel (FI_Batched).
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

/// Closed-form estimator of hybrid-batch attention time.
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
    /// Side-cost memo tables; `None` means exact (unmemoized) pricing.
    memo: Option<RefCell<SideMemo>>,
}

impl AttentionEstimator {
    /// Create an estimator for a model/device pair with side-cost
    /// memoization enabled (the default; see [`AttentionEstimator::exact`]).
    pub fn new(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        AttentionEstimator {
            cfg,
            gpu,
            memo: Some(RefCell::new(SideMemo::default())),
        }
    }

    /// Create an estimator that prices every batch exactly, without the
    /// ~1.5%-resolution decode-side quantization. Used to validate the
    /// memoized fast path and by serving engines whose price cache is off.
    pub fn exact(cfg: AttentionConfig, gpu: GpuConfig) -> Self {
        AttentionEstimator {
            memo: None,
            ..AttentionEstimator::new(cfg, gpu)
        }
    }

    /// Whether side-cost memoization is enabled.
    pub fn is_memoized(&self) -> bool {
        self.memo.is_some()
    }

    /// The attention configuration this estimator uses.
    pub fn config(&self) -> &AttentionConfig {
        &self.cfg
    }

    /// The device this estimator targets.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// Estimate the per-layer attention time of `batch` under `strategy`.
    pub fn estimate(&self, batch: &HybridBatch, strategy: AttentionStrategy) -> AnalyticCost {
        match strategy {
            AttentionStrategy::FaSerial => self.serial(batch, false),
            AttentionStrategy::FiSerial => self.serial(batch, true),
            AttentionStrategy::FaStreams => self.streams(batch),
            AttentionStrategy::FaHFuse => self.hfuse(batch),
            AttentionStrategy::FiBatched => self.batched(batch),
            AttentionStrategy::Pod => self.pod(batch),
        }
    }

    /// Roofline time of the prefill chunk alone: (compute, memory, flops,
    /// bytes). Memoized by exact chunk shape when memoization is on — serving
    /// sweeps price the same `(chunk_len, prior)` pair once per run instead
    /// of once per co-scheduled decode-set variation.
    fn prefill_side(
        &self,
        batch: &HybridBatch,
        flashinfer: bool,
        limited_splits: bool,
    ) -> SideCost {
        let Some(chunk) = &batch.prefill else {
            return (0.0, 0.0, 0.0, 0.0);
        };
        if let Some(memo) = &self.memo {
            let key = (chunk.chunk_len, chunk.prior_len, flashinfer, limited_splits);
            if let Some(&cost) = memo.borrow().prefill.get(&key) {
                return cost;
            }
            let cost = self.prefill_side_raw(chunk, flashinfer, limited_splits);
            let mut memo = memo.borrow_mut();
            if memo.prefill.len() >= MEMO_MAX_ENTRIES {
                memo.prefill.clear();
            }
            memo.prefill.insert(key, cost);
            return cost;
        }
        self.prefill_side_raw(chunk, flashinfer, limited_splits)
    }

    fn prefill_side_raw(
        &self,
        chunk: &PrefillChunk,
        flashinfer: bool,
        limited_splits: bool,
    ) -> SideCost {
        let mut kernel = if flashinfer {
            PrefillKernel::flashinfer()
        } else {
            PrefillKernel::flash_attention()
        };
        if limited_splits {
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
    /// bytes). Memoized by the `(count, quantized total context, quantized
    /// max context, quantized dedup tokens)` aggregate when memoization is
    /// on; each equivalence class is priced once, as a canonical decode set
    /// with the same aggregates. The count is kept *exact*: the CTA grid is
    /// `count × kv_heads × splits` and [`quantization_factor`] is a step
    /// function in whole waves, so rounding the count can flip a
    /// wave-quantization boundary and mis-price the batch by the cost of a
    /// partial wave (~10%) rather than the ~1.5% resolution of the token
    /// buckets.
    ///
    /// [`quantization_factor`]: AttentionEstimator::quantization_factor
    fn decode_side(&self, batch: &HybridBatch, flashinfer: bool, pod_tile: bool) -> SideCost {
        if batch.decodes.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        self.apply_spec_verify(self.decode_side_base(batch, flashinfer, pod_tile), batch)
    }

    /// Scale a decode-side cost for the extra speculative-verify query
    /// tokens the batch declares. Verify queries ride the decode's single
    /// pass over KV — memory time and bytes are untouched — but each extra
    /// query scores against the same context as the decode it extends, so
    /// attention compute grows by `(count + extra) / count`. Applied
    /// *outside* the memo, so speculation adds no decode-memo keys and a
    /// batch declaring zero is bit-for-bit unaffected (the scaling is
    /// skipped entirely).
    fn apply_spec_verify(&self, cost: SideCost, batch: &HybridBatch) -> SideCost {
        if batch.spec_verify_tokens == 0 {
            return cost;
        }
        let count = batch.decodes.len() as f64;
        let scale = (count + batch.spec_verify_tokens as f64) / count;
        let (tc, tm, flops, bytes) = cost;
        (tc * scale, tm, flops * scale, bytes)
    }

    /// The memoized (or exact) decode-side cost before speculative-verify
    /// scaling: the body of [`AttentionEstimator::decode_side`].
    fn decode_side_base(&self, batch: &HybridBatch, flashinfer: bool, pod_tile: bool) -> SideCost {
        if let Some(memo) = &self.memo {
            let count = batch.decodes.len();
            let (mut total, mut max_ctx) = (0usize, 0usize);
            for d in &batch.decodes {
                total += d.context_len;
                max_ctx = max_ctx.max(d.context_len);
            }
            // Dedup can never elide the one mandatory pass over the largest
            // context; clamping before quantization keeps the key canonical.
            let dedup = batch.kv_dedup_tokens.min(total.saturating_sub(max_ctx));
            // The total and max buckets quantize independently (~1/128
            // relative error each), which can push the quantized total just
            // past `count × quantized max` — an aggregate no real batch can
            // produce, and one `aggregate_work` rejects in debug builds.
            // Capping restores consistency within the same resolution.
            let qmax = quantize_tokens(max_ctx);
            let qtotal = quantize_tokens(total).min(count.saturating_mul(qmax));
            let key = (
                count,
                qtotal,
                qmax,
                quantize_tokens(dedup),
                flashinfer,
                pod_tile,
            );
            if let Some(&cost) = memo.borrow().decode.get(&key) {
                return cost;
            }
            let cost = self.decode_side_aggregate(key.0, key.1, key.2, key.3, flashinfer, pod_tile);
            let mut memo = memo.borrow_mut();
            if memo.decode.len() >= MEMO_MAX_ENTRIES {
                memo.decode.clear();
            }
            memo.decode.insert(key, cost);
            return cost;
        }
        self.decode_side_raw(&batch.decodes, batch.kv_dedup_tokens, flashinfer, pod_tile)
    }

    /// Price a decode batch from its `(count, total, max, dedup)` aggregate
    /// alone — O(1) instead of O(count): the miss path of the decode-side
    /// memo.
    fn decode_side_aggregate(
        &self,
        count: usize,
        total_context: usize,
        max_context: usize,
        dedup_tokens: usize,
        flashinfer: bool,
        pod_tile: bool,
    ) -> SideCost {
        if count == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let kernel = decode_kernel(flashinfer, pod_tile);
        let (flops, bytes, ctas) = kernel.aggregate_work(
            count,
            total_context,
            max_context,
            dedup_tokens,
            &self.cfg,
            &self.gpu,
        );
        let fp = kernel.footprint(&self.cfg);
        let wave = self.gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let tc = flops / self.effective_compute(ctas);
        let tm = bytes / self.effective_bandwidth(ctas) * self.quantization_factor(ctas, wave);
        (tc, tm, flops, bytes)
    }

    fn decode_side_raw(
        &self,
        decodes: &[DecodeRequest],
        dedup_tokens: usize,
        flashinfer: bool,
        pod_tile: bool,
    ) -> SideCost {
        if decodes.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let kernel = decode_kernel(flashinfer, pod_tile);
        // As on the prefill side: one grid build serves flops, bytes and the
        // CTA count.
        let units = kernel.build_units(decodes, &self.cfg, &self.gpu);
        let flops: f64 = units.iter().map(|u| u.flops).sum();
        let mut bytes: f64 = units.iter().map(|u| u.bytes).sum();
        if dedup_tokens > 0 {
            // Same shared/unique split as the aggregate path: redundant
            // passes over shared-prefix KV are elided, bounded by everything
            // beyond one pass over the largest request.
            let (mut total, mut max_ctx) = (0usize, 0usize);
            for d in decodes {
                total += d.context_len;
                max_ctx = max_ctx.max(d.context_len);
            }
            let dedup = dedup_tokens.min(total.saturating_sub(max_ctx));
            bytes -= kernel.dedup_bytes_saved(dedup, &self.cfg);
        }
        let ctas = units.len();
        let fp = kernel.footprint(&self.cfg);
        let wave = self.gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let tc = flops / self.effective_compute(ctas);
        let tm = bytes / self.effective_bandwidth(ctas) * self.quantization_factor(ctas, wave);
        (tc, tm, flops, bytes)
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

    fn serial(&self, batch: &HybridBatch, flashinfer: bool) -> AnalyticCost {
        let (pc, pm, pf, pb) = self.prefill_side(batch, flashinfer, false);
        let (dc, dm, df, db) = self.decode_side(batch, flashinfer, false);
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

    fn streams(&self, batch: &HybridBatch) -> AnalyticCost {
        let serial = self.serial(batch, false);
        if !batch.has_prefill() || !batch.has_decode() {
            return serial;
        }
        // Streams only overlap the tail of the first kernel with the second:
        // a small, quantization-sized fraction of the shorter operation.
        let longer = serial.prefill_time.max(serial.decode_time);
        let shorter = serial.prefill_time.min(serial.decode_time);
        let total = (longer + 0.85 * shorter).max(longer);
        AnalyticCost {
            total_time: total,
            ..serial
        }
    }

    fn hfuse(&self, batch: &HybridBatch) -> AnalyticCost {
        let serial = self.serial(batch, false);
        if !batch.has_prefill() || !batch.has_decode() {
            return serial;
        }
        let (pc, pm, _, _) = self.prefill_side(batch, false, false);
        let (dc, dm, _, _) = self.decode_side(batch, false, false);
        // Warp-parallel fusion guarantees co-location, so compute and memory
        // overlap; but each fused CTA is held until its slower half finishes,
        // which wastes a fraction of the machine proportional to the
        // imbalance between the two operations (the straggler effect).
        let ideal = (pc + dc).max(pm + dm);
        let p = pc.max(pm);
        let d = dc.max(dm);
        let imbalance = ((p - d).abs() / (p + d).max(1e-12)).min(1.0);
        let total = (ideal * (1.0 + 0.45 * imbalance) + KERNEL_LAUNCH_OVERHEAD)
            .min(serial.total_time * 1.15);
        AnalyticCost {
            total_time: total,
            ..serial
        }
    }

    fn batched(&self, batch: &HybridBatch) -> AnalyticCost {
        // FI_Batched runs everything through the prefill kernel's grid and
        // has no per-group KV streaming to share, so it ignores
        // [`HybridBatch::kv_dedup_tokens`] — matching the real kernel, which
        // gains nothing from prefix-shared decodes. It likewise ignores
        // [`HybridBatch::spec_verify_tokens`]: the serving layer only forms
        // speculative batches on the FA/POD strategies it deploys.
        let kernel = BatchedPrefillKernel::flashinfer();
        let units = kernel.build_units(batch, &self.cfg, &self.gpu);
        let flops: f64 = units.iter().map(|u| u.flops).sum();
        let bytes: f64 = units.iter().map(|u| u.bytes).sum();
        let ctas = units.len();
        let fp = kernel.footprint(&self.cfg);
        let wave = self.gpu.wave_size(fp.shared_mem, fp.threads).max(1);
        let tc = flops / self.effective_compute(ctas);
        let tm = bytes / self.effective_bandwidth(ctas);
        let total = tc.max(tm) * self.quantization_factor(ctas, wave) + KERNEL_LAUNCH_OVERHEAD;
        let serial = self.serial(batch, true);
        AnalyticCost {
            prefill_time: serial.prefill_time,
            decode_time: serial.decode_time,
            total_time: total,
            flops,
            bytes,
        }
    }

    fn pod(&self, batch: &HybridBatch) -> AnalyticCost {
        let serial = self.serial(batch, false);
        if !batch.has_prefill() || !batch.has_decode() {
            return serial;
        }
        let (pc, pm, pf, pb) = self.prefill_side(batch, false, true);
        let (dc, dm, df, db) = self.decode_side(batch, false, true);
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
/// form) and the serving layer's batch-price cache (which materializes it);
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

/// The decode-kernel variant a strategy's flags select.
fn decode_kernel(flashinfer: bool, pod_tile: bool) -> DecodeKernel {
    if pod_tile {
        DecodeKernel::pod()
    } else if flashinfer {
        DecodeKernel::flashinfer()
    } else {
        DecodeKernel::flash_attention()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::HybridBatch;
    use gpu_sim::Engine;

    fn estimator() -> AttentionEstimator {
        AttentionEstimator::new(AttentionConfig::llama3_8b(), GpuConfig::a100_80gb())
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

    #[test]
    fn streams_and_hfuse_fall_between_serial_and_pod() {
        let est = estimator();
        let batch = HybridBatch::config_c1();
        let serial = est.estimate(&batch, AttentionStrategy::FaSerial).total_time;
        let streams = est
            .estimate(&batch, AttentionStrategy::FaStreams)
            .total_time;
        let pod = est.estimate(&batch, AttentionStrategy::Pod).total_time;
        assert!(streams <= serial);
        assert!(pod <= streams);
    }

    #[test]
    fn fi_batched_degrades_at_long_context() {
        let est = estimator();
        let long = HybridBatch::uniform(1024, 16 * 1024, 64, 16 * 1024);
        let serial = est.estimate(&long, AttentionStrategy::FaSerial).total_time;
        let batched = est.estimate(&long, AttentionStrategy::FiBatched).total_time;
        assert!(batched > serial, "batched {batched} vs serial {serial}");
    }

    #[test]
    fn fi_serial_modestly_better_than_fa_serial() {
        let est = estimator();
        let batch = HybridBatch::config_c0();
        let fa = est.estimate(&batch, AttentionStrategy::FaSerial).total_time;
        let fi = est.estimate(&batch, AttentionStrategy::FiSerial).total_time;
        assert!(fi < fa);
        assert!(fi > 0.75 * fa);
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

    /// The memoized fast path agrees with exact pricing within the decode
    /// quantization resolution, for every strategy, including heterogeneous
    /// decode contexts.
    #[test]
    fn memoized_estimates_track_exact_estimates() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let memoized = AttentionEstimator::new(cfg, gpu.clone());
        let exact = AttentionEstimator::exact(cfg, gpu);
        assert!(memoized.is_memoized());
        assert!(!exact.is_memoized());
        let mut heterogeneous = HybridBatch::uniform(1024, 9 * 1024, 0, 0);
        for i in 0..70 {
            heterogeneous.push_decode(4 * 1024 + 137 * i);
        }
        for batch in [
            HybridBatch::config_c0(),
            HybridBatch::config_c1(),
            HybridBatch::uniform(512, 5000, 33, 7777),
            heterogeneous,
            // Wave-quantization boundary: 217 decodes x 4 KV heads = 868
            // CTAs, one CTA into a partial wave. Rounding the count to 216
            // (exactly 4 waves) used to mis-price this batch by ~11%; the
            // memo key keeps the count exact precisely for this case.
            HybridBatch::uniform(512, 4096, 217, 2085),
            HybridBatch::uniform(512, 4096, 216, 2085),
        ] {
            for strategy in AttentionStrategy::all() {
                let fast = memoized.estimate(&batch, strategy).total_time;
                let slow = exact.estimate(&batch, strategy).total_time;
                let rel = (fast - slow).abs() / slow.max(1e-12);
                assert!(
                    rel < 0.03,
                    "{strategy}: memoized {fast} vs exact {slow} ({:.2}% off)",
                    rel * 100.0
                );
            }
        }
    }

    /// Uniform power-of-two batches quantize exactly, so the memoized path is
    /// bit-identical on the paper's Table 1 configurations.
    #[test]
    fn memoization_is_exact_on_uniform_batches() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let memoized = AttentionEstimator::new(cfg, gpu.clone());
        let exact = AttentionEstimator::exact(cfg, gpu);
        let batch = HybridBatch::config_c0();
        for strategy in [AttentionStrategy::FaSerial, AttentionStrategy::Pod] {
            let fast = memoized.estimate(&batch, strategy);
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
    /// memory-bound decode batch for every strategy that streams decode KV
    /// per request (FI_Batched has no per-group streaming and ignores it),
    /// and declaring zero leaves every estimate bit-for-bit unchanged.
    #[test]
    fn kv_dedup_lowers_decode_estimates_and_zero_is_inert() {
        let est = estimator();
        let base = HybridBatch::uniform(1024, 12 * 1024, 80, 12 * 1024);
        // 40 of the 80 decodes share a 4K-token prefix: 39 redundant passes.
        let deduped = base.clone().with_kv_dedup(39 * 4096);
        for strategy in AttentionStrategy::all() {
            let plain = est.estimate(&base, strategy);
            let inert = est.estimate(&base.clone().with_kv_dedup(0), strategy);
            assert_eq!(plain.total_time.to_bits(), inert.total_time.to_bits());
            assert_eq!(plain.bytes.to_bits(), inert.bytes.to_bits());
            let shared = est.estimate(&deduped, strategy);
            assert_eq!(
                plain.flops.to_bits(),
                shared.flops.to_bits(),
                "{strategy}: dedup must not change FLOPs"
            );
            if strategy == AttentionStrategy::FiBatched {
                assert_eq!(plain.total_time.to_bits(), shared.total_time.to_bits());
            } else {
                assert!(
                    shared.total_time < plain.total_time,
                    "{strategy}: {} !< {}",
                    shared.total_time,
                    plain.total_time
                );
                assert!(shared.bytes < plain.bytes, "{strategy}");
            }
        }
    }

    /// The memoized fast path tracks exact pricing on dedup-declaring
    /// batches too (the dedup bucket quantizes like the token buckets).
    #[test]
    fn memoized_dedup_estimates_track_exact_estimates() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let memoized = AttentionEstimator::new(cfg, gpu.clone());
        let exact = AttentionEstimator::exact(cfg, gpu);
        let mut heterogeneous = HybridBatch::uniform(512, 4096, 0, 0);
        for i in 0..48 {
            heterogeneous.push_decode(6 * 1024 + 211 * i);
        }
        for batch in [
            HybridBatch::config_c0().with_kv_dedup(40 * 4096),
            HybridBatch::uniform(512, 5000, 33, 7777).with_kv_dedup(16 * 2048),
            heterogeneous.with_kv_dedup(24 * 1024),
        ] {
            for strategy in AttentionStrategy::all() {
                let fast = memoized.estimate(&batch, strategy).total_time;
                let slow = exact.estimate(&batch, strategy).total_time;
                let rel = (fast - slow).abs() / slow.max(1e-12);
                assert!(
                    rel < 0.03,
                    "{strategy}: memoized {fast} vs exact {slow} ({:.2}% off)",
                    rel * 100.0
                );
            }
        }
    }

    /// Declaring speculative-verify tokens strictly raises decode *compute*
    /// (each verify query scores against the full context) without touching
    /// bytes, for every per-request decode strategy; declaring zero leaves
    /// every estimate bit-for-bit unchanged, and speculation is never priced
    /// cheaper than the plain batch it extends.
    #[test]
    fn spec_verify_raises_decode_compute_and_zero_is_inert() {
        let est = estimator();
        // Compute-sensitive shape: large decode batch at long context.
        let base = HybridBatch::uniform(1024, 12 * 1024, 220, 12 * 1024);
        // 220 decodes each verifying 4 drafts: 3 extra queries per decode.
        let spec = base.clone().with_spec_verify(220 * 3);
        for strategy in AttentionStrategy::all() {
            let plain = est.estimate(&base, strategy);
            let inert = est.estimate(&base.clone().with_spec_verify(0), strategy);
            assert_eq!(plain.total_time.to_bits(), inert.total_time.to_bits());
            assert_eq!(plain.flops.to_bits(), inert.flops.to_bits());
            let verify = est.estimate(&spec, strategy);
            if strategy == AttentionStrategy::FiBatched {
                assert_eq!(plain.total_time.to_bits(), verify.total_time.to_bits());
                continue;
            }
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

    /// Speculative-verify scaling happens outside the memo: memoized and
    /// exact estimates agree on spec-declaring batches, and pricing a
    /// spec batch does not perturb the price of its plain twin.
    #[test]
    fn memoized_spec_estimates_track_exact_estimates() {
        let cfg = AttentionConfig::llama3_8b();
        let gpu = GpuConfig::a100_80gb();
        let memoized = AttentionEstimator::new(cfg, gpu.clone());
        let exact = AttentionEstimator::exact(cfg, gpu);
        let base = HybridBatch::uniform(512, 5000, 33, 7777);
        let spec = base.clone().with_spec_verify(33 * 5);
        for strategy in AttentionStrategy::all() {
            let before = memoized.estimate(&base, strategy).total_time;
            let fast = memoized.estimate(&spec, strategy).total_time;
            let slow = exact.estimate(&spec, strategy).total_time;
            let rel = (fast - slow).abs() / slow.max(1e-12);
            assert!(
                rel < 0.03,
                "{strategy}: memoized {fast} vs exact {slow} ({:.2}% off)",
                rel * 100.0
            );
            let after = memoized.estimate(&base, strategy).total_time;
            assert_eq!(before.to_bits(), after.to_bits(), "{strategy}");
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

//! POD-Attention configuration: CTAs-per-SM modes, tile choices and options.

use crate::policy::SchedulingPolicy;
use attn_kernels::{AttentionConfig, DecodeKernel, PrefillKernel, SplitPolicy, TileShape};

/// How many fused CTAs run concurrently on each SM (§4.2.2).
///
/// Two CTAs per SM gives each CTA more shared memory, enabling the large
/// prefill tiles that long-context (prefill-dominant) batches want. Four CTAs
/// per SM uses smaller tiles but allows finer-grained interleaving of prefill
/// and decode (e.g. 3 decode CTAs alongside 1 prefill CTA), which
/// decode-dominant batches prefer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtasPerSm {
    /// Two fused CTAs per SM, prefill tile (128, 64).
    Two,
    /// Four fused CTAs per SM, prefill tile (64, 32).
    Four,
}

impl CtasPerSm {
    /// The per-SM CTA limit of this mode.
    pub fn limit(self) -> usize {
        match self {
            CtasPerSm::Two => 2,
            CtasPerSm::Four => 4,
        }
    }

    /// Prefill tile used in this mode.
    pub fn prefill_tile(self) -> TileShape {
        match self {
            CtasPerSm::Two => TileShape::pod_prefill_2cta(),
            CtasPerSm::Four => TileShape::pod_prefill_4cta(),
        }
    }

    /// Number of virtual decode CTAs packed into one fused CTA slot
    /// (§4.2.3): with large slots (2 CTAs/SM) four warp-sized virtual CTAs
    /// share the slot's shared memory; with small slots only two fit.
    pub fn virtual_decode_factor(self) -> usize {
        match self {
            CtasPerSm::Two => 4,
            CtasPerSm::Four => 2,
        }
    }
}

impl std::fmt::Display for CtasPerSm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtasPerSm::Two => f.write_str("2 CTAs/SM"),
            CtasPerSm::Four => f.write_str("4 CTAs/SM"),
        }
    }
}

/// Tunable options of the POD-Attention kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodOptions {
    /// SM-local operation binding policy.
    pub policy: SchedulingPolicy,
    /// Concurrent CTAs per SM; `None` picks per batch from its
    /// prefill/decode balance (the behaviour the paper describes:
    /// "POD-Attention automatically picks the most suitable configuration at
    /// runtime").
    pub ctas_per_sm: Option<CtasPerSm>,
    /// KV-split policy for the chunked prefill inside the fused kernel.
    pub prefill_splits: SplitPolicy,
}

impl PodOptions {
    /// The configuration the paper recommends: proportional scheduling,
    /// automatic CTAs-per-SM selection and prefill splits limited to two
    /// waves.
    pub fn recommended() -> Self {
        PodOptions {
            policy: SchedulingPolicy::Proportional,
            ctas_per_sm: None,
            prefill_splits: SplitPolicy::LimitedToTwoWaves,
        }
    }

    /// Use a specific scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a specific CTAs-per-SM mode.
    pub fn with_ctas_per_sm(mut self, mode: CtasPerSm) -> Self {
        self.ctas_per_sm = Some(mode);
        self
    }

    /// Use a specific prefill split policy (e.g. [`SplitPolicy::Vanilla`] for
    /// the Table 8 ablation).
    pub fn with_prefill_splits(mut self, splits: SplitPolicy) -> Self {
        self.prefill_splits = splits;
        self
    }

    /// The CTAs-per-SM mode for a specific hybrid batch: the fixed mode if
    /// one is set, else 2 CTAs/SM (bigger tiles) for prefill-heavy batches
    /// and 4 for decode-heavy ones.
    ///
    /// The balance test compares the chunk's compute demand against the
    /// decode batch's memory demand, which is how the paper characterizes the
    /// crossover in Figure 13.
    pub fn resolve_ctas_per_sm(&self, prefill_ctas: usize, decode_ctas: usize) -> CtasPerSm {
        match self.ctas_per_sm {
            Some(mode) => mode,
            None if prefill_ctas >= decode_ctas => CtasPerSm::Two,
            None => CtasPerSm::Four,
        }
    }

    /// The prefill kernel model used inside the fused kernel for a resolved
    /// CTAs-per-SM mode.
    pub fn prefill_kernel(&self, mode: CtasPerSm) -> PrefillKernel {
        PrefillKernel::flash_attention()
            .with_tile(mode.prefill_tile())
            .with_split_policy(self.prefill_splits)
    }

    /// The decode kernel model used inside the fused kernel (tile length 16,
    /// §4.2.1).
    pub fn decode_kernel(&self) -> DecodeKernel {
        DecodeKernel::pod()
    }

    /// Shared memory per fused CTA for a resolved mode: the prefill tile's
    /// requirement (decode virtual CTAs are sized to fit within it, §4.2.3).
    pub fn fused_shared_mem(&self, mode: CtasPerSm, cfg: &AttentionConfig) -> usize {
        mode.prefill_tile().shared_mem_bytes(cfg)
    }
}

impl Default for PodOptions {
    fn default() -> Self {
        PodOptions::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_match_modes() {
        assert_eq!(CtasPerSm::Two.limit(), 2);
        assert_eq!(CtasPerSm::Four.limit(), 4);
    }

    #[test]
    fn four_cta_mode_uses_smaller_tiles() {
        let cfg = AttentionConfig::llama3_8b();
        let two = CtasPerSm::Two.prefill_tile().shared_mem_bytes(&cfg);
        let four = CtasPerSm::Four.prefill_tile().shared_mem_bytes(&cfg);
        assert!(four < two);
        // The smaller tile actually allows 4 CTAs per SM on the A100.
        let gpu = gpu_sim::GpuConfig::a100_80gb();
        assert!(gpu.occupancy(four, 128) >= 4);
        assert_eq!(gpu.occupancy(two, 128), 2);
    }

    #[test]
    fn auto_resolution_tracks_batch_balance() {
        let opts = PodOptions::recommended();
        assert_eq!(opts.resolve_ctas_per_sm(300, 100), CtasPerSm::Two);
        assert_eq!(opts.resolve_ctas_per_sm(50, 400), CtasPerSm::Four);
        // Fixed modes are never overridden.
        let fixed = opts.with_ctas_per_sm(CtasPerSm::Four);
        assert_eq!(fixed.resolve_ctas_per_sm(300, 1), CtasPerSm::Four);
    }

    #[test]
    fn recommended_options_match_paper() {
        let o = PodOptions::recommended();
        assert_eq!(o.policy, SchedulingPolicy::Proportional);
        assert_eq!(o.ctas_per_sm, None);
        assert_eq!(o.prefill_splits, SplitPolicy::LimitedToTwoWaves);
    }

    #[test]
    fn display_labels() {
        assert_eq!(CtasPerSm::Two.to_string(), "2 CTAs/SM");
        assert_eq!(CtasPerSm::Four.to_string(), "4 CTAs/SM");
    }
}

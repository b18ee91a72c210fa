//! Speculative draft-then-verify decoding as a serving mode.
//!
//! In speculative decoding (OverFill-style; see PAPERS.md), a cheap *draft*
//! model proposes `k` tokens per decode round and the target model *verifies*
//! them in one shot: a k-query-token, prefill-shaped attention op over the
//! request's full context. Verification accepts a prefix of the drafts —
//! the first rejected position is replaced by the target model's own token
//! (the "correction" token), so even a round with zero accepted drafts still
//! mints one token, exactly like plain autoregressive decode.
//!
//! The mode is a natural companion to POD-Attention: each verify step
//! manufactures exactly the prefill-shaped work that hybrid batches fuse
//! with decodes, so speculation converts idle decode-side SM cycles into
//! useful verification compute.
//!
//! This module holds the configuration surface:
//!
//! * [`DecodeMode`] — `Autoregressive` (the default; bit-for-bit identical
//!   to the pre-speculation engine) or `Speculative { k, draft, acceptance }`.
//! * [`DraftModelConfig`] — the draft model as a scale factor on the target
//!   [`ModelConfig`], priced through the same iteration cost model (outside
//!   its batch-price memo).
//! * [`AcceptanceModel`] — a seeded per-request/per-round acceptance law.
//!   Draws are pure functions of `(seed, request id, round)`, so runs are
//!   deterministic and replayable regardless of thread count or iteration
//!   order.
//!
//! The execution semantics (block allocation for draft tokens, rollback of
//! rejected suffixes through the paged-KV free/CoW paths, verify-token
//! budgeting in the scheduler and pricing in `attn-kernels`) live in the
//! engine, scheduler and kernel crates; see ARCHITECTURE.md § "Speculative
//! decoding".

use crate::model::ModelConfig;
use crate::rng::mix64;

/// How decode rounds mint tokens.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DecodeMode {
    /// Plain one-token-per-round autoregressive decode (the default).
    #[default]
    Autoregressive,
    /// Draft-then-verify speculative decode.
    Speculative {
        /// Draft tokens proposed per round (the speculation depth). A round
        /// never drafts past the request's remaining output budget, so the
        /// effective depth is `min(k, output_tokens - generated)`.
        k: usize,
        /// The draft model, as a scaled-down copy of the target model.
        draft: DraftModelConfig,
        /// Seeded acceptance law deciding how many drafts each round keeps.
        acceptance: AcceptanceModel,
    },
}

impl DecodeMode {
    /// The speculation depth, or 0 in autoregressive mode.
    pub fn spec_k(&self) -> usize {
        match self {
            DecodeMode::Autoregressive => 0,
            DecodeMode::Speculative { k, .. } => *k,
        }
    }

    /// True when this is a speculative mode.
    pub fn is_speculative(&self) -> bool {
        matches!(self, DecodeMode::Speculative { .. })
    }
}

/// The draft model as a scale factor on the target model.
///
/// Real deployments pair a large target with a small same-family drafter
/// (e.g. 68M drafting for 7B). The simulator models that as a uniform scale
/// on the target's layer count and widths, producing a genuine
/// [`ModelConfig`] that is priced through the ordinary iteration cost model
/// — so draft cost responds to batch composition, GQA shape and tensor
/// parallelism the same way the target does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DraftModelConfig {
    /// Linear scale applied to the target's depth and widths, in `[0, 1]`.
    /// `0.0` means a free (zero-cost) drafter — useful for oracles/tests.
    pub scale: f64,
}

impl DraftModelConfig {
    /// A drafter costing roughly `scale` of the target per token.
    pub fn scaled(scale: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&scale),
            "draft scale {scale} outside [0, 1]"
        );
        DraftModelConfig { scale }
    }

    /// A zero-cost drafter (drafting is free; only verify work is priced).
    pub fn free() -> Self {
        DraftModelConfig { scale: 0.0 }
    }

    /// Materialize the draft as a [`ModelConfig`] scaled down from `target`,
    /// or `None` for a free drafter. Head counts, head dim and tensor
    /// parallelism are inherited (the drafter shares the target's attention
    /// shape); depth and widths shrink by `scale`, floored at one layer and
    /// the attention head width so the result stays a valid model.
    pub fn resolve(&self, target: &ModelConfig) -> Option<ModelConfig> {
        if self.scale == 0.0 {
            return None;
        }
        let scaled = |x: usize, floor: usize| -> usize {
            ((x as f64 * self.scale).round() as usize).max(floor)
        };
        let mut attention = target.attention;
        attention.num_layers = scaled(attention.num_layers, 1);
        let head_width = attention.head_dim * attention.tensor_parallel;
        Some(ModelConfig {
            name: format!("{}-draft{:.2}", target.name, self.scale),
            attention,
            hidden_size: scaled(target.hidden_size, head_width),
            intermediate_size: scaled(target.intermediate_size, head_width),
            vocab_size: target.vocab_size,
        })
    }
}

/// Seeded acceptance law for speculative verification.
///
/// Each round draws the accepted-draft count as sequential Bernoulli trials
/// at `rate`, stopping at the first rejection — matching the
/// "accept a prefix" semantics of real speculative sampling. The draw for
/// `(request, round)` is a pure function of the seed, so it is identical
/// across thread counts, replica assignment and replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceModel {
    /// Per-position probability that a draft token is accepted, in `[0, 1]`.
    pub rate: f64,
    /// Base seed; per-request substreams are derived from it.
    pub seed: u64,
}

impl AcceptanceModel {
    /// An acceptance model with the given per-token rate and seed.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "acceptance rate {rate} outside [0, 1]"
        );
        AcceptanceModel { rate, seed }
    }

    /// How many of `k` drafts round `round` of request `request_id` accepts
    /// (a prefix length in `0..=k`). Deterministic in its arguments.
    pub fn accepted(&self, request_id: usize, round: usize, k: usize) -> usize {
        // Shortcuts keep the extremes exact (no float-compare edge cases).
        if self.rate >= 1.0 {
            return k;
        }
        if self.rate <= 0.0 {
            return 0;
        }
        // Derive the (request, round) substream without any shared state:
        // two mix64 passes decorrelate the id/round lattice from the seed.
        let stream = mix64(
            self.seed
                ^ mix64(request_id as u64 ^ 0xA076_1D64_78BD_642F)
                ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut rng = crate::rng::SplitMix64::seed_from_u64(stream);
        let mut accepted = 0;
        while accepted < k && rng.next_f64() < self.rate {
            accepted += 1;
        }
        accepted
    }

    /// Tokens a round mints when `k_eff` drafts were proposed and `accepted`
    /// survived verification: the accepted prefix, plus the target model's
    /// correction token whenever a draft was rejected. Every round mints at
    /// least one token; a fully accepted round mints exactly `k_eff`.
    pub fn minted(accepted: usize, k_eff: usize) -> usize {
        if accepted >= k_eff {
            k_eff.max(1)
        } else {
            accepted + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_extremes_are_exact() {
        let all = AcceptanceModel::new(1.0, 7);
        let none = AcceptanceModel::new(0.0, 7);
        for rid in 0..10 {
            for round in 0..10 {
                assert_eq!(all.accepted(rid, round, 4), 4);
                assert_eq!(none.accepted(rid, round, 4), 0);
            }
        }
    }

    #[test]
    fn acceptance_draws_are_deterministic_and_per_stream() {
        let a = AcceptanceModel::new(0.6, 42);
        let b = AcceptanceModel::new(0.6, 42);
        let c = AcceptanceModel::new(0.6, 43);
        let draw = |m: &AcceptanceModel| -> Vec<usize> {
            (0..64).map(|i| m.accepted(i % 8, i / 8, 6)).collect()
        };
        assert_eq!(draw(&a), draw(&b));
        assert_ne!(draw(&a), draw(&c), "different seeds must differ");
        // Distinct requests at the same round get distinct substreams.
        let per_request: Vec<usize> = (0..32).map(|rid| a.accepted(rid, 0, 6)).collect();
        assert!(per_request.iter().any(|&x| x != per_request[0]));
    }

    #[test]
    fn acceptance_rate_orders_mean_accepted() {
        let lo = AcceptanceModel::new(0.2, 9);
        let hi = AcceptanceModel::new(0.8, 9);
        let mean = |m: &AcceptanceModel| -> f64 {
            let total: usize = (0..2000).map(|i| m.accepted(i, 0, 8)).sum();
            total as f64 / 2000.0
        };
        assert!(mean(&hi) > mean(&lo) + 1.0);
    }

    #[test]
    fn minted_tokens_follow_prefix_plus_correction() {
        assert_eq!(AcceptanceModel::minted(0, 4), 1);
        assert_eq!(AcceptanceModel::minted(2, 4), 3);
        assert_eq!(AcceptanceModel::minted(4, 4), 4);
        assert_eq!(AcceptanceModel::minted(0, 1), 1);
        assert_eq!(AcceptanceModel::minted(1, 1), 1);
        // Degenerate zero-depth round still mints the correction token.
        assert_eq!(AcceptanceModel::minted(0, 0), 1);
    }

    #[test]
    fn draft_resolution_scales_and_free_is_none() {
        let target = ModelConfig::llama3_8b();
        assert!(DraftModelConfig::free().resolve(&target).is_none());
        let draft = DraftModelConfig::scaled(0.25).resolve(&target).unwrap();
        assert_eq!(draft.num_layers(), 8);
        assert!(draft.hidden_size < target.hidden_size);
        assert_eq!(draft.vocab_size, target.vocab_size);
        assert_eq!(draft.tensor_parallel(), target.tensor_parallel());
        assert!(draft.weight_bytes_per_gpu() < target.weight_bytes_per_gpu() / 4);
        // A tiny scale still yields a valid one-layer model.
        let tiny = DraftModelConfig::scaled(0.001).resolve(&target).unwrap();
        assert_eq!(tiny.num_layers(), 1);
        assert!(tiny.hidden_size >= tiny.attention.head_dim);
    }

    #[test]
    fn decode_mode_default_is_autoregressive() {
        assert_eq!(DecodeMode::default(), DecodeMode::Autoregressive);
        assert_eq!(DecodeMode::Autoregressive.spec_k(), 0);
        let spec = DecodeMode::Speculative {
            k: 4,
            draft: DraftModelConfig::scaled(0.2),
            acceptance: AcceptanceModel::new(0.7, 1),
        };
        assert!(spec.is_speculative());
        assert_eq!(spec.spec_k(), 4);
    }
}

//! Batch formation: the original vLLM scheduler (prefill prioritizing) and
//! Sarathi-Serve (chunked prefills with stall-free hybrid batching), as
//! compared in §5 of the paper.
//!
//! The scheduler is a pure function of the running set: it picks the
//! iteration's decodes, charges their speculative-verify tokens, and says
//! how many prompt tokens the front of the waiting queue may add. Admission
//! (whether that front enters the KV cache, is shed or waits) is the
//! engine's; it gives the prefill slot to an admitted front with
//! [`BatchPlan::add_prefill`].

use crate::request::Request;

/// Most decodes one Sarathi-Serve iteration carries.
pub(crate) const MAX_BATCH_SIZE: usize = 256;

/// Which batch-formation policy the serving engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The original vLLM scheduler: whenever a request is waiting and fits in
    /// the KV cache, run its *entire* prompt as a prefill-only iteration,
    /// pausing ongoing decodes (low TTFT, generation stalls).
    Vllm,
    /// Sarathi-Serve: every iteration carries at most `chunk_size` tokens —
    /// all ongoing decodes plus one prefill chunk of whatever budget remains
    /// (stall-free, slightly higher TTFT).
    Sarathi {
        /// Token budget per iteration (the prefill chunk size).
        chunk_size: usize,
    },
}

impl SchedulerKind {
    /// Human-readable name.
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::Vllm => "vLLM".to_string(),
            SchedulerKind::Sarathi { chunk_size } => format!("Sarathi(chunk={chunk_size})"),
        }
    }

    /// Most running requests one iteration decodes: every one under vLLM,
    /// the first [`MAX_BATCH_SIZE`] under Sarathi.
    pub(crate) fn decode_cap(self) -> usize {
        match self {
            SchedulerKind::Vllm => usize::MAX,
            SchedulerKind::Sarathi { .. } => MAX_BATCH_SIZE,
        }
    }

    /// Plan the decode side of the next batch: the first
    /// [`decode_cap`](Self::decode_cap) requests of `running` (indices into
    /// `requests`), each verifying up to `spec_k` draft tokens (0 = plain
    /// autoregressive decode; see [`BatchPlan::spec_tokens`]).
    ///
    /// Also returns the prefill budget, the most prompt tokens the admitted
    /// queue front may add: the whole prompt under vLLM; under Sarathi, what
    /// the decodes and their verify tokens leave of the chunk, or `None` when
    /// that is nothing or the decode set is full.
    pub(crate) fn plan(
        self,
        requests: &[Request],
        running: &[usize],
        spec_k: usize,
    ) -> (BatchPlan, Option<usize>) {
        let decodes = running[..running.len().min(self.decode_cap())].to_vec();
        // Verify tokens are real query tokens: they eat the chunk budget
        // before any prefill is admitted, so a speculative iteration keeps
        // the same token target as a plain one (Sarathi's stall-free
        // guarantee).
        let spec_tokens = spec_extra_tokens(spec_k, requests, &decodes);
        let budget = match self {
            SchedulerKind::Vllm => Some(usize::MAX),
            SchedulerKind::Sarathi { chunk_size } => {
                let budget = chunk_size.saturating_sub(decodes.len() + spec_tokens);
                (budget > 0 && decodes.len() < MAX_BATCH_SIZE).then_some(budget)
            }
        };
        let plan = BatchPlan {
            prefill: None,
            decodes,
            spec_tokens,
        };
        (plan, budget)
    }
}

/// The batch one iteration will execute: at most one prefill chunk plus any
/// number of decodes (the hybrid-batching common case from §2.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BatchPlan {
    /// `(request index, chunk length)` of the prefill chunk, if any.
    pub(crate) prefill: Option<(usize, usize)>,
    /// Request indices that decode one token this iteration.
    pub(crate) decodes: Vec<usize>,
    /// Extra speculative-verify query tokens carried by the decode side:
    /// `Σ (width − 1)` over the scheduled decodes, where a request's round
    /// width is `min(k, remaining output)` under
    /// [`DecodeMode::Speculative`]. Zero in autoregressive mode. These
    /// tokens count against the Sarathi chunk budget — verify work competes
    /// with prefill chunks for the iteration's token target.
    ///
    /// [`DecodeMode::Speculative`]: crate::DecodeMode::Speculative
    pub(crate) spec_tokens: usize,
}

impl BatchPlan {
    /// Give the prefill slot to `req`, the admitted front of the waiting
    /// queue: its remaining prompt, up to `budget` tokens. vLLM runs the
    /// prompt alone, pausing the decodes.
    pub(crate) fn add_prefill(&mut self, kind: SchedulerKind, req: &Request, budget: usize) {
        let chunk = req.remaining_prompt().min(budget);
        debug_assert!(chunk > 0, "a waiting request has prompt left");
        self.prefill = Some((req.id, chunk));
        if kind == SchedulerKind::Vllm {
            self.decodes.clear();
            self.spec_tokens = 0;
        }
    }

    /// True if the plan schedules nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.prefill.is_none() && self.decodes.is_empty()
    }

    /// True if the plan contains both a prefill chunk and at least one decode.
    pub(crate) fn is_hybrid(&self) -> bool {
        self.prefill.is_some() && !self.decodes.is_empty()
    }
}

/// Extra verify tokens (`Σ (width − 1)`) the given decodes carry at
/// speculation depth `spec_k`. A request never drafts past its remaining
/// output budget, and every round carries at least its one mandatory decode
/// token, so each width is `min(spec_k, remaining).max(1)`.
fn spec_extra_tokens(spec_k: usize, requests: &[Request], decodes: &[usize]) -> usize {
    if spec_k <= 1 {
        return 0;
    }
    decodes
        .iter()
        .map(|&rid| requests[rid].spec_width(spec_k).saturating_sub(1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;

    fn setup(n: usize, prompt: usize, output: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i, RequestSpec::new(0.0, prompt, output)))
            .collect()
    }

    /// The plan once the engine admits `front` into its budget, if any.
    fn admitted(
        kind: SchedulerKind,
        requests: &[Request],
        front: usize,
        running: &[usize],
        spec_k: usize,
    ) -> BatchPlan {
        let (mut plan, budget) = kind.plan(requests, running, spec_k);
        if let Some(budget) = budget {
            plan.add_prefill(kind, &requests[front], budget);
        }
        plan
    }

    /// Tokens the plan processes: the prefill chunk, one per decode, and the
    /// extra verify tokens (the Sarathi token-budget accounting).
    fn scheduled_tokens(plan: &BatchPlan) -> usize {
        plan.prefill.map_or(0, |(_, chunk)| chunk) + plan.decodes.len() + plan.spec_tokens
    }

    #[test]
    fn vllm_prioritizes_prefills_and_pauses_decodes() {
        let requests = setup(3, 1000, 100);
        let plan = admitted(SchedulerKind::Vllm, &requests, 0, &[1, 2], 0);
        // The whole prompt is scheduled and the decodes are paused.
        assert_eq!(plan.prefill, Some((0, 1000)));
        assert!(plan.decodes.is_empty());
    }

    #[test]
    fn vllm_falls_back_to_decodes_when_kv_is_full() {
        // A deferred front takes no prefill slot: every running request
        // decodes.
        let requests = setup(2, 10_000, 100);
        let (plan, budget) = SchedulerKind::Vllm.plan(&requests, &[1], 0);
        assert!(budget.is_some());
        assert!(plan.prefill.is_none());
        assert_eq!(plan.decodes, vec![1]);
    }

    #[test]
    fn sarathi_builds_hybrid_batches_within_the_token_budget() {
        let requests = setup(5, 4096, 100);
        let kind = SchedulerKind::Sarathi { chunk_size: 512 };
        let plan = admitted(kind, &requests, 0, &[1, 2, 3, 4], 0);
        assert!(plan.is_hybrid());
        // 4 decode tokens leave 508 tokens of budget for the chunk.
        assert_eq!(plan.prefill, Some((0, 508)));
        assert_eq!(plan.decodes.len(), 4);
        // The hybrid batch fills the whole 512-token budget.
        assert_eq!(scheduled_tokens(&plan), 512);
    }

    #[test]
    fn sarathi_never_exceeds_the_chunk_with_the_final_piece() {
        let mut requests = setup(1, 300, 10);
        requests[0].record_prefill(200, 1.0);
        let plan = admitted(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &requests,
            0,
            &[],
            0,
        );
        // Only the remaining 100 prompt tokens are scheduled.
        assert_eq!(plan.prefill, Some((0, 100)));
    }

    #[test]
    fn sarathi_skips_prefill_when_decodes_consume_the_budget() {
        let requests = setup(70, 1000, 100);
        let running: Vec<usize> = (1..65).collect();
        let (plan, budget) = SchedulerKind::Sarathi { chunk_size: 64 }.plan(&requests, &running, 0);
        assert_eq!(budget, None);
        assert!(plan.prefill.is_none());
        assert_eq!(plan.decodes.len(), 64);

        // A full decode set leaves no prefill slot either, however large
        // the chunk.
        let requests = setup(MAX_BATCH_SIZE + 2, 1000, 100);
        let running: Vec<usize> = (1..MAX_BATCH_SIZE + 2).collect();
        let kind = SchedulerKind::Sarathi { chunk_size: 4096 };
        let (plan, budget) = kind.plan(&requests, &running, 0);
        assert_eq!(budget, None);
        assert_eq!(plan.decodes.len(), MAX_BATCH_SIZE);
    }

    #[test]
    fn cached_prefix_shrinks_the_scheduled_chunk() {
        // Admission matched 192 leading tokens in the prefix cache: the
        // chunk starts at the matched offset, so only 108 of the 300 prompt
        // tokens are scheduled.
        let mut requests = setup(1, 300, 10);
        requests[0].note_cached_prefix(192);
        let plan = admitted(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &requests,
            0,
            &[],
            0,
        );
        assert_eq!(plan.prefill, Some((0, 108)));
    }

    #[test]
    fn spec_verify_tokens_eat_the_sarathi_chunk_budget() {
        // 4 running decodes at depth k=4: each mid-flight request carries 3
        // extra verify tokens, shrinking the prefill chunk accordingly.
        let mut requests = setup(5, 4096, 100);
        for r in &mut requests[1..5] {
            r.record_prefill(4096, 0.5);
        }
        let kind = SchedulerKind::Sarathi { chunk_size: 512 };
        let running = [1, 2, 3, 4];
        let plan = admitted(kind, &requests, 0, &running, 4);
        assert_eq!(plan.spec_tokens, 4 * 3);
        // 4 decode tokens + 12 verify tokens leave 496 for the chunk.
        assert_eq!(plan.prefill, Some((0, 496)));
        // The iteration still hits the exact token target.
        assert_eq!(scheduled_tokens(&plan), 512);

        // Near the end of a request, the width collapses to its remaining
        // output: a request one token from done carries no verify tokens.
        requests[1].generated = 100 - 1;
        let plan = admitted(kind, &requests, 0, &running, 4);
        assert_eq!(plan.spec_tokens, 3 * 3);

        // Depth 1 (and 0) add nothing: the plan is the autoregressive one.
        let plan = admitted(kind, &requests, 0, &running, 1);
        assert_eq!(plan.spec_tokens, 0);
        assert_eq!(plan.prefill, Some((0, 508)));

        // vLLM pauses the decodes for an admitted prompt, verify tokens too.
        let plan = admitted(SchedulerKind::Vllm, &requests, 0, &running, 4);
        assert_eq!((plan.decodes.len(), plan.spec_tokens), (0, 0));
    }

    #[test]
    fn empty_state_gives_empty_plan() {
        let requests = setup(1, 10, 10);
        let (plan, _) = SchedulerKind::Vllm.plan(&requests, &[], 0);
        assert!(plan.is_empty());
        assert!(!plan.is_hybrid());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(SchedulerKind::Vllm.label(), "vLLM");
        assert!(SchedulerKind::Sarathi { chunk_size: 512 }
            .label()
            .contains("512"));
    }
}

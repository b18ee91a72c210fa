//! Batch-formation policies: the original vLLM scheduler (prefill
//! prioritizing) and Sarathi-Serve (chunked prefills with stall-free hybrid
//! batching), as compared in §5 of the paper.
//!
//! Admission is pluggable: the scheduler asks an [`AdmitFn`] whether the
//! front of the waiting queue may enter the KV cache. The conservative
//! policy reserves prompt + output up front (Sarathi-Serve's no-preemption
//! rule); the paged policy matches the prompt against the prefix index and
//! allocates only the uncached remainder, reporting how many leading tokens
//! were satisfied from the cache so the prefill chunk starts at the matched
//! offset.

use crate::request::{Phase, Request};
use std::collections::VecDeque;

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
}

/// What the admission policy decided for the front of the waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The request is (or already was) admitted. On *first* admission,
    /// `cached_tokens` leading prompt tokens were satisfied from the prefix
    /// cache and are recorded on the request so chunking starts at the
    /// matched offset; later calls return zero.
    Admit {
        /// Leading prompt tokens skipped via the prefix cache.
        cached_tokens: usize,
    },
    /// No room right now; try again next iteration.
    Defer,
    /// The request's deadline is already unmeetable: drop it unserved instead
    /// of letting a hopeless prefill occupy the chunk budget (SLO-aware
    /// admission control). The scheduler records it in [`BatchPlan::shed`];
    /// the engine removes it from the queue and marks it shed.
    Shed,
}

/// Admission callback: may the given (front-of-queue) request enter the KV
/// cache? Implementations own all cache state; the scheduler only applies
/// the decision.
pub type AdmitFn<'a> = dyn FnMut(&Request) -> AdmissionDecision + 'a;

/// The batch one iteration will execute: at most one prefill chunk plus any
/// number of decodes (the hybrid-batching common case from §2.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchPlan {
    /// `(request index, chunk length)` of the prefill chunk, if any.
    pub prefill: Option<(usize, usize)>,
    /// Request indices that decode one token this iteration.
    pub decodes: Vec<usize>,
    /// Front-of-queue request the admission policy shed (deadline already
    /// unmeetable): to be dropped unserved by the engine, freeing the
    /// prefill slot for the next candidate.
    pub shed: Option<usize>,
    /// Extra speculative-verify query tokens carried by the decode side:
    /// `Σ (width − 1)` over the scheduled decodes, where a request's round
    /// width is `min(k, remaining output)` under
    /// [`DecodeMode::Speculative`]. Zero in autoregressive mode. These
    /// tokens count against the Sarathi chunk budget — verify work competes
    /// with prefill chunks for the iteration's token target.
    ///
    /// [`DecodeMode::Speculative`]: crate::DecodeMode::Speculative
    pub spec_tokens: usize,
}

impl BatchPlan {
    /// True if the plan schedules nothing (a shed alone is not work — the
    /// engine drops the request and re-plans without advancing time).
    pub fn is_empty(&self) -> bool {
        self.prefill.is_none() && self.decodes.is_empty()
    }

    /// True if the plan contains both a prefill chunk and at least one decode.
    pub fn is_hybrid(&self) -> bool {
        self.prefill.is_some() && !self.decodes.is_empty()
    }

    /// Total tokens the plan processes this iteration: the prefill chunk,
    /// one token per decode, plus any extra speculative-verify tokens (the
    /// Sarathi token-budget accounting).
    pub fn scheduled_tokens(&self) -> usize {
        self.prefill.map(|(_, chunk)| chunk).unwrap_or(0) + self.decodes.len() + self.spec_tokens
    }
}

/// Form the next iteration's batch.
///
/// `waiting` holds indices of requests whose prompt is not yet fully
/// processed (front = oldest / partially prefilled); `running` holds indices
/// of requests in their decode phase. Admission of the front waiting request
/// is delegated to `admit` (see [`AdmissionDecision`]).
///
/// `spec_k` is the speculation depth (0 = plain autoregressive decode): each
/// scheduled decode verifies up to `spec_k` draft tokens per round, and the
/// extra verify tokens are charged against the Sarathi chunk budget like
/// prefill tokens (see [`BatchPlan::spec_tokens`]).
pub fn plan_batch(
    kind: SchedulerKind,
    requests: &mut [Request],
    waiting: &VecDeque<usize>,
    running: &[usize],
    admit: &mut AdmitFn<'_>,
    max_batch_size: usize,
    spec_k: usize,
) -> BatchPlan {
    match kind {
        SchedulerKind::Vllm => plan_vllm(requests, waiting, running, admit, spec_k),
        SchedulerKind::Sarathi { chunk_size } => plan_sarathi(
            chunk_size,
            requests,
            waiting,
            running,
            admit,
            max_batch_size,
            spec_k,
        ),
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

/// Ask `admit` about the front request, applying a first-admission prefix
/// match to the request's prefill progress, and return the decision.
fn try_admit(req: &mut Request, admit: &mut AdmitFn<'_>) -> AdmissionDecision {
    let decision = admit(req);
    if let AdmissionDecision::Admit { cached_tokens } = decision {
        if cached_tokens > 0 {
            req.note_cached_prefix(cached_tokens);
        }
    }
    decision
}

fn plan_vllm(
    requests: &mut [Request],
    waiting: &VecDeque<usize>,
    running: &[usize],
    admit: &mut AdmitFn<'_>,
    spec_k: usize,
) -> BatchPlan {
    // Prefill-prioritizing: if the oldest waiting request fits, run its whole
    // prompt now, pausing decodes.
    let mut shed = None;
    if let Some(&front) = waiting.front() {
        match try_admit(&mut requests[front], admit) {
            AdmissionDecision::Admit { .. } => {
                let chunk = requests[front].remaining_prompt();
                return BatchPlan {
                    prefill: Some((front, chunk)),
                    decodes: Vec::new(),
                    shed: None,
                    spec_tokens: 0,
                };
            }
            AdmissionDecision::Shed => shed = Some(front),
            AdmissionDecision::Defer => {}
        }
    }
    let decodes = running.to_vec();
    let spec_tokens = spec_extra_tokens(spec_k, requests, &decodes);
    BatchPlan {
        prefill: None,
        decodes,
        shed,
        spec_tokens,
    }
}

fn plan_sarathi(
    chunk_size: usize,
    requests: &mut [Request],
    waiting: &VecDeque<usize>,
    running: &[usize],
    admit: &mut AdmitFn<'_>,
    max_batch_size: usize,
    spec_k: usize,
) -> BatchPlan {
    let decodes: Vec<usize> = running.iter().copied().take(max_batch_size).collect();
    // Verify tokens are real query tokens: they eat the chunk budget before
    // any prefill is admitted, so a speculative iteration keeps the same
    // token target as a plain one (Sarathi's stall-free guarantee).
    let spec_tokens = spec_extra_tokens(spec_k, requests, &decodes);
    let budget = chunk_size.saturating_sub(decodes.len() + spec_tokens);
    let mut prefill = None;
    let mut shed = None;
    if budget > 0 && decodes.len() < max_batch_size {
        if let Some(&front) = waiting.front() {
            match try_admit(&mut requests[front], admit) {
                AdmissionDecision::Admit { .. } => {
                    debug_assert_ne!(requests[front].phase(), Phase::Finished);
                    let chunk = requests[front].remaining_prompt().min(budget);
                    if chunk > 0 {
                        prefill = Some((front, chunk));
                    }
                }
                AdmissionDecision::Shed => shed = Some(front),
                AdmissionDecision::Defer => {}
            }
        }
    }
    BatchPlan {
        prefill,
        decodes,
        shed,
        spec_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{blocks_for, BlockPool};
    use crate::request::RequestSpec;

    fn setup(n: usize, prompt: usize, output: usize) -> (Vec<Request>, Vec<bool>) {
        let requests: Vec<Request> = (0..n)
            .map(|i| Request::new(i, RequestSpec::new(0.0, prompt, output)))
            .collect();
        let reserved = vec![false; n];
        (requests, reserved)
    }

    /// The conservative admission rule the engine uses: a counted grant of
    /// the full prompt + output on first sight, nothing on later calls.
    fn conservative<'a>(
        kv: &'a mut BlockPool,
        reserved: &'a mut [bool],
    ) -> impl FnMut(&Request) -> AdmissionDecision + 'a {
        move |req: &Request| {
            if reserved[req.id] {
                return AdmissionDecision::Admit { cached_tokens: 0 };
            }
            if kv.alloc_counted(blocks_for(req.spec.total_tokens())) {
                reserved[req.id] = true;
                AdmissionDecision::Admit { cached_tokens: 0 }
            } else {
                AdmissionDecision::Defer
            }
        }
    }

    #[test]
    fn vllm_prioritizes_prefills_and_pauses_decodes() {
        let (mut requests, mut reserved) = setup(3, 1000, 100);
        let mut kv = BlockPool::new(100_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let running = vec![1, 2];
        let plan = plan_batch(
            SchedulerKind::Vllm,
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
        // The whole prompt is scheduled and the decodes are paused.
        assert_eq!(plan.prefill, Some((0, 1000)));
        assert!(plan.decodes.is_empty());
        assert!(reserved[0]);
    }

    #[test]
    fn vllm_falls_back_to_decodes_when_kv_is_full() {
        let (mut requests, mut reserved) = setup(2, 10_000, 100);
        let mut kv = BlockPool::new(1_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let running = vec![1];
        let plan = plan_batch(
            SchedulerKind::Vllm,
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
        assert!(plan.prefill.is_none());
        assert_eq!(plan.decodes, vec![1]);
    }

    #[test]
    fn sarathi_builds_hybrid_batches_within_the_token_budget() {
        let (mut requests, mut reserved) = setup(5, 4096, 100);
        let mut kv = BlockPool::new(1_000_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let running = vec![1, 2, 3, 4];
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
        assert!(plan.is_hybrid());
        // 4 decode tokens leave 508 tokens of budget for the chunk.
        assert_eq!(plan.prefill, Some((0, 508)));
        assert_eq!(plan.decodes.len(), 4);
        // The hybrid batch fills the whole 512-token budget.
        assert_eq!(plan.scheduled_tokens(), 512);
    }

    #[test]
    fn sarathi_never_exceeds_the_chunk_with_the_final_piece() {
        let (mut requests, mut reserved) = setup(1, 300, 10);
        requests[0].record_prefill(200, 1.0);
        reserved[0] = true;
        let mut kv = BlockPool::new(10_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &[],
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
        // Only the remaining 100 prompt tokens are scheduled.
        assert_eq!(plan.prefill, Some((0, 100)));
    }

    #[test]
    fn sarathi_skips_prefill_when_decodes_consume_the_budget() {
        let (mut requests, mut reserved) = setup(70, 1000, 100);
        let mut kv = BlockPool::new(1_000_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let running: Vec<usize> = (1..65).collect();
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 64 },
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
        assert!(plan.prefill.is_none());
        assert_eq!(plan.decodes.len(), 64);
    }

    #[test]
    fn cached_prefix_shrinks_the_scheduled_chunk() {
        // An admission that reports 192 leading tokens as cached: the chunk
        // starts at the matched offset, so only 108 of the 300 prompt tokens
        // are scheduled.
        let (mut requests, _) = setup(1, 300, 10);
        let waiting: VecDeque<usize> = vec![0].into();
        let mut admit = |_req: &Request| AdmissionDecision::Admit { cached_tokens: 192 };
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &[],
            &mut admit,
            256,
            0,
        );
        assert_eq!(plan.prefill, Some((0, 108)));
        assert_eq!(requests[0].cached_prompt_tokens, 192);
        assert_eq!(requests[0].prefilled, 192);
    }

    #[test]
    fn shed_front_is_reported_without_occupying_the_prefill_slot() {
        // An admission policy that sheds the front request: the plan carries
        // the shed id, schedules no prefill, and keeps the decodes running.
        let (mut requests, _) = setup(3, 1000, 100);
        let waiting: VecDeque<usize> = vec![0].into();
        let running = vec![1, 2];
        let mut admit = |_req: &Request| AdmissionDecision::Shed;
        for kind in [
            SchedulerKind::Vllm,
            SchedulerKind::Sarathi { chunk_size: 512 },
        ] {
            let plan = plan_batch(kind, &mut requests, &waiting, &running, &mut admit, 256, 0);
            assert_eq!(plan.shed, Some(0), "{kind:?}");
            assert!(plan.prefill.is_none(), "{kind:?}");
            assert_eq!(plan.decodes, vec![1, 2], "{kind:?}");
            // A shed alone is not schedulable work.
            assert_eq!(plan.scheduled_tokens(), 2, "{kind:?}");
        }
    }

    #[test]
    fn spec_verify_tokens_eat_the_sarathi_chunk_budget() {
        // 4 running decodes at depth k=4: each mid-flight request carries 3
        // extra verify tokens, shrinking the prefill chunk accordingly.
        let (mut requests, mut reserved) = setup(5, 4096, 100);
        for r in &mut requests[1..5] {
            r.record_prefill(4096, 0.5);
        }
        let mut kv = BlockPool::new(1_000_000);
        let waiting: VecDeque<usize> = vec![0].into();
        let running = vec![1, 2, 3, 4];
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            4,
        );
        assert_eq!(plan.spec_tokens, 4 * 3);
        // 4 decode tokens + 12 verify tokens leave 496 for the chunk.
        assert_eq!(plan.prefill, Some((0, 496)));
        // The iteration still hits the exact token target.
        assert_eq!(plan.scheduled_tokens(), 512);

        // Near the end of a request, the width collapses to its remaining
        // output: a request one token from done carries no verify tokens.
        requests[1].generated = 100 - 1;
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            4,
        );
        assert_eq!(plan.spec_tokens, 3 * 3);

        // Depth 1 (and 0) add nothing: the plan is the autoregressive one.
        let plan = plan_batch(
            SchedulerKind::Sarathi { chunk_size: 512 },
            &mut requests,
            &waiting,
            &running,
            &mut conservative(&mut kv, &mut reserved),
            256,
            1,
        );
        assert_eq!(plan.spec_tokens, 0);
        assert_eq!(plan.prefill, Some((0, 508)));
    }

    #[test]
    fn empty_state_gives_empty_plan() {
        let (mut requests, mut reserved) = setup(1, 10, 10);
        let mut kv = BlockPool::new(1000);
        let plan = plan_batch(
            SchedulerKind::Vllm,
            &mut requests,
            &VecDeque::new(),
            &[],
            &mut conservative(&mut kv, &mut reserved),
            256,
            0,
        );
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

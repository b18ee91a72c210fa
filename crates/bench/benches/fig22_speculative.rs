//! Figure 22 (repro-original): speculative draft-then-verify decoding.
//! Sweeps acceptance rate × load × attention backend × draft depth `k` on
//! the serving engine, against plain autoregressive baselines.
//!
//! What this answers:
//!
//! 1. When does speculation pay? Each round drafts `k` tokens on a cheap
//!    draft model and verifies them in one prefill-shaped burst — a batch
//!    shape POD's hybrid kernels price well — so high acceptance turns k
//!    decode iterations into one verify round.
//! 2. Is the accounting honest? Speculation is never priced cheaper than
//!    its own verify work: at acceptance 0 it nets one token per round and
//!    can only lose to autoregressive decode, and a priced draft model can
//!    only cost more than a free one.
//! 3. Is the mode inert when off? The degenerate corner (k=1, free draft,
//!    acceptance 1.0) reproduces the autoregressive schedule bit for bit —
//!    the bench-level echo of the golden pins on `DecodeMode::Autoregressive`.
//!
//! Writes `BENCH_spec.json` at the repository root (uploaded as a CI
//! artifact alongside the other trend files); `perf_gate` gates every value
//! exactly, so a modeling change that moves the speculation win, the
//! POD-at-saturation makespan speedup included, fails CI unless it
//! re-baselines the file.
//!
//! Run with `cargo bench -p pod-bench --bench fig22_speculative`.

use gpu_sim::GpuConfig;
use llm_serving::{
    AcceptanceModel, DraftModelConfig, JsonValue, ModelConfig, ServingConfig, ServingEngine,
    ServingReport, Workload,
};
use pod_bench::microbench::repo_root_path;
use pod_bench::{heading, par_map, print_table, scaled, secs};

const ACCEPT_RATES: [f64; 4] = [0.0, 0.4, 0.7, 0.95];
const KS: [usize; 2] = [2, 4];
const QPS: [f64; 2] = [2.0, 8.0];
const DRAFT_SCALE: f64 = 0.25;
const SEED: u64 = 21;

/// One sweep cell: load index, backend index, and the speculative shape —
/// `None` is the autoregressive baseline; `Some((ki, ri, free))` drafts at
/// depth `KS[ki]` with acceptance `ACCEPT_RATES[ri]`, on a free draft model
/// when `free` (the pricing-honesty twin of the scaled-draft cell).
type Job = (usize, usize, Option<(usize, usize, bool)>);

fn backends(model: &ModelConfig, gpu: &GpuConfig) -> [ServingConfig; 2] {
    [
        ServingConfig::sarathi(model.clone(), gpu.clone(), 1024),
        ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 1024),
    ]
}

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(64, 320);

    heading(
        "Figure 22: speculative decoding — acceptance x load x backend x k",
        "Draft-then-verify serving mode: 0.25-scale draft model, seeded \
         per-request acceptance; internal trace; Llama-3-8B, chunk 1024.",
    );

    // Autoregressive baselines per (load, backend), speculative cells per
    // (load, backend, k, acceptance), plus free-draft twins of the POD
    // saturation cells for the pricing-honesty ordering.
    let mut jobs: Vec<Job> = Vec::new();
    for qi in 0..QPS.len() {
        for bi in 0..2 {
            jobs.push((qi, bi, None));
            for ki in 0..KS.len() {
                for ri in 0..ACCEPT_RATES.len() {
                    jobs.push((qi, bi, Some((ki, ri, false))));
                    if qi == 1 && bi == 1 {
                        jobs.push((qi, bi, Some((ki, ri, true))));
                    }
                }
            }
        }
    }
    let reports: Vec<ServingReport> = par_map(jobs.clone(), |(qi, bi, spec)| {
        let specs = Workload::internal().generate(num_requests, QPS[qi], SEED);
        let mut config = backends(&model, &gpu)[bi].clone();
        if let Some((ki, ri, free)) = spec {
            let draft = if free {
                DraftModelConfig::free()
            } else {
                DraftModelConfig::scaled(DRAFT_SCALE)
            };
            config = config.with_speculative(
                KS[ki],
                draft,
                AcceptanceModel::new(ACCEPT_RATES[ri], SEED),
            );
        }
        ServingEngine::new(config).run(specs)
    });
    let report_of = |job: Job| -> &ServingReport {
        let idx = jobs
            .iter()
            .position(|&j| j == job)
            .expect("every sweep cell was simulated");
        &reports[idx]
    };

    let rows: Vec<Vec<String>> = jobs
        .iter()
        .zip(&reports)
        .map(|(&(qi, _, spec), r)| {
            let (k, rate, draft) = match spec {
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
                Some((ki, ri, free)) => (
                    format!("{}", KS[ki]),
                    format!("{:.2}", ACCEPT_RATES[ri]),
                    if free {
                        "free".into()
                    } else {
                        format!("{DRAFT_SCALE}")
                    },
                ),
            };
            vec![
                format!("{:.0}", QPS[qi]),
                r.system.clone(),
                k,
                rate,
                draft,
                secs(r.makespan),
                secs(r.tbt.mean),
                format!("{}", r.spec_rounds),
                format!("{}", r.draft_tokens_accepted),
                format!("{}", r.draft_tokens_rejected),
            ]
        })
        .collect();
    print_table(
        &[
            "QPS", "System", "k", "Accept", "Draft", "Makespan", "TBT mean", "Rounds", "Accepted",
            "Rejected",
        ],
        &rows,
    );

    for (&job, r) in jobs.iter().zip(&reports) {
        assert_eq!(r.completed, num_requests, "cell {job:?} lost requests");
        match job.2 {
            None => assert_eq!(r.spec_rounds, 0, "AR baseline must not speculate"),
            Some((_, ri, _)) => {
                assert!(r.spec_rounds > 0, "cell {job:?} never speculated");
                if ACCEPT_RATES[ri] == 0.0 {
                    assert_eq!(r.draft_tokens_accepted, 0, "cell {job:?}");
                }
            }
        }
    }

    // Ordering 1 (the headline): at acceptance >= 0.7, speculation strictly
    // beats plain decode on makespan AND mean TBT under POD at saturation,
    // at every draft depth — despite paying for its drafts.
    for (ki, &k) in KS.iter().enumerate() {
        for (ri, &rate) in ACCEPT_RATES.iter().enumerate() {
            if rate < 0.7 {
                continue;
            }
            let ar = report_of((1, 1, None));
            let sp = report_of((1, 1, Some((ki, ri, false))));
            assert!(
                sp.makespan < ar.makespan,
                "k={} accept={}: spec makespan {} vs AR {}",
                k,
                rate,
                sp.makespan,
                ar.makespan
            );
            assert!(
                sp.tbt.mean < ar.tbt.mean,
                "k={} accept={}: spec TBT {} vs AR {}",
                k,
                rate,
                sp.tbt.mean,
                ar.tbt.mean
            );
        }
    }

    // Ordering 2 (pricing honesty, part one): at acceptance 0 every round
    // nets one token but still pays for drafts and verify — speculation can
    // never beat autoregressive decode, on any backend at any load.
    for (qi, &qps) in QPS.iter().enumerate() {
        for bi in 0..2 {
            for (ki, &k) in KS.iter().enumerate() {
                let ar = report_of((qi, bi, None));
                let sp = report_of((qi, bi, Some((ki, 0, false))));
                assert!(
                    sp.makespan >= ar.makespan,
                    "qps={} backend={} k={}: zero-acceptance speculation must \
                     not be priced below plain decode ({} vs {})",
                    qps,
                    bi,
                    k,
                    sp.makespan,
                    ar.makespan
                );
            }
        }
    }

    // Ordering 3 (pricing honesty, part two): a priced draft model can only
    // cost more than a free one — the speculative mode is never cheaper
    // than its own verify work.
    for (ki, &k) in KS.iter().enumerate() {
        for (ri, &rate) in ACCEPT_RATES.iter().enumerate() {
            let real = report_of((1, 1, Some((ki, ri, false))));
            let free = report_of((1, 1, Some((ki, ri, true))));
            assert!(
                real.makespan >= free.makespan,
                "k={} accept={}: priced draft ({}) cheaper than free draft ({})",
                k,
                rate,
                real.makespan,
                free.makespan
            );
        }
    }

    // Ordering 4: more acceptance, more win — the saturated POD makespan at
    // acceptance 0.95 strictly beats the acceptance-0 cell at every depth.
    for (ki, &k) in KS.iter().enumerate() {
        let lo = report_of((1, 1, Some((ki, 0, false))));
        let hi = report_of((1, 1, Some((ki, ACCEPT_RATES.len() - 1, false))));
        assert!(
            hi.makespan < lo.makespan,
            "k={}: acceptance 0.95 ({}) must beat acceptance 0 ({})",
            k,
            hi.makespan,
            lo.makespan
        );
    }

    // Ordering 5 (inertness): the degenerate corner — k=1, free draft,
    // acceptance 1.0 — reproduces the autoregressive schedule bit for bit.
    let specs = Workload::internal().generate(num_requests, QPS[1], SEED);
    let degenerate = ServingEngine::new(backends(&model, &gpu)[1].clone().with_speculative(
        1,
        DraftModelConfig::free(),
        AcceptanceModel::new(1.0, SEED),
    ))
    .run(specs);
    let ar = report_of((1, 1, None));
    assert_eq!(degenerate.makespan.to_bits(), ar.makespan.to_bits());
    assert_eq!(degenerate.tbt.mean.to_bits(), ar.tbt.mean.to_bits());
    assert_eq!(degenerate.ttft.p99.to_bits(), ar.ttft.p99.to_bits());

    println!(
        "\nOrderings hold: acceptance >= 0.7 strictly beats plain decode under POD at \
         saturation, zero acceptance and priced drafts are never under-priced, the win \
         grows with acceptance, and the degenerate corner is bit-for-bit autoregressive."
    );

    // The gated summary: POD-at-saturation makespan speedup (AR / spec) at
    // the highest acceptance, averaged over draft depths, plus the observed
    // fleet-wide acceptance fraction for the trend.
    let max_ri = ACCEPT_RATES.len() - 1;
    let makespan_speedup = (0..KS.len())
        .map(|ki| {
            report_of((1, 1, None)).makespan / report_of((1, 1, Some((ki, max_ri, false)))).makespan
        })
        .sum::<f64>()
        / KS.len() as f64;
    let best = report_of((1, 1, Some((KS.len() - 1, max_ri, false))));
    let acceptance_observed = best.draft_tokens_accepted as f64
        / (best.draft_tokens_accepted + best.draft_tokens_rejected).max(1) as f64;
    println!(
        "POD saturation makespan speedup at acceptance {}: {makespan_speedup:.4}x \
         (observed acceptance {acceptance_observed:.3})",
        ACCEPT_RATES[max_ri]
    );

    let cells: Vec<JsonValue> = jobs
        .iter()
        .zip(&reports)
        .map(|(&(qi, _, spec), report)| {
            let mut fields = vec![("qps", JsonValue::Num(QPS[qi]))];
            match spec {
                None => fields.push(("mode", JsonValue::str("autoregressive"))),
                Some((ki, ri, free)) => {
                    fields.push(("mode", JsonValue::str("speculative")));
                    fields.push(("k", JsonValue::Num(KS[ki] as f64)));
                    fields.push(("acceptance", JsonValue::Num(ACCEPT_RATES[ri])));
                    fields.push((
                        "draft_scale",
                        JsonValue::Num(if free { 0.0 } else { DRAFT_SCALE }),
                    ));
                }
            }
            fields.push(("report", report.to_json()));
            JsonValue::obj(fields)
        })
        .collect();
    let json = JsonValue::obj(vec![
        (
            "workload",
            JsonValue::obj(vec![
                ("trace", JsonValue::str("internal")),
                ("num_requests", JsonValue::Num(num_requests as f64)),
                ("seed", JsonValue::Num(SEED as f64)),
                ("draft_scale", JsonValue::Num(DRAFT_SCALE)),
            ]),
        ),
        (
            "spec",
            JsonValue::obj(vec![
                ("makespan_speedup", JsonValue::Num(makespan_speedup)),
                ("acceptance_observed", JsonValue::Num(acceptance_observed)),
            ]),
        ),
        ("cells", JsonValue::Arr(cells)),
    ]);
    let path = repo_root_path("BENCH_spec.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write BENCH_spec.json");
    println!("wrote {}", path.display());
}

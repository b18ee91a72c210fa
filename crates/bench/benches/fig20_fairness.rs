//! Figure 20 (repro-original): multi-tenant fairness — per-tenant goodput
//! isolation under adversarial tenant mixes, with and without weighted fair
//! queueing and priority preemption.
//!
//! Three scenarios from [`TenantMix`], each on a single saturable replica:
//!
//! 1. **Noisy neighbor** — steady interactive tenants share the replica
//!    with one tenant whose 4x-heavier prompts arrive in flash-crowd
//!    bursts. The isolation claim: under fair queueing every well-behaved
//!    tenant keeps >= 90% of the goodput it gets with the replica to
//!    itself, while FCFS lets the burst starve at least one of them below
//!    50%.
//! 2. **Prompt bomb** — a trickle of enormous prompts that each stall the
//!    FCFS queue for whole seconds.
//! 3. **Priority inversion** — a low-priority bulk flood in front of a
//!    high-priority interactive trickle; priority-aware selection (and,
//!    under KV pressure, priority preemption of resident bulk decodes)
//!    must invert the inversion.
//!
//! Also asserts the two global contracts: fairness costs < 5% aggregate
//! throughput on the noisy-neighbor mix, and with a single tenant fair
//! queueing is **bit-for-bit** identical to FCFS (the inertness pin behind
//! every existing golden).
//!
//! Writes `BENCH_fairness.json` at the repository root (every value gated
//! exactly by `perf_gate` in CI).
//!
//! Run with `cargo bench -p pod-bench --bench fig20_fairness`.

use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, ClusterReport, FairQueueConfig, JsonValue, ModelConfig, RouterPolicy,
    ServingConfig, ServingEngine, TenantId, TenantMix,
};
use pod_bench::microbench::repo_root_path;
use pod_bench::{heading, par_map, pct, print_table, scaled, secs};

const SEED: u64 = 20;
/// Well-behaved tenants in the noisy-neighbor and prompt-bomb mixes.
const WELL_BEHAVED: usize = 3;
/// KV capacity for the priority-inversion cells: tight enough that the bulk
/// tenant's resident decodes create real pressure for preemption to relieve.
const INVERSION_KV_TOKENS: usize = 40_000;

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    Fcfs,
    Fair,
    FairPrio,
}

impl Policy {
    fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Fair => "fair",
            Policy::FairPrio => "fair+prio",
        }
    }

    fn apply(self, base: ServingConfig) -> ServingConfig {
        match self {
            Policy::Fcfs => base,
            Policy::Fair => base.with_fair_queue(FairQueueConfig::new()),
            Policy::FairPrio => {
                base.with_fair_queue(FairQueueConfig::new().with_priority_preemption(true))
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
struct Cell {
    scenario: usize, // index into scenarios()
    policy: Policy,
}

fn scenarios(count_each: usize) -> Vec<(&'static str, TenantMix)> {
    vec![
        (
            "noisy-neighbor",
            TenantMix::noisy_neighbor(WELL_BEHAVED, 1.0, 16.0, count_each),
        ),
        (
            "prompt-bomb",
            TenantMix::prompt_bomb(WELL_BEHAVED, 0.5, count_each),
        ),
        (
            "priority-inversion",
            TenantMix::priority_inversion(0.5, count_each),
        ),
    ]
}

fn base_config(model: &ModelConfig, gpu: &GpuConfig, scenario: usize) -> ServingConfig {
    let mut base =
        ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 1024).with_paged_kv(false);
    if scenario == 2 {
        base.kv_capacity_tokens = Some(INVERSION_KV_TOKENS);
    }
    base
}

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let count_each = scaled(24, 60);
    let scenarios = scenarios(count_each);

    heading(
        "Figure 20: multi-tenant fairness — scenario x queueing policy",
        "single replica, Llama-3-8B + POD, chunk 1024, paged KV; weighted fair queueing \
         over queued prefill work, priority preemption through the paged preemption path.",
    );

    let mut cells: Vec<Cell> = Vec::new();
    for scenario in 0..scenarios.len() {
        for policy in [Policy::Fcfs, Policy::Fair, Policy::FairPrio] {
            cells.push(Cell { scenario, policy });
        }
    }

    let run_inputs: Vec<(Cell, TenantMix, ServingConfig)> = cells
        .iter()
        .map(|&cell| {
            (
                cell,
                scenarios[cell.scenario].1.clone(),
                cell.policy.apply(base_config(&model, &gpu, cell.scenario)),
            )
        })
        .collect();
    let reports: Vec<ClusterReport> = par_map(run_inputs, |(_, mix, config)| {
        Cluster::new(ClusterConfig::new(config, 1, RouterPolicy::RoundRobin))
            .run(mix.generate(SEED))
    });
    let report_of = |scenario: usize, policy: Policy| -> &ClusterReport {
        let want = Cell { scenario, policy };
        let idx = cells
            .iter()
            .position(|&c| c == want)
            .expect("every sweep cell was simulated");
        &reports[idx]
    };

    // Solo baselines: each well-behaved tenant of the noisy-neighbor mix
    // with the replica to itself, on the FCFS config (one tenant, so fair
    // queueing would be bit-for-bit identical anyway — see the pin below).
    let noisy_mix = &scenarios[0].1;
    let solo_goodput: Vec<usize> = par_map(
        (0..WELL_BEHAVED)
            .map(|t| {
                (
                    noisy_mix.solo(TenantId(t as u32), SEED),
                    base_config(&model, &gpu, 0),
                )
            })
            .collect(),
        |(specs, config)| {
            Cluster::new(ClusterConfig::new(config, 1, RouterPolicy::RoundRobin))
                .run(specs)
                .aggregate
                .goodput_requests()
        },
    );

    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, r)| {
            let agg = &r.aggregate;
            let worst = agg
                .tenants
                .iter()
                .map(|t| t.attainment())
                .fold(1.0_f64, f64::min);
            vec![
                scenarios[cell.scenario].0.to_string(),
                cell.policy.label().to_string(),
                format!("{}", agg.goodput_requests()),
                format!("{:.1}", agg.requests_per_minute()),
                pct(agg.slo_attainment()),
                pct(worst),
                format!("{}", agg.preemptions),
                secs(agg.ttft.p99),
            ]
        })
        .collect();
    print_table(
        &[
            "Scenario", "Policy", "Goodput", "Req/min", "Attain", "WorstTen", "Preempt", "TTFT P99",
        ],
        &rows,
    );

    let tenant_goodput = |r: &ClusterReport, t: usize| -> usize {
        r.aggregate
            .tenants
            .iter()
            .find(|x| x.tenant == TenantId(t as u32))
            .map(|x| x.goodput_requests())
            .unwrap_or(0)
    };

    // Isolation claim (a): under the noisy-neighbor mix, fair queueing holds
    // every well-behaved tenant at >= 90% of its solo goodput, while FCFS
    // drops at least one below 50%.
    let fcfs = report_of(0, Policy::Fcfs);
    let fair = report_of(0, Policy::Fair);
    let mut fcfs_starved = false;
    for (t, &solo) in solo_goodput.iter().enumerate() {
        assert!(
            solo > 0,
            "tenant {t} must have solo goodput to compare against"
        );
        let fair_share = tenant_goodput(fair, t) as f64 / solo as f64;
        let fcfs_share = tenant_goodput(fcfs, t) as f64 / solo as f64;
        assert!(
            fair_share >= 0.9,
            "tenant {t}: fair goodput {} must be >= 90% of solo {solo}",
            tenant_goodput(fair, t)
        );
        fcfs_starved |= fcfs_share < 0.5;
    }
    assert!(
        fcfs_starved,
        "the burst must starve at least one well-behaved tenant below 50% of solo under FCFS: {:?}",
        (0..WELL_BEHAVED)
            .map(|t| tenant_goodput(fcfs, t))
            .collect::<Vec<_>>()
    );

    // Global contract (b): fairness costs < 5% aggregate throughput.
    assert!(
        fair.aggregate.requests_per_minute() >= 0.95 * fcfs.aggregate.requests_per_minute(),
        "fair queueing must cost < 5% aggregate throughput: {:.1} vs {:.1} req/min",
        fair.aggregate.requests_per_minute(),
        fcfs.aggregate.requests_per_minute()
    );

    // Prompt bomb: fair queueing must not lose aggregate goodput and must
    // lift the worst well-behaved tenant.
    let bomb_fcfs = report_of(1, Policy::Fcfs);
    let bomb_fair = report_of(1, Policy::Fair);
    let worst_wb = |r: &ClusterReport| {
        (0..WELL_BEHAVED)
            .map(|t| tenant_goodput(r, t))
            .min()
            .expect("well-behaved tenants exist")
    };
    assert!(
        worst_wb(bomb_fair) >= worst_wb(bomb_fcfs),
        "fair queueing must not worsen the bombed tenants: {} vs {}",
        worst_wb(bomb_fair),
        worst_wb(bomb_fcfs)
    );

    // Priority inversion: the high-priority tenant's TTFT must improve
    // under priority-aware fair queueing, and further (or at least as much)
    // with preemption; the preemption cell attributes its evictions.
    let inv_fcfs = report_of(2, Policy::Fcfs);
    let inv_fair = report_of(2, Policy::Fair);
    let inv_prio = report_of(2, Policy::FairPrio);
    let high_ttft = |r: &ClusterReport| {
        r.aggregate
            .tenants
            .iter()
            .find(|t| t.tenant == TenantId(0))
            .expect("high-priority tenant served")
            .ttft
            .mean
    };
    assert!(
        high_ttft(inv_fair) < high_ttft(inv_fcfs),
        "priority-aware selection must cut the high-priority TTFT: {} vs {}",
        high_ttft(inv_fair),
        high_ttft(inv_fcfs)
    );
    assert!(
        high_ttft(inv_prio) < high_ttft(inv_fcfs),
        "priority preemption must cut the high-priority TTFT: {} vs {}",
        high_ttft(inv_prio),
        high_ttft(inv_fcfs)
    );

    // Inertness pin (c): with a single tenant (equal weights trivially),
    // fair queueing is bit-for-bit identical to FCFS — only the system
    // label differs, so it is rewritten before comparing.
    let solo_trace = noisy_mix.solo(TenantId(0), SEED);
    let pin_fcfs = ServingEngine::new(base_config(&model, &gpu, 0)).run(solo_trace.clone());
    let mut pin_fair =
        ServingEngine::new(base_config(&model, &gpu, 0).with_fair_queue(FairQueueConfig::new()))
            .run(solo_trace);
    assert!(pin_fair.system.ends_with("+fair"));
    pin_fair.system = pin_fcfs.system.clone();
    assert_eq!(
        pin_fair.to_json().to_string_pretty(),
        pin_fcfs.to_json().to_string_pretty(),
        "single-tenant fair queueing must be bit-for-bit identical to FCFS"
    );

    println!(
        "\nIsolation holds: fair queueing keeps every well-behaved tenant >= 90% of solo \
         goodput (FCFS starves one below 50%), costs < 5% aggregate throughput, fixes the \
         priority inversion, and is bit-for-bit inert with a single tenant."
    );

    // Machine-readable sweep output; the CI perf gate consumes mean
    // aggregate goodput across these cells.
    let cell_json: Vec<JsonValue> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, report)| {
            JsonValue::obj(vec![
                ("scenario", JsonValue::str(scenarios[cell.scenario].0)),
                ("policy", JsonValue::str(cell.policy.label())),
                ("report", report.to_json()),
            ])
        })
        .collect();
    let json = JsonValue::obj(vec![
        (
            "workload",
            JsonValue::obj(vec![
                ("trace", JsonValue::str("tenant-mix/adversarial")),
                (
                    "scenarios",
                    JsonValue::Arr(
                        scenarios
                            .iter()
                            .map(|(name, _)| JsonValue::str(name))
                            .collect(),
                    ),
                ),
                ("well_behaved", JsonValue::Num(WELL_BEHAVED as f64)),
                ("count_each", JsonValue::Num(count_each as f64)),
                (
                    "solo_goodput",
                    JsonValue::Arr(
                        solo_goodput
                            .iter()
                            .map(|&g| JsonValue::Num(g as f64))
                            .collect(),
                    ),
                ),
                ("seed", JsonValue::Num(SEED as f64)),
            ]),
        ),
        ("cells", JsonValue::Arr(cell_json)),
    ]);
    let path = repo_root_path("BENCH_fairness.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write BENCH_fairness.json");
    println!("wrote {}", path.display());
}

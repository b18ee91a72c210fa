//! Regression and determinism tests for the step-able engine and the cluster
//! layer.
//!
//! The golden bit patterns below were captured from the pre-stepping,
//! closed-world `ServingEngine::run` (the monolithic loop that predated
//! `step`). `run` is now implemented on top of `step`, and these tests pin
//! it to the old behavior **bit-for-bit** — not within a tolerance.

use gpu_sim::GpuConfig;
use llm_serving::{
    offline_long_context, AutoscalerConfig, Cluster, ClusterConfig, ClusterReport, FairQueueConfig,
    FlightRecording, IterationOutcome, KvMigration, ModelConfig, Priority, RateSchedule,
    ReplicaRole, RequestSpec, RouterPolicy, ServingConfig, ServingEngine, ServingReport,
    SharedPrefixWorkload, TenantId, TraceConfig, Workload,
};
use llm_serving::{AcceptanceModel, DraftModelConfig};
use std::collections::BTreeMap;

fn llama3() -> ModelConfig {
    ModelConfig::llama3_8b()
}

fn gpu() -> GpuConfig {
    GpuConfig::a100_80gb()
}

/// Golden field values as `f64::to_bits` patterns plus exact counters.
/// `trace` lists a traced run's event counts by kind (empty when the case
/// runs untraced).
#[derive(Debug, PartialEq)]
struct Golden {
    makespan: u64,
    completed: usize,
    iterations: usize,
    hybrid: usize,
    ttft_p50: u64,
    ttft_p99: u64,
    tbt_p50: u64,
    tbt_max: u64,
    lat_p50: u64,
    stall200: u64,
    hits: usize,
    misses: usize,
    prefill_tokens: usize,
    preemptions: usize,
    inflicted: usize,
    blocks_evicted: usize,
    cached_prefix_tokens: usize,
    blocks_reused: usize,
    cow_copies: usize,
    deduped: usize,
    spec_rounds: usize,
    draft_rejected: usize,
    migrated_out: usize,
    migrated_in: usize,
    migrated_tokens: usize,
    migration_stall: u64,
    trace: &'static str,
}

impl Golden {
    /// The pinned fields of `r` (and of `recording`, when traced). The trace
    /// string is leaked so the value has the literal's shape.
    fn of(r: &ServingReport, recording: Option<FlightRecording>) -> Golden {
        let trace = recording.map_or(String::new(), |rec| {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for ev in rec.replicas.iter().flatten().chain(&rec.cluster) {
                *counts.entry(ev.kind.label()).or_insert(0) += 1;
            }
            let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
            parts.join(" ")
        });
        Golden {
            makespan: r.makespan.to_bits(),
            completed: r.completed,
            iterations: r.iterations,
            hybrid: r.hybrid_iterations,
            ttft_p50: r.ttft.p50.to_bits(),
            ttft_p99: r.ttft.p99.to_bits(),
            tbt_p50: r.tbt.p50.to_bits(),
            tbt_max: r.tbt.max.to_bits(),
            lat_p50: r.request_latency.p50.to_bits(),
            stall200: r.stall_fraction_200ms.to_bits(),
            hits: r.price_cache_hits,
            misses: r.price_cache_misses,
            prefill_tokens: r.prefill_tokens_scheduled,
            preemptions: r.preemptions,
            inflicted: r.tenants.iter().map(|t| t.preemptions_inflicted).sum(),
            blocks_evicted: r.blocks_evicted,
            cached_prefix_tokens: r.cached_prefix_tokens,
            blocks_reused: r.blocks_reused,
            cow_copies: r.cow_copies,
            deduped: r.decode_kv_tokens_deduped,
            spec_rounds: r.spec_rounds,
            draft_rejected: r.draft_tokens_rejected,
            migrated_out: r.migrated_out_requests,
            migrated_in: r.migrated_in_requests,
            migrated_tokens: r.migrated_tokens,
            migration_stall: r.migration_stall_time.to_bits(),
            trace: Box::leak(trace.into_boxed_str()),
        }
    }
}

/// A fleet run's pinned outputs: the aggregate [`Golden`] plus the
/// fleet-shape fields an aggregate cannot show (where requests went, how
/// the autoscaler moved and what the fleet cost).
#[derive(Debug, PartialEq)]
struct FleetGolden {
    aggregate: Golden,
    assigned: &'static [usize],
    scale_out: usize,
    scale_in: usize,
    peak: usize,
    replica_seconds: u64,
}

/// Run `specs` on `config` with tracing on and pin the fleet's outputs.
fn fleet_case(mut config: ClusterConfig, specs: Vec<RequestSpec>) -> FleetGolden {
    config.base = traced(config.base);
    let mut cluster = Cluster::new(config);
    let report = cluster.run(specs);
    FleetGolden {
        aggregate: Golden::of(&report.aggregate, cluster.flight_recording()),
        assigned: Box::leak(report.assigned_per_replica.into_boxed_slice()),
        scale_out: report.scale_out_events,
        scale_in: report.scale_in_events,
        peak: report.peak_replicas,
        replica_seconds: report.replica_seconds.to_bits(),
    }
}

/// Each mismatched case's new block, printed verbatim (a deliberate model
/// change re-records them).
fn mismatches<T: PartialEq + std::fmt::Debug>(cases: Vec<(&str, T, T)>) -> String {
    let mut report = String::new();
    for (tag, got, want) in cases {
        if got != want {
            report += &format!("{tag}: golden mismatch; new values:\n{got:#?}\n");
        }
    }
    report
}

fn traced(config: ServingConfig) -> ServingConfig {
    config.with_tracing(TraceConfig::new().with_capacity(1 << 20))
}

/// Run `specs` on one traced engine.
fn engine_case(config: ServingConfig, specs: Vec<RequestSpec>) -> Golden {
    let mut engine = ServingEngine::new(traced(config));
    for spec in specs {
        engine.submit(spec);
    }
    engine.run_until_drained();
    assert_eq!(engine.kv_utilization(), 0.0, "drained pool holds blocks");
    Golden::of(&engine.report(), engine.flight_recording())
}

/// Run `specs` on a traced one-prefill, one-decode disaggregated fleet.
fn disaggregated_case(base: ServingConfig, specs: Vec<RequestSpec>) -> Golden {
    let mut cluster = Cluster::new(ClusterConfig::disaggregated(
        traced(base),
        1,
        1,
        RouterPolicy::RoundRobin,
        KvMigration::infiniband(),
    ));
    let report: ClusterReport = cluster.run(specs);
    Golden::of(&report.aggregate, cluster.flight_recording())
}

/// `run()` (now a loop over `step`) reproduces the pre-refactor closed-world
/// engine bit-for-bit on an online Sarathi+POD workload, and every KV
/// residency path — paged growth and preemption, prefix caching with
/// eviction, speculative rollback, disaggregated export and adoption under
/// each policy, and priority preemption — keeps its pinned outputs and
/// trace-event counts. Two fleet cases pin the cluster loop itself: an
/// autoscaled fleet that grows and shrinks, and a mixed fleet whose
/// colocated replica serves beside a disaggregated pair.
#[test]
fn run_reproduces_pre_stepping_reports_bit_for_bit() {
    let online = Workload::internal().generate(40, 0.8, 17);
    let offline = offline_long_context(16, 8 * 1024, 128);
    let mut cases = Vec::new();

    let pod =
        ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024)).run(online.clone());
    cases.push((
        "sarathi_pod_online",
        Golden::of(&pod, None),
        SARATHI_POD_ONLINE,
    ));

    let sarathi = ServingEngine::new(ServingConfig::sarathi(llama3(), gpu(), 1024)).run(offline);
    cases.push((
        "sarathi_offline",
        Golden::of(&sarathi, None),
        SARATHI_OFFLINE,
    ));

    let vllm = ServingEngine::new(ServingConfig::vllm(llama3(), gpu())).run(online.clone());
    cases.push(("vllm_online", Golden::of(&vllm, None), VLLM_ONLINE));

    // Paged without prefix caching, on a pool small enough that decode
    // growth preempts.
    let mut paged = ServingConfig::sarathi_pod(llama3(), gpu(), 1024).with_paged_kv(false);
    paged.kv_capacity_tokens = Some(29_000);
    let pressure = Workload::internal().generate(24, 2.0, 5);
    cases.push((
        "paged_pressure",
        engine_case(paged, pressure.clone()),
        PAGED_PRESSURE,
    ));

    // The conservative policy on the same pool: admission defers.
    let mut tight = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
    tight.kv_capacity_tokens = Some(29_000);
    cases.push((
        "conservative_pressure",
        engine_case(tight, pressure),
        CONSERVATIVE_PRESSURE,
    ));

    // Prefix caching with decode dedup on shared-prefix traffic, on a pool
    // small enough that cached prefixes are evicted. Prefixes end mid-block,
    // so admissions copy on write.
    let mut prefix = ServingConfig::sarathi_pod(llama3(), gpu(), 1024)
        .with_paged_kv(true)
        .with_decode_dedup(true);
    prefix.kv_capacity_tokens = Some(40_000);
    let shared =
        SharedPrefixWorkload::new(Workload::internal(), 4, 2050, 0.6, 0.35).generate(48, 2.0, 21);
    cases.push((
        "prefix_eviction",
        engine_case(prefix.clone(), shared.clone()),
        PREFIX_EVICTION,
    ));

    // Speculative paged decode with rejection-heavy rollback under pressure.
    let mut spec = ServingConfig::sarathi_pod(llama3(), gpu(), 512)
        .with_paged_kv(true)
        .with_speculative(
            6,
            DraftModelConfig::scaled(0.2),
            AcceptanceModel::new(0.35, 99),
        );
    spec.kv_capacity_tokens = Some(5_000);
    let mut short =
        SharedPrefixWorkload::new(Workload::internal(), 2, 257, 0.6, 0.3).generate(24, 3.0, 11);
    for s in &mut short {
        s.prompt_tokens = s.prompt_tokens.min(1_024);
        s.output_tokens = 600;
    }
    cases.push(("spec_rollback", engine_case(spec, short), SPEC_ROLLBACK));

    // Disaggregated prefill/decode under each policy.
    let conservative = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
    cases.push((
        "disagg_conservative",
        disaggregated_case(conservative.clone(), online.clone()),
        DISAGG_CONSERVATIVE,
    ));
    cases.push((
        "disagg_paged",
        disaggregated_case(prefix, shared),
        DISAGG_PAGED,
    ));

    // Fair queueing with priority preemption: high-priority arrivals evict
    // low-priority resident decodes from a full paged pool.
    let mut fair = ServingConfig::sarathi(llama3(), gpu(), 1024)
        .with_paged_kv(false)
        .with_fair_queue(FairQueueConfig::new().with_priority_preemption(true));
    fair.kv_capacity_tokens = Some(20_000);
    let mut mixed: Vec<RequestSpec> = (0..4)
        .map(|i| {
            RequestSpec::new(0.1 * i as f64, 4_000, 1_500)
                .with_tenant(TenantId(0))
                .with_priority(Priority::Low)
        })
        .collect();
    mixed.extend((0..4).map(|i| {
        RequestSpec::new(1.5 + i as f64, 3_000, 64)
            .with_tenant(TenantId(1))
            .with_priority(Priority::High)
    }));
    cases.push((
        "priority_preempt",
        engine_case(fair, mixed),
        PRIORITY_PREEMPT,
    ));

    // An autoscaled colocated fleet: a burst scales it out from one
    // replica, the calm tail drains replicas back in.
    let burst =
        Workload::internal().generate_trace(100, &RateSchedule::bursty(8.0, 0.2, 30.0, 90.0), 33);
    let autoscaled = fleet_case(
        ClusterConfig::new(
            conservative.clone(),
            1,
            RouterPolicy::LeastOutstandingTokens,
        )
        .with_autoscaler(AutoscalerConfig {
            interval: 2.0,
            scale_out_backlog: 30_000,
            ..AutoscalerConfig::new(1, 6)
        }),
        burst,
    );
    assert!(autoscaled.scale_out > 0 && autoscaled.scale_in > 0);

    // A mixed fleet: a colocated replica beside two prefill-only replicas
    // that hand off to one decode-only replica over a slow link, so
    // deliveries interleave with arrivals.
    let mixed_roles = vec![
        ReplicaRole::Colocated,
        ReplicaRole::PrefillOnly,
        ReplicaRole::PrefillOnly,
        ReplicaRole::DecodeOnly,
    ];
    let mixed_fleet = fleet_case(
        ClusterConfig::new(conservative, 4, RouterPolicy::decode_aware())
            .with_roles(mixed_roles, KvMigration::commodity().with_overlap()),
        Workload::internal().generate(48, 2.0, 29),
    );

    let fleet_cases = vec![
        ("autoscaled_fleet", autoscaled, AUTOSCALED_FLEET),
        ("mixed_fleet", mixed_fleet, MIXED_FLEET),
    ];
    let report = mismatches(cases) + &mismatches(fleet_cases);
    assert!(report.is_empty(), "{report}");
}

/// Driving `step()` by hand produces a report identical to `run()` — same
/// clocks, same percentiles, same cache counters.
#[test]
fn manual_stepping_matches_run_exactly() {
    for specs in [
        Workload::internal().generate(32, 1.0, 42),
        offline_long_context(12, 4 * 1024, 64),
    ] {
        let engine = ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024));
        let from_run = engine.run(specs.clone());

        let mut stepped = ServingEngine::new(ServingConfig::sarathi_pod(llama3(), gpu(), 1024));
        for spec in specs {
            stepped.submit(spec);
        }
        let mut now = 0.0;
        let mut ran = 0usize;
        loop {
            match stepped.step(now) {
                IterationOutcome::Ran(stats) => {
                    assert!(stats.duration > 0.0);
                    assert_eq!(stats.completed_at, stepped.clock());
                    ran += 1;
                    now = stats.completed_at;
                }
                IterationOutcome::IdleUntil(t) => {
                    assert!(t > now, "idle time must move forward");
                    now = t;
                }
                IterationOutcome::Drained => break,
                IterationOutcome::Blocked { .. } => panic!("workload fits, must not block"),
            }
        }
        assert!(stepped.is_drained());
        assert_eq!(ran, from_run.iterations);
        assert_eq!(stepped.report(), from_run);
    }
}

/// Same seed ⇒ identical trace ⇒ identical engine and cluster reports, run
/// after run.
#[test]
fn same_seed_is_deterministic_end_to_end() {
    let schedule = RateSchedule::bursty(0.4, 5.0, 30.0, 8.0);
    let trace_a = Workload::arxiv().generate_trace(40, &schedule, 1234);
    let trace_b = Workload::arxiv().generate_trace(40, &schedule, 1234);
    assert_eq!(
        trace_a, trace_b,
        "trace generation must be seed-deterministic"
    );

    let config = ServingConfig::sarathi_pod(llama3(), gpu(), 1024);
    let r1 = ServingEngine::new(config.clone()).run(trace_a.clone());
    let r2 = ServingEngine::new(config.clone()).run(trace_b.clone());
    assert_eq!(r1, r2);

    let c1 = Cluster::new(ClusterConfig::new(
        config.clone(),
        3,
        RouterPolicy::decode_aware(),
    ))
    .run(trace_a);
    let c2 = Cluster::new(ClusterConfig::new(config, 3, RouterPolicy::decode_aware())).run(trace_b);
    assert_eq!(c1, c2);
}

/// A fleet of one replica behind any router is exactly the single engine.
#[test]
fn one_replica_cluster_is_the_engine() {
    let specs = Workload::internal().generate(20, 1.0, 7);
    let config = ServingConfig::sarathi(llama3(), gpu(), 1024);
    let plain = ServingEngine::new(config.clone()).run(specs.clone());
    let cluster = Cluster::new(ClusterConfig::new(config, 1, RouterPolicy::RoundRobin)).run(specs);
    assert_eq!(cluster.per_replica[0], plain);
    assert_eq!(
        cluster.aggregate.makespan.to_bits(),
        plain.makespan.to_bits()
    );
}

/// POD keeps its single-GPU win at every fleet size: Sarathi+POD completes
/// the same bursty trace no slower than Sarathi per replica count.
#[test]
fn pod_advantage_survives_scaling_out() {
    let schedule = RateSchedule::bursty(0.5, 4.0, 30.0, 10.0);
    let trace = Workload::internal().generate_trace(36, &schedule, 5);
    for replicas in [1usize, 2, 4] {
        let sarathi = Cluster::new(ClusterConfig::new(
            ServingConfig::sarathi(llama3(), gpu(), 1024),
            replicas,
            RouterPolicy::decode_aware(),
        ))
        .run(trace.clone());
        let pod = Cluster::new(ClusterConfig::new(
            ServingConfig::sarathi_pod(llama3(), gpu(), 1024),
            replicas,
            RouterPolicy::decode_aware(),
        ))
        .run(trace.clone());
        assert_eq!(pod.aggregate.completed, 36);
        // Makespan under online arrivals is dominated by the arrival span, so
        // allow 1% routing noise there; the mean latency win must be strict.
        assert!(
            pod.aggregate.makespan <= sarathi.aggregate.makespan * 1.01,
            "{replicas} replicas: POD makespan {} vs Sarathi {}",
            pod.aggregate.makespan,
            sarathi.aggregate.makespan
        );
        assert!(
            pod.aggregate.request_latency.mean < sarathi.aggregate.request_latency.mean,
            "{replicas} replicas: POD mean latency {} vs Sarathi {}",
            pod.aggregate.request_latency.mean,
            sarathi.aggregate.request_latency.mean
        );
    }
}

const SARATHI_POD_ONLINE: Golden = Golden {
    makespan: 4634273427453257495,
    completed: 40,
    iterations: 5907,
    hybrid: 417,
    ttft_p50: 4602988723638504496,
    ttft_p99: 4609199801803860468,
    tbt_p50: 4575574502164525056,
    tbt_max: 4589340709345344256,
    lat_p50: 4614310424491164702,
    stall200: 0,
    hits: 5397,
    misses: 510,
    prefill_tokens: 449931,
    preemptions: 0,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "",
};

const SARATHI_OFFLINE: Golden = Golden {
    makespan: 4619641717820506628,
    completed: 16,
    iterations: 270,
    hybrid: 135,
    ttft_p50: 4614167509303138966,
    ttft_p99: 4618387286776373393,
    tbt_p50: 4578181879319054848,
    tbt_max: 4587707149233108736,
    lat_p50: 4619086305298313794,
    stall200: 0,
    hits: 118,
    misses: 152,
    prefill_tokens: 131072,
    preemptions: 0,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "",
};

const VLLM_ONLINE: Golden = Golden {
    makespan: 4634281936496695202,
    completed: 40,
    iterations: 5555,
    hybrid: 0,
    ttft_p50: 4602566335034308640,
    ttft_p99: 4608898658765648423,
    tbt_p50: 4575480349117739008,
    tbt_max: 4611104788700718688,
    lat_p50: 4615029678595120562,
    stall200: 4604705439004963635,
    hits: 5426,
    misses: 129,
    prefill_tokens: 449931,
    preemptions: 0,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "",
};

const CONSERVATIVE_PRESSURE: Golden = Golden {
    makespan: 4633633803309335049,
    completed: 24,
    iterations: 7371,
    hybrid: 189,
    ttft_p50: 4625976219281987470,
    ttft_p99: 4631772851862895228,
    tbt_p50: 4574416414983069696,
    tbt_max: 4589031357706799104,
    lat_p50: 4628520706565468904,
    stall200: 0,
    hits: 7116,
    misses: 255,
    prefill_tokens: 260393,
    preemptions: 0,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "admit=24 defer=6703 enqueue=24 finish=24 iteration=7371 timeline=59",
};

const PAGED_PRESSURE: Golden = Golden {
    makespan: 4633653239913596265,
    completed: 24,
    iterations: 7244,
    hybrid: 213,
    ttft_p50: 4625976219281987470,
    ttft_p99: 4631586472104870607,
    tbt_p50: 4574437975031570432,
    tbt_max: 4617786616112900696,
    lat_p50: 4628606680690652952,
    stall200: 4590669220166325589,
    hits: 6964,
    misses: 280,
    prefill_tokens: 283875,
    preemptions: 2,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "admit=26 defer=6552 enqueue=24 finish=24 iteration=7244 kv_alloc=26 kv_free=26 preempt=2 timeline=60",
};

const PREFIX_EVICTION: Golden = Golden {
    makespan: 4634766735935531862,
    completed: 48,
    iterations: 6941,
    hybrid: 536,
    ttft_p50: 4625791673946745778,
    ttft_p99: 4629963154123422690,
    tbt_p50: 4575127896583626752,
    tbt_max: 4608991773680649280,
    lat_p50: 4626761908984330748,
    stall200: 4592170420042115755,
    hits: 6312,
    misses: 629,
    prefill_tokens: 534454,
    preemptions: 5,
    inflicted: 0,
    blocks_evicted: 31863,
    cached_prefix_tokens: 90466,
    blocks_reused: 5653,
    cow_copies: 9,
    deduped: 1861632,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "admit=53 defer=4662 enqueue=48 finish=48 iteration=6941 kv_alloc=53 kv_dedup=909 kv_evict=959 kv_free=53 preempt=5 timeline=71",
};

const SPEC_ROLLBACK: Golden = Golden {
    makespan: 4628207962126238977,
    completed: 24,
    iterations: 2873,
    hybrid: 74,
    ttft_p50: 4619384128612208908,
    ttft_p99: 4625307685856591944,
    tbt_p50: 4576275344155054080,
    tbt_max: 4611593503160407468,
    lat_p50: 4622582098858966936,
    stall200: 4599676419421066581,
    hits: 2556,
    misses: 317,
    prefill_tokens: 26254,
    preemptions: 10,
    inflicted: 0,
    blocks_evicted: 2176,
    cached_prefix_tokens: 9882,
    blocks_reused: 616,
    cow_copies: 12,
    deduped: 0,
    spec_rounds: 9337,
    draft_rejected: 50746,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "admit=34 defer=2223 enqueue=24 finish=24 iteration=2873 kv_alloc=34 kv_evict=737 kv_free=34 preempt=10 spec_round=9337 timeline=26",
};

const DISAGG_CONSERVATIVE: Golden = Golden {
    makespan: 4634209560081717517,
    completed: 40,
    iterations: 8444,
    hybrid: 0,
    ttft_p50: 4602853702193872688,
    ttft_p99: 4609163844361065542,
    tbt_p50: 4575041656389623808,
    tbt_max: 4590616695810963072,
    lat_p50: 4612869624169559430,
    stall200: 0,
    hits: 8275,
    misses: 169,
    prefill_tokens: 449931,
    preemptions: 0,
    inflicted: 0,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 40,
    migrated_in: 40,
    migrated_tokens: 449971,
    migration_stall: 4608897647845595852,
    trace: "admit=40 enqueue=40 finish=40 handoff_export=40 handoff_import=40 iteration=8444 timeline=104",
};

const DISAGG_PAGED: Golden = Golden {
    makespan: 4632654224347721076,
    completed: 48,
    iterations: 7593,
    hybrid: 24,
    ttft_p50: 4610722349576007736,
    ttft_p99: 4614659146477686989,
    tbt_p50: 4575035006820933632,
    tbt_max: 4624120738626411160,
    lat_p50: 4622024028899963706,
    stall200: 4606431818862122325,
    hits: 7396,
    misses: 197,
    prefill_tokens: 554380,
    preemptions: 3,
    inflicted: 0,
    blocks_evicted: 32106,
    cached_prefix_tokens: 51906,
    blocks_reused: 3243,
    cow_copies: 9,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 48,
    migrated_in: 48,
    migrated_tokens: 577622,
    migration_stall: 4643861505973288801,
    trace: "admit=51 defer=839 enqueue=48 finish=48 handoff_export=48 handoff_import=48 iteration=7593 kv_alloc=51 kv_evict=172 kv_free=51 preempt=3 timeline=79",
};

const PRIORITY_PREEMPT: Golden = Golden {
    makespan: 4625021798930300944,
    completed: 8,
    iterations: 2177,
    hybrid: 44,
    ttft_p50: 4594255050578604110,
    ttft_p99: 4599765216640900495,
    tbt_p50: 4574272986401641984,
    tbt_max: 4614224602180227008,
    lat_p50: 4618385554244683163,
    stall200: 4593671619917905920,
    hits: 2092,
    misses: 85,
    prefill_tokens: 45758,
    preemptions: 4,
    inflicted: 3,
    blocks_evicted: 0,
    cached_prefix_tokens: 0,
    blocks_reused: 0,
    cow_copies: 0,
    deduped: 0,
    spec_rounds: 0,
    draft_rejected: 0,
    migrated_out: 0,
    migrated_in: 0,
    migrated_tokens: 0,
    migration_stall: 0,
    trace: "admit=12 defer=633 enqueue=8 finish=8 iteration=2177 kv_alloc=12 kv_free=12 preempt=4 timeline=15",
};

const AUTOSCALED_FLEET: FleetGolden = FleetGolden {
    aggregate: Golden {
        makespan: 4629177431247897350,
        completed: 100,
        iterations: 5330,
        hybrid: 1078,
        ttft_p50: 4616643717078714059,
        ttft_p99: 4622351515999618822,
        tbt_p50: 4578206938503688192,
        tbt_max: 4589803572165877760,
        lat_p50: 4622520214831960356,
        stall200: 0,
        hits: 4141,
        misses: 1189,
        prefill_tokens: 1092225,
        preemptions: 0,
        inflicted: 0,
        blocks_evicted: 0,
        cached_prefix_tokens: 0,
        blocks_reused: 0,
        cow_copies: 0,
        deduped: 0,
        spec_rounds: 0,
        draft_rejected: 0,
        migrated_out: 0,
        migrated_in: 0,
        migrated_tokens: 0,
        migration_stall: 0,
        trace: "admit=100 enqueue=100 finish=100 iteration=5330 scale_in=3 scale_out=3 timeline=85",
    },
    assigned: &[39, 28, 21, 12],
    scale_out: 3,
    scale_in: 3,
    peak: 4,
    replica_seconds: 4635606845671305010,
};

const MIXED_FLEET: FleetGolden = FleetGolden {
    aggregate: Golden {
        makespan: 4629623836225975463,
        completed: 48,
        iterations: 7498,
        hybrid: 85,
        ttft_p50: 4602382807125809130,
        ttft_p99: 4609556886268376896,
        tbt_p50: 4574912296098611200,
        tbt_max: 4590377300693439104,
        lat_p50: 4611759150536120619,
        stall200: 0,
        hits: 7197,
        misses: 301,
        prefill_tokens: 533258,
        preemptions: 0,
        inflicted: 0,
        blocks_evicted: 0,
        cached_prefix_tokens: 0,
        blocks_reused: 0,
        cow_copies: 0,
        deduped: 0,
        spec_rounds: 0,
        draft_rejected: 0,
        migrated_out: 39,
        migrated_in: 39,
        migrated_tokens: 409360,
        migration_stall: 4599868705320992728,
        trace: "admit=48 enqueue=48 finish=48 handoff_export=39 handoff_import=39 iteration=7498 timeline=94",
    },
    assigned: &[9, 24, 15, 0],
    scale_out: 0,
    scale_in: 0,
    peak: 4,
    replica_seconds: 4638631035480716455,
};

//! Golden snapshots of the report JSON **field sets**.
//!
//! The report JSON is what the `BENCH_*.json` trend files embed, and the CI
//! perf gate compares those files key by key. A serialization refactor that
//! drops or renames a metric would only surface there, as a key added or
//! removed in every trend file after a full bench regeneration. These tests
//! catch it at `cargo test` time instead: they pin the full path set of
//! [`ServingReport::to_json`] and [`ClusterReport::to_json`] against
//! committed snapshots and print a field-level diff on mismatch.
//!
//! When a change to the field set is *intentional*, regenerate with:
//!
//! ```text
//! POD_UPDATE_SNAPSHOTS=1 cargo test --test report_snapshots
//! ```
//!
//! and commit the updated files under `tests/snapshots/`.

use gpu_sim::GpuConfig;
use llm_serving::{
    AdmissionPolicy, AutoscalerConfig, Cluster, ClusterConfig, FairQueueConfig, FlightRecording,
    JsonValue, ModelConfig, Priority, RouterPolicy, ServingConfig, ServingEngine, SloMix, TenantId,
    TraceConfig, TraceEvent, TraceEventKind, TraceRecorder, Workload,
};
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

/// Compare `paths` against the committed snapshot, with a field-level diff
/// in the failure message (or rewrite the snapshot when
/// `POD_UPDATE_SNAPSHOTS=1`).
fn assert_matches_snapshot(name: &str, paths: &[String]) {
    let file = snapshot_path(name);
    let fresh = format!("{}\n", paths.join("\n"));
    if std::env::var("POD_UPDATE_SNAPSHOTS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(file.parent().expect("snapshot dir")).expect("mkdir snapshots");
        std::fs::write(&file, &fresh).expect("write snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        panic!(
            "cannot read snapshot {}: {e}\n\
             (run with POD_UPDATE_SNAPSHOTS=1 to create it)",
            file.display()
        )
    });
    if committed == fresh {
        return;
    }
    let committed_set: std::collections::BTreeSet<&str> =
        committed.lines().filter(|l| !l.is_empty()).collect();
    let fresh_set: std::collections::BTreeSet<&str> =
        fresh.lines().filter(|l| !l.is_empty()).collect();
    let missing: Vec<&&str> = committed_set.difference(&fresh_set).collect();
    let added: Vec<&&str> = fresh_set.difference(&committed_set).collect();
    panic!(
        "report field set drifted from {}:\n\
         fields REMOVED (perf gate / trend consumers may break): {missing:?}\n\
         fields ADDED (fine, but must be committed): {added:?}\n\
         If intentional, regenerate with POD_UPDATE_SNAPSHOTS=1 and commit.",
        file.display()
    );
}

/// A serving run that populates every optional corner of the report: SLO
/// classes (met and violated), shedding, prefix caching, preemption, and
/// multi-tenant fair queueing (so the `tenants[]` rows carry real tallies).
fn full_featured_serving_report() -> llm_serving::ServingReport {
    let config = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024)
        .with_paged_kv(true)
        .with_admission(AdmissionPolicy::DeadlineShed)
        .with_fair_queue(FairQueueConfig::new().with_weight(TenantId(1), 2.0));
    let specs: Vec<_> = SloMix::interactive_batch()
        .apply(Workload::internal().generate(24, 4.0, 7), 7)
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.with_tenant(TenantId((i % 3) as u32)))
        .collect();
    ServingEngine::new(config).run(specs)
}

#[test]
fn serving_report_field_set_is_pinned() {
    let report = full_featured_serving_report();
    // Sanity: the run actually exercised the SLO block, so `slo.per_class[]`
    // paths are present in what we pin.
    assert!(report.slo_requests > 0);
    assert!(!report.slo_classes.is_empty());
    // Sanity: the multi-tenant run produced real per-tenant rows.
    assert!(report.tenants.len() > 1);
    assert_matches_snapshot("serving_report_fields.txt", &report.to_json().field_paths());
}

#[test]
fn cluster_report_field_set_is_pinned() {
    let config = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024);
    let specs = SloMix::interactive_batch().apply(Workload::internal().generate(30, 5.0, 11), 11);
    let report = Cluster::new(
        ClusterConfig::new(config, 2, RouterPolicy::decode_aware())
            .with_autoscaler(AutoscalerConfig::new(1, 4)),
    )
    .run(specs);
    assert!(report.aggregate.slo_requests > 0);
    assert_matches_snapshot("cluster_report_fields.txt", &report.to_json().field_paths());
}

/// One event of every [`TraceEventKind`] variant, in a plausible lifecycle
/// order: it is what pins the exporter schemas below. Each example is picked
/// by a `match` on the one before it with no wildcard arm, so a new variant
/// fails to compile until it joins the chain.
fn one_of_every_trace_event() -> Vec<TraceEventKind> {
    std::iter::successors(next_trace_event(None), |prev| next_trace_event(Some(prev))).collect()
}

fn next_trace_event(prev: Option<&TraceEventKind>) -> Option<TraceEventKind> {
    use TraceEventKind as K;
    Some(match prev {
        None => K::Enqueue {
            request: 0,
            tenant: TenantId(1),
            priority: Priority::High,
            prompt_tokens: 512,
            output_tokens: 64,
        },
        Some(K::Enqueue { .. }) => K::Defer { request: 0 },
        Some(K::Defer { .. }) => K::Admit {
            request: 0,
            cached_tokens: 128,
        },
        Some(K::Admit { .. }) => K::KvAlloc {
            request: 0,
            blocks: 4,
            reused: 2,
            cow: true,
        },
        Some(K::KvAlloc { .. }) => K::Iteration {
            started_at: 0.5,
            duration: 0.25,
            hybrid: true,
            prefill_request: Some(0),
            chunk: 384,
            decodes: 3,
            prefill_tokens: 384,
            decode_tokens: 3,
            newly_finished: 1,
        },
        Some(K::Iteration { .. }) => K::KvEvict { blocks: 2 },
        Some(K::KvEvict { .. }) => K::KvDedup {
            groups: 1,
            tokens: 256,
        },
        Some(K::KvDedup { .. }) => K::SpecRound {
            request: 0,
            width: 4,
            accepted: 2,
            minted: 3,
        },
        Some(K::SpecRound { .. }) => K::Preempt { request: 0 },
        Some(K::Preempt { .. }) => K::HandoffExport {
            request: 0,
            tokens: 512,
            blocks: 4,
        },
        Some(K::HandoffExport { .. }) => K::HandoffImport {
            request: 0,
            tokens: 512,
            stall: 0.03,
        },
        Some(K::HandoffImport { .. }) => K::Shed { request: 1 },
        Some(K::Shed { .. }) => K::Finish {
            request: 0,
            prompt_tokens: 512,
            generated: 64,
            ttft: 0.8,
            latency: 2.5,
        },
        Some(K::Finish { .. }) => K::KvFree {
            request: 0,
            blocks: 4,
        },
        Some(K::KvFree { .. }) => K::TimelineSample {
            running: 3,
            waiting: 1,
            kv_utilization: 0.5,
            prefill_tokens: 384,
            decode_tokens: 3,
            tenant_backlog: vec![(TenantId(1), 1)],
        },
        Some(K::TimelineSample { .. }) => K::ScaleOut { replicas: 2 },
        Some(K::ScaleOut { .. }) => K::ScaleIn { replica: 1 },
        Some(K::ScaleIn { .. }) => return None,
    })
}

/// A synthetic recording covering every event kind: replica 0 carries the
/// request-level events, the cluster log the autoscaler actions.
fn full_coverage_recording() -> FlightRecording {
    let mut replica = TraceRecorder::new(TraceConfig::new());
    let mut cluster = TraceRecorder::new(TraceConfig::new());
    for (i, kind) in one_of_every_trace_event().into_iter().enumerate() {
        let t = i as f64 * 0.1;
        match kind {
            TraceEventKind::ScaleOut { .. } | TraceEventKind::ScaleIn { .. } => {
                cluster.record(t, kind)
            }
            _ => replica.record(t, kind),
        }
    }
    let mut recording = FlightRecording::new();
    recording.push_replica(&replica);
    recording.set_cluster(&cluster);
    recording
}

/// The JSONL record schema (the flat `TraceEvent::to_json` shape) is pinned
/// over one event of every kind: a field rename breaks every downstream
/// trace consumer as silently as a report-field rename breaks the perf
/// gate.
#[test]
fn trace_event_field_set_is_pinned() {
    let events: Vec<JsonValue> = one_of_every_trace_event()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            TraceEvent {
                t: i as f64 * 0.1,
                kind,
            }
            .to_json()
        })
        .collect();
    let doc = JsonValue::obj(vec![("events", JsonValue::Arr(events))]);
    assert_matches_snapshot("trace_event_fields.txt", &doc.field_paths());
}

/// The Chrome `trace_event` export schema is pinned the same way — this is
/// the document `chrome://tracing` / Perfetto loads, so its shape is an
/// external contract.
#[test]
fn chrome_trace_field_set_is_pinned() {
    let doc = full_coverage_recording().to_chrome_json();
    assert_matches_snapshot("chrome_trace_fields.txt", &doc.field_paths());
}

/// The headline paths the docs and benches quote (goodput, attainment,
/// tail TTFT/TBT) must stay readable as numbers from a fresh report.
#[test]
fn perf_gate_paths_resolve_in_fresh_reports() {
    let report = full_featured_serving_report();
    let json = report.to_json();
    for path in [
        "requests_per_minute",
        "slo.goodput_per_minute",
        "slo.attainment",
        "ttft.p99",
        "tbt.p99",
    ] {
        assert!(
            json.get_path(path).and_then(|v| v.as_f64()).is_some(),
            "gated path '{path}' no longer resolves to a number"
        );
    }
}

//! Request-lifecycle tracing walkthrough: the flight recorder, timeline
//! metrics and both exporters on a small disaggregated fleet.
//!
//! A prefill/decode fleet serves a bursty interactive trace with tracing
//! enabled. We dump the recording three ways — span-outcome tallies checked
//! against the report, a Chrome `trace_event` file for `chrome://tracing` /
//! Perfetto, and a compact JSONL excerpt — then rerun the same trace with a
//! tiny ring to show the flight recorder's bounded memory.
//! Tracing off is the default and is bit-for-bit inert; everything below is
//! pure observation of a simulation that runs identically without it.
//!
//! Run with `cargo run --release --example tracing_walkthrough`.

use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, KvMigration, ModelConfig, RouterPolicy, ServingConfig, SloMix,
    TraceConfig, Workload,
};

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let specs = SloMix::interactive_batch().apply(Workload::internal().generate(160, 9.0, 31), 31);

    // One prefill-only and one decode-only replica over an InfiniBand-class
    // link: every request's lifecycle crosses a migration, so the trace
    // shows enqueue -> admit -> handoff_export on one process and
    // handoff_import -> finish on another.
    let base = ServingConfig::sarathi_pod(model, gpu, 1024)
        .with_paged_kv(true)
        .with_tracing(
            TraceConfig::new()
                .with_capacity(1 << 20)
                .with_timeline_interval(2.0),
        );
    let mut cluster = Cluster::new(ClusterConfig::disaggregated(
        base.clone(),
        1,
        1,
        RouterPolicy::RoundRobin,
        KvMigration::infiniband(),
    ));
    let report = cluster.run(specs.clone());
    let recording = cluster.flight_recording().expect("tracing was enabled");

    // 1. Span fidelity: terminal events reconstruct the report's outcome
    //    counts exactly (the ring is large enough that nothing was
    //    overwritten).
    let outcomes = recording.span_outcomes();
    assert_eq!(outcomes.finished, report.aggregate.completed);
    assert_eq!(
        outcomes.migrated_out,
        report.aggregate.migrated_out_requests
    );
    println!(
        "recorded {} events across {} replicas ({} overwritten)",
        recording.event_count(),
        recording.replicas.len(),
        recording.dropped
    );
    println!(
        "span outcomes: {} finished, {} shed, {} migrated out / {} in — matches the report",
        outcomes.finished, outcomes.shed, outcomes.migrated_out, outcomes.migrated_in
    );

    // 2. The timeline summary: constant-memory distributions of running
    //    requests and KV utilization sampled every 2 virtual seconds.
    let timeline = &recording.timeline;
    println!(
        "timeline: {} samples, running requests p50 {:.0} / p99 {:.0}, kv util p99 {:.2}",
        timeline.samples,
        timeline.running_requests.quantile(0.5),
        timeline.running_requests.quantile(0.99),
        timeline.kv_utilization.quantile(0.99),
    );

    // 3. Exporters. The Chrome file opens in chrome://tracing or Perfetto:
    //    one process per replica, one span per request, iteration lane on
    //    tid 0, counter tracks from the timeline samples.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir).expect("create target dir");
    let chrome_path = dir.join("tracing_walkthrough_chrome.json");
    std::fs::write(&chrome_path, recording.to_chrome_json().to_string_compact())
        .expect("write chrome trace");
    println!("wrote {} (load in chrome://tracing)", chrome_path.display());

    let jsonl = recording.to_jsonl();
    println!("\nfirst five JSONL records (full-detail export):");
    for line in jsonl.lines().take(5) {
        println!("  {line}");
    }

    // 4. Flight-recorder ring: a 256-event ring per replica retains just
    //    the most recent events — bounded memory however long the trace
    //    runs.
    let small = base.with_tracing(TraceConfig::new().with_capacity(256));
    let mut bounded = Cluster::new(ClusterConfig::disaggregated(
        small,
        1,
        1,
        RouterPolicy::RoundRobin,
        KvMigration::infiniband(),
    ));
    let bounded_report = bounded.run(specs);
    let bounded_rec = bounded.flight_recording().expect("tracing was enabled");
    println!(
        "\nbounded ring: {} events retained, {} overwritten",
        bounded_rec.event_count(),
        bounded_rec.dropped
    );
    // Tracing config never changes the simulation: same report either way.
    assert_eq!(bounded_report, report);
    println!("bounded-ring run produced the bit-identical report — tracing only observes");
}

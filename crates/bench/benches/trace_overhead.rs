//! Tracing overhead on the fleet trace replay: the `trace_replay` fleet
//! (16 replicas, diurnal chat trace, streaming metrics) run in three
//! alternating off/on pairs of flight-recorder legs, each on a fresh
//! cluster, measuring the host-throughput cost of the observability layer.
//!
//! Two properties are asserted in-process, and one is gated in CI:
//!
//! 1. **Inertness**: the traced run's [`ClusterReport`] must be bit-for-bit
//!    identical to the untraced run's — recording observes the simulation,
//!    it never perturbs it. Anyone threading a trace emission through a
//!    code path that changes virtual-time behavior fails here immediately.
//! 2. **Span fidelity**: on a spot-check prefix recorded with a ring large
//!    enough to hold everything, the per-request terminal events
//!    ([`llm_serving::SpanOutcomes`]) must reconstruct exactly the report's
//!    finished/shed/migrated counts.
//! 3. **Overhead**: `perf_gate` fails CI when the traced replay's
//!    `host.events_per_sec_on` regresses past the noise allowance or the
//!    median off→on `host.overhead_ratio` exceeds 1.10 — tracing must stay
//!    under ten percent of fleet replay throughput. The pairs' extreme
//!    ratios sit beside it, ungated (`overhead_ratio_min`, `_max`).
//!
//! Writes `BENCH_trace.json` at the repository root (uploaded as a CI
//! artifact; its wall-clock numbers sit under `host`, and every other value
//! is virtual and gated exactly by `perf_gate`) and a Chrome `trace_event` file
//! at `target/trace_overhead_chrome.json` — load it in `chrome://tracing`
//! or Perfetto to see the spot-check prefix as per-request spans.
//!
//! Run with `cargo bench -p pod-bench --bench trace_overhead`.

use llm_serving::{JsonValue, ServingConfig, TraceConfig};
use pod_bench::heading;
use pod_bench::microbench::{median, repo_root_path};
use pod_bench::online::{write_json, FleetReplay};
use std::time::Instant;

/// Off/on leg pairs; the gated overhead is the median of their ratios.
const LEG_PAIRS: usize = 3;

fn main() {
    heading(
        "Tracing overhead: fleet replay with the flight recorder off vs on",
        "16 replicas, diurnal chat trace; ring capacity 8192/replica, 60 s timeline samples.",
    );

    let FleetReplay {
        num_requests,
        trace,
        base: base_off,
    } = FleetReplay::generate();
    // The flight-recorder configuration under test: a bounded ring per
    // replica (most-recent 8192 events survive) and a timeline sample per
    // virtual minute. Capacity does not change emission cost — every event
    // is ring-pushed either way — so this measures the steady recording
    // regime, not an unbounded buffer.
    let trace_cfg = TraceConfig::new()
        .with_capacity(8192)
        .with_timeline_interval(60.0);
    let base_on = base_off.clone().with_tracing(trace_cfg);

    // Span-fidelity spot check on a prefix, with a ring big enough that
    // nothing is overwritten: the recorded terminal events must reconstruct
    // the report's outcome counts exactly, and the traced report must be
    // bit-identical to the untraced one.
    let prefix = FleetReplay::spot_check_prefix(&trace);
    let spot_cfg = base_off
        .clone()
        .with_tracing(TraceConfig::new().with_capacity(1 << 22));
    let mut spot = FleetReplay::cluster(spot_cfg, 4);
    let spot_report = spot.run(prefix.clone());
    let recording = spot
        .flight_recording()
        .expect("traced cluster yields a recording");
    let outcomes = recording.span_outcomes();
    assert_eq!(recording.dropped, 0, "spot-check ring overflowed");
    assert_eq!(outcomes.finished, spot_report.aggregate.completed);
    assert_eq!(outcomes.shed, spot_report.aggregate.shed_requests);
    assert_eq!(
        outcomes.migrated_out,
        spot_report.aggregate.migrated_out_requests
    );
    assert_eq!(
        outcomes.migrated_in,
        spot_report.aggregate.migrated_in_requests
    );
    let mut untraced = FleetReplay::cluster(base_off.clone(), 4);
    assert_eq!(
        untraced.run(prefix),
        spot_report,
        "tracing perturbed the simulation on the spot-check prefix"
    );
    println!(
        "spot check: {} finished / {} shed spans reconstruct the report exactly; \
         traced and untraced reports bit-identical",
        outcomes.finished, outcomes.shed
    );
    let chrome = spot
        .flight_recording()
        .expect("traced cluster yields a recording")
        .to_chrome_json();
    let chrome_path = repo_root_path("target/trace_overhead_chrome.json");
    // `target/` is absent in a checkout built with `CARGO_TARGET_DIR` elsewhere.
    std::fs::create_dir_all(chrome_path.parent().expect("path has a parent"))
        .expect("create the chrome trace directory");
    std::fs::write(&chrome_path, chrome.to_string_compact()).expect("write chrome trace");
    println!("wrote {} (load in chrome://tracing)", chrome_path.display());

    // One timed replay on a fresh cluster, dropped before the next leg starts
    // so no leg runs beside another leg's replicas.
    let leg = |base: &ServingConfig| {
        let mut cluster = FleetReplay::cluster(base.clone(), FleetReplay::REPLICAS);
        let start = Instant::now();
        let report = cluster.run(trace.clone());
        (
            report,
            start.elapsed().as_secs_f64(),
            cluster.flight_recording(),
        )
    };
    // Alternate off (the `trace_replay` fleet as-is) and on legs; the
    // overhead is the median of the per-pair ratios.
    let (mut walls_off, mut walls_on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    for _ in 0..LEG_PAIRS {
        let (report_off, wall_off, _) = leg(&base_off);
        let (report_on, wall_on, recording) = leg(&base_on);
        // Inertness at fleet scale: identical virtual-time outcomes.
        assert_eq!(
            report_off, report_on,
            "tracing perturbed the fleet replay outcome"
        );
        assert_eq!(report_on.aggregate.completed, num_requests);
        println!(
            "off {wall_off:.2} s  on {wall_on:.2} s  x{:.3}",
            wall_on / wall_off
        );
        walls_off.push(wall_off);
        walls_on.push(wall_on);
        ratios.push(wall_on / wall_off);
        traced = Some((report_on.aggregate.iterations, recording));
    }
    let (events, recording) = traced.expect("at least one leg pair");
    let recording = recording.expect("traced fleet recording");
    let overhead_ratio = median(&mut ratios);
    let (ratio_min, ratio_max) = (ratios[0], ratios[LEG_PAIRS - 1]);
    let (wall_off, wall_on) = (median(&mut walls_off), median(&mut walls_on));
    let events_per_sec_off = events as f64 / wall_off;
    let events_per_sec_on = events as f64 / wall_on;
    println!(
        "median off: {wall_off:.2} s ({events_per_sec_off:.0} events/s)  \
         on: {wall_on:.2} s ({events_per_sec_on:.0} events/s)  \
         overhead x{overhead_ratio:.3} (range {ratio_min:.3}-{ratio_max:.3})",
    );
    println!(
        "recorder retained {} events ({} overwritten), {} timeline samples",
        recording.event_count(),
        recording.dropped,
        recording.timeline.samples
    );

    let json = JsonValue::obj(vec![
        (
            "trace",
            JsonValue::obj(vec![
                ("replicas", JsonValue::Num(FleetReplay::REPLICAS as f64)),
                ("requests", JsonValue::Num(num_requests as f64)),
                ("seed", JsonValue::Num(FleetReplay::SEED as f64)),
                ("ring_capacity", JsonValue::Num(8192.0)),
                ("timeline_interval_secs", JsonValue::Num(60.0)),
                ("events", JsonValue::Num(events as f64)),
                (
                    "events_retained",
                    JsonValue::Num(recording.event_count() as f64),
                ),
                ("events_dropped", JsonValue::Num(recording.dropped as f64)),
                ("timeline", recording.timeline.to_json()),
            ]),
        ),
        (
            "host",
            JsonValue::obj(vec![
                ("wall_secs_off", JsonValue::Num(wall_off)),
                ("wall_secs_on", JsonValue::Num(wall_on)),
                ("events_per_sec_off", JsonValue::Num(events_per_sec_off)),
                ("events_per_sec_on", JsonValue::Num(events_per_sec_on)),
                ("overhead_ratio", JsonValue::Num(overhead_ratio)),
                ("overhead_ratio_min", JsonValue::Num(ratio_min)),
                ("overhead_ratio_max", JsonValue::Num(ratio_max)),
            ]),
        ),
    ]);
    write_json("BENCH_trace.json", &json);
}

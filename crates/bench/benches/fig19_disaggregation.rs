//! Figure 19 (repro-original): colocated vs. disaggregated prefill/decode
//! serving. Sweeps KV-migration bandwidth × arrival rate × attention backend
//! over an SLO-tagged trace, comparing a 4-replica colocated fleet against a
//! 2-prefill + 2-decode disaggregated fleet of the same size.
//!
//! POD-Attention's central claim is that fusing prefill and decode *inside
//! one GPU* beats the alternatives. The strongest alternative — splitting
//! the two phases onto separate replicas and shipping the KV cache between
//! them (Splitwise / DistServe-style) — is exactly what this bench makes
//! comparable: disaggregation buys interference-free decodes, but pays (1)
//! the KV transfer stall between a request's first and second token and (2)
//! a static capacity partition that cannot shift GPUs between phases as the
//! load mix breathes. The migration cost follows ISO (arXiv:2409.11155):
//! per-token transfer over a configurable link, optionally overlapped with
//! the prefill computation that produces the KV.
//!
//! Writes `BENCH_disagg.json` at the repository root (every value gated
//! exactly by `perf_gate` in CI) and asserts the two orderings the paper's
//! argument needs:
//!
//! 1. at realistic migration bandwidth, the POD colocated fleet's goodput
//!    is at least the disaggregated fleet's at every load point;
//! 2. with **zero-cost** migration at a load the fleet comfortably absorbs,
//!    disaggregation matches colocation within tolerance — the control that
//!    shows the gap really is migration + partitioning cost, not an
//!    artifact of the disaggregated serving loop.
//!
//! Run with `cargo bench -p pod-bench --bench fig19_disaggregation`.

use gpu_sim::GpuConfig;
use llm_serving::{
    Cluster, ClusterConfig, ClusterReport, JsonValue, KvMigration, ModelConfig, RouterPolicy,
    ServingConfig, SloMix, Workload,
};
use pod_bench::microbench::repo_root_path;
use pod_bench::{heading, par_map, pct, print_table, scaled, secs};

/// Arrival rates in queries/second: comfortably under, near, and past the
/// 4-replica fleet's saturation point.
const LOADS: [f64; 3] = [1.5, 3.0, 5.0];
/// Colocated fleet size; the disaggregated fleet splits the same capacity
/// into `REPLICAS / 2` prefill and `REPLICAS / 2` decode replicas.
const REPLICAS: usize = 4;
const SEED: u64 = 19;

/// Fleet shapes swept per (load, backend) cell: colocated, then
/// disaggregated across three migration links.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Colocated,
    /// Disaggregated with the `migrations()[i]` link.
    Disaggregated(usize),
}

/// The migration links swept: a 2 GB/s commodity link with ISO-style
/// overlap, a 25 GB/s InfiniBand-class link, and the zero-cost ideal.
fn migrations() -> [KvMigration; 3] {
    [
        KvMigration::commodity().with_overlap(),
        KvMigration::infiniband(),
        KvMigration::free(),
    ]
}

#[derive(Clone, Copy, PartialEq)]
struct Cell {
    load: usize,
    backend: usize, // 0 = Sarathi, 1 = Sarathi+POD
    mode: Mode,
}

fn backends(model: &ModelConfig, gpu: &GpuConfig) -> [ServingConfig; 2] {
    [
        ServingConfig::sarathi(model.clone(), gpu.clone(), 1024),
        ServingConfig::sarathi_pod(model.clone(), gpu.clone(), 1024),
    ]
}

fn main() {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let num_requests = scaled(96, 480);
    let mix = SloMix::interactive_batch();

    heading(
        "Figure 19: disaggregated prefill/decode vs POD colocation",
        "4 colocated replicas vs 2 prefill + 2 decode; migration links: 2 GB/s+overlap, \
         25 GB/s IB, free; 70/30 interactive/batch SLO mix; Llama-3-8B, chunk 1024.",
    );

    let mut cells: Vec<Cell> = Vec::new();
    for load in 0..LOADS.len() {
        for backend in 0..2 {
            cells.push(Cell {
                load,
                backend,
                mode: Mode::Colocated,
            });
            for link in 0..migrations().len() {
                cells.push(Cell {
                    load,
                    backend,
                    mode: Mode::Disaggregated(link),
                });
            }
        }
    }

    let reports: Vec<ClusterReport> = par_map(cells.clone(), |cell| {
        let specs = mix.apply(
            Workload::internal().generate(num_requests, LOADS[cell.load], SEED),
            SEED,
        );
        let base = backends(&model, &gpu)[cell.backend].clone();
        let config = match cell.mode {
            Mode::Colocated => ClusterConfig::new(base, REPLICAS, RouterPolicy::decode_aware()),
            Mode::Disaggregated(link) => ClusterConfig::disaggregated(
                base,
                REPLICAS / 2,
                REPLICAS / 2,
                RouterPolicy::decode_aware(),
                migrations()[link],
            ),
        };
        Cluster::new(config).run(specs)
    });
    let report_of = |load: usize, backend: usize, mode: Mode| {
        let want = Cell {
            load,
            backend,
            mode,
        };
        let idx = cells
            .iter()
            .position(|&c| c == want)
            .expect("every sweep cell was simulated");
        &reports[idx]
    };

    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, r)| {
            vec![
                format!("{:.1}", LOADS[cell.load]),
                r.aggregate.system.clone(),
                match cell.mode {
                    Mode::Colocated => "colocated".to_string(),
                    Mode::Disaggregated(_) => format!("2P+2D {}", r.migration),
                },
                format!("{}", r.aggregate.goodput_requests()),
                format!("{:.1}", r.aggregate.goodput_per_minute()),
                pct(r.aggregate.slo_attainment()),
                secs(r.aggregate.ttft.p99),
                secs(r.aggregate.tbt.max),
                secs(r.aggregate.migration_stall_time),
            ]
        })
        .collect();
    print_table(
        &[
            "QPS",
            "System",
            "Fleet",
            "Goodput",
            "Good/min",
            "Attain",
            "TTFT P99",
            "TBT max",
            "Mig stall",
        ],
        &rows,
    );

    // Ordering 1 — the paper's argument: at realistic migration bandwidth,
    // POD colocation's goodput is at least disaggregation's at every load
    // point. Realistic = both non-free links.
    for (li, &qps) in LOADS.iter().enumerate() {
        for link in 0..2 {
            let colocated = report_of(li, 1, Mode::Colocated);
            let disagg = report_of(li, 1, Mode::Disaggregated(link));
            assert!(
                colocated.aggregate.goodput_requests() >= disagg.aggregate.goodput_requests(),
                "qps {qps}, link {}: POD colocated goodput {} < disaggregated {}",
                disagg.migration,
                colocated.aggregate.goodput_requests(),
                disagg.aggregate.goodput_requests()
            );
        }
    }

    // Ordering 2 — the control: with zero-cost migration at the lightest
    // load (ample replicas for both phases), disaggregation matches
    // colocation within tolerance on both backends. The disaggregated loop
    // itself costs nothing; only the link and the partition do.
    let free = migrations().len() - 1;
    for backend in 0..2 {
        let colocated = report_of(0, backend, Mode::Colocated);
        let disagg = report_of(0, backend, Mode::Disaggregated(free));
        assert_eq!(
            colocated.aggregate.completed, disagg.aggregate.completed,
            "free-migration disaggregation must serve every request"
        );
        let rel = (colocated.aggregate.goodput_per_minute()
            - disagg.aggregate.goodput_per_minute())
        .abs()
            / colocated.aggregate.goodput_per_minute();
        assert!(
            rel < 0.10,
            "backend {backend}: zero-cost disaggregation off colocated goodput by {:.1}% \
             ({:.1} vs {:.1} good/min)",
            rel * 100.0,
            disagg.aggregate.goodput_per_minute(),
            colocated.aggregate.goodput_per_minute()
        );
    }

    // Sanity: the realistic links actually exercised the migration path.
    let exercised = report_of(0, 1, Mode::Disaggregated(0));
    assert!(exercised.aggregate.migrated_out_requests > 0);
    assert!(exercised.aggregate.migration_stall_time > 0.0);

    println!(
        "\nOrderings hold: POD colocated >= disaggregated goodput at realistic bandwidth at \
         every load; zero-cost migration at light load matches colocation within 10%."
    );

    // Machine-readable sweep output in the shared report JSON format; the
    // CI perf gate consumes mean aggregate goodput across these cells.
    let cell_json: Vec<JsonValue> = cells
        .iter()
        .zip(&reports)
        .map(|(&cell, report)| {
            JsonValue::obj(vec![
                ("qps", JsonValue::Num(LOADS[cell.load])),
                (
                    "fleet",
                    JsonValue::str(match cell.mode {
                        Mode::Colocated => "colocated",
                        Mode::Disaggregated(_) => "disaggregated",
                    }),
                ),
                ("migration", JsonValue::str(&report.migration)),
                ("report", report.to_json()),
            ])
        })
        .collect();
    let json = JsonValue::obj(vec![
        (
            "workload",
            JsonValue::obj(vec![
                ("trace", JsonValue::str("internal/slo-mix")),
                ("slo_mix", JsonValue::str("interactive(70%) + batch(30%)")),
                ("num_requests", JsonValue::Num(num_requests as f64)),
                ("replicas", JsonValue::Num(REPLICAS as f64)),
                ("seed", JsonValue::Num(SEED as f64)),
            ]),
        ),
        ("cells", JsonValue::Arr(cell_json)),
    ]);
    let path = repo_root_path("BENCH_disagg.json");
    std::fs::write(&path, json.to_string_pretty()).expect("write BENCH_disagg.json");
    println!("wrote {}", path.display());
}

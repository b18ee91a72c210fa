//! Serving metrics: TTFT, TBT, request latency, stalls and throughput.

use crate::json::JsonValue;
use crate::request::{Request, TenantId};
use crate::sketch::QuantileSketch;
use std::ops::AddAssign;

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl SummaryStats {
    /// Compute summary statistics of `samples` (order not required).
    ///
    /// The mean sums the samples in slice order. Percentiles are selected
    /// by rank, without sorting or copying the slice (see [`Tally`]):
    /// serving sweeps summarize hundreds of thousands of token-gap samples
    /// per run, and this pass is on the bench hot path.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN (a NaN would otherwise propagate silently
    /// into reports and trend files; NaN sums to a NaN mean, so one O(1)
    /// check at the aggregate covers every sample).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut tally = Tally::for_len(samples.len());
        samples.iter().for_each(|&v| tally.add(v));
        tally.select(|| samples.iter().copied());
        tally.summary()
    }

    /// Serialize as a JSON object (`count`, `mean`, `p50`, `p99`, `max`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::Num(self.count as f64)),
            ("mean", JsonValue::Num(self.mean)),
            ("p50", JsonValue::Num(self.p50)),
            ("p99", JsonValue::Num(self.p99)),
            ("max", JsonValue::Num(self.max)),
        ])
    }
}

/// The two percentiles every summary reports.
const QUANTILES: [f64; 2] = [0.50, 0.99];

/// Streams of at most this many samples are selected from one copy of all
/// their keys, with no bucket counts first.
const SMALL_STREAM: usize = 1 << 12;

/// Order-key bits one counting pass resolves.
const DIGIT_BITS: u32 = 16;

/// `v` as an unsigned integer that orders as [`f64::total_cmp`] orders
/// `v`: the sign bit flipped for positives, every bit for negatives.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The sample whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Count, sum and maximum of a stream of samples, and its two
/// percentiles once [`Tally::select`] has read the stream again.
///
/// The sum folds in stream order, so the mean's bits depend on that order
/// alone. Selection never copies the stream: it narrows the order-key
/// range that holds each wanted rank, 16 bits per counting pass, until at
/// most an eighth of the samples (or [`SMALL_STREAM`]) lie in it, then
/// collects only that window's keys and runs `select_nth_unstable` on
/// them. Ranks ⌊q(n−1)⌋ and ⌈q(n−1)⌉ interpolate as [`percentile`] does
/// on a slice sorted by [`f64::total_cmp`], bit for bit. A stream longer
/// than [`SMALL_STREAM`] counts its top 16 key bits as it is added, which
/// saves the first pass.
#[derive(Debug, Clone, PartialEq)]
struct Tally {
    count: usize,
    sum: f64,
    max: f64,
    /// Samples per top-16-bit order-key bucket; empty for short streams.
    top: Vec<u32>,
    /// `(p50, p99)`, once selected.
    percentiles: Option<(f64, f64)>,
}

impl Tally {
    /// An empty tally for a stream of about `len` samples.
    fn for_len(len: usize) -> Self {
        Tally {
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            top: if len > SMALL_STREAM {
                vec![0; 1 << DIGIT_BITS]
            } else {
                Vec::new()
            },
            percentiles: None,
        }
    }

    fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        if let Some(bucket) = self
            .top
            .get_mut((order_key(v) >> (64 - DIGIT_BITS)) as usize)
        {
            *bucket += 1;
        }
    }

    /// Select the percentiles from `stream`, which yields the samples
    /// added (in any order) each time it is called.
    fn select<I: Iterator<Item = f64>>(&mut self, stream: impl Fn() -> I) {
        let n = self.count;
        if n == 0 {
            return;
        }
        assert!(
            u32::try_from(n).is_ok(),
            "rank selection counts in u32: at most u32::MAX samples"
        );
        let pos = QUANTILES.map(|q| q * (n - 1) as f64);
        let ranks = [pos[0].floor(), pos[0].ceil(), pos[1].floor(), pos[1].ceil()];
        let ranks = ranks.map(|r| r as usize);
        let all = KeyWindow {
            prefix: 0,
            bits: 0,
            below: 0,
            count: n,
        };
        let starts = ranks.map(|r| {
            if self.top.is_empty() {
                all
            } else {
                all.narrow(&self.top, r)
            }
        });
        // Free the bucket counts before any pass allocates.
        self.top = Vec::new();
        let values = select_ranks(n, starts, ranks, stream).map(from_order_key);
        let at = |i: usize| {
            let (lo, hi) = (ranks[2 * i], ranks[2 * i + 1]);
            if lo == hi {
                values[2 * i]
            } else {
                let frac = pos[i] - lo as f64;
                values[2 * i] * (1.0 - frac) + values[2 * i + 1] * frac
            }
        };
        self.percentiles = Some((at(0), at(1)));
    }

    /// The summary, after [`Tally::select`].
    fn summary(&self) -> SummaryStats {
        if self.count == 0 {
            return SummaryStats::default();
        }
        let mean = self.sum / self.count as f64;
        assert!(!mean.is_nan(), "latency samples must not be NaN");
        let (p50, p99) = self.percentiles.expect("percentiles are selected");
        SummaryStats {
            count: self.count,
            mean,
            p50,
            p99,
            max: self.max,
        }
    }
}

/// The order keys whose top `bits` bits are `prefix`: `below` of a
/// stream's keys sort under them and `count` are among them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeyWindow {
    prefix: u64,
    bits: u32,
    below: usize,
    count: usize,
}

impl KeyWindow {
    fn contains(&self, key: u64) -> bool {
        key.checked_shr(64 - self.bits).unwrap_or(0) == self.prefix
    }

    /// The next [`DIGIT_BITS`] of `key` below this window's prefix.
    fn digit(&self, key: u64) -> usize {
        (key >> (64 - DIGIT_BITS - self.bits)) as usize & ((1 << DIGIT_BITS) - 1)
    }

    /// The sub-window holding `rank`, given this window's keys counted
    /// by [`KeyWindow::digit`].
    fn narrow(&self, counts: &[u32], rank: usize) -> KeyWindow {
        let mut below = self.below;
        for (digit, &count) in counts.iter().enumerate() {
            let count = count as usize;
            if rank < below + count {
                return KeyWindow {
                    prefix: self.prefix << DIGIT_BITS | digit as u64,
                    bits: self.bits + DIGIT_BITS,
                    below,
                    count,
                };
            }
            below += count;
        }
        unreachable!("rank {rank} lies outside its window")
    }
}

/// The order keys of `ranks` among the `n` samples `stream` yields, each
/// rank's search starting from its window in `starts` (see [`Tally`]).
/// Two ranks' windows are always equal or disjoint, so each pass serves
/// every distinct window at once: counting passes narrow the wide ones by
/// one digit, and a last pass collects the keys of the rest.
fn select_ranks<I: Iterator<Item = f64>>(
    n: usize,
    starts: [KeyWindow; 4],
    ranks: [usize; 4],
    stream: impl Fn() -> I,
) -> [u64; 4] {
    /// The distinct windows of `windows` that `keep` accepts.
    fn distinct(windows: &[KeyWindow; 4], keep: impl Fn(&KeyWindow) -> bool) -> Vec<KeyWindow> {
        let mut out: Vec<KeyWindow> = Vec::new();
        for w in windows.iter().filter(|w| keep(w)) {
            if !out.contains(w) {
                out.push(*w);
            }
        }
        out
    }
    let limit = (n / 8).max(SMALL_STREAM);
    let mut windows = starts;
    loop {
        let wide = distinct(&windows, |w| w.count > limit && w.bits < 64);
        if wide.is_empty() {
            break;
        }
        let mut counts = vec![vec![0u32; 1 << DIGIT_BITS]; wide.len()];
        stream().map(order_key).for_each(|key| {
            if let Some(j) = wide.iter().position(|w| w.contains(key)) {
                counts[j][wide[j].digit(key)] += 1;
            }
        });
        for (w, &rank) in windows.iter_mut().zip(&ranks) {
            if let Some(j) = wide.iter().position(|x| x == w) {
                *w = w.narrow(&counts[j], rank);
            }
        }
    }
    // A full-width window holds equal keys: nothing to collect there.
    let narrow = distinct(&windows, |w| w.bits < 64);
    let mut keys: Vec<Vec<u64>> = narrow.iter().map(|w| Vec::with_capacity(w.count)).collect();
    stream().map(order_key).for_each(|key| {
        if let Some(j) = narrow.iter().position(|w| w.contains(key)) {
            keys[j].push(key);
        }
    });
    debug_assert!(
        narrow.iter().zip(&keys).all(|(w, k)| k.len() == w.count),
        "the stream changed between passes"
    );
    std::array::from_fn(|i| match narrow.iter().position(|w| *w == windows[i]) {
        Some(j) => *keys[j].select_nth_unstable(ranks[i] - windows[i].below).1,
        None => windows[i].prefix,
    })
}

/// `num / den`, or `empty` when nothing was counted (`den == 0`).
fn ratio(num: usize, den: usize, empty: f64) -> f64 {
    if den == 0 {
        return empty;
    }
    num as f64 / den as f64
}

/// Percentile of an already-sorted slice using nearest-rank interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Per-SLO-class attainment breakdown: how one class of requests (e.g.
/// `"interactive"`) fared against its deadlines in a serving run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloClassReport {
    /// Class label from [`crate::SloSpec::class`].
    pub class: String,
    /// Finished requests of this class.
    pub finished: usize,
    /// Finished requests that met both the TTFT deadline and the TBT target.
    pub met: usize,
    /// Finished requests whose first token missed the TTFT deadline.
    pub ttft_violations: usize,
    /// Finished requests with at least one decode gap above the TBT target.
    pub tbt_violations: usize,
    /// Requests of this class the admission policy shed (dropped unserved).
    pub shed: usize,
}

impl SloClassReport {
    /// Fraction of this class's finished requests that met their SLO
    /// (1.0 when none finished).
    pub fn attainment(&self) -> f64 {
        ratio(self.met, self.finished, 1.0)
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("class", JsonValue::str(&self.class)),
            ("finished", JsonValue::Num(self.finished as f64)),
            ("met", JsonValue::Num(self.met as f64)),
            ("attainment", JsonValue::Num(self.attainment())),
            (
                "ttft_violations",
                JsonValue::Num(self.ttft_violations as f64),
            ),
            ("tbt_violations", JsonValue::Num(self.tbt_violations as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
        ])
    }
}

/// Per-tenant isolation breakdown: how one tenant's requests fared in a
/// serving run, independent of SLO class. This is the fairness ledger —
/// `fig20_fairness` compares each tenant's goodput under fair queueing
/// against its solo-run goodput, and the preemption counters attribute
/// priority evictions to the tenant that caused them.
///
/// Entries are ordered by tenant id (deterministic regardless of arrival
/// order, and merge-order independent at the cluster layer — unlike
/// [`SloClassReport`], which orders by first appearance).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantReport {
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// Finished requests from this tenant.
    pub finished: usize,
    /// Requests from this tenant the admission policy shed.
    pub shed: usize,
    /// Finished requests from this tenant that carried an SLO.
    pub slo_requests: usize,
    /// Finished SLO'd requests that met both targets.
    pub slo_met: usize,
    /// Preemptions *suffered*: restarts of this tenant's requests, whatever
    /// the trigger (KV-pool exhaustion or a higher-priority arrival).
    pub preemptions_suffered: usize,
    /// Preemptions *inflicted*: evictions of other requests that this
    /// tenant's admissions forced through priority preemption.
    /// Memory-pressure preemptions are attributed to nobody.
    pub preemptions_inflicted: usize,
    /// Time-to-first-token statistics for this tenant's finished requests.
    pub ttft: SummaryStats,
}

impl TenantReport {
    /// Fraction of this tenant's finished SLO'd requests that met their SLO
    /// (1.0 when none carried an SLO).
    pub fn attainment(&self) -> f64 {
        ratio(self.slo_met, self.slo_requests, 1.0)
    }

    /// Goodput in requests for this tenant: finished requests minus SLO
    /// violators (mirrors [`ServingReport::goodput_requests`]).
    pub fn goodput_requests(&self) -> usize {
        self.finished - (self.slo_requests - self.slo_met)
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("tenant", JsonValue::Num(self.tenant.0 as f64)),
            ("finished", JsonValue::Num(self.finished as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            ("slo_requests", JsonValue::Num(self.slo_requests as f64)),
            ("slo_met", JsonValue::Num(self.slo_met as f64)),
            ("attainment", JsonValue::Num(self.attainment())),
            (
                "goodput_requests",
                JsonValue::Num(self.goodput_requests() as f64),
            ),
            ("ttft", self.ttft.to_json()),
            (
                "preemptions_suffered",
                JsonValue::Num(self.preemptions_suffered as f64),
            ),
            (
                "preemptions_inflicted",
                JsonValue::Num(self.preemptions_inflicted as f64),
            ),
        ])
    }
}

/// End-to-end results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Name of the configuration (scheduler + backend).
    pub system: String,
    /// Total simulated time from the first arrival to the last completion.
    pub makespan: f64,
    /// Number of requests completed.
    pub completed: usize,
    /// Number of scheduler iterations executed.
    pub iterations: usize,
    /// Iterations that contained both a prefill chunk and at least one decode.
    pub hybrid_iterations: usize,
    /// Time-to-first-token statistics (seconds).
    pub ttft: SummaryStats,
    /// Time-between-tokens statistics (seconds).
    pub tbt: SummaryStats,
    /// End-to-end request latency statistics (seconds).
    pub request_latency: SummaryStats,
    /// Fraction of requests with at least one decode gap above 200 ms.
    pub stall_fraction_200ms: f64,
    /// Fraction of requests with at least one decode gap above 500 ms.
    pub stall_fraction_500ms: f64,
    /// Iterations priced from the batch-price memo.
    pub price_cache_hits: usize,
    /// Iterations that had to run the full cost model (novel batch shapes).
    pub price_cache_misses: usize,
    /// Total modeled execution time across all iterations (seconds). The gap
    /// between `makespan` and this is time the replica sat idle waiting for
    /// arrivals; the cluster layer uses it to measure replica imbalance.
    pub busy_time: f64,
    /// Prefill tokens actually scheduled across all iterations. With prefix
    /// caching, cached tokens are skipped and never counted here.
    pub prefill_tokens_scheduled: usize,
    /// Prompt tokens satisfied from the prefix cache at admission.
    pub cached_prefix_tokens: usize,
    /// Cached KV blocks acquired (shared) by admitted requests.
    pub blocks_reused: usize,
    /// Copy-on-write block copies made when a prompt diverged mid-block
    /// from a cached prefix.
    pub cow_copies: usize,
    /// Decode KV tokens whose HBM reads were deduped away by prefix-shared
    /// decode grouping (0 unless the engine ran with
    /// [`ServingConfig::decode_dedup`](crate::ServingConfig::decode_dedup)).
    pub decode_kv_tokens_deduped: usize,
    /// Speculative draft-then-verify rounds executed (one per decode per
    /// iteration when the engine ran with
    /// [`DecodeMode::Speculative`](crate::DecodeMode); 0 otherwise).
    pub spec_rounds: usize,
    /// Draft tokens verification accepted across all speculative rounds.
    pub draft_tokens_accepted: usize,
    /// Draft tokens verification rejected and rolled back across all
    /// speculative rounds.
    pub draft_tokens_rejected: usize,
    /// Decode preemptions (swap-outs) forced by KV-pool exhaustion under the
    /// paged policy.
    pub preemptions: usize,
    /// Cached prefix blocks evicted (LRU) to make room for allocations.
    pub blocks_evicted: usize,
    /// Requests whose completed prefill was handed off to a decode replica
    /// from here (disaggregated serving). These records are excluded from
    /// latency statistics — the decode-side copy carries them.
    pub migrated_out_requests: usize,
    /// Requests that resumed decoding here after a KV migration.
    pub migrated_in_requests: usize,
    /// KV tokens shipped out of this replica across all handoffs.
    pub migrated_tokens: usize,
    /// Total seconds migrated-in requests spent between first token (on
    /// their prefill replica) and decode admission here: KV transfer plus
    /// residency queueing. Appears in the TBT samples as the gap before each
    /// migrated request's second token.
    pub migration_stall_time: f64,
    /// Requests the admission policy shed (dropped unserved because their
    /// TTFT deadline was already blown). Never completed, never counted in
    /// latency statistics, never goodput.
    pub shed_requests: usize,
    /// Finished requests that carried an [`crate::SloSpec`].
    pub slo_requests: usize,
    /// Finished SLO'd requests that met both the TTFT deadline and the TBT
    /// target.
    pub slo_met: usize,
    /// Finished SLO'd requests whose first token missed its deadline.
    pub slo_ttft_violations: usize,
    /// Finished SLO'd requests with a decode gap above their TBT target.
    pub slo_tbt_violations: usize,
    /// TTFT slack (deadline minus achieved TTFT, positive = met with room)
    /// across finished SLO'd requests — the attainment-margin percentiles.
    pub ttft_slack: SummaryStats,
    /// Per-class attainment breakdown, ordered by first appearance in the
    /// request list (deterministic for a fixed workload).
    pub slo_classes: Vec<SloClassReport>,
    /// Per-tenant isolation breakdown, ordered by tenant id. Runs that never
    /// stamp a tenant collapse to a single [`TenantId::DEFAULT`] row.
    pub tenants: Vec<TenantReport>,
}

impl ServingReport {
    /// Build a report from finished (and possibly unfinished) requests,
    /// graded in list order with exact percentiles by the same grader the
    /// engine and cluster use. Engine-side counters other than the
    /// iteration counts are zero.
    #[cfg(test)]
    pub(crate) fn from_requests(
        system: &str,
        requests: &[Request],
        makespan: f64,
        iterations: usize,
        hybrid_iterations: usize,
    ) -> Self {
        let acc = ReportAccumulator::exact(requests);
        let counters = ServingCounters {
            iterations,
            hybrid_iterations,
            ..ServingCounters::default()
        };
        acc.finalize(system, makespan, &counters)
    }

    /// Serialize the full report as a JSON object — the one format the bench
    /// trend files and the CI perf gate consume.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("system", JsonValue::str(&self.system)),
            ("makespan", JsonValue::Num(self.makespan)),
            ("busy_time", JsonValue::Num(self.busy_time)),
            ("completed", JsonValue::Num(self.completed as f64)),
            ("iterations", JsonValue::Num(self.iterations as f64)),
            (
                "hybrid_iterations",
                JsonValue::Num(self.hybrid_iterations as f64),
            ),
            (
                "requests_per_minute",
                JsonValue::Num(self.requests_per_minute()),
            ),
            ("ttft", self.ttft.to_json()),
            ("tbt", self.tbt.to_json()),
            ("request_latency", self.request_latency.to_json()),
            (
                "stall_fraction_200ms",
                JsonValue::Num(self.stall_fraction_200ms),
            ),
            (
                "stall_fraction_500ms",
                JsonValue::Num(self.stall_fraction_500ms),
            ),
            (
                "price_cache_hits",
                JsonValue::Num(self.price_cache_hits as f64),
            ),
            (
                "price_cache_misses",
                JsonValue::Num(self.price_cache_misses as f64),
            ),
            (
                "prefill_tokens_scheduled",
                JsonValue::Num(self.prefill_tokens_scheduled as f64),
            ),
            (
                "cached_prefix_tokens",
                JsonValue::Num(self.cached_prefix_tokens as f64),
            ),
            ("prefix_hit_rate", JsonValue::Num(self.prefix_hit_rate())),
            ("blocks_reused", JsonValue::Num(self.blocks_reused as f64)),
            ("cow_copies", JsonValue::Num(self.cow_copies as f64)),
            (
                "decode_kv_tokens_deduped",
                JsonValue::Num(self.decode_kv_tokens_deduped as f64),
            ),
            ("spec_rounds", JsonValue::Num(self.spec_rounds as f64)),
            (
                "draft_tokens_accepted",
                JsonValue::Num(self.draft_tokens_accepted as f64),
            ),
            (
                "draft_tokens_rejected",
                JsonValue::Num(self.draft_tokens_rejected as f64),
            ),
            ("preemptions", JsonValue::Num(self.preemptions as f64)),
            ("blocks_evicted", JsonValue::Num(self.blocks_evicted as f64)),
            (
                "migration",
                JsonValue::obj(vec![
                    (
                        "out_requests",
                        JsonValue::Num(self.migrated_out_requests as f64),
                    ),
                    (
                        "in_requests",
                        JsonValue::Num(self.migrated_in_requests as f64),
                    ),
                    ("tokens", JsonValue::Num(self.migrated_tokens as f64)),
                    ("stall_time", JsonValue::Num(self.migration_stall_time)),
                ]),
            ),
            ("shed_requests", JsonValue::Num(self.shed_requests as f64)),
            (
                "slo",
                JsonValue::obj(vec![
                    ("requests", JsonValue::Num(self.slo_requests as f64)),
                    ("met", JsonValue::Num(self.slo_met as f64)),
                    ("attainment", JsonValue::Num(self.slo_attainment())),
                    (
                        "ttft_violations",
                        JsonValue::Num(self.slo_ttft_violations as f64),
                    ),
                    (
                        "tbt_violations",
                        JsonValue::Num(self.slo_tbt_violations as f64),
                    ),
                    (
                        "goodput_requests",
                        JsonValue::Num(self.goodput_requests() as f64),
                    ),
                    (
                        "goodput_per_minute",
                        JsonValue::Num(self.goodput_per_minute()),
                    ),
                    ("ttft_slack", self.ttft_slack.to_json()),
                    (
                        "per_class",
                        JsonValue::Arr(self.slo_classes.iter().map(|c| c.to_json()).collect()),
                    ),
                ]),
            ),
            (
                "tenants",
                JsonValue::Arr(self.tenants.iter().map(|t| t.to_json()).collect()),
            ),
        ])
    }

    /// Fraction of finished SLO'd requests that met both targets (1.0 when
    /// the run carried no SLOs). Shed requests are *not* in the denominator —
    /// they show up in [`ServingReport::shed_requests`] and as missing
    /// goodput instead.
    pub fn slo_attainment(&self) -> f64 {
        ratio(self.slo_met, self.slo_requests, 1.0)
    }

    /// Goodput in requests: completed requests that met their SLO (requests
    /// without an SLO count — nothing was promised, so a completion is good
    /// throughput). The metric the paper's latency targets exist to serve.
    pub fn goodput_requests(&self) -> usize {
        self.completed - (self.slo_requests - self.slo_met)
    }

    /// Goodput rate: SLO-meeting completions per minute of makespan — the
    /// fleet-sizing metric ("how many replicas hold the SLO at this load").
    pub fn goodput_per_minute(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.goodput_requests() as f64 / (self.makespan / 60.0)
    }

    /// Fraction of iterations priced from the cache, in `[0, 1]` (0 when the
    /// cache was disabled or the run had no iterations).
    pub fn price_cache_hit_rate(&self) -> f64 {
        let total = self.price_cache_hits + self.price_cache_misses;
        ratio(self.price_cache_hits, total, 0.0)
    }

    /// Fraction of prompt-prefill work satisfied from the prefix cache:
    /// cached tokens over cached + actually scheduled prefill tokens. Zero
    /// when prefix caching was off or nothing ran.
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.cached_prefix_tokens + self.prefill_tokens_scheduled;
        ratio(self.cached_prefix_tokens, total, 0.0)
    }

    /// Offline-throughput metric the paper reports in Figure 12: completed
    /// requests per minute.
    pub fn requests_per_minute(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / (self.makespan / 60.0)
    }
}

/// Engine-side tallies a [`ServingReport`] carries besides its graded
/// request statistics; each field means the same as the [`ServingReport`]
/// field of that name. Every engine keeps one and the cluster sums them
/// with `+=` in replica order, so a new counter is a field here, a line in
/// `add_assign` and one in [`ReportAccumulator::finalize`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ServingCounters {
    pub(crate) iterations: usize,
    pub(crate) hybrid_iterations: usize,
    pub(crate) busy_time: f64,
    pub(crate) price_cache_hits: usize,
    pub(crate) price_cache_misses: usize,
    pub(crate) prefill_tokens_scheduled: usize,
    pub(crate) cached_prefix_tokens: usize,
    pub(crate) blocks_reused: usize,
    pub(crate) cow_copies: usize,
    pub(crate) decode_kv_tokens_deduped: usize,
    pub(crate) spec_rounds: usize,
    pub(crate) draft_tokens_accepted: usize,
    pub(crate) draft_tokens_rejected: usize,
    pub(crate) preemptions: usize,
    pub(crate) blocks_evicted: usize,
    pub(crate) migrated_out_requests: usize,
    pub(crate) migrated_in_requests: usize,
    pub(crate) migrated_tokens: usize,
    pub(crate) migration_stall_time: f64,
}

impl AddAssign for ServingCounters {
    fn add_assign(&mut self, o: Self) {
        self.iterations += o.iterations;
        self.hybrid_iterations += o.hybrid_iterations;
        self.busy_time += o.busy_time;
        self.price_cache_hits += o.price_cache_hits;
        self.price_cache_misses += o.price_cache_misses;
        self.prefill_tokens_scheduled += o.prefill_tokens_scheduled;
        self.cached_prefix_tokens += o.cached_prefix_tokens;
        self.blocks_reused += o.blocks_reused;
        self.cow_copies += o.cow_copies;
        self.decode_kv_tokens_deduped += o.decode_kv_tokens_deduped;
        self.spec_rounds += o.spec_rounds;
        self.draft_tokens_accepted += o.draft_tokens_accepted;
        self.draft_tokens_rejected += o.draft_tokens_rejected;
        self.preemptions += o.preemptions;
        self.blocks_evicted += o.blocks_evicted;
        self.migrated_out_requests += o.migrated_out_requests;
        self.migrated_in_requests += o.migrated_in_requests;
        self.migrated_tokens += o.migrated_tokens;
        self.migration_stall_time += o.migration_stall_time;
    }
}

/// One distribution's samples: kept whole for exact selection, tallied
/// while the request records keep them, or folded into a mergeable
/// [`QuantileSketch`] for constant memory.
#[derive(Debug, Clone, PartialEq)]
enum SampleStore {
    Exact(Vec<f64>),
    /// Exact statistics of samples that stay in the request records:
    /// [`ReportAccumulator::exact`] tallies them in its grading walk and
    /// reads the records again to select the percentiles.
    Tally(Tally),
    Sketch(QuantileSketch),
}

impl SampleStore {
    /// An empty store of the same kind.
    fn empty_like(&self) -> Self {
        match self {
            SampleStore::Exact(_) => SampleStore::Exact(Vec::new()),
            SampleStore::Tally(_) => SampleStore::Tally(Tally::for_len(0)),
            SampleStore::Sketch(_) => SampleStore::Sketch(QuantileSketch::new()),
        }
    }

    fn observe(&mut self, value: f64) {
        match self {
            SampleStore::Exact(samples) => samples.push(value),
            SampleStore::Tally(tally) => tally.add(value),
            SampleStore::Sketch(sketch) => sketch.observe(value),
        }
    }

    /// Make room for `additional` more samples (a no-op unless exact).
    fn reserve(&mut self, additional: usize) {
        if let SampleStore::Exact(samples) = self {
            samples.reserve_exact(additional);
        }
    }

    /// Add `other`'s sketch buckets.
    ///
    /// # Panics
    ///
    /// Panics unless both stores are sketches: exact stores are filled in
    /// list order instead, never merged.
    fn merge(&mut self, other: &SampleStore) {
        match (self, other) {
            (SampleStore::Sketch(a), SampleStore::Sketch(b)) => a.merge(b),
            _ => panic!("only sketch sample stores merge"),
        }
    }

    /// Exact stores select their percentiles by rank; sketches read theirs
    /// from the buckets.
    fn summary(&self) -> SummaryStats {
        match self {
            SampleStore::Exact(samples) => SummaryStats::from_samples(samples),
            SampleStore::Tally(tally) => tally.summary(),
            SampleStore::Sketch(sketch) => sketch.summary(),
        }
    }
}

/// The decode gaps of `r`'s token stream, in token order.
fn decode_gaps(r: &Request) -> impl Iterator<Item = f64> + '_ {
    r.token_times.windows(2).map(|w| w[1] - w[0])
}

/// Whether the grader grades `r`: finished and not shed.
fn is_graded(r: &Request) -> bool {
    r.shed_time.is_none() && r.finish_time.is_some()
}

/// The one grader of serving requests: TTFT, TBT and latency distributions,
/// stall fractions, SLO attainment and the shed and tenant tallies.
///
/// One grader, two kinds of sample store. [`ReportAccumulator::exact`]
/// grades a list of request records in order and selects exact
/// percentiles: the engine's default report and the cluster aggregate are
/// built this way, and the golden tests pin that output bit for bit. It
/// keeps the O(requests) TTFT, latency and slack samples, but each token
/// gap only as a [`Tally`]: the records keep the token times, and the
/// grader reads them again to select the gap percentiles, so exact mode
/// holds the token samples once, not twice. [`ReportAccumulator::sketch`]
/// backs the four distributions and each tenant's TTFT with
/// [`QuantileSketch`]es instead. With
/// [`ServingConfig::streaming_metrics`](crate::ServingConfig::streaming_metrics)
/// the engine feeds it each request the moment it finishes or is shed and
/// then drops the request's per-token buffer, so memory stays O(sketch
/// buckets) instead of O(total tokens). Counts, means, maxima, stall
/// fractions and SLO tallies are exact either way; only the sketch
/// `p50`/`p99` are approximate, within the [`QuantileSketch`] error bound.
/// Sketch accumulators merge bucket-wise ([`ReportAccumulator::merge`]),
/// which is how the cluster derives streaming fleet percentiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReportAccumulator {
    ttft: SampleStore,
    tbt: SampleStore,
    latency: SampleStore,
    slack: SampleStore,
    /// Finished requests with at least one decode gap, and those among them
    /// whose largest gap exceeded 200 ms and 500 ms.
    with_decode: usize,
    stalls_200: usize,
    stalls_500: usize,
    /// Per-class rows in first-appearance order; the report's SLO totals
    /// are their sums.
    classes: Vec<SloClassReport>,
    /// Per-tenant rows sorted by id, each with its TTFT samples; the
    /// report's completed and shed counts are their sums.
    tenants: Vec<(TenantReport, SampleStore)>,
}

impl ReportAccumulator {
    /// An empty accumulator with 1%-accuracy sketches.
    pub(crate) fn sketch() -> Self {
        Self::with_store(SampleStore::Sketch(QuantileSketch::new()))
    }

    /// Grade `requests` in order with exact percentiles. The accumulator
    /// is complete: only sketch accumulators observe more requests.
    pub(crate) fn exact<'a, I>(requests: I) -> Self
    where
        I: IntoIterator<Item = &'a Request>,
        I::IntoIter: Clone,
    {
        let requests = requests.into_iter();
        let (graded, gaps) = requests
            .clone()
            .filter(|r| is_graded(r))
            .fold((0, 0), |(n, gaps), r| {
                (n + 1, gaps + r.token_times.len().saturating_sub(1))
            });
        let mut acc = Self::with_store(SampleStore::Exact(Vec::new()));
        acc.ttft.reserve(graded);
        acc.latency.reserve(graded);
        acc.tbt = SampleStore::Tally(Tally::for_len(gaps));
        for r in requests.clone() {
            acc.observe(r);
        }
        if let SampleStore::Tally(tally) = &mut acc.tbt {
            tally.select(|| {
                requests
                    .clone()
                    .filter(|r| is_graded(r))
                    .flat_map(decode_gaps)
            });
        }
        acc
    }

    fn with_store(store: SampleStore) -> Self {
        ReportAccumulator {
            ttft: store.empty_like(),
            tbt: store.empty_like(),
            latency: store.empty_like(),
            slack: store,
            with_decode: 0,
            stalls_200: 0,
            stalls_500: 0,
            classes: Vec::new(),
            tenants: Vec::new(),
        }
    }

    fn class_entry(&mut self, name: &str) -> usize {
        match self.classes.iter().position(|c| c.class == name) {
            Some(i) => i,
            None => {
                self.classes.push(SloClassReport {
                    class: name.to_string(),
                    ..SloClassReport::default()
                });
                self.classes.len() - 1
            }
        }
    }

    fn tenant_entry(&mut self, id: TenantId) -> usize {
        match self.tenants.binary_search_by_key(&id, |t| t.0.tenant) {
            Ok(i) => i,
            Err(i) => {
                let row = TenantReport {
                    tenant: id,
                    ..TenantReport::default()
                };
                self.tenants.insert(i, (row, self.ttft.empty_like()));
                i
            }
        }
    }

    /// Grade one request. A shed request moves only the shed tallies, a
    /// finished one is graded, and any other (in flight, or exported to a
    /// decode replica) is skipped. Call it at most once per request, while a
    /// finished request's `token_times` are intact.
    pub(crate) fn observe(&mut self, r: &Request) {
        if r.shed_time.is_some() {
            if let Some(slo) = r.spec.slo {
                let i = self.class_entry(slo.class);
                self.classes[i].shed += 1;
            }
            let ti = self.tenant_entry(r.spec.tenant);
            self.tenants[ti].0.shed += 1;
            return;
        }
        if !is_graded(r) {
            return;
        }
        let ti = self.tenant_entry(r.spec.tenant);
        let (tenant, tenant_ttft) = &mut self.tenants[ti];
        tenant.finished += 1;
        tenant.preemptions_suffered += r.restarts;
        tenant.preemptions_inflicted += r.preemptions_inflicted;
        if let Some(t) = r.ttft() {
            self.ttft.observe(t);
            tenant_ttft.observe(t);
        }
        if let Some(l) = r.latency() {
            self.latency.observe(l);
        }
        let mut max_gap = f64::NEG_INFINITY;
        for gap in decode_gaps(r) {
            max_gap = max_gap.max(gap);
            self.tbt.observe(gap);
        }
        if max_gap > f64::NEG_INFINITY {
            self.with_decode += 1;
            self.stalls_200 += usize::from(max_gap > 0.2);
            self.stalls_500 += usize::from(max_gap > 0.5);
        }
        if let Some(slo) = r.spec.slo {
            let ttft_ok = r.meets_ttft();
            // `max_gap` doubles as the TBT criterion: every decode gap
            // must be at most the target (NEG_INFINITY = no decode gaps =
            // trivially met).
            let tbt_ok = max_gap <= slo.tbt_target;
            let met = usize::from(ttft_ok && tbt_ok);
            if let Some(s) = r.ttft_slack() {
                self.slack.observe(s);
            }
            let i = self.class_entry(slo.class);
            let class = &mut self.classes[i];
            class.finished += 1;
            class.met += met;
            class.ttft_violations += usize::from(!ttft_ok);
            class.tbt_violations += usize::from(!tbt_ok);
            let tenant = &mut self.tenants[ti].0;
            tenant.slo_requests += 1;
            tenant.slo_met += met;
        }
    }

    /// Fold another sketch accumulator in. Sketch merges are bucket-wise
    /// counter additions, so fleet percentiles are independent of merge
    /// order; the cluster merges in replica-index order for deterministic
    /// means and class ordering (classes append by first appearance across
    /// the merge sequence).
    pub(crate) fn merge(&mut self, other: &ReportAccumulator) {
        self.ttft.merge(&other.ttft);
        self.tbt.merge(&other.tbt);
        self.latency.merge(&other.latency);
        self.slack.merge(&other.slack);
        self.with_decode += other.with_decode;
        self.stalls_200 += other.stalls_200;
        self.stalls_500 += other.stalls_500;
        for c in &other.classes {
            let i = self.class_entry(&c.class);
            let class = &mut self.classes[i];
            class.finished += c.finished;
            class.met += c.met;
            class.ttft_violations += c.ttft_violations;
            class.tbt_violations += c.tbt_violations;
            class.shed += c.shed;
        }
        for (t, ttft) in &other.tenants {
            let i = self.tenant_entry(t.tenant);
            let (tenant, tenant_ttft) = &mut self.tenants[i];
            tenant_ttft.merge(ttft);
            tenant.finished += t.finished;
            tenant.shed += t.shed;
            tenant.slo_requests += t.slo_requests;
            tenant.slo_met += t.slo_met;
            tenant.preemptions_suffered += t.preemptions_suffered;
            tenant.preemptions_inflicted += t.preemptions_inflicted;
        }
    }

    /// Produce the report, its engine-side fields taken from `counters`.
    pub(crate) fn finalize(
        self,
        system: &str,
        makespan: f64,
        counters: &ServingCounters,
    ) -> ServingReport {
        let class_sum = |f: fn(&SloClassReport) -> usize| self.classes.iter().map(f).sum();
        let tenant_sum = |f: fn(&TenantReport) -> usize| self.tenants.iter().map(|t| f(&t.0)).sum();
        let c = counters;
        ServingReport {
            system: system.to_string(),
            makespan,
            completed: tenant_sum(|t| t.finished),
            iterations: c.iterations,
            hybrid_iterations: c.hybrid_iterations,
            ttft: self.ttft.summary(),
            tbt: self.tbt.summary(),
            request_latency: self.latency.summary(),
            stall_fraction_200ms: ratio(self.stalls_200, self.with_decode, 0.0),
            stall_fraction_500ms: ratio(self.stalls_500, self.with_decode, 0.0),
            price_cache_hits: c.price_cache_hits,
            price_cache_misses: c.price_cache_misses,
            busy_time: c.busy_time,
            prefill_tokens_scheduled: c.prefill_tokens_scheduled,
            cached_prefix_tokens: c.cached_prefix_tokens,
            blocks_reused: c.blocks_reused,
            cow_copies: c.cow_copies,
            decode_kv_tokens_deduped: c.decode_kv_tokens_deduped,
            spec_rounds: c.spec_rounds,
            draft_tokens_accepted: c.draft_tokens_accepted,
            draft_tokens_rejected: c.draft_tokens_rejected,
            preemptions: c.preemptions,
            blocks_evicted: c.blocks_evicted,
            migrated_out_requests: c.migrated_out_requests,
            migrated_in_requests: c.migrated_in_requests,
            migrated_tokens: c.migrated_tokens,
            migration_stall_time: c.migration_stall_time,
            shed_requests: tenant_sum(|t| t.shed),
            slo_requests: class_sum(|c| c.finished),
            slo_met: class_sum(|c| c.met),
            slo_ttft_violations: class_sum(|c| c.ttft_violations),
            slo_tbt_violations: class_sum(|c| c.tbt_violations),
            ttft_slack: self.slack.summary(),
            slo_classes: self.classes,
            tenants: self
                .tenants
                .into_iter()
                .map(|(mut row, ttft)| {
                    row.ttft = ttft.summary();
                    row
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;

    #[test]
    fn percentiles_of_known_distribution() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&sorted, 0.5) - 50.5).abs() < 1e-9);
        assert!((percentile(&sorted, 0.99) - 99.01).abs() < 0.5);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_stats_basic() {
        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.p50 - 2.5).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        assert_eq!(SummaryStats::from_samples(&[]).count, 0);
    }

    /// The oracle the rank selection must match bit for bit: sum in slice
    /// order, sort by `total_cmp`, interpolate with [`percentile`].
    fn sorted_summary(samples: &[f64]) -> [u64; 5] {
        if samples.is_empty() {
            return summary_bits(&SummaryStats::default());
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        summary_bits(&SummaryStats {
            count: samples.len(),
            mean: samples.iter().fold(0.0, |sum, v| sum + v) / samples.len() as f64,
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    fn summary_bits(s: &SummaryStats) -> [u64; 5] {
        [
            s.count as u64,
            s.mean.to_bits(),
            s.p50.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ]
    }

    /// A stream of `n` samples of one of the shapes selection must get
    /// right: spread latencies, few-valued ties, one repeated value, +0.0
    /// among positives, subnormals, one dense bucket of 1000 values holding
    /// most samples, and values of both signs.
    fn shaped_stream(rng: &mut crate::SplitMix64, shape: usize, n: usize) -> Vec<f64> {
        let pool: Vec<f64> = (0..1 + rng.next_usize(4))
            .map(|_| 1e-3 + rng.next_f64())
            .collect();
        (0..n)
            .map(|_| match shape {
                0 => 1e-3 + rng.next_f64(),
                1 => pool[rng.next_usize(pool.len())],
                2 => pool[0],
                3 if rng.next_usize(3) == 0 => 0.0,
                3 => rng.next_f64(),
                4 => {
                    f64::from_bits(rng.next_usize(1 << 20) as u64) * [1.0, 1e300][rng.next_usize(2)]
                }
                5 if rng.next_usize(10) < 9 => 0.0085 + rng.next_usize(1000) as f64 * 1e-8,
                5 => rng.next_f64(),
                _ => rng.next_f64() - 0.5,
            })
            .collect()
    }

    /// Rank selection agrees bit for bit with a full sort on every shape,
    /// at n = 1, 2, 3, at random small sizes, and at sizes large enough to
    /// count buckets, narrow a dense bucket and reach a window of equal
    /// keys.
    #[test]
    fn rank_selection_matches_a_sort_bit_for_bit() {
        let mut rng = crate::SplitMix64::seed_from_u64(39);
        for case in 0..3_000 {
            let shape = case % 7;
            let n = match case / 7 % 6 {
                0 => 1,
                1 => 2,
                2 => 3,
                _ => 1 + rng.next_usize(300),
            };
            let samples = shaped_stream(&mut rng, shape, n);
            let got = summary_bits(&SummaryStats::from_samples(&samples));
            assert_eq!(got, sorted_summary(&samples), "case {case}: {samples:?}");
        }
        for shape in 0..7 {
            for n in [SMALL_STREAM, SMALL_STREAM + 1, 50_000] {
                let samples = shaped_stream(&mut rng, shape, n);
                let got = summary_bits(&SummaryStats::from_samples(&samples));
                assert_eq!(got, sorted_summary(&samples), "shape {shape}, n = {n}");
            }
        }
    }

    /// Exact reports select gap percentiles by reading the records again:
    /// the result equals a sort of the gaps of exactly the graded requests.
    #[test]
    fn exact_gap_percentiles_reread_only_graded_requests() {
        let mut requests = Vec::new();
        let mut gaps = Vec::new();
        for i in 0..60usize {
            let mut r = Request::new(i, RequestSpec::new(0.0, 10, 150));
            match i % 10 {
                // Shed, or left mid-decode: no gap is graded.
                0 => r.shed_time = Some(1.0),
                1 => {
                    r.record_prefill(10, 1.0);
                    r.record_decode_token(9.0);
                }
                _ => {
                    r.record_prefill(10, 1.0);
                    let mut t = 1.0;
                    for tok in 1..150 {
                        // Mostly one repeated gap: a dense bucket.
                        let gap = if tok % 13 == 0 {
                            0.05 * (i % 7) as f64
                        } else {
                            0.0085
                        };
                        gaps.push((t + gap) - t);
                        t += gap;
                        r.record_decode_token(t);
                    }
                }
            }
            requests.push(r);
        }
        assert!(gaps.len() > SMALL_STREAM);
        let report = ServingReport::from_requests("test", &requests, 60.0, 1, 0);
        assert_eq!(summary_bits(&report.tbt), sorted_summary(&gaps));
    }

    #[test]
    fn prefix_hit_rate_is_zero_not_nan_when_nothing_ran() {
        // Regression: with no prefill scheduled and no cached tokens the
        // ratio's denominator is 0 — the rate must report 0.0, not NaN,
        // or JSON trend files and perf gates downstream choke on it.
        let report = ServingReport::from_requests("test", &[], 0.0, 0, 0);
        assert_eq!(report.prefix_hit_rate(), 0.0);
        assert!(!report.prefix_hit_rate().is_nan());
        // Cached tokens alone (all prefill elided) still yield a finite rate.
        let mut cached = ServingReport::from_requests("test", &[], 1.0, 1, 0);
        cached.cached_prefix_tokens = 128;
        assert_eq!(cached.prefix_hit_rate(), 1.0);
    }

    #[test]
    fn report_counts_stalls_and_throughput() {
        let mut ok = Request::new(0, RequestSpec::new(0.0, 10, 3));
        ok.record_prefill(10, 0.5);
        ok.record_decode_token(0.55);
        ok.record_decode_token(0.60);
        let mut stalled = Request::new(1, RequestSpec::new(0.0, 10, 2));
        stalled.record_prefill(10, 0.5);
        stalled.record_decode_token(1.5);
        let report = ServingReport::from_requests("test", &[ok, stalled], 60.0, 10, 5);
        assert_eq!(report.completed, 2);
        assert!((report.stall_fraction_200ms - 0.5).abs() < 1e-12);
        assert!((report.stall_fraction_500ms - 0.5).abs() < 1e-12);
        assert!((report.requests_per_minute() - 2.0).abs() < 1e-12);
        assert_eq!(report.iterations, 10);
    }

    #[test]
    fn report_serializes_to_parseable_json() {
        let mut ok = Request::new(0, RequestSpec::new(0.0, 10, 2));
        ok.record_prefill(10, 0.5);
        ok.record_decode_token(0.6);
        let mut report = ServingReport::from_requests("Sarathi(chunk=1024)+POD", &[ok], 30.0, 7, 3);
        report.busy_time = 12.5;
        let text = report.to_json().to_string_pretty();
        let parsed = JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            parsed.get_path("makespan").and_then(JsonValue::as_f64),
            Some(30.0)
        );
        assert_eq!(
            parsed.get_path("busy_time").and_then(JsonValue::as_f64),
            Some(12.5)
        );
        assert_eq!(
            parsed.get_path("ttft.count").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("system"),
            Some(&JsonValue::str("Sarathi(chunk=1024)+POD"))
        );
    }

    #[test]
    fn slo_grading_and_goodput() {
        use crate::request::SloSpec;
        let tight = SloSpec::new("interactive", 1.0, 0.2);
        let loose = SloSpec::new("batch", 100.0, 5.0);

        // Meets both targets.
        let mut good = Request::new(0, RequestSpec::new(0.0, 10, 2).with_slo(tight));
        good.record_prefill(10, 0.5);
        good.record_decode_token(0.6);
        // Misses TTFT, meets TBT.
        let mut late = Request::new(1, RequestSpec::new(0.0, 10, 2).with_slo(tight));
        late.record_prefill(10, 2.0);
        late.record_decode_token(2.1);
        // Meets TTFT, misses TBT (gap 0.5 > 0.2).
        let mut stalled = Request::new(2, RequestSpec::new(0.0, 10, 2).with_slo(tight));
        stalled.record_prefill(10, 0.5);
        stalled.record_decode_token(1.0);
        // Batch class: loose targets, met.
        let mut batch = Request::new(3, RequestSpec::new(0.0, 10, 2).with_slo(loose));
        batch.record_prefill(10, 10.0);
        batch.record_decode_token(11.0);
        // No SLO: finished = goodput, not in attainment.
        let mut plain = Request::new(4, RequestSpec::new(0.0, 10, 1));
        plain.record_prefill(10, 50.0);
        // Shed before serving.
        let mut shed = Request::new(5, RequestSpec::new(0.0, 10, 2).with_slo(tight));
        shed.shed_time = Some(3.0);

        let report = ServingReport::from_requests(
            "test",
            &[good, late, stalled, batch, plain, shed],
            60.0,
            10,
            5,
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.shed_requests, 1);
        assert_eq!(report.slo_requests, 4);
        assert_eq!(report.slo_met, 2);
        assert_eq!(report.slo_ttft_violations, 1);
        assert_eq!(report.slo_tbt_violations, 1);
        assert!((report.slo_attainment() - 0.5).abs() < 1e-12);
        // Goodput: 5 completed minus 2 SLO violators = 3 (the plain request
        // counts; the shed one never completed).
        assert_eq!(report.goodput_requests(), 3);
        assert!((report.goodput_per_minute() - 3.0).abs() < 1e-12);
        // TTFT slack distribution covers the four finished SLO'd requests.
        assert_eq!(report.ttft_slack.count, 4);
        assert_eq!(report.ttft_slack.max, 99.0 - 9.0); // batch: 100 - 10

        // Per-class breakdown, ordered by first appearance (shed counts too).
        assert_eq!(report.slo_classes.len(), 2);
        let interactive = &report.slo_classes[0];
        assert_eq!(interactive.class, "interactive");
        assert_eq!(interactive.finished, 3);
        assert_eq!(interactive.met, 1);
        assert_eq!(interactive.ttft_violations, 1);
        assert_eq!(interactive.tbt_violations, 1);
        assert_eq!(interactive.shed, 1);
        assert!((interactive.attainment() - 1.0 / 3.0).abs() < 1e-12);
        let batch_class = &report.slo_classes[1];
        assert_eq!(batch_class.class, "batch");
        assert_eq!(batch_class.finished, 1);
        assert_eq!(batch_class.met, 1);
        assert_eq!(batch_class.shed, 0);

        // The SLO block serializes and parses.
        let parsed =
            JsonValue::parse(&report.to_json().to_string_pretty()).expect("report JSON parses");
        assert_eq!(
            parsed.get_path("slo.met").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get_path("slo.goodput_requests")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed.get_path("shed_requests").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let JsonValue::Arr(classes) = parsed.get_path("slo.per_class").expect("per_class") else {
            panic!("per_class must be an array");
        };
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes[0].get("class"),
            Some(&JsonValue::str("interactive"))
        );
    }

    #[test]
    fn tbt_target_is_inclusive_and_a_request_without_slo_is_goodput() {
        use crate::request::SloSpec;
        let slo = SloSpec::new("interactive", 1.0, 0.25);
        // Gap exactly at the target (0.25 is exact in binary): met.
        let mut at = Request::new(0, RequestSpec::new(0.0, 10, 2).with_slo(slo));
        at.record_prefill(10, 0.5);
        at.record_decode_token(0.75);
        // One ulp later: the gap is just above the target, and missed.
        let mut above = Request::new(1, RequestSpec::new(0.0, 10, 2).with_slo(slo));
        above.record_prefill(10, 0.5);
        above.record_decode_token(f64::from_bits(0.75f64.to_bits() + 1));
        assert!(above.token_times[1] - above.token_times[0] > 0.25);
        // No SLO, with a long stall: still goodput.
        let mut plain = Request::new(2, RequestSpec::new(0.0, 10, 2));
        plain.record_prefill(10, 0.5);
        plain.record_decode_token(9.0);

        let report = ServingReport::from_requests("test", &[at, above, plain], 60.0, 3, 3);
        assert_eq!(report.slo_requests, 2);
        assert_eq!(report.slo_met, 1);
        assert_eq!(report.slo_ttft_violations, 0);
        assert_eq!(report.slo_tbt_violations, 1);
        assert_eq!(report.goodput_requests(), 2);
    }

    #[test]
    fn slo_free_runs_have_vacuous_attainment() {
        let mut ok = Request::new(0, RequestSpec::new(0.0, 10, 1));
        ok.record_prefill(10, 1.0);
        let report = ServingReport::from_requests("test", &[ok], 60.0, 1, 0);
        assert_eq!(report.slo_requests, 0);
        assert_eq!(report.slo_attainment(), 1.0);
        assert_eq!(report.goodput_requests(), report.completed);
        assert!(report.slo_classes.is_empty());
        assert_eq!(report.shed_requests, 0);
    }

    /// The sketch and exact sample stores under the one grader: every
    /// integer tally, mean, and max agree exactly, and the sketch
    /// percentiles sit within their documented bound of the exact ones.
    #[test]
    fn streaming_reports_match_exact_counters() {
        use crate::request::SloSpec;
        let tight = SloSpec::new("interactive", 1.0, 0.2);
        let loose = SloSpec::new("batch", 100.0, 5.0);
        let mut requests = Vec::new();
        for i in 0..200usize {
            let slo = match i % 3 {
                0 => Some(tight),
                1 => Some(loose),
                _ => None,
            };
            let mut spec =
                RequestSpec::new(i as f64 * 0.1, 10, 4).with_tenant(TenantId((i % 3) as u32));
            if let Some(s) = slo {
                spec = spec.with_slo(s);
            }
            let mut r = Request::new(i, spec);
            if i % 17 == 0 {
                r.shed_time = Some(i as f64 * 0.1 + 0.5);
            } else {
                let t0 = i as f64 * 0.1 + 0.3 + (i % 7) as f64 * 0.25;
                r.record_prefill(10, t0);
                for tok in 1..4 {
                    r.record_decode_token(t0 + tok as f64 * 0.05 * (1 + i % 5) as f64);
                }
                r.restarts = i % 2;
                r.preemptions_inflicted = i % 4;
            }
            requests.push(r);
        }
        let exact = ServingReport::from_requests("test", &requests, 60.0, 10, 5);
        let mut acc = ReportAccumulator::sketch();
        for r in &requests {
            acc.observe(r);
        }
        let counters = ServingCounters {
            iterations: 10,
            hybrid_iterations: 5,
            ..ServingCounters::default()
        };
        let streamed = acc.finalize("test", 60.0, &counters);
        assert_eq!(streamed.completed, exact.completed);
        assert_eq!(streamed.shed_requests, exact.shed_requests);
        assert_eq!(streamed.slo_requests, exact.slo_requests);
        assert_eq!(streamed.slo_met, exact.slo_met);
        assert_eq!(streamed.slo_ttft_violations, exact.slo_ttft_violations);
        assert_eq!(streamed.slo_tbt_violations, exact.slo_tbt_violations);
        assert_eq!(streamed.slo_classes, exact.slo_classes);
        assert_eq!(streamed.stall_fraction_200ms, exact.stall_fraction_200ms);
        assert_eq!(streamed.stall_fraction_500ms, exact.stall_fraction_500ms);
        // Per-tenant rows: every exact tally agrees; the tenant TTFT sketch
        // gets the same percentile bound as the global distributions below.
        assert_eq!(streamed.tenants.len(), 3);
        assert_eq!(streamed.tenants.len(), exact.tenants.len());
        for (s, e) in streamed.tenants.iter().zip(&exact.tenants) {
            assert_eq!(s.tenant, e.tenant);
            assert_eq!(s.finished, e.finished);
            assert_eq!(s.shed, e.shed);
            assert_eq!(s.slo_requests, e.slo_requests);
            assert_eq!(s.slo_met, e.slo_met);
            assert_eq!(s.preemptions_suffered, e.preemptions_suffered);
            assert_eq!(s.preemptions_inflicted, e.preemptions_inflicted);
            assert_eq!(s.ttft.count, e.ttft.count);
            assert!((s.ttft.mean - e.ttft.mean).abs() <= 1e-12 * e.ttft.mean.abs().max(1.0));
            assert_eq!(s.ttft.max, e.ttft.max);
        }
        // Collect the exact sample sets the same way `from_requests` does,
        // to check the sketch percentiles against their documented bound:
        // within 1% of the sample at the rounded rank (NOT the interpolated
        // percentile — bimodal slack distributions interpolate across the
        // mode gap, where no sample lives).
        let mut ttfts = Vec::new();
        let mut latencies = Vec::new();
        let mut tbts = Vec::new();
        let mut slacks = Vec::new();
        for r in &requests {
            if r.shed_time.is_some() || r.finish_time.is_none() {
                continue;
            }
            ttfts.extend(r.ttft());
            latencies.extend(r.latency());
            for w in r.token_times.windows(2) {
                tbts.push(w[1] - w[0]);
            }
            if r.spec.slo.is_some() {
                slacks.extend(r.ttft_slack());
            }
        }
        for (s, e, samples) in [
            (&streamed.ttft, &exact.ttft, &mut ttfts),
            (&streamed.tbt, &exact.tbt, &mut tbts),
            (
                &streamed.request_latency,
                &exact.request_latency,
                &mut latencies,
            ),
            (&streamed.ttft_slack, &exact.ttft_slack, &mut slacks),
        ] {
            assert_eq!(s.count, e.count);
            assert!((s.mean - e.mean).abs() <= 1e-12 * e.mean.abs().max(1.0));
            assert_eq!(s.max, e.max);
            samples.sort_by(|a, b| a.total_cmp(b));
            for (sv, q) in [(s.p50, 0.50), (s.p99, 0.99)] {
                let rank = (q * (samples.len() - 1) as f64).round() as usize;
                let adj = samples[rank];
                assert!(
                    (sv - adj).abs() <= 0.0101 * adj.abs() + 1e-9,
                    "sketch {sv} too far from rank-{rank} sample {adj} at q={q}"
                );
            }
        }
    }

    /// Tenant rows are keyed and ordered by id (not appearance), shed
    /// requests land in their tenant's `shed` column, and the preemption
    /// ledger separates suffered restarts from inflicted evictions.
    #[test]
    fn tenant_breakdown_orders_by_id_and_attributes_preemptions() {
        use crate::request::SloSpec;
        let slo = SloSpec::new("interactive", 1.0, 0.2);
        // Tenant 7 appears first in the request list but must sort after 2.
        let mut bully = Request::new(0, RequestSpec::new(0.0, 10, 2).with_tenant(TenantId(7)));
        bully.record_prefill(10, 0.4);
        bully.record_decode_token(0.5);
        bully.preemptions_inflicted = 3;
        let mut victim = Request::new(
            1,
            RequestSpec::new(0.0, 10, 2)
                .with_tenant(TenantId(2))
                .with_slo(slo),
        );
        victim.record_prefill(10, 0.5);
        victim.record_decode_token(0.6);
        victim.restarts = 2;
        let mut dropped = Request::new(2, RequestSpec::new(0.0, 10, 2).with_tenant(TenantId(2)));
        dropped.shed_time = Some(1.0);

        let report = ServingReport::from_requests("test", &[bully, victim, dropped], 60.0, 4, 2);
        assert_eq!(report.tenants.len(), 2);
        let t2 = &report.tenants[0];
        assert_eq!(t2.tenant, TenantId(2));
        assert_eq!(t2.finished, 1);
        assert_eq!(t2.shed, 1);
        assert_eq!(t2.slo_requests, 1);
        assert_eq!(t2.slo_met, 1);
        assert_eq!(t2.preemptions_suffered, 2);
        assert_eq!(t2.preemptions_inflicted, 0);
        assert_eq!(t2.goodput_requests(), 1);
        let t7 = &report.tenants[1];
        assert_eq!(t7.tenant, TenantId(7));
        assert_eq!(t7.preemptions_inflicted, 3);
        assert_eq!(t7.attainment(), 1.0);
        assert_eq!(t7.ttft.count, 1);

        let parsed =
            JsonValue::parse(&report.to_json().to_string_pretty()).expect("report JSON parses");
        let JsonValue::Arr(tenants) = parsed.get_path("tenants").expect("tenants block") else {
            panic!("tenants must be an array");
        };
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            tenants[0].get("tenant").and_then(JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            tenants[1]
                .get("preemptions_inflicted")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn unfinished_requests_are_excluded() {
        let unfinished = Request::new(0, RequestSpec::new(0.0, 10, 5));
        let report = ServingReport::from_requests("test", &[unfinished], 1.0, 1, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.ttft.count, 0);
    }
}

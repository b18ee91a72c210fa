//! Spans around the benchmark's calls into each layer's public functions.
//!
//! Off unless [`enable`] was called: a disabled [`span`] is one
//! thread-local check. Spans are kept in memory and written out by the
//! caller when the run ends. Only the calling thread records; work the
//! program does on its own threads falls inside the span that called it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `layer.function`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since tracing was enabled.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the benchmark run (its seed).
    pub run: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    t0: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, tagged with run id `run`.
pub fn enable(run: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and return every span, in opening order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Run `f` inside a span named `name` (when recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name,
                start_ns: rec.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: rec.open.last().copied(),
                run: rec.run,
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recorder outlives its open spans");
            rec.spans[idx].end_ns = rec.t0.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    out
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Per-layer row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub layer: &'static str,
    pub calls: usize,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Self time per layer, in order of first appearance. Spans nest on one
/// thread, so a span's children never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut rows: Vec<LayerTime> = Vec::new();
    for (s, child) in spans.iter().zip(child_s) {
        let i = match rows.iter().position(|r| r.layer == s.layer()) {
            Some(i) => i,
            None => {
                rows.push(LayerTime {
                    layer: s.layer(),
                    calls: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.len() - 1
            }
        };
        rows[i].calls += 1;
        rows[i].total_s += s.secs();
        rows[i].self_s += s.secs() - child;
    }
    rows
}

/// Spans as JSON lines: `{"name","start_ns","end_ns","parent","run"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"run":{}}}"#,
            s.name, s.start_ns, s.end_ns, parent, s.run
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        assert_eq!(span("x.off", || 1), 1, "a disabled span only runs f");
        enable(3);
        span("outer.run", || {
            span("inner.a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("inner.b", || ());
        });
        let spans = take();
        assert!(take().is_empty(), "take stops recording");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));

        let table = self_times(&spans);
        assert_eq!(table[0].layer, "outer");
        assert_eq!(table[1].layer, "inner");
        assert_eq!(table[1].calls, 2);
        let covered = spans[1].secs() + spans[2].secs();
        assert!((table[0].self_s - (spans[0].secs() - covered)).abs() < 1e-12);
        assert!(table[1].total_s >= 0.002);

        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.starts_with(r#"{"name":"outer.run","#));
        assert!(jsonl.contains(r#""parent":0,"run":3"#));
    }
}

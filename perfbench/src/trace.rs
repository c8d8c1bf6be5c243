//! The benchmark's span recorder. Spans wrap the calls the benchmark makes
//! into each layer of the program; they are kept in memory and written out
//! once, at exit, as Chrome trace-event JSON plus a per-layer table.
//!
//! A span's layer is the part of its name before the first `.`
//! (`pa.explore` belongs to `pa`). Spans named `bench.*` frame a flow or a
//! pass and belong to no layer; `trace.coverage` is the layer self-time
//! they enclose divided by their own wall time.
//!
//! Recording is off unless [`enable`] was called: a disabled [`span`] reads
//! no clock and takes no lock, so the untraced runs that produce the
//! end-to-end numbers pay nothing for it.

use multival_svc::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the layer is the part before the first dot.
    pub name: String,
    /// The flow (model, sweep point or job) the span belongs to.
    pub flow: u64,
    /// Start, in µs since the epoch.
    pub start_us: f64,
    /// End, in µs since the epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall time in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
    })
}

/// Turns recording on or off for every later [`span`].
pub fn enable(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the recorder's epoch for an instant.
fn at_us(t: Instant) -> f64 {
    t.saturating_duration_since(recorder().epoch).as_secs_f64() * 1e6
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when dropped"]
pub struct Guard {
    slot: Option<usize>,
}

/// Opens a span named `name` in flow `flow`, nested in the innermost span
/// open on this thread. Does nothing while recording is off.
pub fn span(name: &str, flow: u64) -> Guard {
    if !enabled() {
        return Guard { slot: None };
    }
    let rec = recorder();
    let start_us = at_us(Instant::now());
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let mut spans = rec.spans.lock().expect("span store lock poisoned");
    let slot = spans.len();
    spans.push(Span { name: name.to_owned(), flow, start_us, end_us: start_us, parent });
    drop(spans);
    OPEN.with(|open| open.borrow_mut().push(slot));
    Guard { slot: Some(slot) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        let end_us = at_us(Instant::now());
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&slot) {
                open.pop();
            }
        });
        if let Ok(mut spans) = recorder().spans.lock() {
            spans[slot].end_us = end_us;
        }
    }
}

/// Runs `f` inside a span and returns its result.
pub fn timed<T>(name: &str, flow: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, flow);
    f()
}

/// Adds `value` to the counter `name`, counted where the work happens.
/// Does nothing while recording is off.
pub fn count(name: &str, value: f64) {
    if enabled() {
        let mut counters = recorder().counters.lock().expect("counter lock poisoned");
        *counters.entry(name.to_owned()).or_insert(0.0) += value;
    }
}

/// The counter `name` (0 if never counted).
pub fn counter(name: &str) -> f64 {
    recorder().counters.lock().expect("counter lock poisoned").get(name).copied().unwrap_or(0.0)
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    recorder().spans.lock().expect("span store lock poisoned").clone()
}

/// Per-name and per-layer views over a set of spans.
pub struct Summary {
    spans: Vec<Span>,
    self_us: Vec<f64>,
}

impl Summary {
    /// Computes every span's self time: its duration minus the part its
    /// children cover (children of one span never overlap: they are
    /// opened and closed in turn on the parent's thread).
    pub fn new(spans: Vec<Span>) -> Summary {
        let mut self_us: Vec<f64> = spans.iter().map(Span::dur_us).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                self_us[p] -= s.dur_us();
            }
        }
        Summary { spans, self_us }
    }

    /// Summed duration of the spans called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_us).sum::<f64>() / 1e3
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// True when span `i` lies inside a span called `root`.
    fn inside(&self, mut i: usize, root: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Layer self time inside the spans called `root`, over their summed
    /// wall time.
    pub fn coverage(&self, root: &str) -> f64 {
        let wall = self.total_ms(root);
        let layers: f64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].layer() != "bench" && self.inside(i, root))
            .map(|i| self.self_us[i] / 1e3)
            .sum();
        if wall > 0.0 {
            layers / wall
        } else {
            0.0
        }
    }

    /// The per-layer table: spans, total and self time, and self time as a
    /// share of the wall time of the `root` spans.
    pub fn layer_table(&self, root: &str) -> String {
        let wall = self.total_ms(root);
        let mut rows: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self.self_us) {
            let row = rows.entry(s.layer().to_owned()).or_insert((0, 0.0, 0.0));
            row.0 += 1;
            row.1 += s.dur_us() / 1e3;
            row.2 += own / 1e3;
        }
        let mut out = format!(
            "{:<8} {:>8} {:>12} {:>12} {:>8}\n",
            "layer", "spans", "total_ms", "self_ms", "self_%"
        );
        for (layer, (n, total, own)) in rows {
            let share = if wall > 0.0 { 100.0 * own / wall } else { 0.0 };
            out.push_str(&format!("{layer:<8} {n:>8} {total:>12.3} {own:>12.3} {share:>7.1}%\n"));
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events), with the
    /// host stamp under `otherData`.
    pub fn chrome_json(&self, other: Json) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id".to_owned(), Json::num(i as f64)),
                    ("flow".to_owned(), Json::num(s.flow as f64)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), Json::num(p as f64)));
                }
                Json::Obj(vec![
                    ("name".to_owned(), Json::str(s.name.clone())),
                    ("cat".to_owned(), Json::str(s.layer())),
                    ("ph".to_owned(), Json::str("X")),
                    ("ts".to_owned(), Json::num(s.start_us)),
                    ("dur".to_owned(), Json::num(s.dur_us().max(0.0))),
                    ("pid".to_owned(), Json::num(1.0)),
                    ("tid".to_owned(), Json::num(1.0)),
                    ("args".to_owned(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_owned(), Json::Arr(events)),
            ("displayTimeUnit".to_owned(), Json::str("ms")),
            ("otherData".to_owned(), other),
        ])
        .to_string()
    }
}

//! The traced run's span recorder. Spans wrap the benchmark's own calls
//! into each layer (nothing is recorded inside the program), are kept in
//! memory, and are written once when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Pass number, or the serve job id inside a serve pass.
    pub pass: u32,
    pub start_us: f64,
    pub end_us: f64,
    pub counts: Vec<(&'static str, u64)>,
}

/// Counts attached to the span that is being recorded.
#[derive(Default)]
pub struct Counts(Vec<(&'static str, u64)>);

impl Counts {
    pub fn add(&mut self, key: &'static str, n: u64) {
        self.0.push((key, n));
    }
}

/// Everything the spans of one name add up to.
#[derive(Default)]
struct Layer {
    calls: u64,
    total_us: f64,
    self_us: f64,
    counts: BTreeMap<&'static str, u64>,
}

pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Run `f` as one call into layer `name` and return its result with
    /// its wall seconds. The wall is measured whether tracing is on or
    /// off; the span is recorded only when it is on.
    pub fn span<R>(
        &self,
        name: &'static str,
        pass: u32,
        f: impl FnOnce(&mut Counts) -> R,
    ) -> (R, f64) {
        let mut counts = Counts::default();
        if !self.enabled.load(Ordering::Relaxed) {
            let t = Instant::now();
            let r = f(&mut counts);
            return (r, t.elapsed().as_secs_f64());
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span { name, parent, pass, start_us: 0.0, end_us: 0.0, counts: Vec::new() });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let start = Instant::now();
        let r = f(&mut counts);
        let secs = start.elapsed().as_secs_f64();
        OPEN.with(|o| o.borrow_mut().pop());
        let start_us = start.duration_since(self.t0).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("no span holder panics");
        let s = &mut spans[id];
        s.start_us = start_us;
        s.end_us = start_us + secs * 1e6;
        s.counts = counts.0;
        (r, secs)
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover (children may overlap across threads, so
    /// the cover is a union of intervals).
    fn self_times(spans: &[Span]) -> Vec<f64> {
        let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us)));
            }
        }
        spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| {
                k.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut edge) = (0.0, f64::NEG_INFINITY);
                for &(a, b) in k.iter() {
                    let a = a.max(edge);
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    /// The whole trace as JSON: a per-layer summary (calls, total and
    /// self time, summed counts) and then every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self.spans.lock().expect("no span holder panics");
        let selfs = Tracer::self_times(&spans);
        let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&selfs) {
            let l = layers.entry(s.name).or_default();
            l.calls += 1;
            l.total_us += s.end_us - s.start_us;
            l.self_us += own;
            for (k, n) in &s.counts {
                *l.counts.entry(k).or_default() += n;
            }
        }
        let counts_json = |c: &mut dyn Iterator<Item = (&str, u64)>| -> String {
            c.map(|(k, n)| format!("\"{k}\":{n}")).collect::<Vec<_>>().join(",")
        };
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":{{");
        let rows: Vec<String> = layers
            .iter()
            .map(|(name, l)| {
                format!(
                    "\n\"{name}\":{{\"calls\":{},\"total_us\":{:.1},\"self_us\":{:.1},\"counts\":{{{}}}}}",
                    l.calls,
                    l.total_us,
                    l.self_us,
                    counts_json(&mut l.counts.iter().map(|(k, n)| (*k, *n)))
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("},\"spans\":[");
        let rows: Vec<String> = spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, own))| {
                format!(
                    "\n{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"pass\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{own:.1},\"counts\":{{{}}}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    s.pass,
                    s.start_us,
                    s.end_us,
                    counts_json(&mut s.counts.iter().copied())
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("]}\n");
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no span holder panics").len()
    }
}

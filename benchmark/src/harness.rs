//! What every workload shares: the run configuration, the report a run
//! fills, and the loop that sets a workload up, warms it, times its
//! passes and guards them against a noisy host.

use crate::measure::{cpu_seconds, median};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: scale 0.25 and as few passes as possible. Its
    /// numbers are not comparable with anything.
    pub quick: bool,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, for the human reader.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Walls of untraced passes: the only source of end-to-end numbers.
    pub pass_s: Vec<f64>,
    pub traced_pass_s: Vec<f64>,
    /// Work units done in the untraced passes (see `Workload::pass`).
    pub work: f64,
    /// Latency of each operation of the untraced passes, ms.
    pub op_ms: Vec<f64>,
    /// Latency of each cold job of the untraced passes, ms
    /// (`serve_mixed` only).
    pub cold_ms: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    pub cpu_share: Vec<f64>,
    pub disturbed_passes: u32,
}

impl Report {
    /// Count one checked operation; `Err` is a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Record the failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

pub struct PassCtx<'a> {
    pub pass: u32,
    pub tracer: &'a Tracer,
    pub traced: bool,
    /// False during warm-up: nothing is recorded.
    pub record: bool,
    pub report: &'a mut Report,
}

impl PassCtx<'_> {
    /// True when this pass feeds the end-to-end numbers.
    pub fn end_to_end(&self) -> bool {
        self.record && !self.traced
    }
}

pub trait Workload {
    /// Run one pass and return `(wall seconds, work units)`. The wall
    /// covers the measured section only; a workload that rebuilds state
    /// between passes times that into `report.setup_s` instead.
    fn pass(&mut self, ctx: &mut PassCtx) -> (f64, f64);

    /// A cheap pass that pages code in and sizes the allocator before
    /// the first timed pass. Nothing it does is recorded, and no timed
    /// pass is ever dropped.
    fn warmup(&mut self, ctx: &mut PassCtx);

    /// Per-layer probes of the traced run, after its passes.
    fn probes(&mut self, tracer: &Tracer, report: &mut Report);

    /// One busy thread: CPU time below 0.9 of the wall means the pass
    /// was disturbed by something else on the host.
    fn single_threaded(&self) -> bool;
}

pub type Setup<'a> = &'a dyn Fn(&Cfg) -> Result<Box<dyn Workload>, String>;

/// Passes shorter than this are judged for disturbance in blocks: the
/// CPU clock of `/proc/self/stat` ticks at 10 ms. A last block shorter
/// than a fifth of it is too short to judge at all.
const GUARD_BLOCK_S: f64 = 0.5;

const SETUPS: u32 = 3;

pub fn drive(cfg: &Cfg, setup: Setup, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    // The driver gates on `setup_s` and wants it steady, so set-up runs
    // a few times; the last instance is the one that is measured.
    let mut workload = None;
    for _ in 0..if cfg.quick { 1 } else { SETUPS } {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup(cfg)?);
        report.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");

    w.warmup(&mut PassCtx { pass: 0, tracer, traced: false, record: false, report: &mut report });
    println!("# warm-up pass done and discarded (scale 0.25; no timed pass is ever dropped)");

    // A traced run spends part of its time on probes, and alternates
    // untraced and traced passes so that both come from one process.
    let budget = if cfg.trace { cfg.seconds * 0.6 } else { cfg.seconds };
    let min_passes = if cfg.trace {
        2
    } else if cfg.quick {
        1
    } else {
        2
    };
    let start = Instant::now();
    let (mut block_wall, mut block_cpu, mut block_passes) = (0.0, 0.0, 0u32);
    let mut pass = 0u32;
    loop {
        pass += 1;
        let traced = cfg.trace && pass.is_multiple_of(2);
        tracer.set_enabled(traced);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let (wall, work) =
            w.pass(&mut PassCtx { pass, tracer, traced, record: true, report: &mut report });
        block_wall += t.elapsed().as_secs_f64();
        block_cpu += cpu_seconds() - cpu0;
        block_passes += 1;
        tracer.set_enabled(false);
        if traced {
            report.traced_pass_s.push(wall);
        } else {
            report.pass_s.push(wall);
            report.work += work;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let last = pass >= min_passes
            // Stop rather than start a pass that would overshoot by 25 %.
            && (cfg.quick || elapsed >= budget || elapsed + wall > budget * 1.25);
        if block_wall >= GUARD_BLOCK_S || (last && block_wall >= GUARD_BLOCK_S / 5.0) {
            let share = block_cpu / block_wall;
            report.cpu_share.push(share);
            if w.single_threaded() && share < 0.9 {
                report.disturbed_passes += block_passes;
            }
            (block_wall, block_cpu, block_passes) = (0.0, 0.0, 0);
        }
        if last {
            break;
        }
    }
    println!(
        "# {} untraced + {} traced passes in {:.1} s; cpu share {:.2}; disturbed passes {}",
        report.pass_s.len(),
        report.traced_pass_s.len(),
        start.elapsed().as_secs_f64(),
        median(&report.cpu_share),
        report.disturbed_passes
    );

    if cfg.trace {
        tracer.set_enabled(true);
        w.probes(tracer, &mut report);
        tracer.set_enabled(false);
        let (plain, traced) = (median(&report.pass_s), median(&report.traced_pass_s));
        report.layer("trace.overhead_frac", traced / plain - 1.0);
        report.layer("host.cpu_share", median(&report.cpu_share));
        report.layer("host.disturbed_passes", report.disturbed_passes as f64);
    }
    Ok(report)
}

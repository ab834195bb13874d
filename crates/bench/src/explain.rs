//! `repro explain <bench>`: why is this benchmark slow?
//!
//! Runs one paper benchmark under every strategy with the memory
//! profiler attached and renders ranked per-(nest, array) attribution
//! tables — stall cycles, miss classification, the true/false sharing
//! split, and remote fractions — side by side, so the paper's diagnostic
//! claims ("the data transform eliminates false sharing", "the
//! direct-mapped conflict pathology vanishes under strip-mining") become
//! measured artifacts instead of prose. A JSON artifact is written under
//! `results/` by the CLI.
//!
//! Each strategy is a cell of the one executor ([`run_cells`]) with the
//! profiler on: the cell carries its profile ([`CellProfile`]), in the
//! store too, so a warm `--cache` run renders the cold run's bytes
//! without simulating.

use crate::ablate::Variant;
use crate::cache::kind_strategy;
use crate::harness::ThreadBudget;
use crate::programs;
use crate::sweep::{run_cells, Cell, CellProfile, CellTask, SweepConfig, SweepReport};
use dct_core::Strategy;
use dct_ir::{esc, MemProfile};

/// The explain report for one benchmark: one profiled cell per strategy.
#[derive(Clone, Debug)]
pub struct ExplainResult {
    pub benchmark: String,
    pub procs: usize,
    pub scale: f64,
    /// The strategy cells, in the order asked for.
    pub cells: Vec<Cell>,
}

/// The cell kind of a strategy (the inverse of `cache::kind_strategy`).
fn strategy_kind(s: Strategy) -> &'static str {
    match s {
        Strategy::Base => "base",
        Strategy::CompDecomp => "comp",
        Strategy::Full => "full",
    }
}

/// The strategy label of a cell.
fn strategy_label(c: &Cell) -> &'static str {
    kind_strategy(&c.kind, c.procs).0.label()
}

/// A cell's cycles and profile, or why it has none.
fn profiled(c: &Cell) -> Result<(u64, &CellProfile), String> {
    let cycles = c.cycles()?;
    c.profile.as_deref().map(|p| (cycles, p)).ok_or_else(|| "profiler produced no profile".to_string())
}

impl ExplainResult {
    /// The profile of one strategy's run, if it succeeded.
    pub fn profile_of(&self, strategy: Strategy) -> Option<&MemProfile> {
        let cell = self.cells.iter().find(|c| c.kind == strategy_kind(strategy))?;
        profiled(cell).ok().map(|(_, p)| &p.mem)
    }
}

/// Profile `benchmark` under every strategy at `cfg.procs` processors and
/// `cfg.scale` of the paper problem size. Returns `None` for an unknown
/// benchmark name.
pub fn explain(benchmark: &str, cfg: &SweepConfig, budget: ThreadBudget) -> Option<(ExplainResult, SweepReport)> {
    explain_strategies(benchmark, cfg, budget, &Strategy::ALL)
}

/// [`explain`] restricted to a strategy subset — the diagnosis tests use
/// this to skip strategies irrelevant to (and much slower than) the claim
/// under test. The strategies are cells of one [`run_cells`] call with
/// the profiler on, so `cfg`'s store, budgets, native leg and retry
/// ladder apply; the returned report carries the run's counters, its
/// cells moved into the result.
pub fn explain_strategies(
    benchmark: &str,
    cfg: &SweepConfig,
    budget: ThreadBudget,
    strategies: &[Strategy],
) -> Option<(ExplainResult, SweepReport)> {
    let bench = programs::suite(cfg.scale).into_iter().find(|b| b.name == benchmark)?;
    let cfg = SweepConfig { profile: true, ..cfg.clone() };
    let tasks: Vec<CellTask> = strategies
        .iter()
        .map(|&s| CellTask {
            prog: &bench.program,
            bench: bench.name,
            kind: strategy_kind(s),
            procs: cfg.procs,
            variant: Variant::Default,
        })
        .collect();
    let mut rep = run_cells(&cfg, &tasks, budget);
    let cells = std::mem::take(&mut rep.cells);
    Some((ExplainResult { benchmark: benchmark.to_string(), procs: cfg.procs, scale: cfg.scale, cells }, rep))
}

/// The dominant miss class of a profile total, as a short diagnosis.
fn dominant_class(p: &MemProfile) -> String {
    let t = p.total();
    let classes = [
        ("cold", t.cold),
        ("capacity", t.capacity),
        ("conflict", t.conflict),
        ("true sharing", t.coh_true),
        ("false sharing", t.coh_false),
    ];
    let (name, n) = classes.iter().max_by_key(|(_, n)| *n).copied().unwrap_or(("cold", 0));
    let total = t.misses();
    if total == 0 {
        "no misses".to_string()
    } else {
        format!("{name} dominates ({:.0}% of {} misses)", 100.0 * n as f64 / total as f64, total)
    }
}

/// Render the explain report: per strategy, cycles, the ranked "why is
/// this slow" table, and a one-line diagnosis.
pub fn render_explain(r: &ExplainResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# explain {} — {} processors, scale {} (why is this slow?)\n",
        r.benchmark, r.procs, r.scale
    ));
    for c in &r.cells {
        let label = strategy_label(c);
        match profiled(c) {
            Ok((cycles, p)) => {
                out.push_str(&format!("\n== {label} [{}]: {cycles} cycles ==\n", p.rung));
                out.push_str(&p.mem.render_ranked(10));
                let t = p.mem.total();
                out.push_str(&format!(
                    "diagnosis: {}; {:.1}% of fills remote; {} invalidations\n",
                    dominant_class(&p.mem),
                    100.0 * t.remote_fraction(),
                    t.invalidations
                ));
            }
            Err(e) => out.push_str(&format!("\n== {label}: failed: {e} ==\n")),
        }
    }
    // Cross-strategy verdicts: the paper's headline claims, measured.
    if let (Some(cd), Some(full)) =
        (r.profile_of(Strategy::CompDecomp), r.profile_of(Strategy::Full))
    {
        let (c, f) = (cd.total(), full.total());
        if c.coh_false > 0 {
            out.push_str(&format!(
                "\nfalse sharing: {} (comp-decomp) -> {} (+data transform), {:.1}x\n",
                c.coh_false,
                f.coh_false,
                c.coh_false as f64 / f.coh_false.max(1) as f64
            ));
        }
        if c.conflict > 0 || f.conflict > 0 {
            out.push_str(&format!(
                "conflict misses: {} (comp-decomp) -> {} (+data transform)\n",
                c.conflict, f.conflict
            ));
        }
    }
    out
}

/// JSON artifact for `results/explain_<bench>.json` (hand-rolled, like
/// the other artifacts in this repo).
pub fn explain_json(r: &ExplainResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"benchmark\": \"{}\",\n", r.benchmark));
    out.push_str(&format!("  \"procs\": {},\n", r.procs));
    out.push_str(&format!("  \"scale\": {},\n", r.scale));
    out.push_str("  \"strategies\": [\n");
    for (k, c) in r.cells.iter().enumerate() {
        let comma = if k + 1 == r.cells.len() { "" } else { "," };
        let label = strategy_label(c);
        match profiled(c) {
            Ok((cycles, p)) => out.push_str(&format!(
                "    {{\"strategy\": \"{label}\", \"rung\": \"{}\", \"cycles\": {cycles}, {}, \"profile\": {}}}{comma}\n",
                esc(&p.rung),
                p.host,
                p.mem.to_json("    ")
            )),
            Err(e) => out.push_str(&format!("    {{\"strategy\": \"{label}\", \"error\": \"{}\"}}{comma}\n", esc(&e))),
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellOutcome;

    fn cfg(procs: usize, scale: f64) -> SweepConfig {
        SweepConfig::plain(procs, scale)
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(explain("nonesuch", &cfg(4, 0.1), ThreadBudget::clamp(1)).is_none());
    }

    /// A failed strategy's reason is escaped like every other JSON string,
    /// so no raw control character reaches the artifact.
    #[test]
    fn failed_strategy_error_is_escaped() {
        let cell = Cell::new("stencil", "full", 4, 0.1, CellOutcome::Failed("bad\t\"x\"\r\nend\\".to_string()));
        let r = ExplainResult { benchmark: "stencil".into(), procs: 4, scale: 0.1, cells: vec![cell] };
        let json = explain_json(&r);
        assert!(json.contains(r#""error": "bad\t\"x\"\u000d\nend\\""#), "{json}");
    }

    #[test]
    fn explain_stencil_small() {
        let (r, rep) = explain("stencil", &cfg(4, 0.05), ThreadBudget::clamp(2)).expect("stencil is a suite benchmark");
        assert_eq!(r.cells.len(), Strategy::ALL.len());
        assert_eq!((rep.executed, rep.cache_hits), (3, 0));
        for c in &r.cells {
            let (cycles, p) = profiled(c).expect("cell must run");
            assert!(cycles > 0);
            let t = p.mem.total();
            assert!(t.accesses > 0);
            assert_eq!(t.classified(), t.misses());
        }
        let txt = render_explain(&r);
        assert!(txt.contains("why is this slow"), "{txt}");
        assert!(txt.contains("diagnosis:"), "{txt}");
        let json = explain_json(&r);
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert!(json.contains("\"false_sharing\""), "{json}");
        // Stencil runs five time-invariant steps; the profiled run replays
        // the last three like a plain one.
        assert_eq!(json.matches("\"memo\": \"Replayed\", \"replayed_steps\": 3").count(), 3, "{json}");
        assert_eq!(json.matches("\"race_shadow_bytes\": 0, \"profiler_table_bytes\": ").count(), 3, "{json}");
        // Most segment entries are bumps; `access_seg` makes no decision
        // to give a reason for.
        assert!(json.contains("\"cursor_bumps\": ") && json.contains("\"resolves\": {\"walk_start\": "), "{json}");
        assert!(!json.contains("seg_bails"), "{json}");
        // Kernel refusals by reason, and the two simulated steps beside the
        // three replayed ones.
        assert_eq!(json.matches("\"kernel_refusals\": {").count(), 3, "{json}");
        assert_eq!(json.matches("\"steps_simulated\": 2").count(), 3, "{json}");
    }
}

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

use crate::programs;
use dct_core::{rung_sim_options, Compiler, Strategy};
use dct_ir::{panic_message, MemProfile, Program};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One profiled run of a benchmark under one strategy.
#[derive(Clone, Debug)]
pub struct ExplainRun {
    /// Wall-clock simulated cycles.
    pub cycles: u64,
    /// The attribution profile.
    pub profile: MemProfile,
    /// The rung actually realized (after any strategy degradation).
    pub rung_label: String,
    /// The run's walk counters, replay outcome and observer footprint.
    pub fast: dct_spmd::exec::FastPathStats,
}

/// One benchmark x strategy cell of the explain sweep.
#[derive(Clone, Debug)]
pub struct StrategyExplain {
    pub strategy: Strategy,
    pub outcome: Result<ExplainRun, String>,
}

/// The explain report for one benchmark.
#[derive(Clone, Debug)]
pub struct ExplainResult {
    pub benchmark: String,
    pub procs: usize,
    pub scale: f64,
    pub strategies: Vec<StrategyExplain>,
}

impl ExplainResult {
    /// The profile of one strategy's run, if it succeeded.
    pub fn profile_of(&self, strategy: Strategy) -> Option<&MemProfile> {
        self.strategies
            .iter()
            .find(|s| s.strategy == strategy)
            .and_then(|s| s.outcome.as_ref().ok())
            .map(|r| &r.profile)
    }

    /// Cycles of one strategy's run, if it succeeded.
    pub fn cycles_of(&self, strategy: Strategy) -> Option<u64> {
        self.strategies
            .iter()
            .find(|s| s.strategy == strategy)
            .and_then(|s| s.outcome.as_ref().ok())
            .map(|r| r.cycles)
    }
}

fn run_explain_cell(
    prog: &Program,
    params: &[i64],
    procs: usize,
    strategy: Strategy,
) -> Result<ExplainRun, String> {
    let body = || -> Result<ExplainRun, String> {
        let c = Compiler::new(strategy);
        let compiled = c.compile(prog).map_err(|e| e.to_string())?;
        let mut opts = rung_sim_options(compiled.rung, procs, params.to_vec());
        opts.profile = true;
        let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts)
            .map_err(|e| e.to_string())?;
        let profile = r.mem_profile.ok_or_else(|| "profiler produced no profile".to_string())?;
        let rung_label = compiled.rung.label().to_string();
        Ok(ExplainRun { cycles: r.cycles, profile, rung_label, fast: r.fast })
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => r,
        Err(p) => Err(format!("worker panicked: {}", panic_message(p.as_ref()))),
    }
}

/// Profile `benchmark` under every strategy at `procs` processors and
/// `scale` of the paper problem size. Returns `None` for an unknown
/// benchmark name.
pub fn explain(benchmark: &str, scale: f64, procs: usize) -> Option<ExplainResult> {
    explain_strategies(benchmark, scale, procs, &Strategy::ALL)
}

/// [`explain`] behind the content-addressed store: the rendered text and
/// JSON reports are cached as artifacts keyed on the compiled programs
/// (all strategies), so a repeat `repro explain --cache` serves both
/// without re-simulating. Returns `(text, json)`; `None` for an unknown
/// benchmark.
pub fn explain_cached(
    benchmark: &str,
    scale: f64,
    procs: usize,
    store: &crate::cache::ResultStore,
) -> Option<(String, String)> {
    let bench = programs::suite(scale).into_iter().find(|b| b.name == benchmark)?;
    let scale_milli = crate::sweep::scale_key(scale);
    let key = |tag: &str| {
        crate::cache::artifact_cache_key(tag, benchmark, &bench.program, procs, scale_milli)
            .map_err(|e| eprintln!("[cache: explain key derivation failed: {e}]"))
            .ok()
    };
    let (tkey, jkey) = (key("explain-text"), key("explain-json"));
    if let (Some(tk), Some(jk)) = (&tkey, &jkey) {
        if let (Some(text), Some(json)) = (store.lookup_artifact(tk), store.lookup_artifact(jk)) {
            return Some((text, json));
        }
    }
    let r = explain(benchmark, scale, procs)?;
    let text = render_explain(&r);
    let json = explain_json(&r);
    if let (Some(tk), Some(jk)) = (&tkey, &jkey) {
        let write = store
            .insert_artifact(tk, &text, None)
            .and_then(|()| store.insert_artifact(jk, &json, None));
        if let Err(e) = write {
            // Artifact caching is best-effort: the report itself already
            // exists, so a failed insert only costs the next run a redo.
            eprintln!("[cache: explain insert failed: {e}]");
        }
    }
    Some((text, json))
}

/// [`explain`] restricted to a strategy subset — the diagnosis tests use
/// this to skip strategies irrelevant to (and much slower than) the claim
/// under test.
pub fn explain_strategies(
    benchmark: &str,
    scale: f64,
    procs: usize,
    strategies: &[Strategy],
) -> Option<ExplainResult> {
    let bench = programs::suite(scale).into_iter().find(|b| b.name == benchmark)?;
    let params = bench.program.default_params();
    let strategies = strategies
        .iter()
        .map(|&strategy| StrategyExplain {
            strategy,
            outcome: run_explain_cell(&bench.program, &params, procs, strategy),
        })
        .collect();
    Some(ExplainResult { benchmark: benchmark.to_string(), procs, scale, strategies })
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
    for s in &r.strategies {
        match &s.outcome {
            Ok(run) => {
                out.push_str(&format!(
                    "\n== {} [{}]: {} cycles ==\n",
                    s.strategy.label(),
                    run.rung_label,
                    run.cycles
                ));
                out.push_str(&run.profile.render_ranked(10));
                let t = run.profile.total();
                out.push_str(&format!(
                    "diagnosis: {}; {:.1}% of fills remote; {} invalidations\n",
                    dominant_class(&run.profile),
                    100.0 * t.remote_fraction(),
                    t.invalidations
                ));
            }
            Err(e) => out.push_str(&format!("\n== {}: failed: {e} ==\n", s.strategy.label())),
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
    for (k, s) in r.strategies.iter().enumerate() {
        let comma = if k + 1 == r.strategies.len() { "" } else { "," };
        match &s.outcome {
            Ok(run) => {
                out.push_str(&format!(
                    "    {{\"strategy\": \"{}\", \"rung\": \"{}\", \"cycles\": {}, \"memo\": \"{:?}\", \"replayed_steps\": {}, {}, {}, \"profile\": {}}}{comma}\n",
                    s.strategy.label(),
                    run.rung_label,
                    run.cycles,
                    run.fast.memo,
                    run.fast.replayed_steps,
                    run.fast.reasons_json(),
                    run.fast.observer_bytes_json(),
                    run.profile.to_json("    ")
                ));
            }
            Err(e) => {
                out.push_str(&format!(
                    "    {{\"strategy\": \"{}\", \"error\": \"{}\"}}{comma}\n",
                    s.strategy.label(),
                    e.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', " ")
                ));
            }
        }
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(explain("nonesuch", 0.1, 4).is_none());
    }

    #[test]
    fn explain_stencil_small() {
        let r = explain("stencil", 0.05, 4).expect("stencil is a suite benchmark");
        assert_eq!(r.strategies.len(), Strategy::ALL.len());
        for s in &r.strategies {
            let run = s.outcome.as_ref().expect("cell must run");
            assert!(run.cycles > 0);
            let t = run.profile.total();
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

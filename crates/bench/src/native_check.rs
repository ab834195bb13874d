//! The native leg of the cell executor, and `repro native [bench]`.
//!
//! A cell's native leg runs its compiled schedule on the native threaded
//! backend once calm and then `reps` times under randomized thread-spawn
//! jitter and yield injection, and requires the checksum bits and the
//! barrier count of every run to equal the simulator's, so a
//! timing-dependent divergence has many chances to show itself. The leg
//! runs inside [`crate::sweep::compute_cell_supervised`] whenever
//! [`crate::sweep::SweepConfig::native_reps`] is set (`--native` sets
//! `Some(0)`), on computed and served cells alike.
//!
//! `repro native` is one [`run_cells`] call over Table 1's strategy cells
//! (16 jittered reps by default), so it shares Table 1's store entries.
//! Each divergence is then minimized by nest removal (drop
//! compute nests one at a time while the divergence persists, then try
//! dropping the time loop) and the shrunken program is dumped to the
//! output directory as a self-contained repro file.

use crate::cache::kind_strategy;
use crate::chaos::{wedge_until_cancelled, FaultInjector, FaultSite};
use crate::harness::{atomic_write_sync, ThreadBudget};
use crate::sweep::{run_cells, sweep_suite, CellTask, SweepConfig, SweepReport, KINDS};
use crate::Variant;
use dct_core::{rung_sim_options, Compiler, Strategy};
use dct_ir::pretty::render_program;
use dct_ir::{CancelToken, Program};
use std::path::Path;
use std::sync::Arc;

/// Jitter seeds are derived from this base so a failing rep can name its
/// exact seed in the repro file.
const JITTER_BASE: u64 = 0x5EED_0000;

/// The reason prefix of a cell whose native leg disagreed with the
/// simulator: such a cell is `Failed` at once, never retried.
pub const NATIVE_DIVERGES: &str = "native diverges from the simulator: ";

/// The fault hook of a native run: a planned `native-worker-panic` panics
/// worker 0 (the backend turns it into a structured error), a planned
/// `native-stuck` wedges it until the watchdog fires `token`.
fn fault_hook(inj: Option<&FaultInjector>, token: &CancelToken, ctx: &str) -> Option<Arc<dyn Fn(usize) + Send + Sync>> {
    let inj = inj?;
    let panic_worker = inj.fire(FaultSite::NativeWorkerPanic, ctx);
    let stuck_worker = inj.fire(FaultSite::NativeStuck, ctx);
    if !panic_worker && !stuck_worker {
        return None;
    }
    let (t, at) = (token.clone(), ctx.to_string());
    Some(Arc::new(move |p: usize| {
        if p != 0 {
            return;
        }
        if panic_worker {
            panic!("injected: native worker panic at {at}");
        }
        wedge_until_cancelled(&t);
    }))
}

/// Run `sp` natively once calm (carrying the fault hooks) and `reps`
/// times jittered, each against the simulator's checksum `bits` and
/// `barriers`. A mismatch is an `Err` starting with [`NATIVE_DIVERGES`];
/// any other `Err` (a native error, a watchdog cancel) is transient.
pub(crate) fn native_leg(
    sp: &dct_spmd::SpmdProgram,
    bits: u64,
    barriers: u64,
    reps: u64,
    inj: Option<&FaultInjector>,
    token: &CancelToken,
    ctx: &str,
) -> Result<(), String> {
    for rep in 0..=reps {
        let jitter = (rep > 0).then(|| JITTER_BASE + rep);
        let worker_hook = if rep == 0 { fault_hook(inj, token, ctx) } else { None };
        let nopts = dct_native::NativeOptions { cancel: Some(token.clone()), jitter, worker_hook };
        let nr = dct_native::execute(sp, &nopts).map_err(|e| format!("native: {e}"))?;
        if nr.cancelled {
            return Err("native run cancelled at a sync boundary (watchdog)".to_string());
        }
        if nr.checksum.to_bits() != bits {
            let seed = jitter.map(|s| format!(" (jitter seed {s:#x})")).unwrap_or_default();
            return Err(format!(
                "{NATIVE_DIVERGES}checksum diverges{seed}: native {:#018x} vs simulator {bits:#018x}",
                nr.checksum.to_bits()
            ));
        }
        if nr.barriers != barriers {
            return Err(format!(
                "{NATIVE_DIVERGES}barrier count diverges: native {} vs simulator {barriers}",
                nr.barriers
            ));
        }
    }
    Ok(())
}

/// Does `prog` still diverge between simulator and native under this
/// configuration? Used by the minimizer, whose candidates are not suite
/// cells: compile failures and simulator failures mean the candidate is
/// unusable (`None`), a native failure or mismatch is a divergence
/// (`Some(detail)`).
fn diverges(prog: &Program, strategy: Strategy, procs: usize, reps: u64) -> Option<String> {
    let compiled = Compiler::new(strategy).compile(prog).ok()?;
    let params = prog.default_params();
    let opts = rung_sim_options(compiled.rung, procs, params);
    let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).ok()?;
    let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts).ok()?;
    let e = native_leg(&sp, r.checksum.to_bits(), r.barriers, reps, None, &CancelToken::new(), "").err()?;
    Some(e.strip_prefix(NATIVE_DIVERGES).unwrap_or(&e).to_string())
}

/// Shrink a diverging program by structural removal: drop compute nests
/// one at a time (keeping a removal whenever the divergence persists),
/// then try dropping the time loop. Greedy to fixpoint; the result still
/// diverges and is usually a fraction of the original.
fn minimize(prog: &Program, strategy: Strategy, procs: usize, reps: u64) -> Program {
    let mut best = prog.clone();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while best.nests.len() > 1 && i < best.nests.len() {
            let mut cand = best.clone();
            cand.nests.remove(i);
            if diverges(&cand, strategy, procs, reps).is_some() {
                best = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if best.time.is_some() {
            let mut cand = best.clone();
            cand.time = None;
            if diverges(&cand, strategy, procs, reps).is_some() {
                best = cand;
                shrunk = true;
            }
        }
        if !shrunk {
            return best;
        }
    }
}

/// Dump a minimized repro of a divergence to
/// `<out_dir>/native_repro_<bench>_<strategy>_p<procs>.txt`.
fn dump_repro(
    out_dir: &Path,
    bench: &str,
    strategy: Strategy,
    procs: usize,
    reps: u64,
    detail: &str,
    prog: &Program,
) -> Option<String> {
    let minimized = minimize(prog, strategy, procs, reps);
    let residual = diverges(&minimized, strategy, procs, reps)
        .unwrap_or_else(|| "divergence did not reproduce on the minimized program".to_string());
    let body = format!(
        "native/simulator divergence repro\n\
         benchmark: {bench}\n\
         strategy:  {}\n\
         procs:     {procs}\n\
         stress:    {reps} jittered reps, seeds {JITTER_BASE:#x}+1..={JITTER_BASE:#x}+{reps}\n\
         original:  {detail}\n\
         minimized: {residual}\n\
         ({} of {} compute nests kept, time loop {})\n\n{}",
        strategy.label(),
        minimized.nests.len(),
        prog.nests.len(),
        if minimized.time.is_some() { "kept" } else { "dropped" },
        render_program(&minimized)
    );
    let path = out_dir.join(format!("native_repro_{bench}_{}_p{procs}.txt", strategy.label()));
    match atomic_write_sync(&path, body.as_bytes()) {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("[native: cannot write repro {}: {e}]", path.display());
            None
        }
    }
}

/// The `repro native` entry point: each benchmark of `cfg`'s suite in its
/// three strategy kinds at each of `procs_list`, labelled as Table 1
/// labels them, through the cell executor with a native leg of `reps`
/// jittered runs; then a minimized repro in `out_dir` for each divergence,
/// and the differential table.
pub fn native_sweep(
    cfg: &SweepConfig,
    procs_list: &[usize],
    reps: u64,
    out_dir: &Path,
    budget: ThreadBudget,
) -> (String, SweepReport) {
    let cfg = SweepConfig { native_reps: Some(reps), ..cfg.clone() };
    let suite = sweep_suite(&cfg);
    let mut tasks = Vec::new();
    for b in &suite {
        for kind in &KINDS[1..] {
            for &procs in procs_list {
                tasks.push(CellTask { prog: &b.program, bench: b.name, kind, procs, variant: Variant::Default });
            }
        }
    }
    let rep = run_cells(&cfg, &tasks, budget);
    let mut out = format!("Native backend vs simulator ({reps} jittered reps per cell)\n");
    out.push_str("program      strategy                     procs  barriers  verdict\n");
    for (t, c) in tasks.iter().zip(&rep.cells) {
        let strategy = kind_strategy(t.kind, t.procs).0;
        let (verdict, detail) = match c.cycles() {
            Ok(_) => ("bit-identical".to_string(), None),
            Err(reason) => match reason.strip_prefix(NATIVE_DIVERGES) {
                Some(detail) => {
                    let verdict = match dump_repro(out_dir, t.bench, strategy, t.procs, reps, detail, t.prog) {
                        Some(p) => format!("DIVERGED -> {p}"),
                        None => "DIVERGED (repro dump failed)".to_string(),
                    };
                    (verdict, Some(detail.to_string()))
                }
                None => (format!("FAILED: {reason}"), None),
            },
        };
        let barriers = c.barriers.map_or("-".to_string(), |b| b.to_string());
        out.push_str(&format!("{:<12} {:<28} {:>5} {barriers:>9}  {verdict}\n", t.bench, strategy.label(), t.procs));
        if let Some(detail) = detail {
            out.push_str(&format!("             ! {detail}\n"));
        }
    }
    let bad = rep.cells.iter().filter(|c| c.cycles().is_err()).count();
    out.push_str(&if bad == 0 {
        format!("native: all {} cells bit-identical to the simulator\n", rep.cells.len())
    } else {
        format!("native: {bad} of {} cells NOT identical\n", rep.cells.len())
    });
    (out, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::suite;

    #[test]
    fn native_check_runs_clean_on_the_suite() {
        let dir = std::env::temp_dir().join(format!("dct-native-check-{}", std::process::id()));
        let mut cfg = SweepConfig::plain(3, 0.05);
        cfg.only = Some(vec!["stencil".to_string()]);
        let (text, rep) = native_sweep(&cfg, &[3], 2, &dir, ThreadBudget::clamp(1));
        assert_eq!(rep.cells.len(), 3, "one cell per strategy");
        for c in &rep.cells {
            assert!(c.cycles().is_ok(), "{c:?}");
            assert!(c.barriers.is_some_and(|b| b > 0), "{c:?}");
        }
        assert!(text.contains("native: all 3 cells bit-identical to the simulator"), "{text}");
        assert!(!dir.exists(), "a clean check dumps no repro");
    }

    #[test]
    fn forged_served_cell_diverges_and_dumps_a_repro() {
        let dir = std::env::temp_dir().join(format!("dct-native-forged-{}", std::process::id()));
        let mut cfg = SweepConfig::plain(3, 0.05);
        cfg.only = Some(vec!["stencil".to_string()]);
        let store = crate::cache::ResultStore::open(dir.join("cache"), None).expect("store");
        cfg.cache = Some(Arc::new(store));
        let (_, cold) = native_sweep(&cfg, &[3], 0, &dir, ThreadBudget::clamp(1));
        let full = cold.cells.iter().find(|c| c.kind == "full").expect("full cell");
        let prog = &sweep_suite(&cfg)[0].program;
        let key = crate::cache::cell_cache_key("stencil", &cfg.key_inputs(prog, "full", 3)).expect("key");
        let forged = crate::sweep::Cell { checksum_bits: full.checksum_bits.map(|b| b ^ 1), ..full.clone() };
        cfg.cache.as_ref().expect("store").insert_cell(&key, &forged, None).expect("insert");

        let (text, rep) = native_sweep(&cfg, &[3], 0, &dir, ThreadBudget::clamp(1));
        assert_eq!((rep.executed, rep.cache_hits, rep.retries), (0, 3, 0), "{rep:?}");
        assert!(text.contains("! checksum diverges: native"), "{text}");
        assert!(text.contains("native: 1 of 3 cells NOT identical"), "{text}");
        let repro = dir.join("native_repro_stencil_comp decomp + data transform_p3.txt");
        assert!(text.contains(&format!("DIVERGED -> {}", repro.display())), "{text}");
        let body = std::fs::read_to_string(&repro).expect("repro dumped");
        assert!(body.starts_with("native/simulator divergence repro\nbenchmark: stencil\n"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimizer_needs_a_real_divergence_to_shrink() {
        // On an agreeing program the minimizer must keep everything (no
        // candidate "diverges", so nothing is removed).
        let b = suite(0.05).into_iter().find(|b| b.name == "stencil").unwrap();
        let m = minimize(&b.program, Strategy::Full, 3, 1);
        assert_eq!(m.nests.len(), b.program.nests.len());
        assert_eq!(m.time.is_some(), b.program.time.is_some());
    }
}

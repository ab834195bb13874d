//! Ablation experiments for the design choices DESIGN.md calls out:
//! address-calculation optimizations, barrier elision, folding-function
//! choice, grid rank, and cache-line size (false-sharing sensitivity).
//!
//! Every row is a cell on the one executor ([`run_cells`]): the plain
//! Table 1 cell the ablation departs from, or that cell under a
//! [`Variant`] that flips one design decision. So the rows get the
//! watchdog, the retry ladder, `--workers` and the store like any other
//! cell, and a baseline row is served by the Table 1 cell it shares.

use crate::harness::ThreadBudget;
use crate::programs;
use crate::sweep::{run_cells, Cell, CellTask, SweepConfig, SweepReport};
use dct_decomp::{Decomposition, Folding};
use dct_machine::MachineConfig;
use dct_spmd::SimOptions;

/// How a cell departs from a plain Table 1 cell: applied to the compiled
/// decomposition and the simulation options on every attempt, and hashed
/// into the cell's cache key (`Default` adds nothing to it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Default,
    NoAddrOpt,
    NoBarrierElision,
    /// Every processor dimension folded BLOCK.
    BlockFolding,
    /// The decomposition truncated to a 1-D processor grid.
    GridRank1,
    /// DASH with cache lines of this many bytes.
    LineBytes(usize),
}

impl Variant {
    /// The machine a cell of this variant runs on at `procs` processors.
    pub(crate) fn machine(self, procs: usize) -> MachineConfig {
        let dash = MachineConfig::dash(procs);
        match self {
            Variant::LineBytes(line_bytes) => MachineConfig { line_bytes, ..dash },
            _ => dash,
        }
    }

    /// Apply the departure to a compiled decomposition and the options it
    /// is simulated under.
    pub(crate) fn apply(self, dec: &mut Decomposition, opts: &mut SimOptions) {
        match self {
            Variant::Default => {}
            Variant::NoAddrOpt => opts.addr_opt = false,
            Variant::NoBarrierElision => opts.barrier_elision = false,
            Variant::BlockFolding => dec.foldings.fill(Folding::Block),
            Variant::GridRank1 => {
                dec.grid_rank = 1;
                dec.foldings.truncate(1);
                dec.comp.iter_mut().for_each(|c| c.rows.truncate(1));
                dec.data.iter_mut().for_each(|d| d.dists.retain(|ad| ad.proc_dim == 0));
            }
            Variant::LineBytes(_) => opts.machine = Some(self.machine(opts.procs)),
        }
    }

    /// The label a cell of `bench` under this variant is recorded under;
    /// a `Default` cell keeps the benchmark's, so it is Table 1's cell.
    pub(crate) fn label(self, bench: &str) -> String {
        match self {
            Variant::Default => bench.to_string(),
            Variant::NoAddrOpt => format!("{bench}.no-addr-opt"),
            Variant::NoBarrierElision => format!("{bench}.no-barrier-elision"),
            Variant::BlockFolding => format!("{bench}.block-folding"),
            Variant::GridRank1 => format!("{bench}.grid-rank1"),
            Variant::LineBytes(b) => format!("{bench}.line{b}"),
        }
    }
}

/// An ablation: its title, the benchmark and cell kind it varies, and each
/// row's label with the variant it runs.
type Spec = (&'static str, &'static str, &'static str, &'static [(&'static str, Variant)]);

/// The ablations, in DESIGN.md order. Section 4.3 calls the address
/// optimizations "important and effective" (without them every access to
/// a strip-mined array pays a divide and a modulo); the paper credits
/// barrier elision for vpenta's comp-decomp gain; CYCLIC keeps LU's
/// processors busy as the pivot advances; 2-D stencil blocks trade against
/// 1-D columns; longer lines widen the comp-decomp stencil's falsely shared
/// boundary (DASH's own line is 16 bytes, so that row is the plain cell).
const SPECS: [Spec; 5] = [
    ("addropt (vpenta, Section 4.3)", "vpenta", "full", &[
        ("address optimizations ON", Variant::Default),
        ("address optimizations OFF", Variant::NoAddrOpt),
    ]),
    ("barrier elision (vpenta)", "vpenta", "full", &[
        ("barrier elision ON", Variant::Default),
        ("barrier elision OFF", Variant::NoBarrierElision),
    ]),
    ("folding for LU (load balance)", "lu", "full", &[
        ("CYCLIC columns", Variant::Default),
        ("BLOCK columns", Variant::BlockFolding),
    ]),
    ("grid rank for stencil (comm/comp ratio)", "stencil", "full", &[
        ("2-D blocks", Variant::Default),
        ("1-D blocks", Variant::GridRank1),
    ]),
    ("cache-line size vs false sharing (stencil, comp-decomp)", "stencil", "comp", &[
        ("16-byte lines", Variant::Default),
        ("32-byte lines", Variant::LineBytes(32)),
        ("64-byte lines", Variant::LineBytes(64)),
        ("128-byte lines", Variant::LineBytes(128)),
    ]),
];

/// The distinct cells the ablations read, as `(benchmark, kind, variant)`
/// in first-use order.
pub(crate) fn ablation_cells() -> Vec<(&'static str, &'static str, Variant)> {
    let mut cells = Vec::new();
    for (_, bench, kind, rows) in SPECS {
        for &(_, v) in rows {
            if !cells.contains(&(bench, kind, v)) {
                cells.push((bench, kind, v));
            }
        }
    }
    cells
}

/// One ablation: a title and each row's cycles, or why the row has none.
#[derive(Clone, Debug)]
pub struct Ablation {
    pub name: String,
    pub variants: Vec<(String, Result<u64, String>)>,
}

impl Ablation {
    pub fn render(&self) -> String {
        let mut out = format!("# ablation: {}\n", self.name);
        let best = self.variants.iter().filter_map(|v| v.1.as_ref().ok()).copied().min().unwrap_or(1);
        for (label, cycles) in &self.variants {
            out.push_str(&match cycles {
                Ok(c) => format!("{label:<28} {c:>14} cycles  ({:.2}x of best)\n", *c as f64 / best as f64),
                Err(e) => format!("{label:<28} failed: {e}\n"),
            });
        }
        out
    }
}

/// Every ablation at `cfg.procs` processors and `cfg.scale`, from one
/// [`run_cells`] call over [`ablation_cells`] of the suite programs, and
/// the report of what the cells cost. The barrier-elision rows carry
/// their runs' barrier counts.
pub fn all_ablations(cfg: &SweepConfig, budget: ThreadBudget) -> (Vec<Ablation>, SweepReport) {
    let suite = programs::suite(cfg.scale);
    let cells = ablation_cells();
    let labels: Vec<String> = cells.iter().map(|&(bench, _, v)| v.label(bench)).collect();
    let tasks: Vec<CellTask> = cells
        .iter()
        .zip(&labels)
        .filter_map(|(&(bench, kind, variant), label)| {
            let prog = &suite.iter().find(|b| b.name == bench)?.program;
            Some(CellTask { prog, bench: label, kind, procs: cfg.procs, variant })
        })
        .collect();
    let rep = run_cells(cfg, &tasks, budget);
    let ablation = |(title, bench, kind, rows): Spec| {
        let barriers = rows.iter().any(|r| r.1 == Variant::NoBarrierElision);
        let row = |&(label, v): &(&str, Variant)| {
            let cell = rep.cells.iter().find(|c| c.bench == v.label(bench) && c.kind == kind);
            let label = match cell.and_then(|c| c.barriers) {
                Some(n) if barriers => format!("{label} ({n} barriers)"),
                _ => label.to_string(),
            };
            (label, cell.ok_or_else(|| "cell did not run".to_string()).and_then(Cell::cycles))
        };
        Ablation { name: title.to_string(), variants: rows.iter().map(row).collect() }
    };
    (SPECS.into_iter().map(ablation).collect(), rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dct_core::{Compiler, Strategy};

    /// Each ablation must point in the documented direction at a small
    /// scale, and the plain rows are the Table 1 cells at DASH's line.
    #[test]
    fn ablation_directions() {
        assert_eq!(MachineConfig::dash(8).line_bytes, 16, "the 16-byte row is the plain cell");
        let (abl, rep) = all_ablations(&SweepConfig::plain(8, 0.25), ThreadBudget::clamp(2));
        assert_eq!((rep.cells.len(), abl.len()), (11, 5));
        let cy = |a: &Ablation, k: usize| a.variants[k].1.clone().expect("ablation cell runs");
        assert!(cy(&abl[0], 0) < cy(&abl[0], 1), "addropt must help: {:?}", abl[0]);
        assert!(cy(&abl[1], 0) <= cy(&abl[1], 1), "elision must not hurt: {:?}", abl[1]);
        assert!(abl[1].variants[0].0.ends_with(" barriers)"), "{:?}", abl[1]);
        assert!(cy(&abl[2], 0) < cy(&abl[2], 1), "cyclic must beat block for LU: {:?}", abl[2]);
    }

    /// A row whose cell failed prints its reason; the others keep their
    /// ratio to the best completed row.
    #[test]
    fn failed_row_prints_its_reason() {
        let variants = vec![("ON".to_string(), Ok(100)), ("OFF".to_string(), Err("quarantined: boom".to_string()))];
        let text = Ablation { name: "t".into(), variants }.render();
        assert!(text.contains("(1.00x of best)"), "{text}");
        assert!(text.contains(&format!("{:<28} failed: quarantined: boom\n", "OFF")), "{text}");
    }

    #[test]
    fn linesize_sharing_bytes_grow() {
        // Wider lines widen the falsely-shared boundary: the *bytes*
        // invalidated must not shrink (event counts may, since one
        // invalidation now covers a wider line).
        let prog = programs::stencil(64, 2);
        let mut compiled = Compiler::new(Strategy::CompDecomp).compile(&prog).unwrap();
        let params = prog.default_params();
        let mut measured = Vec::new();
        for line in [16usize, 64] {
            let mut o = Compiler::new(Strategy::CompDecomp).sim_options(8, params.clone());
            Variant::LineBytes(line).apply(&mut compiled.decomposition, &mut o);
            let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &o).unwrap();
            let inv = r.stats.total().invalidations_received;
            assert!(inv > 0, "2-D blocks over FORTRAN layout must exhibit sharing");
            measured.push(inv * line as u64);
        }
        assert!(
            measured[1] >= measured[0],
            "invalidated bytes must not shrink with longer lines: {measured:?}"
        );
    }
}

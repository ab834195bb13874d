//! `golden.json`: the reference result of every timed cell, and the
//! hand-written anchors that keep the file honest.
//!
//! The file is regenerated only by the `golden` subcommand, and only
//! from the reference walk (`fast_path = false`, `seg_kernels = false`,
//! `threads = 1`); each entry is also proven element-wise bit-identical
//! to the sequential original program before it is written. A timed
//! cell must reproduce its entry's cycles, per-proc clocks digest and
//! checksum bits. Every entry carries the fingerprint of its source
//! program, so a benchmark program that changed since the file was
//! written is reported as a stale golden, not as a mismatch.

use dct_bench::sweep::{fnv64, json_str};
use dct_core::{rung_sim_options, Compiled, Compiler, Strategy};
use dct_ir::{program_fingerprint, Program};
use dct_spmd::{RunResult, SimOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `(benchmark, strategy, cycles)` at scale 0.25 on 8 processors: the
/// constants pinned by hand in `crates/bench/tests/golden_cycles.rs`.
/// Every sim workload re-derives them in set-up.
pub const ANCHOR_CYCLES: &[(&str, Strategy, u64)] = &[
    ("vpenta", Strategy::Base, 125222),
    ("vpenta", Strategy::CompDecomp, 47142),
    ("vpenta", Strategy::Full, 49410),
    ("lu", Strategy::Base, 1011609),
    ("lu", Strategy::CompDecomp, 326881),
    ("lu", Strategy::Full, 339608),
    ("stencil", Strategy::Base, 662094),
    ("stencil", Strategy::CompDecomp, 730068),
    ("stencil", Strategy::Full, 827860),
    ("adi", Strategy::Base, 571072),
    ("adi", Strategy::CompDecomp, 301544),
    ("adi", Strategy::Full, 301544),
    ("erlebacher", Strategy::Base, 188372),
    ("erlebacher", Strategy::CompDecomp, 333076),
    ("erlebacher", Strategy::Full, 286972),
    ("swm256", Strategy::Base, 796628),
    ("swm256", Strategy::CompDecomp, 874038),
    ("swm256", Strategy::Full, 1089526),
    ("tomcatv", Strategy::Base, 1131892),
    ("tomcatv", Strategy::CompDecomp, 716396),
    ("tomcatv", Strategy::Full, 752508),
];

/// The paper's Table 1 "Data Decompositions" column: strings the fully
/// optimising compiler must report for each benchmark.
pub const ANCHOR_DECOMPS: &[(&str, &[&str])] = &[
    ("vpenta", &["F(*, BLOCK, *)", "A(*, BLOCK)", "X(*, BLOCK)"]),
    ("lu", &["A(*, CYCLIC)"]),
    ("stencil", &["A(BLOCK, BLOCK)"]),
    ("adi", &["A(*, BLOCK)", "X(*, BLOCK)"]),
    ("erlebacher", &["DUX(*, *, BLOCK)", "DUY(*, *, BLOCK)", "DUZ(*, BLOCK, *)", "U(replicated)"]),
    ("swm256", &["P(BLOCK, BLOCK)"]),
    ("tomcatv", &["AA(BLOCK, *)", "X(BLOCK, *)"]),
];

pub const SUITE: [&str; 7] = ["vpenta", "lu", "stencil", "adi", "erlebacher", "swm256", "tomcatv"];

pub fn kind_of(s: Strategy) -> &'static str {
    match s {
        Strategy::Base => "base",
        Strategy::CompDecomp => "comp",
        Strategy::Full => "full",
    }
}

/// What a cell simulates: a suite benchmark or a figure program, under
/// one strategy, at one scale and processor count.
#[derive(Clone, Debug)]
pub struct CellKey {
    /// Suite benchmark name (`lu`) or figure id (`fig6b`).
    pub source: &'static str,
    pub strategy: Strategy,
    pub scale_milli: i64,
    pub procs: usize,
}

impl CellKey {
    pub fn id(&self) -> String {
        format!("{}.s{}.p{}", self.label(), self.scale_milli, self.procs)
    }

    /// `lu.full`: the name per-cell metrics use.
    pub fn label(&self) -> String {
        format!("{}.{}", self.source, kind_of(self.strategy))
    }

    pub fn program(&self) -> Program {
        let scale = self.scale_milli as f64 / 1000.0;
        if self.source.starts_with("fig") {
            return dct_bench::figure(self.source, scale).expect("known figure id").program;
        }
        dct_bench::programs::suite(scale)
            .into_iter()
            .find(|b| b.name == self.source)
            .expect("known suite benchmark")
            .program
    }
}

/// Compile without accepting a degraded rung: a benchmark cell that
/// falls down the ladder measures a different program.
pub fn compile_strict(prog: &Program, strategy: Strategy, what: &str) -> Result<Compiled, String> {
    let c = Compiler::new(strategy).compile(prog).map_err(|e| format!("{what}: {e}"))?;
    if !c.degradations.is_empty() {
        return Err(format!("{what}: degraded to {}", c.rung.label()));
    }
    Ok(c)
}

pub fn sim_options(c: &Compiled, prog: &Program, procs: usize) -> SimOptions {
    let mut o = rung_sim_options(c.rung, procs, prog.default_params());
    o.threads = 1;
    o
}

#[derive(Clone, Debug)]
pub struct GoldenCell {
    pub cycles: u64,
    pub clocks_digest: u64,
    pub checksum_bits: u64,
}

impl GoldenCell {
    pub fn of(r: &RunResult) -> GoldenCell {
        GoldenCell {
            cycles: r.cycles,
            clocks_digest: fnv64(
                &r.clocks.iter().flat_map(|c| c.to_le_bytes()).collect::<Vec<u8>>(),
            ),
            checksum_bits: r.checksum.to_bits(),
        }
    }

    /// Why `r` is not this cell, or `None` when it is.
    pub fn mismatch(&self, r: &RunResult) -> Option<String> {
        let got = GoldenCell::of(r);
        if r.timed_out || r.cancelled {
            Some("run was aborted".into())
        } else if got.cycles != self.cycles {
            Some(format!("cycles {} != golden {}", got.cycles, self.cycles))
        } else if got.clocks_digest != self.clocks_digest {
            Some("per-proc clocks differ from golden".into())
        } else if got.checksum_bits != self.checksum_bits {
            Some(format!(
                "checksum bits {:016x} != golden {:016x}",
                got.checksum_bits, self.checksum_bits
            ))
        } else {
            None
        }
    }
}

pub struct EmitGolden {
    pub bytes: u64,
    pub digest: u64,
}

pub struct Golden {
    cells: BTreeMap<String, (u128, GoldenCell)>,
    emit: BTreeMap<String, (u128, EmitGolden)>,
}

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

impl Golden {
    /// `golden` writes one flat, all-string object per line.
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(path()).map_err(|e| format!("read golden.json: {e}"))?;
        let mut g = Golden { cells: BTreeMap::new(), emit: BTreeMap::new() };
        for line in text.lines().filter(|l| l.starts_with("{\"id\":")) {
            let bad = || format!("golden.json: malformed entry {line}");
            let field = |key: &str| json_str(line, key).ok_or_else(bad);
            let h64 = |key: &str| u64::from_str_radix(&field(key)?, 16).map_err(|_| bad());
            let dec = |key: &str| field(key)?.parse::<u64>().map_err(|_| bad());
            let fp = u128::from_str_radix(&field("fingerprint")?, 16).map_err(|_| bad())?;
            if line.contains("\"cycles\":") {
                let cell = GoldenCell {
                    cycles: dec("cycles")?,
                    clocks_digest: h64("clocks_digest")?,
                    checksum_bits: h64("checksum_bits")?,
                };
                g.cells.insert(field("id")?, (fp, cell));
            } else {
                let emit = EmitGolden { bytes: dec("bytes")?, digest: h64("digest")? };
                g.emit.insert(field("id")?, (fp, emit));
            }
        }
        Ok(g)
    }

    fn fresh<'a, T>(
        map: &'a BTreeMap<String, (u128, T)>,
        id: &str,
        prog: &Program,
    ) -> Result<&'a T, String> {
        let (fp, entry) = map.get(id).ok_or_else(|| {
            format!("golden.json has no entry {id}: regenerate with `benchmark/run.sh golden`")
        })?;
        if *fp != program_fingerprint(prog) {
            return Err(format!(
                "golden.json is STALE for {id}: the benchmark program changed since it was written; \
                 regenerate with `benchmark/run.sh golden`"
            ));
        }
        Ok(entry)
    }

    pub fn cell(&self, key: &CellKey, prog: &Program) -> Result<GoldenCell, String> {
        Golden::fresh(&self.cells, &key.id(), prog).cloned()
    }

    pub fn emit(&self, label: &str, prog: &Program) -> Result<&EmitGolden, String> {
        Golden::fresh(&self.emit, label, prog)
    }
}

/// Re-derive the 21 hand-pinned cycle counts. Part of every sim
/// workload's set-up: a golden file regenerated from a broken reference
/// walk cannot get past these constants.
pub fn check_cycle_anchors() -> Result<(), String> {
    for b in dct_bench::programs::suite(0.25) {
        for &(_, strategy, want) in ANCHOR_CYCLES.iter().filter(|(n, _, _)| *n == b.name) {
            let what = format!("anchor {}.{}", b.name, kind_of(strategy));
            let c = compile_strict(&b.program, strategy, &what)?;
            let r =
                dct_spmd::simulate(&c.program, &c.decomposition, &sim_options(&c, &b.program, 8))
                    .map_err(|e| format!("{what}: {e}"))?;
            if r.cycles != want {
                return Err(format!("{what}: cycles {} != hand-pinned {want}", r.cycles));
            }
        }
    }
    Ok(())
}

/// Every cell any workload or probe times.
pub fn all_keys() -> Vec<CellKey> {
    let mut keys = Vec::new();
    for scale_milli in [1000, 500, 250] {
        for source in SUITE {
            for strategy in Strategy::ALL {
                keys.push(CellKey { source, strategy, scale_milli, procs: 32 });
            }
        }
    }
    for scale_milli in [500, 250] {
        for source in ["fig6b", "fig10b"] {
            keys.push(CellKey { source, strategy: Strategy::Full, scale_milli, procs: 32 });
        }
    }
    keys
}

fn reference_walk(o: &mut SimOptions) {
    o.fast_path = false;
    o.seg_kernels = false;
    o.threads = 1;
}

/// The `golden` subcommand: rebuild `golden.json` from the reference
/// walk and the sequential original program.
pub fn generate() -> Result<(), String> {
    check_cycle_anchors()?;
    let bits = |vals: &[Vec<f64>]| -> Vec<Vec<u64>> {
        vals.iter().map(|a| a.iter().map(|v| v.to_bits()).collect()).collect()
    };
    // Sequential values per (source, scale), computed once.
    let mut seq: BTreeMap<(String, i64), Vec<Vec<u64>>> = BTreeMap::new();
    let mut cells = Vec::new();
    for key in all_keys() {
        let prog = key.program();
        let id = key.id();
        let seq_key = (key.source.to_string(), key.scale_milli);
        if let std::collections::btree_map::Entry::Vacant(slot) = seq.entry(seq_key.clone()) {
            let c = compile_strict(&prog, Strategy::Base, &format!("{id} (sequential)"))?;
            let mut o = sim_options(&c, &prog, 1);
            reference_walk(&mut o);
            let (_, vals) = dct_spmd::simulate_with_values(&c.program, &c.decomposition, &o)
                .map_err(|e| format!("{id} (sequential): {e}"))?;
            slot.insert(bits(&vals));
        }
        let c = compile_strict(&prog, key.strategy, &id)?;
        let mut o = sim_options(&c, &prog, key.procs);
        reference_walk(&mut o);
        let (r, vals) = dct_spmd::simulate_with_values(&c.program, &c.decomposition, &o)
            .map_err(|e| format!("{id}: {e}"))?;
        if bits(&vals) != seq[&seq_key] {
            return Err(format!("{id}: values differ from the sequential original program"));
        }
        let g = GoldenCell::of(&r);
        eprintln!("golden {id}: {} cycles", g.cycles);
        cells.push(format!(
            "{{\"id\":\"{id}\",\"fingerprint\":\"{:032x}\",\"cycles\":\"{}\",\"clocks_digest\":\"{:016x}\",\"checksum_bits\":\"{:016x}\"}}",
            program_fingerprint(&prog),
            g.cycles,
            g.clocks_digest,
            g.checksum_bits
        ));
    }
    let mut emit = Vec::new();
    for source in SUITE {
        for strategy in Strategy::ALL {
            let key = CellKey { source, strategy, scale_milli: 1000, procs: 32 };
            let prog = key.program();
            let c = compile_strict(&prog, strategy, &key.label())?;
            let sp = dct_spmd::lower(&c.program, &c.decomposition, &sim_options(&c, &prog, 32))
                .map_err(|e| format!("{}: {e}", key.label()))?;
            let text = dct_spmd::emit_c(&c.program, &sp);
            emit.push(format!(
                "{{\"id\":\"{}\",\"fingerprint\":\"{:032x}\",\"bytes\":\"{}\",\"digest\":\"{:016x}\"}}",
                key.label(),
                program_fingerprint(&prog),
                text.len(),
                fnv64(text.as_bytes())
            ));
        }
    }
    let doc = format!(
        "{{\"schema\":1,\n\"source\":\"reference walk (fast_path=false, seg_kernels=false, threads=1); values proven equal to the sequential program\",\n\"cells\":[\n{}\n],\n\"emit_c\":[\n{}\n]}}\n",
        cells.join(",\n"),
        emit.join(",\n")
    );
    std::fs::write(path(), doc).map_err(|e| format!("write golden.json: {e}"))?;
    eprintln!("wrote {}", path().display());
    Ok(())
}

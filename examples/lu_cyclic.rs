//! LU decomposition and the cyclic-column conflict pathology (Figure 6).
//!
//! ```text
//! cargo run --release --example lu_cyclic
//! ```
//!
//! With cyclic columns and the original FORTRAN layout, a processor's
//! columns are spread N*8 bytes apart; when the array size and processor
//! count are both powers of two, all of a processor's columns collide in
//! the direct-mapped cache. The paper's headline observation — 31
//! processors much faster than 32 — falls out of the simulation, and the
//! data transformation (packing each processor's columns contiguously)
//! removes it.

use dct_bench::programs;
use dct_core::{sequential_cycles, Compiler, Strategy};

fn main() {
    let n = 256;
    let prog = programs::lu(n);
    let params = prog.default_params();
    let seq = sequential_cycles(&prog, &params).unwrap();
    println!("LU {n}x{n}: sequential = {seq} cycles\n");

    println!("procs   comp-decomp(speedup, L1-miss%)   +data-transform(speedup, L1-miss%)");
    for procs in [8usize, 16, 24, 31, 32] {
        let mut row = format!("{procs:5}");
        for strategy in [Strategy::CompDecomp, Strategy::Full] {
            let c = Compiler::new(strategy);
            let cc = c.compile(&prog).unwrap();
            let r = c.simulate(&cc, procs, &params).unwrap();
            let t = r.stats.total();
            let miss = 100.0 * (1.0 - t.l1_hits as f64 / t.accesses as f64);
            row.push_str(&format!(
                "        {:6.2}x  {:5.1}%       ",
                seq as f64 / r.cycles as f64,
                miss
            ));
        }
        println!("{row}");
    }

    // The 4-C classification makes the diagnosis precise: at 32 procs the
    // misses of the untransformed cyclic layout are overwhelmingly
    // *conflict* misses.
    println!("
4-C miss classification at 32 processors (memory-level misses):");
    for strategy in [Strategy::CompDecomp, Strategy::Full] {
        let c = Compiler::new(strategy);
        let cc = c.compile(&prog).unwrap();
        let mut opts = c.sim_options(32, params.clone());
        opts.profile = true;
        let r = dct_core::spmd::simulate(&cc.program, &cc.decomposition, &opts).unwrap();
        // The profiler classifies per (nest, array, processor); the
        // program-wide picture is the sum over its rows.
        let rows = &r.mem_profile.as_ref().unwrap().rows;
        let total = |f: fn(&dct_core::ir::MemRow) -> u64| rows.iter().map(f).sum::<u64>();
        println!(
            "{:28} cold {:>8}  coherence {:>8}  conflict {:>9}  capacity {:>8}",
            strategy.label(),
            total(|r| r.cold),
            total(|r| r.coherence()),
            total(|r| r.conflict),
            total(|r| r.capacity)
        );
    }

    println!("\nThe report shows why: the compiler chose CYCLIC columns for load");
    println!("balance (work on column j only exists while j > pivot):\n");
    let compiled = Compiler::new(Strategy::Full).compile(&prog).unwrap();
    println!("{}", dct_core::render_report(&compiled));
}

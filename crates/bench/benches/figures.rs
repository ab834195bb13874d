//! One Criterion bench per paper figure/table: the full compile+simulate
//! pipeline at a small scale (P = 8), tracking end-to-end regression of
//! the exact code paths each experiment exercises.

use criterion::{criterion_group, criterion_main, Criterion};
use dct_bench::programs;
use dct_core::{Compiler, Strategy};
use dct_ir::Program;

fn bench_figure(c: &mut Criterion, id: &str, prog: Program) {
    let compiler = Compiler::new(Strategy::Full);
    let compiled = compiler.compile(&prog).unwrap();
    let params = prog.default_params();
    c.bench_function(id, |b| {
        b.iter(|| {
            let r = compiler.simulate(&compiled, 8, &params).expect("simulate");
            std::hint::black_box(r.cycles)
        })
    });
}

fn figures(c: &mut Criterion) {
    bench_figure(c, "fig4_vpenta", programs::vpenta(48, 3));
    bench_figure(c, "fig6_lu", programs::lu(48));
    bench_figure(c, "fig8_stencil", programs::stencil(64, 2));
    bench_figure(c, "fig10_adi", programs::adi(64, 2));
    bench_figure(c, "fig11_erlebacher", programs::erlebacher(24));
    bench_figure(c, "fig12_swm256", programs::swm256(65, 2));
    bench_figure(c, "fig13_tomcatv", programs::tomcatv(65, 2));
}

/// Table 1 is the whole suite under all three strategies.
fn table1(c: &mut Criterion) {
    c.bench_function("table1_summary", |b| {
        b.iter(|| {
            let rows = dct_bench::table1_parallel(4, 0.08, dct_bench::ThreadBudget::clamp(1));
            std::hint::black_box(rows.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = figures, table1
}
criterion_main!(benches);

//! What the observers of one simulation cost the host: the bytes the
//! memory profiler and the race detector allocate, the wall time, and the
//! process's peak and current resident set after each of several runs of
//! one cell.
//!
//! ```text
//! cargo run --release --example observer_footprint -- [bench] [strategy] [runs] [observers] [scale]
//! ```
//!
//! Defaults: `erlebacher full 3 profile 1.0` (paper scale) on 32
//! processors; `observers` is `profile`, `race`, `both` or `none`. Repeated runs in one
//! process show whether a later run reuses what an earlier one freed
//! (`repro serve` and `repro explain` run many cells in one process).
//! Resident sizes and CPU time are read from `/proc`, so they print as
//! `?` where it does not exist.

use dct_bench::programs;
use dct_core::{Compiler, Strategy};

/// `VmHWM` and `VmRSS` of this process in MB, when the OS reports them.
fn resident_mb() -> (Option<f64>, Option<f64>) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb / 1000.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Seconds this thread has run on a CPU (`/proc/thread-self/schedstat`),
/// which time spent waiting for a CPU does not inflate.
fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(stat.split_whitespace().next()?.parse::<f64>().ok()? / 1e9)
}

fn show(mb: Option<f64>) -> String {
    mb.map_or("?".to_string(), |v| format!("{v:.1}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).cloned().unwrap_or_else(|| default.to_string());
    let bench = arg(0, "erlebacher");
    let strategy = match arg(1, "full").as_str() {
        "base" => Strategy::Base,
        "comp-decomp" => Strategy::CompDecomp,
        _ => Strategy::Full,
    };
    let runs: usize = arg(2, "3").parse().unwrap_or(3);
    let observers = arg(3, "profile");
    let scale: f64 = arg(4, "1.0").parse().unwrap_or(1.0);
    let procs = 32;

    let Some(b) = programs::suite(scale).into_iter().find(|b| b.name == bench) else {
        eprintln!("{bench}: not a suite benchmark");
        std::process::exit(2);
    };
    let c = Compiler::new(strategy);
    let compiled = c.compile(&b.program).expect("suite programs compile");
    let mut opts = c.sim_options(procs, b.program.default_params());
    opts.profile = matches!(observers.as_str(), "profile" | "both");
    opts.race_detect = matches!(observers.as_str(), "race" | "both");
    println!("{bench}/{} P={procs} observers={observers}", strategy.label());
    println!("run  cycles      wall_s  cpu_s   profiler_table_bytes  race_shadow_bytes  VmHWM_MB  VmRSS_MB");
    for run in 1..=runs {
        let (start, cpu0) = (std::time::Instant::now(), cpu_s());
        let r = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).expect("simulate");
        let wall = start.elapsed().as_secs_f64();
        let cpu = cpu_s().zip(cpu0).map_or("?".to_string(), |(b, a)| format!("{:.3}", b - a));
        let (hwm, rss) = resident_mb();
        println!(
            "{run:<4} {:<11} {wall:<7.3} {cpu:<7} {:<21} {:<18} {:<9} {}",
            r.cycles,
            r.fast.profiler_table_bytes,
            r.fast.race_shadow_bytes,
            show(hwm),
            show(rss)
        );
    }
}

//! The repository's benchmark: six named workloads timed from outside
//! the program, end-to-end metrics from untraced runs, per-layer metrics
//! from a separate traced run. README.md has the definitions.
//!
//! ```text
//! dct-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! dct-benchmark run|trace|selfcheck [--seed N] [--seconds S] [--quick]
//! dct-benchmark golden | manifest
//! ```
//!
//! The first form is one run of one workload in this process: `#`
//! comment lines, one `name value unit` line per metric, and as the last
//! line the result as one JSON object for the driver. `run`, `trace` and
//! `selfcheck` start one fresh child process of the first form per
//! workload and run, and read its metric lines.

mod compile;
mod golden;
mod harness;
mod measure;
mod metrics;
mod micro;
mod serve;
mod sim;
mod trace;

use harness::{Cfg, Report};
use measure::{median, quantile};
use metrics::{alias, bound, per_layer, END_TO_END, RUN_SECONDS, SERVE_ONLY, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `[profile.release]` table of a manifest, one `key=value` per
/// setting, comments and blanks dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
        .filter(|l| !l.is_empty())
        .collect()
}

/// Without the root's fat LTO the simulator does not inline across its
/// three crates, and every number would measure a different program.
fn check_profile() -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()));
    let mine = release_profile(&read(manifest_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(manifest_dir().join("../Cargo.toml"))?);
    if mine != root || mine.is_empty() {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {mine:?} has drifted from the root's {root:?}"
        ));
    }
    Ok(())
}

/// `selfcheck` gates on bounds that only this program holds; they mean
/// nothing if the names in the file the driver reads have drifted.
fn check_manifest() -> Result<(), String> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let file =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if file != metrics::manifest() {
        return Err("BENCHMARK.json differs from `benchmark/run.sh manifest`: regenerate it".into());
    }
    Ok(())
}

/// Runs per workload in each of the two sets of `selfcheck`.
const SELFCHECK_RUNS: u64 = 3;

struct Args {
    flags: BTreeMap<String, String>,
    quick: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args { flags: BTreeMap::new(), quick: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => a.quick = true,
                "--workload" | "--seed" | "--seconds" | "--trace" => {
                    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    a.flags.insert(flag[2..].to_string(), v.clone());
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(a)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }
}

// ------------------------------------------------------------ one run --

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// One end-to-end metric of a finished untraced run.
fn end_to_end(r: &Report, name: &str) -> f64 {
    match name {
        "pass_s" => median(&r.pass_s),
        "work_per_s" => r.work / r.pass_s.iter().sum::<f64>(),
        "op_p50_ms" => median(&r.op_ms),
        "peak_rss_mb" => measure::peak_rss_mb(),
        "setup_s" => median(&r.setup_s),
        "job_warm_p95_ms" => quantile(&r.op_ms, 0.95),
        "job_cold_p50_ms" => median(&r.cold_ms),
        other => unreachable!("end-to-end metric {other} has no definition"),
    }
}

fn run_one(a: &Args) -> Result<ExitCode, String> {
    let cfg = Cfg {
        workload: a.flags.get("workload").cloned().ok_or("--workload is required")?,
        seed: a.num("seed", 1)?,
        seconds: a.num("seconds", RUN_SECONDS as f64)?,
        trace: a.num::<u8>("trace", 0)? != 0,
        quick: a.quick,
    };
    let setup: harness::Setup = match cfg.workload.as_str() {
        "sim_hits" | "sim_misses" | "sim_observed" | "sim_sharded_2t" => &sim::setup,
        "compile_suite" => &compile::setup,
        "serve_mixed" => &serve::setup,
        other => return Err(format!("unknown workload {other}")),
    };
    println!(
        "# {} seed {} trace {} | nproc {} loadavg {:.2}{}",
        cfg.workload,
        cfg.seed,
        cfg.trace as u8,
        dct_spmd::default_threads(),
        measure::loadavg(),
        if cfg.quick { " | QUICK: numbers are not comparable with anything" } else { "" }
    );
    let tracer = trace::Tracer::new();
    let report = harness::drive(&cfg, setup, &tracer)?;
    for why in &report.failures {
        println!("# FAILED: {why}");
    }

    let metrics: Vec<(String, f64, &str)> = if cfg.trace {
        let out = manifest_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let path = out.join(format!("trace-{}.json", cfg.workload));
        std::fs::write(&path, tracer.to_json(&cfg.workload, cfg.seed))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# {} spans written to {}", tracer.span_count(), path.display());
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = report.layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        println!(
            "# samples: {} passes, {} ops, {} set-ups",
            report.pass_s.len(),
            report.op_ms.len(),
            report.setup_s.len()
        );
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), end_to_end(&report, m.name), m.unit))
            .collect()
    };
    let line = |name: &str, v: f64, unit: &str, note: &str| {
        println!("{name:<32} {v:>16.6} {unit:<6} {note}");
    };
    for (name, v, unit) in &metrics {
        // A traced run tells the driver 0 for the layers of other
        // workloads; here only the workload's own are listed, zeros too.
        if !cfg.trace || report.layers.contains_key(name) {
            line(name, *v, unit, alias(&cfg.workload, name));
        }
    }
    if !cfg.trace && cfg.workload == "serve_mixed" {
        for (name, unit) in SERVE_ONLY {
            line(name, end_to_end(&report, name), unit, "");
        }
    }
    let attempted = report.attempted.max(1);
    line(
        "failed_frac",
        report.failed as f64 / attempted as f64,
        "ratio",
        &format!("({} of {attempted})", report.failed),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.failed,
        body.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------- run, trace and selfcheck --

/// One workload run in a fresh child process. Its output passes
/// through, except the driver's result line; its metric lines come back
/// by name.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let mut metrics = BTreeMap::new();
    for l in String::from_utf8_lossy(&out.stdout).lines().filter(|l| !l.starts_with('{')) {
        println!("  {l}");
        let mut words = l.split_whitespace().take_while(|_| !l.starts_with('#'));
        if let (Some(name), Some(Ok(v))) = (words.next(), words.next().map(str::parse)) {
            metrics.insert(name.to_string(), v);
        }
    }
    if !metrics.contains_key("failed_frac") {
        return Err(format!("{workload}: child printed no result"));
    }
    Ok(metrics)
}

fn run_all(a: &Args, trace: bool) -> Result<ExitCode, String> {
    let (seed, seconds) = (a.num("seed", 1u64)?, a.num("seconds", RUN_SECONDS as f64)?);
    let mut ok = true;
    let mut merged = Vec::new();
    for (workload, _) in WORKLOADS {
        println!("== {workload}");
        ok &= child(workload, seed, seconds, trace, a.quick)?["failed_frac"] == 0.0;
        if trace {
            let path = manifest_dir().join("out").join(format!("trace-{workload}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            merged.push(format!("\"{workload}\":{}", text.trim_end()));
        }
    }
    if trace {
        let path = manifest_dir().join("out/trace.json");
        std::fs::write(&path, format!("{{{}}}\n", merged.join(",\n")))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace of all workloads written to {}", path.display());
    }
    if a.quick {
        println!("QUICK mode: the numbers above are not comparable with anything");
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Two sets of end-to-end runs on this build; their medians must agree
/// within the bound of each metric on each workload.
fn selfcheck(a: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (a.num("seed", 1u64)?, a.num("seconds", RUN_SECONDS as f64)?);
    // Keyed by position in `WORKLOADS`, so that the table keeps its order.
    let mut sets: [BTreeMap<(usize, String), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    for (k, set) in sets.iter_mut().enumerate() {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            for run in 0..SELFCHECK_RUNS {
                println!("== set {} {workload} seed {}", k + 1, seed + run);
                let mut metrics = child(workload, seed + run, seconds, false, a.quick)?;
                ok &= metrics.remove("failed_frac") == Some(0.0);
                for (name, v) in metrics {
                    set.entry((w, name)).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<15} {:<16} {:>30} {:>30} {:>8} {:>6}",
        "workload", "metric", "set 1 q1/median/q3", "set 2 q1/median/q3", "diff", "bound"
    );
    for ((w, name), first) in &sets[0] {
        let workload = WORKLOADS[*w].0;
        let q = |v: &[f64]| (quantile(v, 0.25), median(v), quantile(v, 0.75));
        let (a1, b1) = (q(first), q(&sets[1][&(*w, name.clone())]));
        let (diff, bound) = ((b1.1 - a1.1).abs() / a1.1, bound(name, workload));
        let verdict = if diff > bound { "FAIL" } else { "" };
        ok &= diff <= bound;
        println!(
            "{workload:<15} {name:<16} {:>9.4}/{:>9.4}/{:>9.4} {:>9.4}/{:>9.4}/{:>9.4} {:>7.1}% {:>5.0}% {verdict}",
            a1.0, a1.1, a1.2, b1.0, b1.1, b1.2, diff * 100.0, bound * 100.0
        );
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = check_profile().and_then(|()| {
        let (sub, rest) = match args.first().map(String::as_str) {
            Some(s) if !s.starts_with("--") => (s, &args[1..]),
            _ => ("", &args[..]),
        };
        let a = Args::parse(rest)?;
        if sub != "manifest" {
            check_manifest()?;
        }
        match sub {
            "" => run_one(&a),
            "run" => run_all(&a, false),
            "trace" => run_all(&a, true),
            "selfcheck" => selfcheck(&a),
            "golden" => golden::generate().map(|()| ExitCode::SUCCESS),
            "manifest" => {
                print!("{}", metrics::manifest());
                Ok(ExitCode::SUCCESS)
            }
            other => Err(format!("unknown subcommand {other}")),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("dct-benchmark: {e}");
        ExitCode::FAILURE
    })
}

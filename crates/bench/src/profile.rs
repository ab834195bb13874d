//! Simulator throughput profiling: wall time, simulated accesses per
//! second and fast-path hit ratios per figure benchmark, emitted as
//! `BENCH_sim_throughput.json` by `repro --profile`.

use crate::harness::{figure, FigureSpec, ALL_FIGURES};
use dct_core::{Compiler, Strategy};
use std::time::Instant;

/// Throughput measurement of one (figure, strategy) simulation.
#[derive(Clone, Debug)]
pub struct StrategyProfile {
    pub strategy: &'static str,
    /// Wall time of the plain (no observers) run.
    pub wall_secs: f64,
    /// Simulated memory accesses performed by the run.
    pub accesses: u64,
    /// Simulated accesses per wall-clock second — the simulator's
    /// headline throughput number.
    pub accesses_per_sec: f64,
    /// Sync-free regions (nest executions) the run walked.
    pub seq_regions: u64,
    /// Fraction of innermost iterations executed through the strided
    /// segment engine (executor fast path).
    pub exec_fast_ratio: f64,
    /// Mean iterations per cursor segment (how long the strided engine
    /// runs between re-probes).
    pub avg_segment_len: f64,
    /// Fraction of accesses absorbed by the machine's one-entry
    /// last-line cache (subset of L1 hits).
    pub l1_fast_hit_ratio: f64,
    /// Fraction of innermost iterations executed through fused segment
    /// kernels (subset of `exec_fast_ratio`'s iterations).
    pub kernelized_ratio: f64,
    /// Kernel-shape histogram: iterations executed per recognized shape,
    /// labels from [`dct_spmd::kernel::SHAPE_NAMES`].
    pub kernel_shapes: [u64; 6],
    /// Time steps the plain run replayed instead of simulating, and why it
    /// could or could not ([`dct_spmd::MemoOutcome`]).
    pub replayed_steps: u64,
    pub memo: dct_spmd::MemoOutcome,
    /// The plain run's walk counters, for the host-side reason counts:
    /// cursor bumps and why the other segments re-resolved.
    pub fast: dct_spmd::exec::FastPathStats,
    /// Wall time of the same simulation with the memory profiler
    /// attached (`SimOptions::profile`).
    pub profiled_wall_secs: f64,
    /// Profiler overhead: profiled wall time over plain wall time. The
    /// profiler is a pure observer, so simulated cycles are identical —
    /// only host time grows. Both legs replay the same repeating time
    /// steps, so the ratio compares the steps both simulate.
    pub profile_overhead: f64,
    /// The profiled run's walk counters, for what its observer allocated.
    pub profiled_fast: dct_spmd::exec::FastPathStats,
    /// Wall time of the same cell executed for real on the native
    /// threaded backend (one OS thread per simulated processor); its
    /// checksum is asserted bit-identical to the simulator's.
    pub native_wall_secs: f64,
}

/// All strategies of one figure at one processor count.
#[derive(Clone, Debug)]
pub struct FigureProfile {
    pub id: String,
    pub benchmark: String,
    pub size_label: String,
    pub procs: usize,
    pub strategies: Vec<StrategyProfile>,
}

/// Profile one figure: each compiler strategy simulated at `procs`
/// simulated processors, plain, with the profiler attached, and on the
/// native backend.
pub fn profile_figure(spec: &FigureSpec, procs: usize) -> FigureProfile {
    let params = spec.program.default_params();
    let strategies = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let c = Compiler::new(strategy);
            let compiled = c.compile(&spec.program).unwrap();
            let t0 = Instant::now();
            let r = c.simulate(&compiled, procs, &params).unwrap();
            let wall = t0.elapsed().as_secs_f64();
            // Same cell with the profiler attached: overhead is the wall
            // ratio (cycles are identical by construction; the golden
            // tests pin that, here we only measure host cost).
            let mut opts = dct_core::rung_sim_options(compiled.rung, procs, params.clone());
            opts.profile = true;
            let t1 = Instant::now();
            let rp = dct_spmd::simulate(&compiled.program, &compiled.decomposition, &opts).unwrap();
            let profiled_wall = t1.elapsed().as_secs_f64();
            assert_eq!(r.cycles, rp.cycles, "profiler must not perturb cycles");
            assert_eq!(
                (r.fast.memo, r.fast.replayed_steps),
                (rp.fast.memo, rp.fast.replayed_steps),
                "a profiled run replays what the plain run replays"
            );
            // The same cell executed for real: the native backend's wall
            // clock joins the profile, and its checksum must land on the
            // simulator's bits (the differential contract, re-asserted on
            // every profiling run).
            let nopts = dct_core::rung_sim_options(compiled.rung, procs, params.clone());
            let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &nopts).unwrap();
            let tn = Instant::now();
            let nr = dct_native::execute(&sp, &dct_native::NativeOptions::default()).unwrap();
            let native_wall = tn.elapsed().as_secs_f64();
            assert_eq!(
                r.checksum.to_bits(),
                nr.checksum.to_bits(),
                "native backend must match the simulated checksum"
            );
            let accesses = r.stats.total().accesses;
            let iters = r.fast.fast_iters + r.fast.slow_iters;
            StrategyProfile {
                strategy: strategy.label(),
                wall_secs: wall,
                accesses,
                accesses_per_sec: if wall > 0.0 { accesses as f64 / wall } else { 0.0 },
                seq_regions: r.seq_regions,
                exec_fast_ratio: if iters > 0 { r.fast.fast_iters as f64 / iters as f64 } else { 0.0 },
                avg_segment_len: if r.fast.segments > 0 {
                    r.fast.fast_iters as f64 / r.fast.segments as f64
                } else {
                    0.0
                },
                l1_fast_hit_ratio: if accesses > 0 {
                    r.stats.total().l1_fast_hits as f64 / accesses as f64
                } else {
                    0.0
                },
                kernelized_ratio: r.fast.kernelized_ratio(),
                kernel_shapes: r.fast.kernel_shapes,
                replayed_steps: r.fast.replayed_steps,
                memo: r.fast.memo,
                fast: r.fast,
                profiled_wall_secs: profiled_wall,
                profile_overhead: if wall > 0.0 { profiled_wall / wall } else { 0.0 },
                profiled_fast: rp.fast,
                native_wall_secs: native_wall,
            }
        })
        .collect();
    FigureProfile {
        id: spec.id.to_string(),
        benchmark: spec.benchmark.to_string(),
        size_label: spec.size_label.clone(),
        procs,
        strategies,
    }
}

/// Profile every figure (or the named subset) at `procs` and `scale`.
pub fn profile_all(ids: &[String], procs: usize, scale: f64) -> Vec<FigureProfile> {
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_FIGURES.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };
    let specs: Vec<FigureSpec> = ids.iter().filter_map(|id| figure(id, scale)).collect();
    // One untimed simulation first, so that the first timed leg does not
    // pay the process's cold start (page faults, lazy set-up) and read
    // slower than its own profiled leg. A failure here fails the timed leg
    // too, where it is reported.
    if let Some(spec) = specs.first() {
        let c = Compiler::new(Strategy::ALL[0]);
        if let Ok(compiled) = c.compile(&spec.program) {
            let _ = c.simulate(&compiled, procs, &spec.program.default_params());
        }
    }
    specs.iter().map(|spec| profile_figure(spec, procs)).collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the profiles as a JSON document (no external dependencies, so
/// the encoding is hand-rolled; all fields are numbers or plain strings).
pub fn render_json(profiles: &[FigureProfile], total_wall_secs: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"total_wall_secs\": {total_wall_secs:.3},\n"));
    let total_acc: u64 =
        profiles.iter().flat_map(|p| &p.strategies).map(|s| s.accesses).sum();
    let total_time: f64 =
        profiles.iter().flat_map(|p| &p.strategies).map(|s| s.wall_secs).sum();
    out.push_str(&format!("  \"total_sim_accesses\": {total_acc},\n"));
    out.push_str(&format!(
        "  \"aggregate_accesses_per_sec\": {:.0},\n",
        if total_time > 0.0 { total_acc as f64 / total_time } else { 0.0 }
    ));
    out.push_str("  \"figures\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", json_escape(&p.id)));
        out.push_str(&format!("      \"benchmark\": \"{}\",\n", json_escape(&p.benchmark)));
        out.push_str(&format!("      \"size\": \"{}\",\n", json_escape(&p.size_label)));
        out.push_str(&format!("      \"procs\": {},\n", p.procs));
        out.push_str("      \"strategies\": [\n");
        for (j, s) in p.strategies.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!("          \"strategy\": \"{}\",\n", json_escape(s.strategy)));
            out.push_str(&format!("          \"wall_secs\": {:.4},\n", s.wall_secs));
            out.push_str(&format!("          \"sim_accesses\": {},\n", s.accesses));
            out.push_str(&format!("          \"accesses_per_sec\": {:.0},\n", s.accesses_per_sec));
            out.push_str(&format!("          \"seq_regions\": {},\n", s.seq_regions));
            out.push_str(&format!("          \"exec_fast_ratio\": {:.4},\n", s.exec_fast_ratio));
            out.push_str(&format!("          \"avg_segment_len\": {:.1},\n", s.avg_segment_len));
            out.push_str(&format!("          \"l1_fast_hit_ratio\": {:.4},\n", s.l1_fast_hit_ratio));
            out.push_str(&format!("          \"kernelized_ratio\": {:.4},\n", s.kernelized_ratio));
            out.push_str("          \"kernel_shapes\": {");
            let mut first = true;
            for (name, &n) in dct_spmd::kernel::SHAPE_NAMES.iter().zip(&s.kernel_shapes) {
                if n > 0 {
                    if !first {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{name}\": {n}"));
                    first = false;
                }
            }
            out.push_str("},\n");
            out.push_str(&format!("          \"replayed_steps\": {},\n", s.replayed_steps));
            out.push_str(&format!("          \"memo\": \"{:?}\",\n", s.memo));
            out.push_str(&format!("          {},\n", s.fast.reasons_json()));
            out.push_str(&format!("          \"profiled_wall_secs\": {:.4},\n", s.profiled_wall_secs));
            out.push_str(&format!("          \"profile_overhead\": {:.3},\n", s.profile_overhead));
            out.push_str(&format!("          {},\n", s.profiled_fast.observer_bytes_json()));
            out.push_str(&format!("          \"native_wall_secs\": {:.4}\n", s.native_wall_secs));
            out.push_str(if j + 1 == p.strategies.len() { "        }\n" } else { "        },\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 == profiles.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable summary table of the same data.
pub fn render_text(profiles: &[FigureProfile]) -> String {
    let mut out = String::new();
    out.push_str("figure      strategy                     wall(s)   Macc/s  fast-iter  kernel  seg-len  l1-fast  prof-ovh  native(s)  shapes\n");
    for p in profiles {
        for s in &p.strategies {
            let shapes: Vec<String> = dct_spmd::kernel::SHAPE_NAMES
                .iter()
                .zip(&s.kernel_shapes)
                .filter(|(_, &n)| n > 0)
                .map(|(name, _)| name.to_string())
                .collect();
            out.push_str(&format!(
                "{:<11} {:<28} {:>7.3} {:>8.1} {:>8.1}% {:>6.1}% {:>8.1} {:>7.1}% {:>8.2}x {:>9.3}  {}\n",
                p.id,
                s.strategy,
                s.wall_secs,
                s.accesses_per_sec / 1e6,
                s.exec_fast_ratio * 100.0,
                s.kernelized_ratio * 100.0,
                s.avg_segment_len,
                s.l1_fast_hit_ratio * 100.0,
                s.profile_overhead,
                s.native_wall_secs,
                if shapes.is_empty() { "-".to_string() } else { shapes.join("+") },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_runs_and_renders() {
        let spec = figure("fig8", 0.1).unwrap();
        let profiles = vec![profile_figure(&spec, 4)];
        assert_eq!(profiles[0].strategies.len(), 3);
        for s in &profiles[0].strategies {
            assert!(s.accesses > 0);
            assert!(s.exec_fast_ratio > 0.5, "fast path should dominate: {s:?}");
            assert!(s.kernelized_ratio > 0.5, "kernels should dominate: {s:?}");
            assert!(s.kernel_shapes.iter().sum::<u64>() > 0, "histogram empty: {s:?}");
        }
        for s in &profiles[0].strategies {
            assert!(s.profiled_wall_secs > 0.0);
            assert!(s.profile_overhead > 0.0);
            assert!(s.native_wall_secs > 0.0);
        }
        let j = render_json(&profiles, 1.0);
        assert!(j.contains("\"fig8\""));
        assert!(j.contains("accesses_per_sec"));
        assert!(j.contains("profile_overhead"));
        assert!(j.contains("native_wall_secs"));
        assert!(j.contains("kernelized_ratio"));
        assert!(j.contains("kernel_shapes"));
        assert!(j.contains("\"replayed_steps\": 3") && j.contains("\"memo\": \"Replayed\""), "{j}");
        assert!(j.contains("\"cursor_bumps\": ") && j.contains("\"resolves\": {\"walk_start\": "), "{j}");
        assert!(!j.contains("seg_bails"), "{j}");
        assert!(j.contains("\"race_shadow_bytes\": 0, \"profiler_table_bytes\": "), "{j}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        let t = render_text(&profiles);
        assert!(t.contains("fig8"));
    }
}

//! Differential property test for the strided fast-path execution engine:
//! for randomized small nests, executing with `fast_path: true` must be
//! *bit-identical* to the general reference walk — same cycles, same
//! per-processor clocks, same machine statistics, same checksum — under
//! every folding (BLOCK, CYCLIC, BLOCK-CYCLIC) and processor count. The
//! fast path only changes how addresses are computed, never which machine
//! accesses happen or in what order; this test is the executable form of
//! that invariant.
//!
//! The second part pins time-step replay (`dct_spmd::replay`) the same way:
//! the default run, which replays a repeating time step, against the
//! reference walk, which never does — plain, and with the race detector,
//! the profiler or both attached, where the replayed `RaceReport` and
//! `MemProfile` must be the walked ones. The third pins the cursor memo: nests
//! built so that innermost-loop entries are bumped, or refused for each of
//! the reasons the executor counts, against the reference walk, and each way
//! an entry falls outside the rectangle whose kernel streams were proven
//! once. Debug builds also resolve every bumped entry from scratch, derive
//! its innermost range, kernel streams, access vector and verdicts again,
//! and compare; the release run of this file (`scripts/tier1.sh`) is the leg
//! without that net.

use dct_bench::programs::suite;
use dct_core::{rung_sim_options, Compiler, Strategy as Compile};
use dct_decomp::{decompose, Folding};
use dct_dep::{analyze_nest, DepConfig};
use dct_ir::{Aff, Expr, Program, ProgramBuilder};
use dct_machine::MachineConfig;
use dct_spmd::exec::{Refusal, Resolve};
use dct_spmd::{simulate, MemoOutcome, RunResult, Schedule, SimOptions};
use proptest::prelude::*;

/// A randomized 2-array time-stepped program: an init nest, a gather
/// nest with 1–4 random in-bounds offsets (some strided by 2 on the
/// inner index to vary the access slope), and a copy-back nest.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        8i64..=14,
        proptest::collection::vec((-1i64..=1, -1i64..=1, 1i64..=2), 1..4),
        // Three steps and more replay (every folding, so also through the
        // general walk of a block-cyclic level).
        1i64..=4,
    )
        .prop_map(|(n, offsets, steps)| {
            let mut pb = ProgramBuilder::new("diff-rand");
            let np = pb.param("N", n);
            let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 4);
            let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 4);
            let _t = pb.time_loop(Aff::konst(steps));

            let mut nb = pb.nest_builder("init");
            let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
            let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
            let v = Expr::Index(i) * Expr::Const(0.5) + Expr::Index(j) + Expr::Const(1.0);
            nb.assign(b, &[Aff::var(i), Aff::var(j)], v);
            pb.init_nest(nb.build());

            // Gather: bounds keep every scaled-and-offset access in range
            // (indices in [1, (N-2)/2] so 2*idx+1 <= N-2).
            let mut nb = pb.nest_builder("gather");
            let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
            let hi = (n - 2) / 2;
            let i = nb.loop_var(Aff::konst(1), Aff::konst(hi));
            let mut rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]);
            for (di, dj, scale) in &offsets {
                let col = if *scale == 2 { Aff::var(j) } else { Aff::var(j) + *dj };
                rhs = rhs + nb.read(b, &[Aff::var(i) * *scale + *di, col]) * Expr::Const(0.25);
            }
            nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
            pb.nest(nb.build());

            let mut nb = pb.nest_builder("copy");
            let j = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
            let i = nb.loop_var(Aff::konst(1), Aff::konst(hi));
            let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]);
            nb.assign(b, &[Aff::var(i), Aff::var(j)], rhs);
            pb.nest(nb.build());
            pb.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fast path vs reference walk: identical cycles, clocks, stats, and
    /// checksum for every folding x processor count, with and without the
    /// data transformations.
    #[test]
    fn fast_path_matches_reference(prog in arb_program(), transform in any::<bool>()) {
        let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
        let deps: Vec<_> = prog.nests.iter().map(|n| analyze_nest(n, cfg)).collect();
        let params = prog.default_params();

        for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 2 }] {
            let mut dec = decompose(&prog, &deps).unwrap();
            for f in dec.foldings.iter_mut() {
                *f = folding;
            }
            for procs in [1usize, 2, 4, 8] {
                let mut fast = SimOptions::new(procs, params.clone());
                fast.transform_data = transform;
                let mut slow = fast.clone();
                slow.fast_path = false;

                let rf = simulate(&prog, &dec, &fast).unwrap();
                let rs = simulate(&prog, &dec, &slow).unwrap();

                prop_assert!(rf.fast.fast_iters > 0 || matches!(folding, Folding::BlockCyclic { .. }),
                    "fast path never engaged (P={procs}, {folding:?})");
                prop_assert_eq!(rs.fast.fast_iters, 0, "reference walk took the fast path");
                let steps = prog.time_step_count(&params) as u64;
                prop_assert_eq!(rf.fast.replayed_steps, steps.saturating_sub(2),
                    "replayed steps (P={}, {:?})", procs, folding);

                prop_assert_eq!(rf.cycles, rs.cycles, "cycles differ (P={}, {:?})", procs, folding);
                prop_assert_eq!(&rf.clocks, &rs.clocks, "clocks differ (P={}, {:?})", procs, folding);
                prop_assert_eq!(&rf.stats, &rs.stats, "stats differ (P={}, {:?})", procs, folding);
                prop_assert_eq!(rf.barriers, rs.barriers);
                prop_assert_eq!(&rf.nest_cycles, &rs.nest_cycles);
                prop_assert_eq!(rf.init_cycles, rs.init_cycles);
                prop_assert!(rf.checksum == rs.checksum,
                    "checksum differs: {} != {} (P={procs}, {folding:?})", rf.checksum, rs.checksum);

                // Observed, the run replays the same steps, and what the
                // observers report is what they report on the walk.
                for (race_detect, profile) in OBSERVED_LEGS {
                    let observed = |o: &SimOptions| SimOptions { race_detect, profile, ..o.clone() };
                    let of = simulate(&prog, &dec, &observed(&fast)).unwrap();
                    let os = simulate(&prog, &dec, &observed(&slow)).unwrap();
                    prop_assert_eq!(of.fast.replayed_steps, rf.fast.replayed_steps,
                        "observed replayed steps (P={}, {:?})", procs, folding);
                    prop_assert_eq!((of.cycles, &of.clocks, &of.stats), (rs.cycles, &rs.clocks, &rs.stats),
                        "observed run differs (P={}, {:?})", procs, folding);
                    prop_assert!(of.checksum == rs.checksum);
                    prop_assert_eq!(&of.race, &os.race, "race report (P={}, {:?})", procs, folding);
                    prop_assert_eq!(&of.mem_profile, &os.mem_profile,
                        "memory profile (P={}, {:?})", procs, folding);
                }
            }
        }
    }
}

/// `(race_detect, profile)` of the three observed legs.
const OBSERVED_LEGS: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];

/// Everything a run reports except the walk-mode counters: a replayed run
/// and a reference walk agree on all of it.
fn assert_same_results(what: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.clocks, b.clocks, "{what}: clocks");
    assert_eq!(a.stats.per_proc, b.stats.per_proc, "{what}: per-processor counters");
    assert_eq!(a.stats.sync, b.stats.sync, "{what}: sync counters");
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits(), "{what}: checksum");
    assert_eq!(a.barriers, b.barriers, "{what}: barriers");
    assert_eq!(a.nest_cycles, b.nest_cycles, "{what}: nest cycles");
    assert_eq!(a.init_cycles, b.init_cycles, "{what}: init cycles");
    assert_eq!(a.seq_regions, b.seq_regions, "{what}: regions");
    assert_eq!((a.timed_out, a.cancelled), (b.timed_out, b.cancelled), "{what}: completion");
}

/// Replay changes how a step is accounted for, never which iterations run
/// on which path: the walk counters equal those of a run that cannot
/// replay.
fn assert_same_walk(what: &str, a: &RunResult, b: &RunResult) {
    let (a, b) = (a.fast, b.fast);
    assert_eq!(
        (a.fast_iters, a.slow_iters, a.segments, a.kernel_iters, a.kernel_shapes),
        (b.fast_iters, b.slow_iters, b.segments, b.kernel_iters, b.kernel_shapes),
        "{what}: walk counters"
    );
}

fn reference(opts: &SimOptions) -> SimOptions {
    SimOptions { fast_path: false, ..opts.clone() }
}

/// The paper suite: 7 benchmarks x 3 strategies x procs {1, 3, 8, 32}.
/// Every time-invariant benchmark replays all but its first two steps and
/// still lands on the reference walk's results; nothing else replays.
#[test]
fn suite_replays_repeating_steps_and_matches_the_reference_walk() {
    for b in suite(0.125) {
        let params = b.program.default_params();
        let steps = b.program.time_step_count(&params) as u64;
        for strategy in Compile::ALL {
            let compiled = Compiler::new(strategy)
                .compile(&b.program)
                .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, strategy.label()));
            let run = |opts: &SimOptions| {
                simulate(&compiled.program, &compiled.decomposition, opts)
                    .unwrap_or_else(|e| panic!("{} {}: {e}", b.name, strategy.label()))
            };
            for procs in [1usize, 3, 8, 32] {
                let what = format!("{} {} at {procs} procs", b.name, strategy.label());
                let opts = rung_sim_options(compiled.rung, procs, params.clone());
                let (fast, slow) = (run(&opts), run(&reference(&opts)));
                assert_same_results(&what, &fast, &slow);
                assert_eq!((slow.fast.memo, slow.fast.replayed_steps), (MemoOutcome::ReferenceWalk, 0));
                assert_eq!(fast.fast.fast_iters + fast.fast.slow_iters, slow.fast.slow_iters, "{what}");
                let want = match b.name {
                    "vpenta" => (MemoOutcome::NoTimeLoop, 0),
                    "lu" => (MemoOutcome::TimeDependent, 0),
                    _ => (MemoOutcome::Replayed, steps - 2),
                };
                assert_eq!((fast.fast.memo, fast.fast.replayed_steps), want, "{what}");

                // An observed run replays exactly what the plain one does
                // (LU stays time-dependent), and what the observers report
                // is what they report on the reference walk, which never
                // replays.
                for (race_detect, profile) in OBSERVED_LEGS {
                    let what = format!("{what}, race {race_detect}, profile {profile}");
                    let observed = SimOptions { race_detect, profile, ..opts.clone() };
                    let (of, os) = (run(&observed), run(&reference(&observed)));
                    assert_eq!((of.fast.memo, of.fast.replayed_steps), want, "{what}");
                    assert_eq!(os.fast.memo, MemoOutcome::ReferenceWalk, "{what}");
                    assert_same_results(&what, &of, &fast);
                    assert_same_walk(&what, &of, &fast);
                    assert_eq!(of.race, os.race, "{what}: race report");
                    assert_eq!(of.mem_profile, os.mem_profile, "{what}: memory profile");
                    assert_eq!(of.race.is_some(), race_detect, "{what}");
                    assert_eq!(of.mem_profile.is_some(), profile, "{what}");
                }

                // An associative L1 has LRU ticks that never repeat.
                let machine = MachineConfig { l1_assoc: 2, ..MachineConfig::dash(procs) };
                let assoc = SimOptions { machine: Some(machine), ..opts.clone() };
                let (af, asl) = (run(&assoc), run(&reference(&assoc)));
                assert_same_results(&what, &af, &asl);
                assert_eq!(af.fast.replayed_steps, 0, "{what}");
                if want.0 == MemoOutcome::Replayed {
                    assert_eq!(af.fast.memo, MemoOutcome::Associative, "{what}");
                }
                // A replayed step still walks its segments for the values,
                // so the walk counters cover every step, simulated or not.
                assert_eq!(fast.fast.steps_simulated + fast.fast.replayed_steps, steps, "{what}");
                assert_eq!(af.fast.steps_simulated, steps, "{what}");
                assert_same_walk(&what, &af, &fast);
                assert_eq!(
                    (af.fast.cursor_bumps, af.fast.resolves, af.fast.kernel_refusals, af.fast.kernel_aliased),
                    (fast.fast.cursor_bumps, fast.fast.resolves, fast.fast.kernel_refusals, fast.fast.kernel_aliased),
                    "{what}: walk reasons"
                );
            }
        }
    }
}

/// Erlebacher under the full strategy replicates arrays, and a replicated
/// array has no race shadow: the report — races, dynamic count, accesses
/// checked, sync edges — is still the reference walk's, and the shadow that
/// is allocated is one cell per element of the shared arrays only.
#[test]
fn erlebacher_full_race_report_without_replicated_shadows() {
    let b = suite(0.125).into_iter().find(|b| b.name == "erlebacher").expect("erlebacher is in the suite");
    let compiled = Compiler::new(Compile::Full).compile(&b.program).expect("compile");
    let opts =
        SimOptions { race_detect: true, ..rung_sim_options(compiled.rung, 32, b.program.default_params()) };
    let run = |o: &SimOptions| simulate(&compiled.program, &compiled.decomposition, o).expect("simulate");
    let (fast, slow) = (run(&opts), run(&reference(&opts)));
    // Races, `race_count`, `checked` and `sync_edges`: the whole report.
    assert_eq!(fast.race, slow.race);
    let rf = fast.race.as_ref().expect("race report");
    assert!(rf.checked > 0 && rf.sync_edges > 0, "{rf}");
    assert_eq!(fast.fast.memo, MemoOutcome::Replayed);

    let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts).expect("lower");
    let elems = |replicated: bool| -> u64 {
        let sizes = sp.layouts.iter().zip(&sp.repl_stride);
        sizes.filter(|(_, &rs)| (rs > 0) == replicated).map(|(l, _)| l.layout.size() as u64).sum()
    };
    assert!(elems(true) > 0, "no array of erlebacher/full is replicated");
    assert_eq!(fast.fast.race_shadow_bytes, 16 * elems(false));
    assert_eq!(slow.fast.race_shadow_bytes, fast.fast.race_shadow_bytes);
    assert_eq!(fast.fast.profiler_table_bytes, 0, "no profiler attached");
}

/// A hand-written six-step relaxation. `uses_time` moves the sweep's lower
/// bound with the step number, which must rule replay out.
fn relaxation(n: i64, steps: i64, uses_time: bool) -> Program {
    let mut pb = ProgramBuilder::new("relax");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 8);
    let t = pb.time_loop(Aff::konst(steps));

    let mut nb = pb.nest_builder("init");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let v = Expr::Index(i) * Expr::Const(0.25) + Expr::Index(j) + Expr::Const(1.0);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], v);
    pb.init_nest(nb.build());

    let lo = if uses_time { Aff::param(t) + 1 } else { Aff::konst(1) };
    let mut nb = pb.nest_builder("sweep");
    let j = nb.loop_var(lo.clone(), Aff::param(np) - 2);
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let rhs = (nb.read(a, &[Aff::var(i) - 1, Aff::var(j)])
        + nb.read(a, &[Aff::var(i) + 1, Aff::var(j)])
        + nb.read(a, &[Aff::var(i), Aff::var(j) - 1])
        + nb.read(a, &[Aff::var(i), Aff::var(j) + 1]))
        * Expr::Const(0.25);
    nb.assign(b, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());

    let mut nb = pb.nest_builder("copy");
    let j = nb.loop_var(lo, Aff::param(np) - 2);
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 2);
    let rhs = nb.read(b, &[Aff::var(i), Aff::var(j)]);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    pb.build()
}

fn decomposed(prog: &Program) -> dct_decomp::Decomposition {
    let cfg = DepConfig { nparams: prog.params.len(), param_min: 4 };
    let deps: Vec<_> = prog.nests.iter().map(|n| analyze_nest(n, cfg)).collect();
    decompose(prog, &deps).expect("decompose")
}

#[test]
fn hand_written_time_loops_replay_only_when_time_invariant() {
    for (steps, uses_time) in [(6, false), (4, false), (2, false), (6, true)] {
        let prog = relaxation(40, steps, uses_time);
        let dec = decomposed(&prog);
        for procs in [1usize, 4, 8] {
            for transform_data in [false, true] {
                let what = format!("{steps} steps, uses_time {uses_time}, P={procs}, data {transform_data}");
                let opts =
                    SimOptions { transform_data, ..SimOptions::new(procs, prog.default_params()) };
                let fast = simulate(&prog, &dec, &opts).expect("simulate");
                let slow = simulate(&prog, &dec, &reference(&opts)).expect("simulate");
                assert_same_results(&what, &fast, &slow);
                let want = match (uses_time, steps) {
                    (true, _) => (MemoOutcome::TimeDependent, 0),
                    (false, 2) => (MemoOutcome::NoTimeLoop, 0),
                    (false, _) => (MemoOutcome::Replayed, steps as u64 - 2),
                };
                assert_eq!((fast.fast.memo, fast.fast.replayed_steps), want, "{what}");
            }
        }
    }
}

/// A cycle budget that runs out inside a replayed step stops the run where
/// it stops the reference walk, with the same partial results — the
/// partial `MemProfile` among them when the run is profiled.
#[test]
fn cycle_budget_expiring_inside_a_replayed_step() {
    let prog = relaxation(40, 6, false);
    let dec = decomposed(&prog);
    let head = relaxation(40, 3, false);
    for (procs, profile) in [(1usize, false), (8, false), (1, true), (8, true)] {
        let opts = SimOptions { profile, ..SimOptions::new(procs, prog.default_params()) };
        let whole = simulate(&prog, &dec, &opts).expect("simulate");
        assert_eq!(whole.fast.replayed_steps, 4);
        // Steps 0..=2 end about here; the budgets fall in steps 3, 4 and 5.
        let three = simulate(&head, &decomposed(&head), &opts).expect("simulate").cycles;
        for quarters in [1u64, 2, 3] {
            let what = format!("P={procs}, profile {profile}, budget at {quarters}/4 of the last three steps");
            let max_cycles = Some(three + (whole.cycles - three) * quarters / 4);
            let budget = SimOptions { max_cycles, ..opts.clone() };
            let fast = simulate(&prog, &dec, &budget).expect("simulate");
            let slow = simulate(&prog, &dec, &reference(&budget)).expect("simulate");
            assert!(fast.timed_out, "{what}");
            assert!(
                (1..=4).contains(&fast.fast.replayed_steps),
                "{what}: expired outside the replayed steps ({})",
                fast.fast.replayed_steps
            );
            assert_same_results(&what, &fast, &slow);
            assert_eq!(fast.mem_profile, slow.mem_profile, "{what}: partial memory profile");
            assert_eq!(fast.mem_profile.is_some(), profile, "{what}");
            if let (Some(part), Some(all)) = (&fast.mem_profile, &whole.mem_profile) {
                assert!(part.total().accesses < all.total().accesses, "{what}: the profile is partial");
            }
        }
    }
}

/// Fast path against the reference walk, plain and observed: cycles,
/// clocks, counters, checksum bits, and the race and profile reports.
/// Returns the plain fast run.
fn assert_walks_agree(what: &str, prog: &Program, dec: &dct_decomp::Decomposition, opts: &SimOptions) -> RunResult {
    let run = |o: &SimOptions| simulate(prog, dec, o).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (fast, slow) = (run(opts), run(&reference(opts)));
    assert_same_results(what, &fast, &slow);
    assert_eq!(slow.fast.fast_iters, 0, "{what}: the reference walk took the fast path");
    let observed = SimOptions { race_detect: true, profile: true, ..opts.clone() };
    let (of, os) = (run(&observed), run(&reference(&observed)));
    assert_same_results(what, &of, &slow);
    assert_same_walk(what, &of, &fast);
    assert_eq!(of.race, os.race, "{what}: race report");
    assert_eq!(of.mem_profile, os.mem_profile, "{what}: memory profile");
    let f = fast.fast;
    assert_eq!(
        f.cursor_bumps + f.resolves.iter().sum::<u64>(),
        f.segments,
        "{what}: every segment is a bump or a resolve"
    );
    fast
}

/// `A(i,j) (+)= f(B(..))` over a two-deep nest `j` outside `i`, with the
/// bounds of `i` and the subscripts of `B` supplied by the caller; `B` has
/// `bdims` dimensions of `2N` elements.
fn two_deep(
    name: &str,
    n: i64,
    bdims: usize,
    inner: impl Fn(usize, usize) -> (Aff, Aff),
    bsub: impl Fn(usize, usize) -> Vec<Aff>,
) -> Program {
    let mut pb = ProgramBuilder::new(name);
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let b = pb.array("B", &vec![Aff::param(np) * 2; bdims], 8);

    let mut nb = pb.nest_builder("init_a");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], Expr::Index(i) * Expr::Const(0.5) + Expr::Index(j));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("init_b");
    let vars: Vec<usize> = (0..bdims).map(|_| nb.loop_var(Aff::konst(0), Aff::param(np) * 2 - 1)).collect();
    let subs: Vec<Aff> = vars.iter().rev().map(|&v| Aff::var(v)).collect();
    nb.assign(b, &subs, Expr::Index(vars[0]) * Expr::Const(0.25) + Expr::Const(1.0));
    pb.init_nest(nb.build());

    let mut nb = pb.nest_builder("sweep");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let (lo, hi) = inner(j, np);
    let i = nb.loop_var(lo, hi);
    let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]) + nb.read(b, &bsub(i, j)) * Expr::Const(0.5);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    pb.build()
}

/// Every way an innermost-loop entry is served or refused, against the
/// reference walk: each nest must both match it and take the path it was
/// built for.
#[test]
fn cursor_memo_matches_the_reference_walk_whatever_it_decides() {
    let full = |np: usize| (Aff::konst(0), Aff::param(np) - 1);
    let took = |r: &RunResult, why: Resolve| r.fast.resolves[why as usize];

    // Rectangular, every folding of the distributed outer level, layouts
    // transformed or not: the plain case, where nearly every entry bumps.
    let prog = two_deep("rect", 24, 2, |_, np| full(np), |i, j| vec![Aff::var(i) + 1, Aff::var(j)]);
    for folding in [Folding::Block, Folding::Cyclic, Folding::BlockCyclic { block: 2 }] {
        let mut dec = decomposed(&prog);
        dec.foldings.iter_mut().for_each(|f| *f = folding);
        for procs in [1usize, 3, 4, 8] {
            for transform_data in [false, true] {
                let what = format!("rect {folding:?} P={procs} data {transform_data}");
                let opts = SimOptions { transform_data, ..SimOptions::new(procs, prog.default_params()) };
                let r = assert_walks_agree(&what, &prog, &dec, &opts);
                if r.fast.fast_iters == 0 {
                    // A block-cyclic innermost level takes the general walk.
                    assert!(matches!(folding, Folding::BlockCyclic { .. }), "{what}: {:?}", r.fast);
                    continue;
                }
                assert!(took(&r, Resolve::WalkStart) > 0, "{what}: {:?}", r.fast);
                // The memo vouches for consecutive outer values. A cyclic
                // outer level over a cyclic layout steps by P, a whole
                // strip, so there each entry is out of reach of the last.
                if folding == Folding::Cyclic && transform_data && procs > 1 {
                    assert!(took(&r, Resolve::OuterExhausted) > 0, "{what}: {:?}", r.fast);
                } else {
                    assert!(r.fast.cursor_bumps > 0, "{what}: {:?}", r.fast);
                }
            }
        }
    }

    // Triangular inner bounds: every entry starts elsewhere.
    let prog =
        two_deep("tri", 24, 2, |j, np| (Aff::var(j), Aff::param(np) - 1), |i, j| vec![Aff::var(i), Aff::var(j)]);
    for procs in [1usize, 4, 8] {
        for transform_data in [false, true] {
            let what = format!("triangular P={procs} data {transform_data}");
            let opts = SimOptions { transform_data, ..SimOptions::new(procs, prog.default_params()) };
            let r = assert_walks_agree(&what, &prog, &decomposed(&prog), &opts);
            assert!(took(&r, Resolve::InnerRangeChanged) > 0, "{what}: {:?}", r.fast);
        }
    }

    // A skewed subscript `B(i+j)`: with `B` strip-mined both loops move
    // one strip-mined value, so no entry vouches for the next.
    let prog = two_deep("skew", 24, 1, |_, np| full(np), |i, j| vec![Aff::var(i) + Aff::var(j)]);
    let mut exhausted = 0;
    for folding in [Folding::Block, Folding::Cyclic] {
        let mut dec = decomposed(&prog);
        dec.foldings.iter_mut().for_each(|f| *f = folding);
        for procs in [1usize, 4, 8] {
            let what = format!("skewed {folding:?} P={procs}");
            let opts = SimOptions::new(procs, prog.default_params());
            let r = assert_walks_agree(&what, &prog, &dec, &opts);
            exhausted += took(&r, Resolve::OuterExhausted);
        }
    }
    assert!(exhausted > 0, "no skewed run ran out of outer validity");
}

/// A strip boundary inside the innermost loop, a nest of one level, a
/// doacross pipeline and LU's pivot loop, from the paper suite and by hand.
#[test]
fn cursor_memo_on_split_segments_depth_one_pipelines_and_pivots() {
    let took = |r: &RunResult, why: Resolve| r.fast.resolves[why as usize];

    // The relaxation's (BLOCK, BLOCK) layout puts block edges inside the
    // innermost loop once the data is transformed.
    let prog = relaxation(40, 2, false);
    let mut split = 0;
    for procs in [4usize, 8, 16] {
        let what = format!("relaxation P={procs}");
        let opts = SimOptions::new(procs, prog.default_params());
        split += took(&assert_walks_agree(&what, &prog, &decomposed(&prog), &opts), Resolve::SplitSegment);
    }
    assert!(split > 0, "no strip boundary fell inside an innermost loop");

    // One level: nothing to bump along.
    let mut pb = ProgramBuilder::new("depth1");
    let np = pb.param("N", 64);
    let a = pb.array("A", &[Aff::param(np)], 8);
    let b = pb.array("B", &[Aff::param(np)], 8);
    let mut nb = pb.nest_builder("init");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    nb.assign(b, &[Aff::var(i)], Expr::Index(i) * Expr::Const(0.5));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("shift");
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 1);
    let rhs = nb.read(b, &[Aff::var(i)]) + nb.read(b, &[Aff::var(i) - 1]);
    nb.assign(a, &[Aff::var(i)], rhs);
    pb.nest(nb.build());
    let prog = pb.build();
    for procs in [1usize, 4, 8] {
        let what = format!("depth 1 P={procs}");
        let opts = SimOptions::new(procs, prog.default_params());
        let r = assert_walks_agree(&what, &prog, &decomposed(&prog), &opts);
        assert!(took(&r, Resolve::Depth1) > 0 && r.fast.cursor_bumps == 0, "{what}: {:?}", r.fast);
    }

    // ADI's second sweep is a tiled doacross pipeline (a memo must not
    // outlive a tile); LU binds a new pivot at every time step (nor a step).
    for b in suite(0.25).into_iter().filter(|b| matches!(b.name, "adi" | "lu")) {
        for strategy in Compile::ALL {
            let compiled = Compiler::new(strategy).compile(&b.program).expect("compile");
            for procs in [3usize, 8] {
                let what = format!("{} {} P={procs}", b.name, strategy.label());
                let opts = rung_sim_options(compiled.rung, procs, b.program.default_params());
                let r = assert_walks_agree(&what, &compiled.program, &compiled.decomposition, &opts);
                assert!(r.fast.cursor_bumps > 0, "{what}: {:?}", r.fast);
            }
        }
    }
}

/// An entry outside the rectangle its resolved entry proved takes the
/// per-segment resolve and kernel proof instead: trip counts that differ
/// from the proven one, a pipeline tile edge, a strip boundary inside the
/// innermost loop, and a rectangle whose far corner leaves an arena
/// although no entry of it does.
#[test]
fn rectangle_fallbacks_match_the_reference_walk() {
    let took = |r: &RunResult, why: Resolve| r.fast.resolves[why as usize];
    let refused = |r: &RunResult, why: Refusal| r.fast.kernel_refusals[why as usize];

    // Triangular inner bounds from a fixed start: entries bump along `j`,
    // each with a trip count of its own, so each is proven alone.
    let prog = two_deep("tri-hi", 24, 2, |j, _| (Aff::konst(0), Aff::var(j)), |i, j| vec![Aff::var(i), Aff::var(j)]);
    let mut bumps = 0;
    for procs in [1usize, 4, 8] {
        for transform_data in [false, true] {
            let what = format!("triangular from a fixed start P={procs} data {transform_data}");
            let opts = SimOptions { transform_data, ..SimOptions::new(procs, prog.default_params()) };
            let r = assert_walks_agree(&what, &prog, &decomposed(&prog), &opts);
            assert_eq!(refused(&r, Refusal::OutOfBounds), 0, "{what}: {:?}", r.fast);
            bumps += r.fast.cursor_bumps;
        }
    }
    assert!(bumps > 0, "no triangular entry was bumped");

    // A doacross pipeline walks one tile at a time; the memo, its kept
    // innermost range and its rectangle end at every tile edge.
    let adi = suite(0.25).into_iter().find(|b| b.name == "adi").expect("adi is in the suite");
    let compiled = Compiler::new(Compile::Full).compile(&adi.program).expect("compile");
    for procs in [3usize, 8] {
        let what = format!("adi full P={procs}");
        let opts = rung_sim_options(compiled.rung, procs, adi.program.default_params());
        let sp = dct_spmd::lower(&compiled.program, &compiled.decomposition, &opts).expect("lower");
        let sched = Schedule::new(&sp);
        let tiles: usize = sp.nests.iter().filter_map(|n| sched.pipeline_plan(n, &sp.params)).map(|p| p.tiles.len()).sum();
        assert!(tiles > 1, "{what}: no pipelined nest");
        let r = assert_walks_agree(&what, &compiled.program, &compiled.decomposition, &opts);
        assert!(took(&r, Resolve::WalkStart) as usize > tiles && r.fast.cursor_bumps > 0, "{what}: {:?}", r.fast);
    }

    // Block edges inside the innermost loop split its entries.
    let prog = relaxation(40, 2, false);
    for procs in [4usize, 8] {
        let what = format!("relaxation P={procs}");
        let opts = SimOptions::new(procs, prog.default_params());
        let r = assert_walks_agree(&what, &prog, &decomposed(&prog), &opts);
        assert!(took(&r, Resolve::SplitSegment) > 0 && r.fast.kernel_iters > 0, "{what}: {:?}", r.fast);
    }

    // `A(i,j) += B(i+j)` for `i` up to `min(7, N-1-j)`, with `B` exactly
    // `N` long: the first entries run 8 iterations, so the rectangle an
    // entry near the start opens reaches `B(7 + N-1)` at its far corner,
    // past the end of `B`, while the entries themselves shrink and stay
    // inside it. The opening entry is then proven alone and still runs as a
    // kernel, as does every later entry of 8 iterations.
    let n = 24;
    let mut pb = ProgramBuilder::new("far-corner");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let b = pb.array("B", &[Aff::param(np)], 8);
    let mut nb = pb.nest_builder("init_b");
    let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    nb.assign(b, &[Aff::var(i)], Expr::Index(i) * Expr::Const(0.25) + Expr::Const(1.0));
    pb.init_nest(nb.build());
    let mut nb = pb.nest_builder("sweep");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var_multi(vec![Aff::konst(0)], vec![Aff::konst(7), Aff::param(np) - 1 - Aff::var(j)]);
    let rhs = nb.read(a, &[Aff::var(i), Aff::var(j)]) + nb.read(b, &[Aff::var(i) + Aff::var(j)]) * Expr::Const(0.5);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    let prog = pb.build();
    for procs in [1usize, 2, 4] {
        let what = format!("far corner P={procs}");
        let opts = SimOptions::new(procs, prog.default_params());
        let r = assert_walks_agree(&what, &prog, &decomposed(&prog), &opts);
        assert!(r.fast.cursor_bumps > 0 && r.fast.kernel_iters > 0, "{what}: {:?}", r.fast);
        assert_eq!(refused(&r, Refusal::OutOfBounds), 0, "{what}: {:?}", r.fast);
    }

    // `A(i,j) = A(i-1,5) + B(i,j)`: a scan through column 5 when `j` is 5
    // and no overlap anywhere else, so the rectangle has no single aliasing
    // verdict. Only that entry may take the ordered path; an unrolled sweep
    // there would read values before they are written.
    let mut pb = ProgramBuilder::new("alias-moves");
    let np = pb.param("N", n);
    let a = pb.array("A", &[Aff::param(np), Aff::param(np)], 8);
    let b = pb.array("B", &[Aff::param(np), Aff::param(np)], 8);
    for x in [a, b] {
        let mut nb = pb.nest_builder("init");
        let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
        let i = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
        nb.assign(x, &[Aff::var(i), Aff::var(j)], Expr::Index(i) * Expr::Const(0.5) + Expr::Index(j));
        pb.init_nest(nb.build());
    }
    let mut nb = pb.nest_builder("scan");
    let j = nb.loop_var(Aff::konst(0), Aff::param(np) - 1);
    let i = nb.loop_var(Aff::konst(1), Aff::param(np) - 1);
    let rhs = nb.read(a, &[Aff::var(i) - 1, Aff::konst(5)]) + nb.read(b, &[Aff::var(i), Aff::var(j)]);
    nb.assign(a, &[Aff::var(i), Aff::var(j)], rhs);
    pb.nest(nb.build());
    let prog = pb.build();
    let what = "aliasing that moves along the outer loop";
    let r = assert_walks_agree(what, &prog, &decomposed(&prog), &SimOptions::new(1, prog.default_params()));
    assert!(r.fast.cursor_bumps > 0, "{what}: {:?}", r.fast);
    assert_eq!(r.fast.kernel_aliased, 1, "{what}: {:?}", r.fast);
}

/// The bump is what LU runs on: a run that quietly refused every entry
/// would still be bit-identical, and as slow as before.
#[test]
fn lu_full_enters_nine_segments_in_ten_by_a_bump() {
    let lu = suite(0.25).into_iter().find(|b| b.name == "lu").expect("lu is in the suite");
    assert!(lu.program.default_params()[0] >= 64);
    let compiled = Compiler::new(Compile::Full).compile(&lu.program).expect("compile");
    let opts = rung_sim_options(compiled.rung, 8, lu.program.default_params());
    let r = simulate(&compiled.program, &compiled.decomposition, &opts).expect("simulate");
    let share = r.fast.cursor_bumps as f64 / r.fast.segments as f64;
    assert!(share >= 0.9, "cursor_bumps / segments = {share:.3}: {:?}", r.fast);
}

//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                 # every figure + table 1
//! repro fig6                # one figure (LU 256x256)
//! repro fig2 fig3           # the data-transformation index tables
//! repro table1              # the summary table (at 32 processors)
//! repro table1 --procs 8    # ... at the largest listed count (1..=64)
//! repro fig8 --scale 0.5    # half the paper problem size
//! repro fig6 --procs 1,8,32 # custom processor counts
//! repro table1 --max-wall 30 --max-cycles 2000000000
//!                           # bound each cell; over-budget cells -> timeout
//! repro --race-check        # certify every benchmark x strategy race-free
//! repro explain stencil     # why is it slow? ranked miss/sharing tables
//!                           # (text here, JSON -> results/explain_stencil.json)
//! repro table1 --workers 8  # cap concurrently-running cells (clamped to
//!                           # the host's parallelism)
//! repro chaos --seed 42 --faults 6
//!                           # fault-injection oracle: sweep under seeded
//!                           # kills/crashes/corruption must converge
//!                           # bit-identical to a fault-free sweep
//! repro chaos stencil --scale 0.1   # restrict chaos to one benchmark
//! repro native --scale 0.1  # run every benchmark x strategy on the
//!                           # native threaded backend, 16 jittered reps
//!                           # each, checksums bit-identical to the
//!                           # simulator (divergences dump a minimized
//!                           # repro to results/)
//! repro native stencil --reps 32 --procs 8   # one benchmark, harder
//! repro table1 --native    # table cells cross-checked against the
//!                           # native backend
//! repro chaos --native      # chaos oracle incl. native fault sites
//! repro table1 --cache      # content-addressed result store: cells are
//!                           # served from results/cache without executing
//!                           # when every input matches (a warm rerun
//!                           # executes zero cells, byte-identical table;
//!                           # a killed run, run again, serves every cell
//!                           # that finished)
//! repro explain stencil --cache     # its three profiled cells stored:
//!                           # a warm rerun executes none
//! repro native --cache      # shares Table 1's cells: a table1 --cache run
//!                           # serves their simulations, the native runs
//!                           # still execute
//! repro table1 --cache --cache-dir /tmp/c --max-cache-bytes 1000000
//!                           # custom store root + LRU byte budget
//! repro serve --port 0      # HTTP service: submit sweeps, poll, fetch
//!                           # tables/figures/explains/race certificates
//!                           # (port 0 = ephemeral; bound port on stdout)
//! ```
//!
//! `table1`, every figure, the ablations, `explain` (its strategies as
//! profiled cells), `native` and `--race-check` run their cells through
//! one supervised executor (watchdog, retry ladder, `--cache`), `--workers`
//! cells at a time. With `--cache`, the result store is the one durable
//! record of a cell: each finished cell is stored atomically (temp file +
//! fsync + rename) as it finishes, verified by its content checksum when
//! it is read (corrupt entries quarantine to `corrupt/`), and a re-run
//! against the same store only simulates the cells it cannot serve.
//! `table1` prints Table 1 under every flag; a cell that did not finish
//! prints `fail` with a note saying why. `--out` names where the explain
//! JSON, native repro dumps and chaos stores go.

use dct_bench::harness::{self, ThreadBudget, ALL_FIGURES, PAPER_PROCS};
use dct_bench::sweep::{self, SweepConfig, SweepReport};
use dct_core::machine::MachineConfig;
use dct_layout::{diagram, DataLayout};
use std::path::Path;
use std::time::Instant;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut procs: Vec<usize> = PAPER_PROCS.to_vec();
    let mut workers = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(4);
    let mut race_check = false;
    let mut out_dir: Option<String> = None;
    let mut max_cycles: Option<u64> = None;
    let mut max_wall: Option<f64> = None;
    let mut seed = 42u64;
    let mut faults = 6usize;
    let mut native = false;
    let mut reps = 16u64;
    let mut cache = false;
    let mut cache_dir = "results/cache".to_string();
    let mut max_cache_bytes: Option<u64> = None;
    let mut port = 0u16;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--race-check" => race_check = true,
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--scale needs a positive finite number"))
            }
            "--procs" => {
                procs = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|x| match x.parse() {
                                Ok(p) if (1..=MachineConfig::MAX_PROCS).contains(&p) => p,
                                _ => die(&format!(
                                    "--procs: '{x}' is not a processor count in 1..={}",
                                    MachineConfig::MAX_PROCS
                                )),
                            })
                            .collect()
                    })
                    .unwrap_or_else(|| die("--procs needs a comma-separated list"))
            }
            "--out" => {
                out_dir = Some(
                    it.next().cloned().unwrap_or_else(|| die("--out needs a directory path")),
                )
            }
            "--max-cycles" => {
                max_cycles = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--max-cycles needs a cycle count")),
                )
            }
            "--max-wall" => {
                max_wall = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| die("--max-wall needs a positive finite number of seconds")),
                )
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a positive integer"))
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an unsigned integer"))
            }
            "--faults" => {
                faults = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--faults needs a fault count"))
            }
            "--native" => native = true,
            "--cache" => cache = true,
            "--cache-dir" => {
                cache = true;
                cache_dir =
                    it.next().cloned().unwrap_or_else(|| die("--cache-dir needs a directory path"))
            }
            "--max-cache-bytes" => {
                cache = true;
                max_cache_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--max-cache-bytes needs a byte count")),
                )
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--port needs a port number (0 = ephemeral)"))
            }
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a repetition count"))
            }
            other if other.starts_with('-') => die(&format!("unknown option '{other}'")),
            other => targets.push(other.to_string()),
        }
    }
    check_targets(&targets);
    // The single-point targets (table1, explain, race check) run at the
    // largest requested count; the default list tops out at the paper's 32.
    let max_procs = procs.iter().copied().max().unwrap_or(32);

    // `serve`: the HTTP service owns its own store instance (rooted at
    // --cache-dir), job queue and shutdown; nothing below runs.
    if targets.iter().any(|t| t == "serve") {
        let cfg = dct_serve::ServeConfig {
            port,
            cache_dir: cache_dir.clone().into(),
            max_cache_bytes,
            out_dir: Default::default(),
            workers,
            threads: 1,
        };
        match dct_serve::Server::start(&cfg) {
            Ok(server) => {
                // The bound port goes on stdout (and is flushed) so a
                // harness driving an ephemeral --port 0 can parse it.
                println!("serve: listening on http://127.0.0.1:{}", server.port);
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                server.wait();
                eprintln!("[serve: shut down cleanly]");
            }
            Err(e) => die(&format!("serve: cannot bind port {port}: {e}")),
        }
        return;
    }

    // Shared content-addressed store for every `--cache` surface below.
    let store = if cache {
        match dct_bench::ResultStore::open(&cache_dir, max_cache_bytes) {
            Ok(s) => Some(std::sync::Arc::new(s)),
            Err(e) => die(&format!("cannot open cache at {cache_dir}: {e}")),
        }
    } else {
        None
    };

    // The cell executor's configuration, shared by every target that
    // runs cells.
    let budget = ThreadBudget::clamp(workers);
    let mut cfg = SweepConfig::plain(max_procs, scale);
    cfg.max_cycles = max_cycles;
    cfg.max_wall_secs = max_wall;
    cfg.native_reps = native.then_some(0);
    cfg.cache = store.clone();
    // Stats go to stderr so warm and cold stdout diff byte-identical.
    let cache_line = |rep: &SweepReport| {
        if let Some(s) = &store {
            eprintln!("[cache: {}; cells executed {} served {}]", s.stats_line(), rep.executed, rep.cache_hits);
        }
    };
    // Exit non-zero on any race (or any cell that failed to run) — this is
    // the CI gate proving the compiler's barrier elision and doacross
    // pipelining sound.
    let certify = |cells: &[harness::RaceCheckCell]| {
        print!("{}", harness::render_race_check(cells, max_procs));
        if cells.iter().any(|c| !c.is_clean()) {
            std::process::exit(1);
        }
    };

    if race_check && targets.is_empty() {
        // Schedule soundness: run every benchmark x strategy with the
        // happens-before race detector on. With an explicit `table1`
        // target the flag instead runs the table's own cells with the
        // detector on and certifies those.
        let t0 = Instant::now();
        let cells = harness::race_check(&cfg, budget);
        eprintln!("[race-check done in {:?}]", t0.elapsed());
        certify(&cells);
        return;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
        targets.insert(0, "fig2".into());
        targets.insert(1, "fig3".into());
        targets.push("table1".into());
        targets.push("ablations".into());
    }

    // `explain <bench>`: consume the benchmark name that follows.
    if let Some(k) = targets.iter().position(|t| t == "explain") {
        targets.remove(k);
        let bench = if k < targets.len() {
            targets.remove(k)
        } else {
            die("explain needs a benchmark name (e.g. `repro explain stencil`)")
        };
        let t0 = Instant::now();
        match dct_bench::explain(&bench, &cfg, budget) {
            Some((r, rep)) => {
                print!("{}", dct_bench::render_explain(&r));
                let dir = out_dir.clone().unwrap_or_else(|| "results".to_string());
                let path = format!("{dir}/explain_{bench}.json");
                match harness::atomic_write_sync(Path::new(&path), dct_bench::explain_json(&r).as_bytes()) {
                    Ok(()) => eprintln!("[explain {bench} done in {:?} -> {path}]", t0.elapsed()),
                    Err(e) => die(&format!("cannot write {path}: {e}")),
                }
                cache_line(&rep);
            }
            None => die(&format!("unknown benchmark '{bench}' (suite: vpenta lu stencil adi erlebacher swm256 tomcatv)")),
        }
        if targets.is_empty() {
            return;
        }
    }

    // `native [bench]`: the three-way differential oracle's third leg,
    // standalone — Table 1's strategy cells, each with a native leg of
    // `--reps` jittered runs. Exits non-zero on any divergence (after
    // dumping a minimized repro).
    if let Some(k) = targets.iter().position(|t| t == "native") {
        targets.remove(k);
        let bench = if k < targets.len() { Some(targets.remove(k)) } else { None };
        // The backend spawns one OS thread per simulated processor;
        // default to a modest count unless --procs asked for more.
        let native_procs: Vec<usize> = if procs.as_slice() == PAPER_PROCS {
            vec![8]
        } else {
            procs.clone()
        };
        let dir = out_dir.clone().unwrap_or_else(|| "results".to_string());
        let t0 = Instant::now();
        let cfg = SweepConfig { only: bench.map(|b| vec![b]), ..cfg.clone() };
        let (text, rep) = dct_bench::native_sweep(&cfg, &native_procs, reps, Path::new(&dir), budget);
        print!("{text}");
        cache_line(&rep);
        eprintln!("[native done in {:?}]", t0.elapsed());
        if rep.cells.iter().any(|c| c.cycles().is_err()) {
            std::process::exit(1);
        }
        if targets.is_empty() {
            return;
        }
    }

    // `chaos [bench]`: the fault-injection oracle. Exits non-zero unless
    // the chaos sweep converges bit-identical to the fault-free sweep.
    if let Some(k) = targets.iter().position(|t| t == "chaos") {
        targets.remove(k);
        let bench = if k < targets.len() { Some(targets.remove(k)) } else { None };
        let mut ccfg = dct_bench::ChaosConfig::new(
            seed,
            faults,
            out_dir.clone().unwrap_or_else(|| "results/chaos".to_string()),
        );
        ccfg.scale = scale;
        // Chaos reruns the sweep several times; default to a modest
        // processor count unless --procs asked for more.
        ccfg.procs = if procs.as_slice() == PAPER_PROCS {
            8
        } else {
            max_procs
        };
        ccfg.only = bench.map(|b| vec![b]);
        ccfg.race_check = true;
        ccfg.native_check = native;
        let t0 = Instant::now();
        match dct_bench::run_chaos(&ccfg) {
            Ok(rep) => {
                print!("{}", dct_bench::render_chaos(&rep));
                eprintln!("[chaos done in {:?}]", t0.elapsed());
                if !rep.identical() {
                    std::process::exit(1);
                }
            }
            Err(e) => die(&format!("chaos run failed: {e}")),
        }
        if targets.is_empty() {
            return;
        }
    }

    for t in &targets {
        let t0 = Instant::now();
        match t.as_str() {
            "fig2" => print_fig2(),
            "fig3" => print_fig3(),
            "table1" => {
                // One cell run serves the table and, with --race-check, the
                // certificate: detection never changes cycles.
                let cfg = SweepConfig { race_check, ..cfg.clone() };
                let suite = sweep::sweep_suite(&cfg);
                let rep = sweep::run_cells(&cfg, &sweep::table1_tasks(&suite, max_procs), budget);
                let rows = harness::table1_rows(&suite, &rep.cells);
                println!("{}", harness::render_table1(&rows, max_procs));
                cache_line(&rep);
                if race_check {
                    certify(&harness::race_cells(&rep.cells));
                }
            }
            "ablations" => {
                let (ablations, rep) = dct_bench::all_ablations(&cfg, budget);
                for a in ablations {
                    println!("{}", a.render());
                }
                cache_line(&rep);
            }
            fig => match harness::figure(fig, scale) {
                Some(spec) => {
                    let (result, rep) = harness::run_figure(&spec, &procs, &cfg, budget);
                    match result {
                        Ok(r) => println!("{}", r.render()),
                        Err(e) => eprintln!("{fig} failed: {e}"),
                    }
                    cache_line(&rep);
                }
                None => die(&format!("unknown target '{fig}'")),
            },
        }
        eprintln!("[{t} done in {:?}]", t0.elapsed());
    }
}

/// Refuse, before anything runs, a target that is not a figure, a table or
/// a command, and a word after `explain`, `native` or `chaos` that is not
/// a suite benchmark (a typo would otherwise check nothing and pass).
fn check_targets(targets: &[String]) {
    let suite: Vec<&str> = dct_bench::programs::suite(1.0).iter().map(|b| b.name).collect();
    let mut k = 0;
    while k < targets.len() {
        let t = targets[k].as_str();
        if matches!(t, "explain" | "native" | "chaos") {
            if let Some(b) = targets.get(k + 1).filter(|b| !suite.contains(&b.as_str())) {
                die(&format!("unknown benchmark '{b}' after '{t}' (suite: {})", suite.join(" ")));
            }
            k += 2;
            continue;
        }
        let known = matches!(t, "all" | "serve" | "fig2" | "fig3" | "table1" | "ablations")
            || ALL_FIGURES.contains(&t);
        if !known {
            die(&format!(
                "unknown target '{t}' (targets: all fig2 fig3 {} table1 ablations explain native chaos serve)",
                ALL_FIGURES.join(" ")
            ));
        }
        k += 1;
    }
}

/// Figure 2: strip-mine (b=8) + transpose of a 32-element array.
fn print_fig2() {
    println!("# fig2 — strip-mining and permutation of a 32-element array");
    let mut l = DataLayout::identity(&[32]);
    l.strip_mine(0, 8);
    println!("(b) strip-mined (8 x 4): index map");
    let mut strip_only = DataLayout::identity(&[32]);
    strip_only.strip_mine(0, 8);
    print!("{}", diagram::render_1d(&strip_only));
    l.permute(&[1, 0]);
    println!("(c) transposed (4 x 8): every 8th element contiguous");
    print!("{}", diagram::render_1d(&l));
}

/// Figure 3: (BLOCK,*), (CYCLIC,*), (BLOCK-CYCLIC(2),*) of an 8x4 array, P=2.
fn print_fig3() {
    use dct_decomp::{ArrayDist, DataDecomp, Folding};
    use dct_layout::synthesize_array_layout;
    println!("# fig3 — restructuring an 8x4 array for P=2");
    let dd = DataDecomp { dists: vec![ArrayDist { dim: 0, proc_dim: 0 }], replicated: false };
    for (label, f) in [
        ("(BLOCK, *)", Folding::Block),
        ("(CYCLIC, *)", Folding::Cyclic),
        ("(BLOCK-CYCLIC(2), *)", Folding::BlockCyclic { block: 2 }),
    ] {
        let al = synthesize_array_layout(&[8, 4], &dd, &[f], &[2], true);
        println!("{label}: new dims {:?}", al.layout.final_dims());
        print!("{}", diagram::render_2d(&al.layout));
        println!();
    }
}

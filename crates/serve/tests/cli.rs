//! The `repro` command line: `--procs` reaches the plain `table1` path,
//! sizes out of range, unknown options, targets and benchmark names are
//! refused before anything runs, cached tables, figures and ablations
//! rerun warm without executing a cell, and the race check, `explain`,
//! the native check and the chaos oracle run end to end.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh directory, removed on drop; cached runs use it as their working
/// directory, so the default `results/` checkpoint directory lands in it.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let d = std::env::temp_dir().join(format!(
            "dct-cli-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("scratch directory");
        Scratch(d)
    }

    /// Run `repro` in this directory; it must succeed.
    fn repro(&self, args: &[&str]) -> (String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "{args:?}: {stderr}");
        (String::from_utf8_lossy(&out.stdout).to_string(), stderr)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(file name, inode, mtime ns)` of every file in `dir`.
fn stamps(dir: &Path) -> Vec<(String, u64, i64)> {
    use std::os::unix::fs::MetadataExt;
    let mut stamps: Vec<_> = std::fs::read_dir(dir)
        .expect("checkpoint directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_file())
        .map(|p| {
            let md = std::fs::metadata(&p).expect("file metadata");
            let name = p.file_name().expect("file name").to_string_lossy().to_string();
            (name, md.ino(), md.mtime() * 1_000_000_000 + md.mtime_nsec())
        })
        .collect();
    stamps.sort();
    stamps
}

#[test]
fn table1_honours_procs_on_the_plain_path() {
    let out = repro(&["table1", "--scale", "0.05", "--procs", "4,8"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Table 1: summary at 8 processors"), "{stdout}");
}

#[test]
fn out_of_range_sizes_are_refused() {
    for args in [
        ["table1", "--procs", "65"],
        ["table1", "--procs", "0"],
        ["table1", "--scale", "nan"],
        ["table1", "--scale", "inf"],
        ["table1", "--scale", "0"],
        ["table1", "--scale", "-1"],
        ["table1", "--max-wall", "nan"],
        ["table1", "--max-wall", "-1"],
        ["table1", "--max-wall", "inf"],
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn unknown_options_and_targets_are_refused() {
    let refused: [&[&str]; 8] = [
        &["fig8", "--no-kernels"],
        &["table1", "--frobnicate"],
        &["table1", "--proc", "8"],
        &["fgi8"],
        &["native", "nonesuch"],
        &["chaos", "nonesuch"],
        &["explain", "nonesuch"],
        &["chaos", "table1", "--scale", "0.05"],
    ];
    for args in refused {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: unknown "), "{args:?}: {stderr}");
    }
}

/// A figure's cells go through the store: a second run against the same
/// store executes none of its seven cells and prints the same bytes.
#[test]
fn cached_figure_reruns_warm() {
    let dir = Scratch::new();
    let args = ["fig8", "--scale", "0.05", "--procs", "2,4", "--cache", "--cache-dir", "cache"];
    let (cold, err) = dir.repro(&args);
    assert!(err.contains("cells executed 7 served 0"), "{err}");
    let (warm, err) = dir.repro(&args);
    assert!(err.contains("cells executed 0 served 7"), "{err}");
    assert_eq!(warm, cold, "a warm figure must print the cold one's bytes");
}

/// `table1 --race-check` runs the table's cells once with the detector on
/// and prints the table and the certificate from them.
#[test]
fn table1_race_check_prints_table_and_certificate() {
    let dir = Scratch::new();
    let (out, _) = dir.repro(&["table1", "--race-check", "--scale", "0.05", "--procs", "4"]);
    assert!(out.starts_with("Table 1: summary at 4 processors"), "{out}");
    assert!(out.contains("Race check: every benchmark x strategy at 4 processors"), "{out}");
    assert!(out.contains("all schedules certified race-free"), "{out}");
}

/// The cached table's acceptance bar: a second run against the same
/// store executes nothing and prints the same bytes, and a third run into
/// the checkpoint directory the second one filled finds every checkpoint
/// current and touches none of them.
#[test]
fn cached_table1_reruns_warm_and_leaves_current_checkpoints_alone() {
    let dir = Scratch::new();
    let run = |out: &str| {
        dir.repro(&[
            "table1", "--scale", "0.1", "--procs", "8", "--cache", "--cache-dir", "cache", "--out",
            out,
        ])
    };
    let (cold, err) = run("ckpt1");
    assert!(err.contains("cells executed 28 served 0"), "cold run must execute all 28 cells: {err}");
    let (warm, err) = run("ckpt2");
    assert!(err.contains("cells executed 0 served 28"), "warm run must serve all 28 cells: {err}");
    assert_eq!(warm, cold, "a warm table must print the cold one's bytes");
    let before = stamps(&dir.0.join("ckpt2"));
    assert_eq!(before.len(), 28);
    let (again, err) = run("ckpt2");
    assert!(err.contains("cells executed 0 served 28 checkpoints current 28"), "{err}");
    assert_eq!(again, cold);
    assert_eq!(stamps(&dir.0.join("ckpt2")), before, "a current checkpoint was touched");
}

/// The ablations run at `--procs` and through the store: their four plain
/// cells are Table 1's, served from the table's run, and a second run
/// executes none of the eleven and prints the same bytes.
#[test]
fn cached_ablations_rerun_warm() {
    let dir = Scratch::new();
    let args = ["table1", "ablations", "--scale", "0.05", "--procs", "4", "--cache", "--cache-dir", "cache"];
    let (cold, err) = dir.repro(&args);
    assert!(err.contains("cells executed 7 served 4"), "{err}");
    let (warm, err) = dir.repro(&args);
    assert!(err.contains("cells executed 0 served 11"), "{err}");
    assert_eq!(warm, cold, "warm ablations must print the cold ones' bytes");
}

/// The native check runs every benchmark x strategy on real threads, calm
/// and under jitter, bit-identical to the simulator.
#[test]
fn native_matches_the_simulator_on_every_cell() {
    let dir = Scratch::new();
    let (out, _) = dir.repro(&["native", "--scale", "0.1", "--procs", "8", "--reps", "4"]);
    assert!(out.contains("native: all 21 cells bit-identical to the simulator"), "{out}");
}

/// `repro native` runs Table 1's strategy cells: after a cached table the
/// native check simulates nothing, serves all 21 cells and still runs
/// their native legs, and a second native run prints the same bytes.
#[test]
fn native_reuses_table1_cells() {
    let dir = Scratch::new();
    dir.repro(&["table1", "--scale", "0.1", "--procs", "8", "--cache", "--cache-dir", "cache"]);
    let args = ["native", "--scale", "0.1", "--procs", "8", "--reps", "2", "--cache", "--cache-dir", "cache"];
    let (first, err) = dir.repro(&args);
    assert!(err.contains("cells executed 0 served 21"), "{err}");
    assert!(first.contains("native: all 21 cells bit-identical to the simulator"), "{first}");
    let (second, err) = dir.repro(&args);
    assert!(err.contains("cells executed 0 served 21"), "{err}");
    assert_eq!(second, first, "a native run must print the same bytes twice");
}

/// The chaos oracle: a sweep under seeded injected faults converges
/// bit-identical to a fault-free sweep, and the seed fires enough faults
/// to mean something.
#[test]
fn chaos_converges_bit_identical() {
    let dir = Scratch::new();
    let (out, _) =
        dir.repro(&["chaos", "stencil", "--scale", "0.1", "--seed", "42", "--faults", "6", "--out", "chaos"]);
    assert!(out.contains("BIT-IDENTICAL"), "{out}");
    let fired = out.lines().filter(|l| l.starts_with("  fired")).count();
    assert!(fired >= 3, "only {fired} fault(s) fired: {out}");
}

/// Schedule soundness end to end: every benchmark x strategy is certified
/// race-free by the happens-before detector.
#[test]
fn race_check_certifies_every_schedule() {
    let dir = Scratch::new();
    let (out, _) = dir.repro(&["--race-check", "--scale", "0.1", "--procs", "8"]);
    assert!(out.contains("all schedules certified race-free"), "{out}");
}

/// `explain` runs every strategy with the profiler on, renders the
/// ranked attribution table and writes the JSON artifact, in which all
/// three profiled runs replay their repeating time steps.
#[test]
fn explain_stencil_reports_and_replays() {
    let dir = Scratch::new();
    let (out, _) = dir.repro(&["explain", "stencil", "--scale", "0.1", "--procs", "32"]);
    for needle in ["why is this slow", "diagnosis:", "false-sh"] {
        assert!(out.contains(needle), "explain output missing '{needle}': {out}");
    }
    let json = std::fs::read_to_string(dir.0.join("results/explain_stencil.json")).expect("explain JSON written");
    assert_eq!(json.matches("\"memo\": \"Replayed\"").count(), 3, "{json}");
}

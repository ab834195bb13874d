//! The `repro` command line: `--procs` reaches `table1`, sizes out of
//! range, unknown options, targets and benchmark names are refused before
//! anything runs, `table1` prints one table under every flag, cached
//! tables, figures, ablations and `explain` rerun warm without executing a
//! cell, a budget is part of a cell's key, and the race check, `explain`,
//! the native check, the chaos oracle, the paper-scale table smoke and the
//! `repro serve` service run end to end.

use dct_bench::sweep::json_num;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh directory, removed on drop; runs use it as their working
/// directory, so the default `results/` output directory lands in it.
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

/// `(path, inode, mtime ns)` of every file under `dir`, recursively: a
/// rewrite goes through a rename, so it shows as a new inode.
fn file_stamps(dir: &Path) -> Vec<(PathBuf, u64, i64)> {
    use std::os::unix::fs::MetadataExt;
    let mut stamps = Vec::new();
    for e in std::fs::read_dir(dir).expect("directory") {
        let p = e.expect("directory entry").path();
        if p.is_dir() {
            stamps.extend(file_stamps(&p));
        } else {
            let md = std::fs::metadata(&p).expect("file metadata");
            stamps.push((p, md.ino(), md.mtime() * 1_000_000_000 + md.mtime_nsec()));
        }
    }
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

/// `table1` prints Table 1 under every flag: cold and warm against a
/// store, and under a wall budget, its stdout is the plain run's, and the
/// warm run executes nothing.
#[test]
fn cached_table1_reruns_warm_and_prints_the_plain_table() {
    let dir = Scratch::new();
    let args = ["table1", "--scale", "0.1", "--procs", "8"];
    let (plain, _) = dir.repro(&args);
    assert!(plain.starts_with("Table 1: summary at 8 processors"), "{plain}");
    let cached = [&args[..], &["--cache", "--cache-dir", "cache"]].concat();
    let (cold, err) = dir.repro(&cached);
    assert!(err.contains("cells executed 28 served 0]"), "cold run must execute all 28 cells: {err}");
    assert_eq!(cold, plain, "a cached table must print the plain one's bytes");
    let before = file_stamps(&dir.0.join("cache"));
    let (warm, err) = dir.repro(&cached);
    assert!(err.contains("cells executed 0 served 28]"), "warm run must serve all 28 cells: {err}");
    assert_eq!(warm, plain, "a warm table must print the plain one's bytes");
    assert_eq!(file_stamps(&dir.0.join("cache")), before, "a warm run touched a store file");
    let (budgeted, _) = dir.repro(&[&args[..], &["--max-wall", "600"]].concat());
    assert_eq!(budgeted, plain, "a budget that bounds nothing must not change the table");
}

/// A budget is part of a cell's key: a run whose every cell times out,
/// then the same run without the budget against the same store, prints
/// the plain table with no `timeout` or `fail` (a resume keyed by cell
/// identity used to print the timed-out table again).
#[test]
fn budget_change_misses_the_store() {
    let dir = Scratch::new();
    let args = ["table1", "--scale", "0.05", "--procs", "4", "--cache", "--cache-dir", "cache"];
    let (timed_out, _) = dir.repro(&[&args[..], &["--max-cycles", "1000"]].concat());
    assert!(timed_out.contains("! seq: over its budget (timeout)"), "{timed_out}");
    let (free, err) = dir.repro(&args);
    assert!(err.contains("cells executed 28 served 0]"), "a budget change must miss: {err}");
    assert!(!free.contains("timeout") && !free.contains("fail"), "{free}");
    let (plain, _) = dir.repro(&args[..5]);
    assert_eq!(free, plain);
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

/// `explain --cache` stores its three strategy cells, profiles included:
/// a warm rerun executes nothing and prints the cold run's bytes, and
/// writes the cold run's JSON with each cell's host members (how that run
/// went on this host) as `"served"`. The store holds cells only.
#[test]
fn cached_explain_reruns_warm() {
    let dir = Scratch::new();
    let args = ["explain", "stencil", "--scale", "0.1", "--procs", "32", "--cache"];
    let json = || std::fs::read(dir.0.join("results/explain_stencil.json")).expect("explain JSON written");
    let (cold, cold_err) = dir.repro(&args);
    assert!(cold_err.contains("cells executed 3 served 0"), "{cold_err}");
    let cold_json = json();
    let (warm, warm_err) = dir.repro(&args);
    assert!(warm_err.contains("cells executed 0 served 3"), "{warm_err}");
    assert_eq!(warm, cold, "warm explain stdout differs");
    let cold_json = String::from_utf8(cold_json).expect("UTF-8 JSON");
    let served: Vec<String> = cold_json
        .lines()
        .map(|l| match (l.find("\"memo\": "), l.find(", \"profile\": ")) {
            (Some(a), Some(b)) => format!("{}{}{}", &l[..a], dct_bench::sweep::served_host_members(), &l[b..]),
            _ => l.to_string(),
        })
        .collect();
    assert!(served.iter().filter(|l| l.contains("\"served\"")).count() == 3, "{cold_json}");
    let warm_json = String::from_utf8(json()).expect("UTF-8 JSON");
    assert_eq!(warm_json, served.join("\n") + "\n", "warm explain JSON differs");
    let entries: Vec<_> = file_stamps(&dir.0.join("results/cache")).into_iter().map(|(p, ..)| p).collect();
    assert_eq!(entries.len(), 3, "{entries:?}");
    for p in entries {
        let text = std::fs::read_to_string(&p).expect("store entry");
        assert!(text.contains("\"cell\":") && !text.contains("\"artifact\""), "{}: {text}", p.display());
    }
}

/// The paper-scale table's smoke: `repro table1 --scale 0.25` prints a
/// row for every benchmark, none failed, well inside 120 s (about 2 s on
/// one core; blowing the bound is a serious regression, not noise).
#[test]
fn table1_quarter_scale_smoke_within_budget() {
    let dir = Scratch::new();
    let start = Instant::now();
    let (out, _) = dir.repro(&["table1", "--scale", "0.25"]);
    let elapsed = start.elapsed();
    for bench in ["vpenta", "lu", "stencil", "adi", "erlebacher", "swm256", "tomcatv"] {
        let row = out.lines().find(|l| l.starts_with(bench)).unwrap_or_else(|| panic!("no {bench} row: {out}"));
        assert!(!row.contains("fail"), "{row}");
    }
    assert!(elapsed < Duration::from_secs(120), "table1 --scale 0.25 took {elapsed:?} > 120 s");
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let status = resp.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    (status, resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

/// A `repro serve` child process, killed on drop if it is still running.
struct Service(Child);

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Submit `body`, poll the job to completion, and return its table.
fn served_table(port: u16, body: &str) -> String {
    let (status, resp) = http(port, "POST", "/api/sweep", body);
    assert_eq!(status, 200, "submit: {resp}");
    let job = json_num(&resp, "job").expect("job id");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !http(port, "GET", &format!("/api/job/{job}"), "").1.contains("\"state\":\"done\"") {
        assert!(Instant::now() < deadline, "job {job} never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (status, table) = http(port, "GET", &format!("/api/job/{job}/table"), "");
    assert_eq!(status, 200, "{table}");
    table
}

/// `repro serve` end to end: the served table is what `repro table1`
/// prints for the same sizes, a warm resubmit compiles for no key,
/// executes nothing, inserts nothing and touches no store file, and
/// `/api/shutdown` drains the service, which exits cleanly.
#[test]
fn serve_table_matches_table1_and_warm_resubmit_writes_nothing() {
    let dir = Scratch::new();
    let mut service = Service(
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--port", "0", "--cache-dir", "cache", "--workers", "2"])
            .current_dir(&dir.0)
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(dir.0.join("serve.err")).expect("stderr log"))
            .spawn()
            .expect("spawn repro serve"),
    );
    let mut line = String::new();
    BufReader::new(service.0.stdout.take().expect("stdout")).read_line(&mut line).expect("port line");
    let port: u16 = line.trim().rsplit(':').next().and_then(|p| p.parse().ok()).unwrap_or_else(|| panic!("{line}"));

    let body = "{\"scale_milli\":100,\"procs\":8}";
    let table = served_table(port, body);
    let (direct, _) = dir.repro(&["table1", "--scale", "0.1", "--procs", "8"]);
    assert_eq!(direct, format!("{table}\n"), "the served table is not what repro table1 prints");

    let counters = || {
        let (_, stats) = http(port, "GET", "/api/stats", "");
        ["keys_derived", "executed", "inserts"]
            .map(|k| json_num(&stats, k).unwrap_or_else(|| panic!("{k} missing: {stats}")))
    };
    let (cold, before) = (counters(), file_stamps(&dir.0.join("cache")));
    assert_eq!(cold[1..], [28, 28], "the cold job executes and stores every cell");
    assert_eq!(served_table(port, body), table, "a warm job served a different table");
    assert_eq!(counters(), cold, "a warm job compiled for a key, executed or inserted");
    assert_eq!(file_stamps(&dir.0.join("cache")), before, "a warm job touched a store file");

    assert_eq!(http(port, "POST", "/api/shutdown", "").0, 200);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = service.0.try_wait().expect("wait on serve") {
            break status;
        }
        assert!(Instant::now() < deadline, "serve did not exit within 10 s of /api/shutdown");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "{status}");
    let stderr = std::fs::read_to_string(dir.0.join("serve.err")).expect("serve stderr");
    assert!(stderr.contains("shut down cleanly"), "{stderr}");
}
